"""ID-level execution of compiled join plans over a :class:`ColumnarStore`.

:func:`iterate_columnar` is the columnar twin of
``repro.homomorphisms.search._match`` and
:func:`execute_plan_columnar` of
:func:`repro.homomorphisms.plans.execute_plan`: the same plans, the
same control flow, the same candidate order — but every probe, check
and binding works on dense integer value IDs read straight out of the
per-position columns.  Elements are decoded only when an assignment is
yielded.

Determinism and counter contract
--------------------------------

The stream is byte-identical to the object path's: candidate row IDs
come pre-sorted by the interned elements' canonical sort keys (see
:meth:`ColumnarStore.sorted_bucket`), bucket sizes equal the object
backend's bucket sizes (so the smallest-bucket choice agrees), and the
yielded dicts insert keys in the same ``partial``-then-``bind_order``
sequence.  The shared counters — ``hom.matches``, ``hom.backtracks``,
``hom.index_probes``, ``hom.forward_prunes`` and the
``hom.probe_fanout`` histogram — are incremented at exactly the
control-flow points of the object executor, so cross-backend counter
parity is asserted, not approximated.  ``columnar.row_probes``
additionally counts every row ID the executor enumerates from a
candidate pool.

Elements that occur in ``partial`` (or as plan constants) but were
never interned cannot occur in any stored fact; they are mapped to
store-wide stable negative sentinel IDs (see
:meth:`ColumnarStore.vid_of`) so equality checks and probes behave
exactly as the object path's (distinct unknown elements stay distinct,
repeated ones compare equal — across executions, which lets plan
translations be memoized on the store).

When NumPy is available and a candidate pool is large, the per-row
check-list is evaluated as a vectorized mask over the columns instead
of per-row Python comparisons (the optional fast path; results and
counters are identical).
"""

from __future__ import annotations

from types import ModuleType
from typing import Any, Iterator, Mapping, Sequence, cast

from ..homomorphisms.plans import (
    _CHECK_CONST,
    _CHECK_SLOT,
    ORDERINGS,
    PLAN_CACHE,
    JoinPlan,
    _signature_parts,
)
from ..stats.cost import MISPREDICT_FACTOR
from ..lang.atoms import Atom
from ..lang.terms import Const, Var
from ..telemetry import TELEMETRY
from .store import ColumnarStore

try:  # pragma: no cover - exercised via either branch depending on env
    import numpy

    _np: ModuleType | None = numpy
except ImportError:  # pragma: no cover
    _np = None

__all__ = ["iterate_columnar", "execute_plan_columnar"]

# Below this pool size the per-row Python loop beats mask setup costs.
_NUMPY_MIN_ROWS = 64


def iterate_columnar(
    atoms: Sequence[Atom],
    kernel: ColumnarStore,
    assignment: dict[Var, object],
    injective: bool,
    order: str = "static",
) -> Iterator[dict[Var, object]]:
    """Compile (or fetch) the conjunction's plan and execute it at ID
    level — the columnar twin of the compiled dispatch path."""
    # Fully-bound fast path: mirrors the object path's per-atom
    # membership tests (and its counters) with row-key dict probes.
    ground: list[tuple[object, ...]] | None = []
    for atom in atoms:
        resolved: list[object] = []
        for arg in atom.args:
            if isinstance(arg, Const):
                resolved.append(arg)
            else:
                value = assignment.get(arg)
                if value is None:
                    ground = None
                    break
                resolved.append(value)
        if ground is None:
            break
        ground.append(tuple(resolved))
    if ground is not None:
        for atom, tup in zip(atoms, ground):
            if not kernel.has(atom.relation, tup):
                return
            if TELEMETRY.enabled:
                TELEMETRY.count("hom.backtracks")
        if TELEMETRY.enabled:
            TELEMETRY.count("hom.matches")
        yield dict(assignment)
        return

    sizes = [kernel.row_count(atom.relation) for atom in atoms]
    if 0 in sizes:
        if TELEMETRY.enabled:
            TELEMETRY.count("hom.forward_prunes")
        return
    key, slot_vars, slot_index = _signature_parts(atoms, assignment, sizes)
    estimates: tuple[int, ...] | None = None
    if order != "static":
        key, estimates = ORDERINGS[order].plan_key(key, kernel)
    plan = PLAN_CACHE.get(key)
    yield from execute_plan_columnar(
        plan, slot_vars, kernel, assignment, injective, slot_index, estimates
    )


def _check_mask(
    np_mod: ModuleType,
    columns: Sequence[Any],
    rows: tuple[int, ...],
    checks: Sequence[tuple[int, int, int]],
    values: list[int | None],
) -> Any:
    """Vectorized evaluation of a step's check-list over a row pool."""
    row_index = np_mod.fromiter(rows, dtype=np_mod.int64, count=len(rows))
    mask: Any = None
    for pos, kind, payload in checks:
        column = np_mod.frombuffer(columns[pos], dtype=np_mod.int64)
        got = column[row_index]
        if kind == _CHECK_CONST:
            current = got == payload
        elif kind == _CHECK_SLOT:
            bound = values[payload]
            current = got == bound
        else:
            other = np_mod.frombuffer(columns[payload], dtype=np_mod.int64)
            current = got == other[row_index]
        mask = current if mask is None else mask & current
    return mask


def execute_plan_columnar(
    plan: JoinPlan,
    slot_vars: Sequence[Var],
    kernel: ColumnarStore,
    partial: Mapping[Var, object],
    injective: bool,
    slot_index: Mapping[Var, int] | None = None,
    estimates: Sequence[int] | None = None,
) -> Iterator[dict[Var, object]]:
    """Run a compiled plan against a columnar store, yielding the
    object executor's exact assignment stream.

    ``estimates`` carries the adaptive cost model's expected per-step
    pool sizes (aligned with the plan's steps); observed pools more
    than :data:`~repro.stats.cost.MISPREDICT_FACTOR` above the
    estimate count one ``plan.mispredictions``."""
    steps = plan.steps
    vid_of = kernel.vid_of

    values: list[int | None] = [None] * plan.slot_count
    if slot_index is None:
        slot_index = {var: slot for slot, var in enumerate(slot_vars)}
    for var, value in partial.items():
        slot = slot_index.get(var)
        if slot is not None:
            values[slot] = vid_of(value)
    image: set[int] = (
        {vid_of(value) for value in partial.values()} if injective else set()
    )

    # The plan's object-level payloads translated to IDs — memoized on
    # the store per plan key, so repeat executions skip straight to the
    # probe loop.
    prelude, step_probes, step_checks = kernel.translated_plan(plan)

    # Prelude: same buckets the object path probes, at ID level.
    for relation, pos, payload, is_slot in prelude:
        if is_slot:
            seeded = values[payload]
            assert seeded is not None
            probe = seeded
        else:
            probe = payload
        if not kernel.bucket(relation, pos, probe):
            if TELEMETRY.enabled:
                TELEMETRY.count("hom.forward_prunes")
            return

    telemetry = TELEMETRY
    depth_count = len(steps)
    bind_order = plan.bind_order
    resolve = kernel.resolve
    np_mod = _np

    def search(depth: int) -> Iterator[dict[Var, object]]:
        if depth == depth_count:
            if telemetry.enabled:
                telemetry.count("hom.matches")
            result: dict[Var, object] = dict(partial)
            for slot in bind_order:
                vid = values[slot]
                assert vid is not None
                result[slot_vars[slot]] = resolve(vid)
            yield result
            return
        step = steps[depth]
        relation = step.relation
        if not step.binds:
            # Fully determined: one row-key membership probe.  Checks
            # cannot fail on the ground row (it is built from the same
            # slots the checks compare against), and fully-bound steps
            # bind nothing, so only the forward loop remains mirrored.
            ground_ids = tuple(
                cast(int, values[payload] if is_slot else payload)
                for (_pos, is_slot, payload) in step_probes[depth]
            )
            if kernel.has_ids(relation, ground_ids):
                pruned = False
                for fwd_relation, fwd_pos, fwd_slot in step.forward:
                    fwd_vid = values[fwd_slot]
                    assert fwd_vid is not None
                    if not kernel.bucket(fwd_relation, fwd_pos, fwd_vid):
                        pruned = True
                        if telemetry.enabled:
                            telemetry.count("hom.forward_prunes")
                        break
                if not pruned:
                    yield from search(depth + 1)
                if telemetry.enabled:
                    telemetry.count("hom.backtracks")
            return
        candidate_rows: tuple[int, ...]
        if step.probes:
            best_size = -1
            best_pos = -1
            best_vid = 0
            consulted = 0
            empty = False
            for pos, is_slot, payload in step_probes[depth]:
                if is_slot:
                    seeded = values[payload]
                    assert seeded is not None
                    probe = seeded
                else:
                    probe = payload
                bucket = kernel.bucket(relation, pos, probe)
                consulted += 1
                if not bucket:
                    empty = True
                    break
                if best_size < 0 or len(bucket) < best_size:
                    best_size = len(bucket)
                    best_pos = pos
                    best_vid = probe
            if telemetry.enabled and consulted:
                telemetry.count("hom.index_probes", consulted)
            if empty:
                candidate_rows = ()
            else:
                candidate_rows = kernel.sorted_bucket(relation, best_pos, best_vid)
        else:
            candidate_rows = kernel.sorted_rows(relation)
        if telemetry.enabled:
            pool = len(candidate_rows)
            telemetry.observe("hom.probe_fanout", pool)
            if candidate_rows:
                telemetry.count("columnar.row_probes", pool)
            if (
                estimates is not None
                and pool > estimates[depth] * MISPREDICT_FACTOR
            ):
                telemetry.count("plan.mispredictions")
        checks = step_checks[depth]
        binds = step.binds
        forward = step.forward
        columns = kernel.columns(relation)
        mask: Any = None
        if (
            np_mod is not None
            and checks
            and len(candidate_rows) >= _NUMPY_MIN_ROWS
        ):
            mask = _check_mask(np_mod, columns, candidate_rows, checks, values)
        for index, row in enumerate(candidate_rows):
            if mask is not None:
                ok = bool(mask[index])
            else:
                ok = True
                for pos, kind, payload in checks:
                    if kind == _CHECK_CONST:
                        if columns[pos][row] != payload:
                            ok = False
                            break
                    elif kind == _CHECK_SLOT:
                        if columns[pos][row] != values[payload]:
                            ok = False
                            break
                    elif columns[pos][row] != columns[payload][row]:
                        ok = False
                        break
            if ok:
                added: list[int] = []
                for pos, slot in binds:
                    vid = columns[pos][row]
                    if injective and vid in image:
                        ok = False
                        break
                    if injective:
                        image.add(vid)
                    values[slot] = vid
                    added.append(slot)
                if ok:
                    pruned = False
                    for fwd_relation, fwd_pos, fwd_slot in forward:
                        fwd_vid = values[fwd_slot]
                        assert fwd_vid is not None
                        if not kernel.bucket(fwd_relation, fwd_pos, fwd_vid):
                            pruned = True
                            if telemetry.enabled:
                                telemetry.count("hom.forward_prunes")
                            break
                    if not pruned:
                        yield from search(depth + 1)
                for slot in added:
                    if injective:
                        image.discard(cast(int, values[slot]))
                    values[slot] = None
            if telemetry.enabled:
                telemetry.count("hom.backtracks")

    try:
        yield from search(0)
    finally:
        # ``search`` refers to itself through its closure cell, a cycle
        # that would keep the target (a chase working state, with its
        # index and sorted views) alive until the next cyclic garbage
        # collection.
        del search
