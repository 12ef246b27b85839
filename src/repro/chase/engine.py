"""The chase procedure.

Given an instance and a set of tgds/egds, the chase repairs violations by
inserting facts with fresh labeled nulls (tgds) or merging elements
(egds), producing a *universal* model when it terminates: a model of Σ
containing the input that maps homomorphically into every such model.
This is the engine behind all entailment checks (Section 9.2 reduces
``Σ ⊨ σ`` to chasing a frozen body — Maier, Mendelzon, Sagiv).

Two variants:

* **restricted** (standard) — a trigger fires only if the head has no
  extension in the current instance;
* **oblivious** — every trigger fires exactly once, regardless.

Two evaluation strategies compute the same result:

* **seminaive** (default) — delta-driven: each round, a dependency's
  body is only matched against joins that touch at least one fact added
  since that dependency was last evaluated, so old triggers are never
  re-derived.  Egds take part in the same protocol: a merge rewrites
  only the facts that mention the dropped element and logs the new
  rewrites like any addition, and an egd or denial constraint is
  re-checked only after one of its body relations has logged a fact.
  The working state keeps a per-relation, per-position hash index that
  the homomorphism search probes directly.
* **naive** — re-enumerates every trigger of every dependency each
  round (the textbook fixpoint loop).  Kept forever as the reference
  implementation: ``tests/test_differential_chase.py`` cross-checks the
  two engines on randomized scenarios.

Both strategies fire the active triggers of a dependency in a canonical
deterministic order (sorted by the bindings of the universally
quantified variables), which makes the chase output — including the
numbering of invented nulls — a function of ``(instance, dependencies,
variant)`` alone, independent of the evaluation strategy.  That is what
lets the differential harness assert *equality*, not just isomorphism.

General tgd sets need not terminate; the engine takes round/fact budgets
and reports whether it reached a fixpoint.  Use
:func:`repro.chase.termination.is_weakly_acyclic` for a static
termination guarantee.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from types import ModuleType
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Union,
)

try:  # pragma: no cover - platform dependent
    import resource as _resource_module

    _resource: ModuleType | None = _resource_module
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

from ..dependencies.denial import DenialConstraint
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..homomorphisms.plans import DEFAULT_ORDER, ORDER_MODES
from ..homomorphisms.search import all_extensions_of, find_extension, satisfies_atoms
from ..instances.instance import BACKENDS, DEFAULT_BACKEND, Instance
from ..lang.atoms import Atom
from ..lang.schema import Relation, Schema
from ..lang.terms import Const, FreshNulls, Null, Var, element_sort_key
from ..stats.relation import RelationStats, StatsAccumulator
from ..telemetry import TELEMETRY, MetricsProbe, span

if TYPE_CHECKING:  # pragma: no cover
    from ..columnar.state import ColumnarState
    from ..telemetry.report import RunReport

__all__ = [
    "ChaseResult", "ChaseError", "ChaseMonitorStop", "StopReason",
    "chase", "Inventor", "Observer", "STRATEGIES",
]

Dependency = Union[TGD, EGD, DenialConstraint]

STRATEGIES = ("seminaive", "naive")

# A pluggable term inventor: called once per existential variable of a
# firing trigger with (tgd, variable, assignment-so-far) and returns the
# domain element to substitute.  The default (None) invents fresh
# labeled nulls; repro.analysis.semantic plugs in Skolem-term builders
# whose cycle monitors abort the run by raising ChaseMonitorStop.
Inventor = Callable[[TGD, Var, Mapping[Var, object]], object]

# A firing observer: called once per fired tgd trigger, after the head
# image is added, with (tgd, full assignment) — the universal bindings
# plus the invented witnesses.  It only listens; repro.chase.provenance
# builds its firing log on it.
Observer = Callable[[TGD, Mapping[Var, object]], None]


class ChaseError(ValueError):
    """Raised on invalid chase configuration."""


class ChaseMonitorStop(Exception):
    """Raised by an :data:`Inventor` to abort the chase.

    The engine converts it into a clean non-terminated result with
    ``stop_reason == StopReason.MONITOR`` — the seam the chase-based
    acyclicity analyses (MSA/MFA) use to stop as soon as their cycle
    monitor finds a Skolem function nested inside itself.
    """


class StopReason:
    """Why a chase run stopped (``ChaseResult.stop_reason``)."""

    FIXPOINT = "fixpoint"
    ROUND_BUDGET = "round_budget"
    FACT_BUDGET = "fact_budget"
    MEMORY = "memory_budget"
    EGD_FAILURE = "egd_failure"
    DENIAL_VIOLATION = "denial_violation"
    MONITOR = "monitor"

    ALL = (FIXPOINT, ROUND_BUDGET, FACT_BUDGET, MEMORY, EGD_FAILURE,
           DENIAL_VIOLATION, MONITOR)


@dataclass(frozen=True)
class ChaseResult:
    """The outcome of a chase run.

    ``terminated`` — a fixpoint was reached within the budget.
    ``failed`` — an egd required two distinct constants to be equal, or
    a denial constraint fired.  When ``failed`` is true, ``instance`` is
    the state at failure time.

    ``stop_reason`` makes the cause explicit (the bare flags cannot
    separate "round budget" from "fact budget", nor an egd clash from a
    denial violation): one of :class:`StopReason`'s values.

    ``metrics`` is the counter delta observed during this run when
    telemetry was enabled (``{}`` otherwise) — e.g.
    ``{"chase.triggers_fired": 12, "hom.backtracks": 90}``.

    ``config`` records the effective run configuration (variant,
    strategy, atom order, backend, certificate mode, budgets) — what
    :meth:`run_report` freezes into the ``RunReport`` artifact.
    """

    instance: Instance
    terminated: bool
    failed: bool
    rounds: int
    fired: int
    nulls_created: int
    stop_reason: str = ""
    metrics: Mapping[str, int] = field(default_factory=dict, compare=False)
    config: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.stop_reason:
            # Best-effort inference for constructions that predate
            # stop_reason; budget kinds are not distinguishable here.
            if self.failed:
                inferred = StopReason.EGD_FAILURE
            elif self.terminated:
                inferred = StopReason.FIXPOINT
            else:
                inferred = StopReason.ROUND_BUDGET
            object.__setattr__(self, "stop_reason", inferred)

    @property
    def successful(self) -> bool:
        return self.terminated and not self.failed

    def run_report(self) -> "RunReport":
        """The schema-versioned observability artifact for this run:
        the recorded configuration plus this run's counter delta and
        the process-wide histogram state (see
        :mod:`repro.telemetry.report`)."""
        from ..telemetry.report import RunReport, build_run_report

        report: RunReport = build_run_report(
            "chase", self.config, counters=self.metrics
        )
        return report


class _State:
    """Mutable chase working state with an incremental positional index.

    Exposes the same probe interface as :class:`Instance`
    (``tuples`` / ``tuples_with``), so the homomorphism search runs
    directly against the live state — no snapshot copies on the hot
    path.

    Semi-naive bookkeeping: every genuinely new fact is appended to
    ``log``, and ``log_marks`` maps each relation to the log length
    just after its latest entry.  Per-dependency cursors into the log
    define the delta each dependency still has to see.  An egd merge
    rewrites only the facts that mention the dropped element: they
    leave their relation (their log entries go stale and sweeps skip
    them), and the rewritten facts that are new are appended to the log
    like any other addition, so every cursor's delta stays valid.

    ``log_input`` also logs the input facts, in canonical order, for a
    chunked first sweep to slice; an unchunked first sweep is one full
    join and never reads them, so by default they are not logged.
    """

    def __init__(
        self, instance: Instance, schema: Schema, log_input: bool = False
    ) -> None:
        self.schema = schema
        self.domain: set[object] = set(instance.domain)
        self.relations: dict[Relation, set[tuple[object, ...]]] = {
            rel: set(
                instance.tuples(rel.name)
                if rel.name in instance.schema
                else ()
            )
            for rel in schema
        }
        self.epoch = 0
        self.log: list[tuple[Relation, tuple[object, ...]]] = []
        self.log_marks: dict[Relation, int] = {}
        self._index: dict[Relation, dict[tuple[int, object], set[tuple[object, ...]]]] = {
            rel: {} for rel in self.relations
        }
        self._sorted: dict[object, tuple[int, tuple[tuple[object, ...], ...]]] = {}
        self._stats: dict[Relation, StatsAccumulator] = {}
        # Relations whose max_bucket may overstate after a merge shrank
        # a bucket; recomputed when the statistics are next read.
        self._stale_max: set[Relation] = set()
        for rel, tuples in self.relations.items():
            buckets = self._index[rel]
            self._stats[rel] = stats = StatsAccumulator(rel.arity)
            stats.rows = len(tuples)
            for tup in tuples:
                for pos, elem in enumerate(tup):
                    bucket = buckets.get((pos, elem))
                    if bucket is None:
                        buckets[pos, elem] = {tup}
                        stats.distinct[pos] += 1
                        if not stats.max_bucket[pos]:
                            stats.max_bucket[pos] = 1
                    else:
                        bucket.add(tup)
                        if len(bucket) > stats.max_bucket[pos]:
                            stats.max_bucket[pos] = len(bucket)
            if log_input and tuples:
                self.log.extend(
                    (rel, tup) for tup in sorted(tuples, key=element_sort_key)
                )
                self.log_marks[rel] = len(self.log)

    # -- Instance-compatible probe interface ---------------------------

    def tuples(self, relation: Relation) -> set:
        return self.relations[relation]

    def tuples_with(
        self, relation: Relation, position: int, element: object
    ) -> set:
        bucket = self._index[relation].get((position, element))
        return bucket if bucket is not None else _EMPTY_SET

    def relation_stats(self, relation: Relation) -> RelationStats:
        """An O(arity) snapshot of the incrementally maintained
        statistics — the adaptive ordering strategy's stats hook."""
        stats = self._stats[relation]
        if relation in self._stale_max:
            self._stale_max.discard(relation)
            biggest = [0] * relation.arity
            for (pos, _elem), bucket in self._index[relation].items():
                if len(bucket) > biggest[pos]:
                    biggest[pos] = len(bucket)
            stats.max_bucket = biggest
        return stats.snapshot()

    # -- sorted views for the compiled join plans ----------------------
    #
    # The compiled search path enumerates candidates in the canonical
    # element_sort_key order.  Sorting a live set per recursion node
    # (what the reference interpreter does) would defeat the plan;
    # instead a sorted copy of each consulted bucket is cached and
    # invalidated by the mutation epoch, so enumeration between
    # mutations sorts each bucket at most once.

    def sorted_tuples(
        self, relation: Relation
    ) -> tuple[tuple[object, ...], ...]:
        entry = self._sorted.get(relation)
        if entry is None or entry[0] != self.epoch:
            data = tuple(
                sorted(self.relations[relation], key=element_sort_key)
            )
            self._sorted[relation] = (self.epoch, data)
            return data
        return entry[1]

    def sorted_tuples_with(
        self, relation: Relation, position: int, element: object
    ) -> tuple[tuple[object, ...], ...]:
        key = (relation, position, element)
        entry = self._sorted.get(key)
        if entry is None or entry[0] != self.epoch:
            data = tuple(
                sorted(
                    self.tuples_with(relation, position, element),
                    key=element_sort_key,
                )
            )
            self._sorted[key] = (self.epoch, data)
            return data
        return entry[1]

    # -- mutation ------------------------------------------------------

    def snapshot(self) -> Instance:
        return Instance(self.schema, self.domain, self.relations)

    def fact_count(self) -> int:
        return sum(len(tuples) for tuples in self.relations.values())

    def add(self, relation: Relation, tup: tuple) -> bool:
        self.domain.update(tup)
        tuples = self.relations[relation]
        if tup in tuples:
            return False
        tuples.add(tup)
        self.epoch += 1
        buckets = self._index[relation]
        stats = self._stats[relation]
        stats.rows += 1
        for pos, elem in enumerate(tup):
            bucket = buckets.get((pos, elem))
            if bucket is None:
                buckets[pos, elem] = {tup}
                stats.distinct[pos] += 1
                if not stats.max_bucket[pos]:
                    stats.max_bucket[pos] = 1
            else:
                bucket.add(tup)
                if len(bucket) > stats.max_bucket[pos]:
                    stats.max_bucket[pos] = len(bucket)
        log = self.log
        log.append((relation, tup))
        self.log_marks[relation] = len(log)
        return True

    def merge(self, keep: object, drop: object) -> None:
        """Replace ``drop`` by ``keep`` everywhere.

        Only the facts that mention ``drop`` (found through the
        positional index) are touched: they are unindexed and removed,
        and their rewrites are added back — and logged, when new — in
        canonical order."""
        self.domain.discard(drop)
        self.domain.add(keep)
        self.epoch += 1
        self._sorted.clear()
        for rel, hits, renamed in _rewrite_mentions(self, keep, drop):
            tuples = self.relations[rel]
            buckets = self._index[rel]
            stats = self._stats[rel]
            for tup in hits:
                tuples.discard(tup)
                stats.rows -= 1
                for pos, elem in enumerate(tup):
                    bucket = buckets[pos, elem]
                    bucket.discard(tup)
                    if not bucket:
                        del buckets[pos, elem]
                        stats.distinct[pos] -= 1
            self._stale_max.add(rel)
            for tup in renamed:
                self.add(rel, tup)


# (relation, facts mentioning the dropped element, their new rewrites)
_Rewrite = tuple[
    Relation, set[tuple[object, ...]], list[tuple[object, ...]]
]


def _rewrite_mentions(
    state: _State | ColumnarState, keep: object, drop: object
) -> list[_Rewrite]:
    """Per relation mentioning ``drop``, in schema order: the facts
    that mention it (found through the positional index) and their
    rewrites with ``drop`` replaced by ``keep``, deduplicated and in
    canonical order.  Both backends' merges log the new rewrites in
    exactly this order, which keeps their counters in parity."""
    rewrites: list[_Rewrite] = []
    for rel in state.relations:
        hits: set[tuple[object, ...]] = set()
        for pos in range(rel.arity):
            hits.update(state.tuples_with(rel, pos, drop))
        if hits:
            renamed = {
                tuple(keep if elem == drop else elem for elem in tup)
                for tup in hits
            }
            rewrites.append(
                (rel, hits, sorted(renamed, key=element_sort_key))
            )
    return rewrites


_EMPTY_SET: frozenset = frozenset()


class _DeltaCursor:
    """Per-dependency position into a working state's fact log: the
    log length at the dependency's last sweep (tgds) or last clean scan
    (egds and denial constraints); ``-1`` before the first."""

    __slots__ = ("position",)

    def __init__(self) -> None:
        self.position = -1


def _peak_rss_kb() -> int:
    """The process's peak resident set size in KB.

    Returns 0 when the platform exposes no ``resource`` module; a
    memory budget then never trips (graceful degradation — the chase
    still runs, just unbounded).  ``ru_maxrss`` is a high-water mark:
    once the process has ever exceeded a budget, every later check
    trips too, which is exactly the semantics a peak-RSS budget wants.
    """
    if _resource is None:  # pragma: no cover - non-POSIX
        return 0
    peak = int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak //= 1024
    return peak


def _unify_atom(atom: Atom, tup: tuple[object, ...]) -> dict[Var, object] | None:
    """Match one atom against one fact; ``None`` on clash."""
    partial: dict[Var, object] = {}
    for arg, elem in zip(atom.args, tup):
        if isinstance(arg, Const):
            if arg != elem:
                return None
        else:
            expected = partial.get(arg)
            if expected is None:
                partial[arg] = elem
            elif expected != elem:
                return None
    return partial


def _trigger_batches(
    state: _State | ColumnarState,
    dep: TGD,
    univ: tuple[Var, ...],
    cursor: _DeltaCursor,
    strategy: str,
    order: str | None,
    chunk: int | None,
) -> Iterator[list[dict[Var, object]]]:
    """The dependency's candidate triggers for this sweep, in
    canonically ordered, non-empty batches.

    ``naive`` re-enumerates every body match, and so does the first
    seminaive sweep (the cursor has never swept).  Later ``seminaive``
    sweeps join each body atom in turn against the delta (facts logged
    since the cursor) and the remaining atoms against the full state, so
    every returned trigger touches at least one new fact; triggers whose
    body is entirely old were already enumerated by an earlier sweep.
    Egd merges keep this valid: a merge logs the rewritten facts it
    creates like any addition, and a log entry whose fact a merge
    rewrote away has left its relation and is skipped.  A trigger over
    facts no merge touched was fired or found satisfied at an earlier
    sweep, and the merge maps that witness along, so it stays
    satisfied.  A sweep where no body relation logged a fact since the
    cursor has nothing to join.

    Without a ``chunk`` the whole delta is one slice, and the first
    sweep is one full body join.  With a ``chunk`` the delta — for the
    first sweep, the whole log, input facts included — is consumed in
    slices of at most that many facts, each joined, deduplicated by
    binding key, sorted and handed back for firing before the next
    slice is touched, so at most one slice's triggers are materialized
    at a time.  Every batch is fully materialized before the caller
    mutates the state, so no paused join enumeration ever observes a
    mutation.  Firing between batches changes what later batches join
    against: full-tgd dependencies reach the same final instance,
    existential heads a universal model whose null numbering may differ
    from the unchunked run's.  A binding whose body facts span two
    slices is enumerated in both batches; the activity check (or
    oblivious done-set) keeps it from firing twice.
    """
    body = dep.body
    first = cursor.position < 0
    full = strategy == "naive" or first
    start = 0 if first else cursor.position
    end = len(state.log)
    cursor.position = end

    def canonical(triggers: list[dict[Var, object]]) -> list[dict[Var, object]]:
        # Canonical firing order: by the frontier-to-be bindings.  Makes
        # the fired sequence (and hence null numbering)
        # strategy-independent.
        triggers.sort(
            key=lambda trig: tuple(element_sort_key(trig[v]) for v in univ)
        )
        return triggers

    if full and (chunk is None or not body):
        # One full join (a variable-free body matches at most once, so
        # it never needs slicing).
        triggers = list(
            all_extensions_of(body, state, order=order)
        )
        if triggers:
            yield canonical(triggers)
        return
    if not body or not _logged_since(state, body, start):
        return
    relations = state.relations
    step = chunk or end - start
    for lo in range(start, end, step):
        by_rel: dict[Relation, list[tuple[object, ...]]] = {}
        for rel, tup in state.log[lo:lo + step]:
            if tup in relations[rel]:  # else a merge rewrote it away
                by_rel.setdefault(rel, []).append(tup)
        batch: list[dict[Var, object]] = []
        seen: set[tuple[object, ...]] = set()
        for i, atom in enumerate(body):
            new_tuples = by_rel.get(atom.relation)
            if not new_tuples:
                continue
            rest = body[:i] + body[i + 1:]
            for tup in new_tuples:
                partial = _unify_atom(atom, tup)
                if partial is None:
                    continue
                for trig in all_extensions_of(
                    rest, state, partial, order=order
                ):
                    key = tuple(trig[v] for v in univ)
                    if key not in seen:
                        seen.add(key)
                        batch.append(trig)
        if batch:
            yield canonical(batch)


def _logged_since(
    state: _State | ColumnarState, body: tuple[Atom, ...], position: int
) -> bool:
    """Has some body relation logged a fact at or after ``position``?
    O(|body|): one ``log_marks`` lookup per atom."""
    marks = state.log_marks
    return any(marks.get(atom.relation, 0) > position for atom in body)


def _fire_tgd(
    state: _State | ColumnarState,
    tgd: TGD,
    existentials: tuple[Var, ...],
    trigger: dict[Var, object],
    nulls: FreshNulls,
    inventor: Inventor | None = None,
    observer: Observer | None = None,
) -> tuple[int, int]:
    """Add the head image for a trigger, then notify the observer;
    returns (facts_added, nulls_used).  ``existentials`` is the tgd's
    ``existential_variables``, computed once per chase."""
    assignment = dict(trigger)
    if inventor is None:
        for var in existentials:
            assignment[var] = nulls()
    else:
        for var in existentials:
            assignment[var] = inventor(tgd, var, assignment)
    added = 0
    for atom in tgd.head:
        tup = tuple(assignment[arg] for arg in atom.args)  # type: ignore[index]
        if state.add(atom.relation, tup):
            added += 1
    if observer is not None:
        observer(tgd, assignment)
    return added, len(existentials)


def _chase_egd(
    state: _State | ColumnarState,
    egd: EGD,
    order: str | None,
) -> tuple[bool, bool]:
    """Apply one round of egd repairs; returns (changed, failed)."""
    if egd.is_trivial:
        return (False, False)
    changed = False
    while True:
        violation = None
        # Search the live state; we break out before mutating it.
        for trigger in all_extensions_of(egd.body, state, order=order):
            if trigger[egd.lhs] != trigger[egd.rhs]:
                violation = (trigger[egd.lhs], trigger[egd.rhs])
                break
        if violation is None:
            return (changed, False)
        left, right = violation
        left_null = isinstance(left, Null)
        right_null = isinstance(right, Null)
        if not left_null and not right_null:
            return (changed, True)  # hard failure: two distinct constants
        if left_null and not right_null:
            state.merge(right, left)
        elif right_null and not left_null:
            state.merge(left, right)
        else:
            keep, drop = sorted((left, right), key=element_sort_key)
            state.merge(keep, drop)
        if TELEMETRY.enabled:
            TELEMETRY.count("chase.egd_merges")
        changed = True


def chase(
    instance: Instance,
    dependencies: Iterable[Dependency],
    *,
    variant: str = "restricted",
    strategy: str = "seminaive",
    max_rounds: int | None = None,
    max_facts: int | None = None,
    max_memory_mb: int | None = None,
    delta_chunk: int | None = None,
    certificate: str = "off",
    backend: str = DEFAULT_BACKEND,
    order: str | None = None,
    inventor: Inventor | None = None,
    observer: Observer | None = None,
) -> ChaseResult:
    """Chase ``instance`` with tgds and egds.

    ``max_rounds`` bounds the number of full sweeps over the dependency
    set; ``max_facts`` aborts when the instance grows past the bound.
    With both ``None``, the chase runs until a fixpoint (which may never
    come for non-terminating sets — prefer an explicit budget, or check
    weak acyclicity first).

    ``max_memory_mb`` is a peak-RSS budget: the run stops with
    ``StopReason.MEMORY`` as soon as the process's high-water resident
    set (``getrusage``'s ``ru_maxrss``) exceeds the bound — checked at
    round boundaries, per trigger batch, and every few hundred firings.
    Because it reads a process-wide high-water mark, the budget must
    exceed the RSS at call time to permit any work at all; a run whose
    budget never trips is bit-identical to an unbudgeted one.  On
    platforms without the ``resource`` module the budget never trips.

    ``delta_chunk`` bounds how many delta facts a semi-naive sweep
    joins at a time (see :func:`_trigger_batches`): instead of
    materializing every candidate trigger of a dependency before
    firing, triggers are produced and fired in per-slice batches, so
    peak memory scales with the chunk (times join fan-out) rather than
    the full delta.  Requires ``strategy="seminaive"``.  Full-tgd sets
    chase to the identical final instance; existential heads still
    yield a deterministic universal model (a function of the inputs
    alone, independent of the hash seed), but null numbering may
    differ from the unchunked run's — pair it with full-tgd rule sets
    when bit-identity matters.

    ``certificate="auto"`` consults the memoized termination-certificate
    lattice (:func:`repro.analysis.guarantees_termination`): when a
    certificate guarantees that every chase sequence terminates, the
    round budget is dropped and the run goes to a definitive fixpoint
    (counted by the ``chase.certificate`` telemetry counter);
    ``max_facts`` is kept as a hard safety cap.  For uncertified sets
    the budgets apply unchanged.  The default ``"off"`` never consults
    the analysis.

    ``strategy`` selects the evaluation plan (``"seminaive"`` — delta
    joins over the indexed state, the default — or ``"naive"`` — full
    re-enumeration each round).  Under ``"seminaive"`` egd merges keep
    every delta valid (no sweep re-joins the whole state after a
    merge), and an egd or denial constraint whose body relations logged
    no fact since its last clean scan is not scanned again; ``"naive"``
    re-checks everything every round.  Both produce the same result;
    see the module docstring.

    ``backend`` selects the fact-storage representation of the working
    state: ``"object"`` (frozen tuples over element objects — the
    reference) or ``"columnar"`` (interned integer IDs in per-position
    columns, executed at ID level by :mod:`repro.columnar`).  Like the
    two strategies, the two backends are bit-identical in
    every observable — facts, null numbering, trigger order and the
    shared telemetry counters — which the differential grid in
    ``tests/test_differential_chase.py`` asserts.

    ``order`` selects the atom-ordering strategy of compiled join
    plans: ``"static"`` (the boundness/extent-rank reference order —
    bit-identical results across every other knob) or ``"adaptive"``
    (per-(plan, statistics) orders from the selectivity cost model in
    :mod:`repro.stats`, with a guard-bound fallback to static).
    Adaptive runs produce the *same* chase result for tgd-only
    dependency sets (trigger firing order is canonically sorted); with
    egds the result is isomorphic rather than equal, because the
    first-violation search is enumeration-order dependent.

    ``inventor`` overrides the invention of existential witnesses: a
    callable ``(tgd, variable, assignment) -> element`` consulted once
    per existential variable of each firing trigger, in place of fresh
    labeled nulls.  This is the monitored-chase seam of the semantic
    acyclicity analyses (:mod:`repro.analysis.semantic`): an inventor
    may raise :class:`ChaseMonitorStop` to abort the run, which the
    engine reports as a clean ``StopReason.MONITOR`` result.  The
    default ``None`` is the reference fresh-null path, bit-identical to
    every release before the seam existed.

    ``observer`` listens to firings: a callable ``(tgd, assignment)``
    called once per fired tgd trigger, after the head image is added,
    with the full assignment (universal bindings plus invented
    witnesses).  It only listens — a run with an observer equals the
    run without one — and it is not recorded in ``config``.
    :func:`repro.chase.traced_chase` builds its firing log on it, on
    every backend and strategy.
    """
    deps = sorted(dependencies, key=str)
    if variant not in ("restricted", "oblivious"):
        raise ChaseError(f"unknown chase variant {variant!r}")
    if strategy not in STRATEGIES:
        raise ChaseError(f"unknown chase strategy {strategy!r}")
    if certificate not in ("off", "auto"):
        raise ChaseError(f"unknown certificate mode {certificate!r}")
    if order is not None and order not in ORDER_MODES:
        raise ChaseError(f"unknown join order mode {order!r}")
    effective_order = order if order is not None else DEFAULT_ORDER
    if backend not in BACKENDS:
        raise ChaseError(f"unknown chase backend {backend!r}")
    for name, budget in (("max_rounds", max_rounds), ("max_facts", max_facts)):
        if budget is not None and budget < 0:
            raise ChaseError(f"{name} must be >= 0, got {budget}")
    if max_memory_mb is not None and max_memory_mb < 1:
        raise ChaseError(
            f"max_memory_mb must be >= 1, got {max_memory_mb}"
        )
    if delta_chunk is not None:
        if delta_chunk < 1:
            raise ChaseError(
                f"delta_chunk must be >= 1, got {delta_chunk}"
            )
        if strategy != "seminaive":
            raise ChaseError(
                "delta_chunk requires strategy='seminaive' (the naive "
                "strategy has no delta to slice)"
            )
    if certificate == "auto" and max_rounds is not None:
        from ..analysis.certificates import guarantees_termination

        if guarantees_termination(deps):
            max_rounds = None
            if TELEMETRY.enabled:
                TELEMETRY.count("chase.certificate")
    if variant == "oblivious" and any(
        isinstance(d, (EGD, DenialConstraint)) for d in deps
    ):
        raise ChaseError("the oblivious chase supports tgds only")

    config: dict[str, object] = {
        "engine": "chase",
        "variant": variant,
        "strategy": strategy,
        "order": effective_order,
        "backend": backend,
        "certificate": certificate,
        "max_rounds": max_rounds,
        "max_facts": max_facts,
        "max_memory_mb": max_memory_mb,
        "delta_chunk": delta_chunk,
        "dependencies": len(deps),
    }
    if inventor is not None:
        config["monitored"] = True
    schema = Schema.combined(
        (instance.schema, *(dep.schema for dep in deps))
    )
    memory_kb = None if max_memory_mb is None else max_memory_mb * 1024
    if memory_kb is not None and _peak_rss_kb() > memory_kb:
        # Already over budget before any work: stop ahead of the
        # working-state bootstrap — cloning the kernel and building the
        # canonical fact log is itself a large allocation at streaming
        # scales, so the budget must gate it, not just the rounds.
        if TELEMETRY.enabled:
            TELEMETRY.count("chase.runs")
            TELEMETRY.count("chase.budget_exhausted")
            TELEMETRY.count("chase.memory_stops")
            peak = _peak_rss_kb()
            if peak:
                TELEMETRY.gauge("proc.peak_rss_kb", float(peak))
        if schema == instance.schema:
            snapshot = instance.with_backend(backend)
        else:
            snapshot = Instance._trusted(
                schema,
                instance.domain,
                {
                    rel: instance._relations.get(rel, _EMPTY_SET)
                    for rel in schema
                },
                backend,
            )
        return ChaseResult(
            snapshot, False, False, 0, 0, 0,
            stop_reason=StopReason.MEMORY,
            metrics=MetricsProbe().delta(), config=config,
        )
    state: _State | ColumnarState
    if backend == "columnar":
        # Imported lazily: repro.columnar itself imports chase-adjacent
        # modules, so the package only loads when the backend is used.
        from ..columnar.state import ColumnarState as _ColumnarState

        state = _ColumnarState(
            instance, schema, log_input=delta_chunk is not None
        )
    else:
        state = _State(instance, schema, log_input=delta_chunk is not None)
    cursors = [_DeltaCursor() for __ in deps]
    # Per-dependency variable tuples, hoisted out of the firing loop
    # (the TGD properties recompute them on every access).
    universals = [
        dep.universal_variables if isinstance(dep, TGD) else ()
        for dep in deps
    ]
    existentials = [
        dep.existential_variables if isinstance(dep, TGD) else ()
        for dep in deps
    ]
    nulls = FreshNulls()
    fired = 0
    nulls_created = 0
    rounds = 0
    oblivious_done: set[tuple] = set()
    probe = MetricsProbe()

    with span(
        "chase", variant=variant, strategy=strategy, dependencies=len(deps)
    ) as sp:

        def finish(
            terminated: bool, failed: bool, reason: str
        ) -> ChaseResult:
            if TELEMETRY.enabled:
                TELEMETRY.count("chase.runs")
                if reason in (
                    StopReason.ROUND_BUDGET, StopReason.FACT_BUDGET,
                    StopReason.MEMORY,
                ):
                    TELEMETRY.count("chase.budget_exhausted")
                if reason == StopReason.MEMORY:
                    TELEMETRY.count("chase.memory_stops")
                peak = _peak_rss_kb()
                if peak:
                    TELEMETRY.gauge("proc.peak_rss_kb", float(peak))
            sp.set(stop_reason=reason, rounds=rounds, fired=fired)
            return ChaseResult(
                state.snapshot(), terminated, failed, rounds, fired,
                nulls_created, stop_reason=reason, metrics=probe.delta(),
                config=config,
            )

        while True:
            if max_rounds is not None and rounds >= max_rounds:
                return finish(False, False, StopReason.ROUND_BUDGET)
            if memory_kb is not None and _peak_rss_kb() > memory_kb:
                return finish(False, False, StopReason.MEMORY)
            rounds += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("chase.rounds")
            with span("chase.round", round=rounds):
                progressed = False
                round_triggers = 0
                for index, dep in enumerate(deps):
                    cursor = cursors[index]
                    if isinstance(dep, (DenialConstraint, EGD)):
                        # Under seminaive, a constraint clean at its last
                        # scan stays clean until a body relation logs a
                        # fact: additions are logged, and a merge only
                        # removes facts and logs the rewrites it creates,
                        # so a match over facts no merge touched is one
                        # that clean scan would have found.
                        if (
                            strategy == "seminaive"
                            and cursor.position >= 0
                            and not _logged_since(
                                state, dep.body, cursor.position
                            )
                        ):
                            continue
                        if isinstance(dep, DenialConstraint):
                            if find_extension(
                                dep.body, state, order=order
                            ) is not None:
                                return finish(
                                    True, True, StopReason.DENIAL_VIOLATION
                                )
                        else:
                            changed, egd_failed = _chase_egd(
                                state, dep, order
                            )
                            progressed = progressed or changed
                            if egd_failed:
                                return finish(
                                    True, True, StopReason.EGD_FAILURE
                                )
                        cursor.position = len(state.log)
                        continue
                    univ = universals[index]
                    for triggers in _trigger_batches(
                        state, dep, univ, cursor, strategy, order,
                        delta_chunk,
                    ):
                        if (
                            memory_kb is not None
                            and _peak_rss_kb() > memory_kb
                        ):
                            return finish(False, False, StopReason.MEMORY)
                        round_triggers += len(triggers)
                        if TELEMETRY.enabled and triggers:
                            TELEMETRY.count(
                                "chase.triggers_enumerated", len(triggers)
                            )
                        for trigger in triggers:
                            if variant == "oblivious":
                                key = (
                                    index, tuple(trigger[v] for v in univ)
                                )
                                if key in oblivious_done:
                                    continue
                                oblivious_done.add(key)
                            else:
                                # Restricted: re-check activity against
                                # the live indexed state (no snapshot
                                # copies).
                                if satisfies_atoms(
                                    dep.head, state, trigger, order=order
                                ):
                                    continue
                            try:
                                added, created = _fire_tgd(
                                    state, dep, existentials[index],
                                    trigger, nulls, inventor, observer,
                                )
                            except ChaseMonitorStop:
                                return finish(
                                    False, False, StopReason.MONITOR
                                )
                            fired += 1
                            nulls_created += created
                            if TELEMETRY.enabled:
                                TELEMETRY.count("chase.triggers_fired")
                                if created:
                                    TELEMETRY.count(
                                        "chase.nulls_created", created
                                    )
                                if added:
                                    TELEMETRY.count(
                                        "chase.facts_added", added
                                    )
                            progressed = (
                                progressed or added > 0 or created > 0
                            )
                            if (
                                max_facts is not None
                                and state.fact_count() > max_facts
                            ):
                                return finish(
                                    False, False, StopReason.FACT_BUDGET
                                )
                            if (
                                memory_kb is not None
                                and not fired % 512
                                and _peak_rss_kb() > memory_kb
                            ):
                                return finish(
                                    False, False, StopReason.MEMORY
                                )
                if TELEMETRY.enabled:
                    # Per-round distribution of enumerated tgd triggers:
                    # the semi-naive delta property shows up directly as
                    # a low p50 against the naive strategy's.
                    TELEMETRY.observe("chase.round_triggers", round_triggers)
            if not progressed:
                return finish(True, False, StopReason.FIXPOINT)
