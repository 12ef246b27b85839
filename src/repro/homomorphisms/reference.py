"""The interpreted reference matcher — a test oracle.

This is the homomorphism search the compiled join plans of
:mod:`repro.homomorphisms.plans` were derived from.  At every recursion
node it re-derives the most-constrained atom (most bound positions
first, ties broken by the smallest relation extent, then by textual
position) and sorts the candidate bucket by
:func:`~repro.lang.terms.element_sort_key`.  The compiled plans
reproduce exactly these choices, so both yield byte-identical streams:
the same assignments, in the same order, with the same dict key
insertion order.

No module of the package imports this one; production searches always
run compiled plans.  It is kept for two consumers:

* tests substitute :func:`match` for the compiled matcher at
  ``repro.homomorphisms.search._match`` (with pytest's ``monkeypatch``),
  so the same public entry points — and every chase, entailment or
  certificate built on them — run on the oracle instead;
* benchmarks call :func:`extensions` directly, including the textual
  atom-order ablation (``textual=True``).

The search counts the shared ``hom.*`` telemetry: ``hom.matches``,
``hom.backtracks``, ``hom.index_probes`` (one per bucket consulted)
and the ``hom.probe_fanout`` histogram.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from ..lang.atoms import Atom
from ..lang.terms import Const, Var, element_sort_key
from ..telemetry import TELEMETRY
from .search import ProbeTarget

__all__ = ["extensions", "match"]


def extensions(
    atoms: Sequence[Atom],
    target: ProbeTarget,
    partial: Mapping[Var, object] | None = None,
    *,
    injective: bool = False,
    textual: bool = False,
) -> Iterator[dict[Var, object]]:
    """All extensions of ``partial`` mapping every atom to a fact of
    ``target``, as :func:`repro.homomorphisms.all_extensions_of` yields
    them.  ``textual=True`` matches atoms in textual order instead of
    most-constrained-first (the ordering ablation's baseline)."""
    assignment = dict(partial or {})
    image: set[object] | None = None
    if injective:
        image = set(assignment.values())
        if atoms and len(image) != len(assignment):
            # A non-injective seed never extends to an injective
            # assignment over a non-empty conjunction.
            return iter(())
    return _search(
        tuple(atoms), target, assignment, injective, not textual, image
    )


def match(
    atoms: Sequence[Atom],
    target: ProbeTarget,
    assignment: dict[Var, object],
    injective: bool,
    order: str,
) -> Iterator[dict[Var, object]]:
    """Drop-in for ``repro.homomorphisms.search._match``.  ``order`` is
    ignored: the interpreter has one atom order of its own, which the
    static compiled order reproduces."""
    return extensions(atoms, target, assignment, injective=injective)


def _candidates(
    atom: Atom,
    target: ProbeTarget,
    assignment: Mapping[Var, object],
) -> list[tuple[object, ...]]:
    """Target tuples compatible with the atom under the assignment.

    Bound positions (constants and already-assigned variables) are used
    to probe the target's per-relation, per-position hash index
    (``tuples_with``); the smallest matching bucket is then filtered on
    the remaining constraints.  A fully bound atom degenerates to a
    single set membership test, and only fully unbound atoms fall back
    to the full extent.  ``hom.index_probes`` counts every bucket
    consulted — one per bound position, stopping early at the first
    empty bucket.
    """
    args = atom.args
    bound_values: list[object] = [None] * len(args)
    unbound = 0
    for pos, arg in enumerate(args):
        if isinstance(arg, Const):
            bound_values[pos] = arg
        else:
            value = assignment.get(arg)
            if value is None:
                unbound += 1
            else:
                bound_values[pos] = value
    if not unbound:
        # Every position determined: the only possible match is the
        # ground tuple itself.
        tup = tuple(bound_values)
        return [tup] if tup in target.tuples(atom.relation) else []
    pool = None
    if unbound < len(args):
        consulted = 0
        empty = False
        for pos, value in enumerate(bound_values):
            if value is None:
                continue
            bucket = target.tuples_with(atom.relation, pos, value)
            consulted += 1
            if not bucket:
                empty = True
                break
            if pool is None or len(bucket) < len(pool):
                pool = bucket
        if TELEMETRY.enabled and consulted:
            TELEMETRY.count("hom.index_probes", consulted)
        if empty:
            return []
    if pool is None:
        pool = target.tuples(atom.relation)
    if TELEMETRY.enabled:
        # Fan-out of the chosen pool: how selective the positional
        # index was for this atom.
        TELEMETRY.observe("hom.probe_fanout", len(pool))
    matches: list[tuple[object, ...]] = []
    for tup in pool:
        bound: dict[Var, object] = {}
        ok = True
        for arg, elem in zip(atom.args, tup):
            if isinstance(arg, Const):
                if arg != elem:
                    ok = False
                    break
            else:
                expected = assignment.get(arg, bound.get(arg))
                if expected is None:
                    bound[arg] = elem
                elif expected != elem:
                    ok = False
                    break
        if ok:
            matches.append(tup)
    return matches


def _boundness(atom: Atom, assignment: Mapping[Var, object]) -> int:
    return sum(
        1
        for arg in atom.args
        if isinstance(arg, Const) or arg in assignment
    )


def _search(
    atoms: Sequence[Atom],
    target: ProbeTarget,
    assignment: dict[Var, object],
    injective: bool,
    dynamic_order: bool,
    image: set[object] | None,
) -> Iterator[dict[Var, object]]:
    """The backtracking interpreter.

    ``image`` is the running image of the assignment when ``injective``
    (``None`` otherwise): maintaining it alongside the assignment makes
    the injectivity probe O(1) per binding instead of an
    O(|assignment|) scan of ``assignment.values()``.
    """
    if not atoms:
        if TELEMETRY.enabled:
            TELEMETRY.count("hom.matches")
        yield dict(assignment)
        return
    if dynamic_order:
        # Most-constrained-first: maximize bound positions, break ties
        # by the smallest relation extent.
        index = max(
            range(len(atoms)),
            key=lambda i: (
                _boundness(atoms[i], assignment),
                -len(target.tuples(atoms[i].relation)),
            ),
        )
    else:
        index = 0
    atom = atoms[index]
    rest = atoms[:index] + atoms[index + 1 :]
    for tup in sorted(
        _candidates(atom, target, assignment), key=element_sort_key
    ):
        added: list[Var] = []
        ok = True
        for arg, elem in zip(atom.args, tup):
            if isinstance(arg, Const):
                continue
            if arg in assignment:
                if assignment[arg] != elem:
                    ok = False
                    break
            else:
                if injective:
                    assert image is not None
                    if elem in image:
                        ok = False
                        break
                    image.add(elem)
                assignment[arg] = elem
                added.append(arg)
        if ok:
            yield from _search(
                rest, target, assignment, injective, dynamic_order, image
            )
        if TELEMETRY.enabled:
            # One backtrack per candidate tuple explored and undone.
            TELEMETRY.count("hom.backtracks")
        for var in added:
            if injective:
                assert image is not None
                image.discard(assignment[var])
            del assignment[var]
