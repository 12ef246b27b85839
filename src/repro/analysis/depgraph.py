"""The whole-program rule dependency graph.

One predicate-level graph per dependency set, computed once and shared
by every analysis that used to rebuild its own ad-hoc structures:
hygiene reachability (``H002``/``H003``), egd/denial stratification
(``S001``/``S002``), the deep semantic lint (``D001``), and the
loop-restriction rewritability hint (``L001``).

Nodes are predicate names in *first-seen order* (per rule: body atoms,
then head atoms — the order every diagnostic walks, so witnesses stay
byte-stable).  A tgd contributes an edge ``b → h`` for every body
predicate ``b`` and head predicate ``h``; the edge is *existential*
when the head atom carries an existentially quantified variable (the
edges along which the chase invents fresh terms — the ones the
acyclicity analyses care about).

Derived structure:

* ``extensional`` — predicates never derived by a tgd head (the
  schema databases range over);
* ``reachable`` — the AND-closure of the extensional predicates under
  rule application: a rule propagates only when *all* its body
  predicates are already reachable;
* ``derived_by`` — the first rule deriving each predicate (the witness
  the stratification pass names);
* ``sccs`` — strongly connected components in deterministic
  (reverse-topological) order, members in first-seen order;
* ``recursive_predicates`` — members of a non-trivial SCC or of a
  self-loop; ``is_nonrecursive`` is the loop-restriction gate: a
  nonrecursive set is trivially loop-restricted in the sense of
  Asuncion et al., hence FO-rewritable.

Graphs are memoized on the *ordered* renaming-invariant dependency key
(order matters: ``derived_by`` speaks about rule indices).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Mapping, Sequence

from ..dependencies.tgd import TGD
from ..lang.atoms import Atom
from ..telemetry import TELEMETRY
from .graphs import sccs

__all__ = [
    "DepGraph",
    "depgraph_for",
    "clear_depgraph_cache",
]


class DepGraph:
    """The predicate dependency graph of one dependency set."""

    __slots__ = (
        "predicates",
        "extensional",
        "derived",
        "derived_by",
        "edges",
        "existential_edges",
        "reachable",
        "sccs",
        "recursive_predicates",
    )

    def __init__(
        self,
        predicates: tuple[str, ...],
        extensional: frozenset[str],
        derived: frozenset[str],
        derived_by: Mapping[str, int],
        edges: Mapping[str, tuple[str, ...]],
        existential_edges: frozenset[tuple[str, str]],
        reachable: frozenset[str],
        sccs: tuple[tuple[str, ...], ...],
        recursive_predicates: frozenset[str],
    ) -> None:
        self.predicates = predicates
        self.extensional = extensional
        self.derived = derived
        self.derived_by = derived_by
        self.edges = edges
        self.existential_edges = existential_edges
        self.reachable = reachable
        self.sccs = sccs
        self.recursive_predicates = recursive_predicates

    @property
    def is_nonrecursive(self) -> bool:
        """No predicate depends on itself — the loop-restriction gate."""
        return not self.recursive_predicates

    def __repr__(self) -> str:
        return (
            f"DepGraph({len(self.predicates)} predicates, "
            f"{sum(len(ts) for ts in self.edges.values())} edges, "
            f"{len(self.sccs)} sccs, "
            f"nonrecursive={self.is_nonrecursive})"
        )


def _body_of(dep: object) -> tuple[Atom, ...]:
    return tuple(getattr(dep, "body", ()))


def _head_of(dep: object) -> tuple[Atom, ...]:
    return tuple(getattr(dep, "head", ()))


def _build(dependencies: Sequence[object]) -> DepGraph:
    deps = list(dependencies)
    predicates: list[str] = []
    seen: set[str] = set()
    derived: set[str] = set()
    derived_by: dict[str, int] = {}
    edge_map: dict[str, list[str]] = {}
    existential_edges: set[tuple[str, str]] = set()
    for index, dep in enumerate(deps):
        body = _body_of(dep)
        head = _head_of(dep)
        for atom in body:
            if atom.relation.name not in seen:
                seen.add(atom.relation.name)
                predicates.append(atom.relation.name)
        for atom in head:
            derived.add(atom.relation.name)
            if isinstance(dep, TGD):
                derived_by.setdefault(atom.relation.name, index)
            if atom.relation.name not in seen:
                seen.add(atom.relation.name)
                predicates.append(atom.relation.name)
        if isinstance(dep, TGD):
            existentials = set(dep.existential_variables)
            for body_atom in body:
                targets = edge_map.setdefault(body_atom.relation.name, [])
                for head_atom in head:
                    name = head_atom.relation.name
                    if name not in targets:
                        targets.append(name)
                    if any(arg in existentials for arg in head_atom.args):
                        existential_edges.add(
                            (body_atom.relation.name, name)
                        )
    extensional = frozenset(
        name for name in predicates if name not in derived
    )
    # AND-closure: a rule's heads become reachable only once *every*
    # body predicate is (an empty body is vacuously satisfied).
    reachable = set(extensional)
    changed = True
    while changed:
        changed = False
        for dep in deps:
            if not isinstance(dep, TGD):
                continue
            if not all(
                atom.relation.name in reachable for atom in dep.body
            ):
                continue
            for atom in dep.head:
                if atom.relation.name not in reachable:
                    reachable.add(atom.relation.name)
                    changed = True
    edges = {name: tuple(targets) for name, targets in edge_map.items()}
    components = sccs(predicates, edges)
    recursive: set[str] = set()
    for component in components:
        if len(component) > 1:
            recursive.update(component)
        else:
            only = component[0]
            if only in edges.get(only, ()):
                recursive.add(only)
    return DepGraph(
        predicates=tuple(predicates),
        extensional=extensional,
        derived=frozenset(derived),
        derived_by=derived_by,
        edges=edges,
        existential_edges=frozenset(existential_edges),
        reachable=frozenset(reachable),
        sccs=components,
        recursive_predicates=frozenset(recursive),
    )


_CACHE_SIZE = 1024
_cache: "OrderedDict[tuple[tuple, ...], DepGraph]" = OrderedDict()
_cache_lock = threading.Lock()


def clear_depgraph_cache() -> None:
    with _cache_lock:
        _cache.clear()


def depgraph_for(
    dependencies: Sequence[object], *, cache: bool = True
) -> DepGraph:
    """The (memoized) dependency graph of the set.

    The key is the *ordered* tuple of renaming-invariant dependency
    keys — unlike the certificate memo, rule order matters, because
    ``derived_by`` reports rule indices.
    """
    deps = list(dependencies)
    key: tuple[tuple, ...] | None = None
    if cache:
        from ..entailment.cache import dependency_cache_key

        key = tuple(dependency_cache_key(dep) for dep in deps)
        with _cache_lock:
            graph = _cache.get(key)
            if graph is not None:
                _cache.move_to_end(key)
        if graph is not None:
            if TELEMETRY.enabled:
                TELEMETRY.count("analysis.depgraph_cache_hits")
            return graph
    graph = _build(deps)
    if TELEMETRY.enabled:
        TELEMETRY.count("analysis.depgraphs_computed")
    if key is not None:
        with _cache_lock:
            _cache[key] = graph
            _cache.move_to_end(key)
            while len(_cache) > _CACHE_SIZE:
                _cache.popitem(last=False)
    return graph
