"""Static chase-termination analysis: weak acyclicity.

A set of tgds is *weakly acyclic* if its position dependency graph has no
cycle through a "special" edge.  Weak acyclicity guarantees that every
chase sequence terminates in polynomially many steps (Fagin et al., data
exchange); it is the certificate our entailment layer uses to decide when
a chase-based answer is definitive without a budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..analysis.graphs import Position, positions_of, sccs, shortest_path
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..telemetry import TELEMETRY

__all__ = ["Position", "WeakAcyclicityReport", "position_graph", "is_weakly_acyclic", "weak_acyclicity_report"]


@dataclass(frozen=True)
class WeakAcyclicityReport:
    """Outcome of the analysis; ``cycle`` witnesses a violation."""

    weakly_acyclic: bool
    cycle: tuple[Position, ...] | None

    def __bool__(self) -> bool:
        return self.weakly_acyclic


def position_graph(
    tgds: Iterable[TGD],
) -> dict[Position, dict[Position, bool]]:
    """The position dependency graph, as ``source -> {target: special}``.

    For every tgd and every body occurrence of a universally quantified
    variable ``x`` at position ``p``:

    * a *regular* edge ``p → q`` for every head position ``q`` of ``x``;
    * a *special* edge ``p → q`` for every head position ``q`` of every
      existentially quantified variable — provided ``x`` occurs in the
      head (i.e. ``x`` is a frontier variable).

    An edge that is both regular and special is special.  Every body and
    head position is a key, with no successors if it has no out-edges.
    """
    if TELEMETRY.enabled:
        TELEMETRY.count("analysis.position_graph_builds")
    graph: dict[Position, dict[Position, bool]] = {}
    for tgd in tgds:
        frontier = set(tgd.frontier)
        existential_targets = [
            pos
            for var in tgd.existential_variables
            for pos in positions_of(tgd.head, var)
        ]
        for atom in tgd.body:
            for i, arg in enumerate(atom.args):
                successors = graph.setdefault((atom.relation.name, i), {})
                if arg in frontier:
                    for target in positions_of(tgd.head, arg):
                        successors.setdefault(target, False)
                    for target in existential_targets:
                        successors[target] = True
        for atom in tgd.head:
            for i in range(len(atom.args)):
                graph.setdefault((atom.relation.name, i), {})
    return graph


def weak_acyclicity_report(
    dependencies: Sequence[TGD | EGD],
) -> WeakAcyclicityReport:
    """Weak acyclicity of the tgds in the set (egds never obstruct it).

    On failure the witness is the canonical special cycle: among the
    special edges ``source → target`` inside one strongly connected
    component, the lexicographically first (by position), closed by the
    BFS-shortest path back from ``target`` to ``source`` with sorted
    expansion.  Same set, same witness — independent of hash
    randomization and dependency iteration internals.
    """
    graph = position_graph(dep for dep in dependencies if isinstance(dep, TGD))
    adjacency = {node: sorted(graph[node]) for node in sorted(graph)}
    component_of = {
        node: index
        for index, component in enumerate(sccs(list(adjacency), adjacency))
        for node in component
    }
    for source, targets in adjacency.items():
        for target in targets:
            if (
                component_of[target] == component_of[source]
                and graph[source][target]
            ):
                path = shortest_path(adjacency, target, source)
                assert path is not None  # same component: reachable
                return WeakAcyclicityReport(False, (source, *path))
    return WeakAcyclicityReport(True, None)


def is_weakly_acyclic(dependencies: Sequence[TGD | EGD]) -> bool:
    return weak_acyclicity_report(dependencies).weakly_acyclic
