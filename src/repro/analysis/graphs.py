"""The graph routines every termination and dependency analysis shares:
:func:`sccs` (Tarjan), :func:`first_cycle` (DFS), :func:`shortest_path`
(BFS) and :func:`positions_of`.

Graphs are plain adjacency mappings ``node -> successors``.  Every
routine visits nodes and successors in exactly the order it is given
and never iterates a set, so a deterministic input order gives the same
witness on every run, independent of hash seeds.  Nothing here imports
from :mod:`repro.analysis` or :mod:`repro.chase`, so both can use it
whatever the import order.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

from ..lang.atoms import Atom

__all__ = ["Position", "sccs", "first_cycle", "shortest_path", "positions_of"]

Position = tuple[str, int]  # (relation name, argument index)

N = TypeVar("N", bound=Hashable)


def sccs(
    nodes: Sequence[N], edges: Mapping[N, Sequence[N]]
) -> tuple[tuple[N, ...], ...]:
    """Tarjan's SCCs, iteratively, visiting ``nodes`` and each node's
    successors in the given orders.  Components come out in reverse
    topological order, members in ``nodes`` order.  Every successor
    must itself be one of ``nodes``."""
    index_of: dict[N, int] = {}
    lowlink: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    components: list[tuple[N, ...]] = []
    counter = 0
    order = {node: i for i, node in enumerate(nodes)}
    for root in nodes:
        if root in index_of:
            continue
        work: list[tuple[N, int]] = [(root, 0)]
        while work:
            node, next_index = work[-1]
            if next_index == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            successors = edges.get(node, ())
            for i in range(next_index, len(successors)):
                succ = successors[i]
                if succ not in index_of:
                    work[-1] = (node, i + 1)
                    work.append((succ, 0))
                    recurse = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if recurse:
                continue
            if lowlink[node] == index_of[node]:
                component: list[N] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                component.sort(key=order.__getitem__)
                components.append(tuple(component))
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return tuple(components)


def first_cycle(
    nodes: Sequence[N], edges: Mapping[N, Sequence[N]]
) -> tuple[N, ...] | None:
    """The first cycle under DFS in the given node and successor order,
    as ``(v0, ..., vk, v0)``; ``None`` when acyclic.  Successors that
    are not among ``nodes`` are ignored."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in nodes}
    for root in nodes:
        if color[root] != WHITE:
            continue
        stack: list[tuple[N, int]] = [(root, 0)]
        path: list[N] = [root]
        color[root] = GREY
        while stack:
            node, next_index = stack[-1]
            successors = edges.get(node, ())
            if next_index < len(successors):
                stack[-1] = (node, next_index + 1)
                succ = successors[next_index]
                if color.get(succ, BLACK) == GREY:
                    start = path.index(succ)
                    return tuple(path[start:] + [succ])
                if color.get(succ, BLACK) == WHITE:
                    color[succ] = GREY
                    path.append(succ)
                    stack.append((succ, 0))
            else:
                stack.pop()
                path.pop()
                color[node] = BLACK
    return None


def shortest_path(
    edges: Mapping[N, Sequence[N]], start: N, goal: N
) -> list[N] | None:
    """A BFS shortest path ``[start, ..., goal]``, expanding successors
    in the given order (so ties break the same way on every run);
    ``None`` when ``goal`` is unreachable."""
    if start == goal:
        return [start]
    parents: dict[N, N] = {start: start}
    frontier = [start]
    while frontier:
        next_frontier: list[N] = []
        for node in frontier:
            for succ in edges.get(node, ()):
                if succ in parents:
                    continue
                parents[succ] = node
                if succ == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return path[::-1]
                next_frontier.append(succ)
        frontier = next_frontier
    return None


def positions_of(atoms: Iterable[Atom], var: object) -> tuple[Position, ...]:
    """The positions ``var`` occupies in ``atoms``, each once, in
    first-occurrence order."""
    positions: dict[Position, None] = {}
    for atom in atoms:
        for index, arg in enumerate(atom.args):
            if arg == var:
                positions.setdefault((atom.relation.name, index))
    return tuple(positions)
