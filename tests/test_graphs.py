"""Property tests for the shared graph routines (`repro.analysis.graphs`).

Each routine is checked against a brute-force transitive closure (or
step-by-step reachability) computed here, on random digraphs:

* ``sccs`` groups exactly the mutually reachable nodes and returns the
  components in reverse topological order, members in node order;
* ``first_cycle`` finds a real closed walk exactly when some node
  reaches itself;
* ``shortest_path`` has exactly the BFS distance, or is ``None`` when
  the goal is unreachable.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Schema, parse_tgds
from repro.analysis.graphs import first_cycle, positions_of, sccs, shortest_path

SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def digraphs(draw, max_nodes=8):
    """``(nodes, edges)``: nodes in a shuffled order, successor lists
    duplicate-free, edges only between listed nodes."""
    count = draw(st.integers(min_value=0, max_value=max_nodes))
    nodes = draw(st.permutations(list(range(count))))
    edges = {
        node: draw(st.lists(st.sampled_from(nodes), unique=True, max_size=4))
        for node in nodes
    }
    return nodes, edges


def closure(nodes, edges):
    """``reach[u]``: nodes reachable from ``u`` by one or more edges."""
    reach = {node: set(edges.get(node, ())) for node in nodes}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            extra = set().union(*(reach[succ] for succ in reach[node]))
            if not extra <= reach[node]:
                reach[node] |= extra
                changed = True
    return reach


def distance(edges, start, goal):
    """Number of edges on a shortest walk, by growing the set of nodes
    reachable within ``k`` steps; ``None`` when unreachable."""
    within, steps = {start}, 0
    while goal not in within:
        grown = within | {s for node in within for s in edges.get(node, ())}
        if grown == within:
            return None
        within, steps = grown, steps + 1
    return steps


class TestSccs:
    @SETTINGS
    @given(digraphs())
    def test_components_are_the_mutually_reachable_classes(self, graph):
        nodes, edges = graph
        reach = closure(nodes, edges)
        components = sccs(nodes, edges)
        assert sorted(n for c in components for n in c) == sorted(nodes)
        component_of = {n: i for i, c in enumerate(components) for n in c}
        for u in nodes:
            for v in nodes:
                mutual = u == v or (v in reach[u] and u in reach[v])
                assert (component_of[u] == component_of[v]) == mutual

    @SETTINGS
    @given(digraphs())
    def test_reverse_topological_order(self, graph):
        nodes, edges = graph
        components = sccs(nodes, edges)
        component_of = {n: i for i, c in enumerate(components) for n in c}
        for u in nodes:
            for v in edges[u]:
                # An edge leaving a component points at an earlier one.
                assert component_of[v] <= component_of[u]

    @SETTINGS
    @given(digraphs())
    def test_members_follow_the_node_order(self, graph):
        nodes, edges = graph
        order = {node: i for i, node in enumerate(nodes)}
        for component in sccs(nodes, edges):
            assert list(component) == sorted(component, key=order.get)

    def test_empty_graph(self):
        assert sccs([], {}) == ()


class TestFirstCycle:
    @SETTINGS
    @given(digraphs())
    def test_cycle_exactly_when_some_node_reaches_itself(self, graph):
        nodes, edges = graph
        reach = closure(nodes, edges)
        cycle = first_cycle(nodes, edges)
        assert (cycle is not None) == any(n in reach[n] for n in nodes)

    @SETTINGS
    @given(digraphs())
    def test_cycle_is_a_closed_walk_of_real_edges(self, graph):
        nodes, edges = graph
        cycle = first_cycle(nodes, edges)
        if cycle is None:
            return
        assert len(cycle) >= 2
        assert cycle[0] == cycle[-1]
        assert len(set(cycle[:-1])) == len(cycle) - 1
        assert all(v in edges[u] for u, v in zip(cycle, cycle[1:]))

    def test_successors_outside_the_node_list_are_ignored(self):
        assert first_cycle(["a"], {"a": ["b"], "b": ["a"]}) is None

    def test_first_cycle_in_dfs_order(self):
        edges = {"a": ["b", "c"], "b": ["b"], "c": ["a"]}
        assert first_cycle(["a", "b", "c"], edges) == ("b", "b")


class TestShortestPath:
    @SETTINGS
    @given(digraphs(), st.data())
    def test_length_is_the_bfs_distance(self, graph, data):
        nodes, edges = graph
        if not nodes:
            return
        start = data.draw(st.sampled_from(nodes))
        goal = data.draw(st.sampled_from(nodes))
        path = shortest_path(edges, start, goal)
        steps = distance(edges, start, goal)
        if steps is None:
            assert path is None
            return
        assert path is not None
        assert path[0] == start and path[-1] == goal
        assert len(path) - 1 == steps
        assert all(v in edges[u] for u, v in zip(path, path[1:]))

    def test_ties_break_in_successor_order(self):
        edges = {"s": ["b", "a"], "a": ["t"], "b": ["t"]}
        assert shortest_path(edges, "s", "t") == ["s", "b", "t"]


class TestPositionsOf:
    def test_each_position_once_in_first_occurrence_order(self):
        schema = Schema.of(("E", 2), ("P", 1))
        (tgd,) = parse_tgds("E(x, y), P(y), E(y, x) -> P(x)", schema)
        x, y = tgd.body[0].args
        assert positions_of(tgd.body, y) == (("E", 1), ("P", 0), ("E", 0))
        assert positions_of(tgd.body, x) == (("E", 0), ("E", 1))
        assert positions_of(tgd.head, y) == ()
