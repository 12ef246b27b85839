"""Key egds checked from the positional index, and ground activity tests.

The chase checks an egd shaped like a functional dependency
(``R(x̄, y, ū), R(x̄, z, v̄) → y = z``, :attr:`EGD.key_shape`) per key
group of the positional index instead of by a full first-witness body
join, and decides whether a full tgd's trigger is active by set
membership instead of a head search.  Both shortcuts must be invisible
in the output, so this module pins them against the general paths:

* the recogniser accepts exactly the shapes the key path is proven on;
* on random instances mixing constants and nulls, over both working-state
  backends, the key path reports the same violations in the same order
  as the general scan, merge by merge up to a failure — on the first
  check and on a re-check that only looks at logged facts (Hypothesis);
* whole chases of merge-heavy scenarios are equal with and without the
  key path, and under both order modes;
* the membership activity test agrees with ``satisfies_atoms`` on random
  full tgds and triggers (Hypothesis).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Instance, Schema, chase
from repro.chase import engine
from repro.chase.engine import _State
from repro.columnar.state import ColumnarState
from repro.dependencies.egd import EGD, KeyShape
from repro.dependencies.tgd import TGD
from repro.homomorphisms.search import satisfies_atoms
from repro.lang import Atom, Const, Null, Relation, Var
from repro.lang.parser import parse_dependency

from .test_differential_chase import _merge_heavy_scenario

BACKENDS = {"object": _State, "columnar": ColumnarState}
POOL = [Const(f"c{i}") for i in range(3)] + [Null(i) for i in range(4)]
OTHER = Relation("S", 2)


class TestRecogniser:
    SCHEMA = Schema.of(("R", 3), ("E", 2), ("T", 4), ("U", 1))

    def shape(self, text):
        return parse_dependency(text, self.SCHEMA).key_shape

    def test_single_key(self):
        assert self.shape("E(x, y), E(x, z) -> y = z") == KeyShape(
            Relation("E", 2), (0,), 1
        )

    def test_key_at_the_end(self):
        assert self.shape("E(y, x), E(z, x) -> y = z") == KeyShape(
            Relation("E", 2), (1,), 0
        )

    def test_multi_column_key(self):
        assert self.shape("T(x, u, y, w), T(x, v, z, w) -> y = z") == KeyShape(
            Relation("T", 4), (0, 3), 2
        )

    def test_swapped_sides(self):
        assert self.shape("R(x, y, u), R(x, z, v) -> z = y") == KeyShape(
            Relation("R", 3), (0,), 1
        )

    def test_free_positions_beside_the_value(self):
        assert self.shape("R(x, y, u), R(x, z, v) -> u = v") == KeyShape(
            Relation("R", 3), (0,), 2
        )

    @pytest.mark.parametrize("text", [
        "R(x, x, y), R(x, x, z) -> y = z",  # repeated variable
        "R(x, y, y), R(x, z, w) -> y = z",  # repeated variable, one atom
        "E(x, y), T(x, z, u, v) -> y = z",  # two relations
        "E(x, y), E(x, z), E(x, w) -> y = z",  # three atoms
        "E(x, y), E(y, x) -> x = y",  # not a key
        "E(x, y), E(z, x) -> y = z",  # shared variable moves position
        "R(x, y, u), R(x, z, v) -> y = v",  # sides at different positions
        "R(x, y, u), R(x, z, v) -> y = u",  # both sides in one atom
        "U(x), U(y) -> x = y",  # no shared variable
        "E(x, y), E(x, z) -> y = y",  # trivial
    ])
    def test_rejected(self, text):
        assert self.shape(text) is None

    def test_cached_on_the_frozen_object(self):
        egd = parse_dependency("E(x, y), E(x, z) -> y = z", self.SCHEMA)
        assert egd.key_shape is egd.key_shape
        twin = parse_dependency("E(x, y), E(x, z) -> y = z", self.SCHEMA)
        assert twin == egd and hash(twin) == hash(egd)


@st.composite
def key_egds(draw):
    """A random FD-shaped egd over ``R`` of arity 2–4: a non-empty key
    set, one value position, either atom order and either side order."""
    arity = draw(st.integers(2, 4))
    relation = Relation("R", arity)
    value = draw(st.integers(0, arity - 1))
    keys = draw(st.sets(
        st.sampled_from([pos for pos in range(arity) if pos != value]),
        min_size=1,
    ))
    first = [Var(f"k{pos}") if pos in keys else Var(f"a{pos}")
             for pos in range(arity)]
    second = [Var(f"k{pos}") if pos in keys else Var(f"b{pos}")
              for pos in range(arity)]
    lhs, rhs = first[value], second[value]
    if draw(st.booleans()):
        lhs, rhs = rhs, lhs
    body = (Atom(relation, tuple(first)), Atom(relation, tuple(second)))
    if draw(st.booleans()):
        body = body[::-1]
    egd = EGD(body, lhs, rhs)
    assert egd.key_shape == KeyShape(relation, tuple(sorted(keys)), value)
    return egd


def facts_over(relation, max_size):
    element = st.sampled_from(POOL)
    return st.sets(
        st.tuples(*[element] * relation.arity), max_size=max_size
    )


def _state(backend, schema, facts):
    domain = {elem for tuples in facts.values() for tup in tuples
              for elem in tup}
    return BACKENDS[backend](Instance(schema, domain, facts), schema)


def _recorded(violations, seen):
    for violation in violations:
        seen.append(violation)
        yield violation


def _observed(state, schema):
    return (
        {rel: set(state.tuples(rel)) for rel in schema},
        list(state.log),
    )


def _repair_both(key_state, scan_state, egd, since):
    """Repair ``egd`` on two equal states, one by the key path and one
    by the general scan; return what each reported and left."""
    key_seen, scan_seen = [], []
    key_outcome = engine._repair(key_state, _recorded(
        engine._key_violations(key_state, egd, egd.key_shape, since),
        key_seen,
    ))
    scan_outcome = engine._repair(scan_state, _recorded(
        engine._scanned_violations(scan_state, egd, None), scan_seen
    ))
    return (key_seen, key_outcome), (scan_seen, scan_outcome)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestKeyPathMatchesScan:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_first_check(self, backend, data):
        egd = data.draw(key_egds())
        relation = egd.key_shape.relation
        schema = Schema([relation, OTHER])
        facts = {
            relation: data.draw(facts_over(relation, 14)),
            OTHER: data.draw(facts_over(OTHER, 4)),
        }
        key_state = _state(backend, schema, facts)
        scan_state = _state(backend, schema, facts)
        key_run, scan_run = _repair_both(key_state, scan_state, egd, -1)
        assert key_run == scan_run
        assert _observed(key_state, schema) == _observed(scan_state, schema)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_recheck_after_new_facts(self, backend, data):
        """After a clean check, only the keys of logged facts are
        re-checked; the result still equals a full general scan."""
        egd = data.draw(key_egds())
        relation = egd.key_shape.relation
        schema = Schema([relation, OTHER])
        facts = {
            relation: data.draw(facts_over(relation, 10)),
            OTHER: data.draw(facts_over(OTHER, 4)),
        }
        states = [_state(backend, schema, facts) for __ in range(2)]
        for state in states:
            __, failed = engine._chase_egd(state, egd, None, -1)
        if failed:
            return
        since = len(states[0].log)
        added = data.draw(st.lists(
            st.tuples(st.sampled_from([relation, OTHER]), st.data()),
            max_size=6,
        ))
        for rel, more in added:
            tup = more.draw(st.tuples(*[st.sampled_from(POOL)] * rel.arity))
            for state in states:
                state.add(rel, tup)
        key_run, scan_run = _repair_both(*states, egd, since)
        assert key_run == scan_run
        assert _observed(states[0], schema) == _observed(states[1], schema)


@pytest.mark.parametrize("strategy", ["seminaive", "naive"])
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed", range(20))
def test_merge_heavy_chases_equal_the_general_scan(
    seed, backend, strategy, monkeypatch
):
    instance, deps = _merge_heavy_scenario(seed)
    egds = [dep for dep in deps if isinstance(dep, EGD)]
    assert egds and all(egd.key_shape is not None for egd in egds)

    def run(order="static"):
        result = chase(
            instance, deps, strategy=strategy, backend=backend,
            max_rounds=6, max_facts=300, order=order,
        )
        return (
            result.instance, result.stop_reason, result.rounds,
            result.fired, result.nulls_created,
        )

    keyed = run()
    # Every egd of these scenarios is a key egd, whose violations do not
    # depend on the order mode: adaptive runs are equal, not only
    # isomorphic.
    assert run("adaptive") == keyed
    # Route every egd through the general scan.
    monkeypatch.setattr(EGD, "key_shape", property(lambda self: None))
    assert run() == keyed


@st.composite
def full_tgds_and_triggers(draw):
    """A full tgd over ``A``/``B``, a trigger for its body variables,
    and a state's facts."""
    relations = [Relation("A", 2), Relation("B", 1)]
    variables = [Var(f"x{i}") for i in range(3)]
    var = st.sampled_from(variables)

    def atoms(min_size):
        return st.lists(
            st.sampled_from(relations).flatmap(
                lambda rel: st.tuples(*[var] * rel.arity).map(
                    lambda args, rel=rel: Atom(rel, args)
                )
            ),
            min_size=min_size, max_size=3,
        )

    body = draw(atoms(1))
    body_vars = {arg for atom in body for arg in atom.args}
    head = draw(atoms(1).filter(
        lambda head: {arg for atom in head for arg in atom.args} <= body_vars
    ))
    tgd = TGD(body, head)
    trigger = {v: draw(st.sampled_from(POOL)) for v in sorted(body_vars)}
    facts = {rel: draw(facts_over(rel, 10)) for rel in relations}
    return tgd, trigger, Schema(relations), facts


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=200, deadline=None)
@given(case=full_tgds_and_triggers())
def test_ground_activity_agrees_with_satisfies_atoms(backend, case):
    tgd, trigger, schema, facts = case
    state = _state(backend, schema, facts)
    head = engine._ground_head(tgd)
    assert head is not None
    assert engine._head_holds(state.relations, head, trigger) == (
        satisfies_atoms(tgd.head, state, trigger)
    )


def test_existential_heads_keep_the_search():
    schema = Schema.of(("A", 2))
    tgd = parse_dependency("A(x, y) -> exists z . A(y, z)", schema)
    assert engine._ground_head(tgd) is None
