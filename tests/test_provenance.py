"""Unit tests for chase provenance."""

import random

import pytest

from repro import Instance, Schema, chase, parse_tgds
from repro.chase import ChaseError, StopReason, explain, traced_chase
from repro.dependencies.classes import TGDClass
from repro.dependencies.denial import DenialConstraint
from repro.lang import Atom, Const, Fact, Var, parse_dependency
from repro.workloads.random_instances import random_instance
from repro.workloads.random_tgds import random_schema, random_tgd_set

SCHEMA = Schema.of(("E", 2), ("P", 1), ("Q", 1))


def fact(name: str, *elems: str) -> Fact:
    return Fact(SCHEMA.relation(name), tuple(Const(e) for e in elems))


class TestTracedChase:
    def test_trace_matches_untraced_result(self):
        from repro import chase

        rules = parse_tgds("E(x, y) -> P(x)\nP(x) -> Q(x)", SCHEMA)
        db = Instance.parse("E(a, b). E(b, c)", SCHEMA)
        plain = chase(db, rules)
        traced = traced_chase(db, rules)
        assert traced.instance.facts() == plain.instance.facts()
        assert traced.result.terminated

    def test_every_conclusion_was_new(self):
        rules = parse_tgds("E(x, y) -> P(x)\nE(x, y) -> P(y)", SCHEMA)
        db = Instance.parse("E(a, a)", SCHEMA)
        traced = traced_chase(db, rules)
        produced = [f for firing in traced.trace for f in firing.conclusions]
        assert len(produced) == len(set(produced))

    def test_premises_held_when_fired(self):
        rules = parse_tgds("E(x, y) -> P(x)\nP(x) -> Q(x)", SCHEMA)
        db = Instance.parse("E(a, b)", SCHEMA)
        traced = traced_chase(db, rules)
        known = set(db.facts())
        for firing in traced.trace:
            assert set(firing.premises) <= known
            known |= set(firing.conclusions)

    def test_nulls_in_trace(self):
        rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA)
        db = Instance.parse("P(a)", SCHEMA)
        traced = traced_chase(db, rules)
        assert len(traced.trace) == 1
        (firing,) = traced.trace
        assert firing.premises == (fact("P", "a"),)

    def test_egds_rejected(self):
        dep = parse_dependency("E(x, y), E(x, z) -> y = z", SCHEMA)
        with pytest.raises(ChaseError):
            traced_chase(Instance.parse("E(a, b)", SCHEMA), [dep])

    def test_denial_failure_traced(self):
        deps = list(parse_tgds("E(x, y) -> P(x)", SCHEMA)) + [
            parse_dependency("P(x) -> false", SCHEMA)
        ]
        traced = traced_chase(Instance.parse("E(a, b)", SCHEMA), deps)
        assert traced.result.failed
        assert traced.trace  # the firing that caused the violation is kept

    def test_producers_lookup(self):
        rules = parse_tgds("E(x, y) -> P(x)", SCHEMA)
        traced = traced_chase(Instance.parse("E(a, b)", SCHEMA), rules)
        assert len(traced.producers(fact("P", "a"))) == 1
        assert traced.producers(fact("E", "a", "b")) == ()


class TestExplain:
    def test_derivation_chain(self):
        rules = parse_tgds("E(x, y) -> P(x)\nP(x) -> Q(x)", SCHEMA)
        traced = traced_chase(Instance.parse("E(a, b)", SCHEMA), rules)
        lines = explain(traced, fact("Q", "a"))
        assert len(lines) == 3
        assert "[database]" in lines[-1]
        assert "Q(a)" in lines[0]

    def test_database_fact_is_leaf(self):
        rules = parse_tgds("E(x, y) -> P(x)", SCHEMA)
        traced = traced_chase(Instance.parse("E(a, b)", SCHEMA), rules)
        assert explain(traced, fact("E", "a", "b")) == ["E(a, b)  [database]"]

    def test_unknown_fact_rejected(self):
        rules = parse_tgds("E(x, y) -> P(x)", SCHEMA)
        traced = traced_chase(Instance.parse("E(a, b)", SCHEMA), rules)
        with pytest.raises(ValueError):
            explain(traced, fact("Q", "zzz"))

    def test_depth_cap(self):
        rel = SCHEMA.relation("E")
        chain_rules = parse_tgds("E(x, y) -> E(y, x)", SCHEMA)
        traced = traced_chase(Instance.parse("E(a, b)", SCHEMA), chain_rules)
        lines = explain(traced, fact("E", "b", "a"), max_depth=0)
        assert any("..." in line for line in lines)


CLASSES = (TGDClass.FULL, TGDClass.GUARDED, TGDClass.LINEAR)


def _random_case(seed: int):
    """A seeded full, guarded or linear set, every fourth one with a
    denial constraint, most with a small round budget."""
    rng = random.Random(seed)
    cls = CLASSES[seed % len(CLASSES)]
    schema = random_schema(rng, relations=rng.randint(2, 3), max_arity=2)
    try:
        tgds = random_tgd_set(
            rng, schema, rng.randint(1, 4), cls=cls, body_atoms=2,
            head_atoms=2, body_variables=3, existential_variables=1,
        )
    except ValueError:
        return None
    deps: list = list(tgds)
    if seed % 4 == 0:
        rel = rng.choice(list(schema))
        pool = [Var("d0"), Var("d1")]
        deps.append(DenialConstraint((
            Atom(rel, tuple(rng.choice(pool) for __ in range(rel.arity))),
        )))
    instance = random_instance(rng, schema, rng.randint(2, 3), density=0.3)
    if cls is TGDClass.FULL and seed % 2:
        max_rounds = None
    else:
        max_rounds = rng.choice([1, 2, 4])
    return instance, deps, max_rounds


class TestRandomInvariants:
    """The firing log against the run it observes, on random sets."""

    @pytest.mark.parametrize("seed", range(90))
    def test_trace_accounts_for_the_run(self, seed):
        case = _random_case(seed)
        if case is None:
            pytest.skip("schema cannot support requested tgd shape")
        instance, deps, max_rounds = case
        traced = traced_chase(instance, deps, max_rounds=max_rounds)
        result = traced.result
        known = set(instance.facts())
        for firing in traced.trace:
            assert set(firing.premises) <= known, str(firing)
            assert not known & set(firing.conclusions), str(firing)
            assert len(set(firing.conclusions)) == len(firing.conclusions)
            known |= set(firing.conclusions)
        assert known == result.instance.facts()
        assert len(traced.trace) == result.fired
        plain = chase(instance, deps, max_rounds=max_rounds)
        assert result.instance == plain.instance
        assert (
            result.rounds, result.fired, result.nulls_created,
            result.stop_reason,
        ) == (
            plain.rounds, plain.fired, plain.nulls_created,
            plain.stop_reason,
        )

    def test_cases_cover_every_stop_reason(self):
        reasons = set()
        for seed in range(90):
            case = _random_case(seed)
            if case is not None:
                instance, deps, max_rounds = case
                reasons.add(
                    chase(instance, deps, max_rounds=max_rounds).stop_reason
                )
        assert reasons == {
            StopReason.FIXPOINT, StopReason.ROUND_BUDGET,
            StopReason.DENIAL_VIOLATION,
        }
