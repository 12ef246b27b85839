"""Egds inside the semi-naive loop.

An egd merge rewrites only the facts that mention the dropped element,
patches the index and statistics in place, and logs the rewritten facts
it creates; egd and denial checks are skipped while none of their body
relations has logged a fact since their last clean scan.  This module
pins that protocol:

* after any sequence of merges, both working-state backends look
  exactly like a state built fresh from the merged facts, and every
  fact a merge created is in the log delta (Hypothesis);
* the saved work stays saved: after merges the tgds enumerate only the
  triggers the rewritten facts create, and an egd or denial whose body
  relations gained no fact is not checked again (``strategy="naive"``
  still checks it every round); a key egd whose keys are unique is
  answered from the index statistics without a body join;
* a chunked chase is a function of its inputs alone, not of the
  interpreter's hash seed (subprocess runs under three seeds);
* the working state is freed when ``chase()`` returns, with no cyclic
  garbage collection needed.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import Instance, Schema, chase, parse_tgds
from repro.chase import engine
from repro.chase.engine import _State
from repro.columnar.state import ColumnarState
from repro.columnar.store import ColumnarStore
from repro.dependencies.tgd import TGD
from repro.lang import Const, Null, Relation
from repro.lang.parser import parse_dependency
from repro.lang.terms import element_sort_key
from repro.telemetry import TELEMETRY

from .matchers import substitute

BACKENDS = {"object": _State, "columnar": ColumnarState}
POOL = [Const(f"c{i}") for i in range(3)] + [Null(i) for i in range(4)]


@st.composite
def merge_sequences(draw):
    """A two-relation state over constants and nulls, then a sequence
    of (keep, drop) merges among the same elements."""
    arities = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    relations = [Relation(f"R{i}", arity) for i, arity in enumerate(arities)]
    element = st.sampled_from(POOL)
    facts = {
        rel: draw(st.sets(st.tuples(*[element] * rel.arity), max_size=14))
        for rel in relations
    }
    merges = draw(
        st.lists(
            st.tuples(element, element).filter(lambda pair: pair[0] != pair[1]),
            max_size=5,
        )
    )
    return Schema(relations), facts, merges


def _observed(state, schema):
    """Everything a join or the cost model can read from a state."""
    view = {}
    for rel in schema:
        view[rel, "tuples"] = set(state.tuples(rel))
        view[rel, "sorted"] = state.sorted_tuples(rel)
        view[rel, "stats"] = state.relation_stats(rel)
        for pos in range(rel.arity):
            for elem in POOL:
                view[rel, pos, elem] = (
                    set(state.tuples_with(rel, pos, elem)),
                    state.sorted_tuples_with(rel, pos, elem),
                )
    return view


class TestMergeProtocol:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @given(case=merge_sequences())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_merged_state_equals_a_fresh_build(self, backend, case):
        schema, facts, merges = case
        domain = {elem for tuples in facts.values() for t in tuples for elem in t}
        state = BACKENDS[backend](
            Instance(schema, domain, facts), schema, log_input=True
        )
        for keep, drop in merges:
            before = {rel: set(state.tuples(rel)) for rel in schema}
            logged = len(state.log)
            state.merge(keep, drop)
            delta = state.log[logged:]
            created = {
                (rel, tup)
                for rel in schema
                for tup in state.tuples(rel) - before[rel]
            }
            # The delta holds exactly the facts the merge created, per
            # relation in canonical order, and the marks point past them.
            assert set(delta) == created
            assert delta == sorted(
                delta,
                key=lambda entry: (
                    list(schema).index(entry[0]), element_sort_key(entry[1])
                ),
            )
            for rel, _tup in delta:
                assert state.log_marks[rel] > logged
        fresh = BACKENDS[backend](
            Instance(schema, state.domain, state.relations), schema
        )
        assert _observed(state, schema) == _observed(fresh, schema)

    @given(case=merge_sequences())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_backends_log_identically(self, case):
        """Counter parity rests on both backends logging the same facts
        in the same order, merges included."""
        schema, facts, merges = case
        domain = {elem for tuples in facts.values() for t in tuples for elem in t}
        instance = Instance(schema, domain, facts)
        states = [
            cls(instance, schema, log_input=True) for cls in BACKENDS.values()
        ]
        for keep, drop in merges:
            for state in states:
                state.merge(keep, drop)
        assert states[0].log == states[1].log
        assert states[0].log_marks == states[1].log_marks
        assert states[0].relations == states[1].relations


# An invent-shaped set: existential cards, pins that force
# null-to-constant merges, and a key egd.
INVENT_SCHEMA = Schema.of(("L0", 2), ("Pin", 2), ("Card", 2), ("Issued", 1))
INVENT_RULES = (
    "L0(x, y) -> exists c . Card(x, c)",
    "Card(x, c) -> Issued(c)",
    "Pin(x, k) -> Card(x, k)",
    "Card(x, c), Card(x, d) -> c = d",
)


def _invent_instance(keys: int = 30) -> Instance:
    facts = [f"L0(k{i}, v{i})" for i in range(keys)]
    facts += ["Pin(k0, p0)", "Pin(k7, p1)"]
    return Instance.parse(". ".join(facts), INVENT_SCHEMA)


def _counted_chase(instance, deps, **kwargs):
    TELEMETRY.reset()
    TELEMETRY.enable(spans=False)
    try:
        result = chase(instance, deps, **kwargs)
        return result, TELEMETRY.snapshot()
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()


class TestSavedWork:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_merges_do_not_reenumerate_old_triggers(self, backend, monkeypatch):
        rewritten = []
        cls = BACKENDS[backend]
        original = cls.merge

        def counting(state, keep, drop):
            rewritten.append(sum(
                drop in tup for tuples in state.relations.values()
                for tup in tuples
            ))
            original(state, keep, drop)

        monkeypatch.setattr(cls, "merge", counting)
        deps = [parse_dependency(rule, INVENT_SCHEMA) for rule in INVENT_RULES]
        result, counters = _counted_chase(
            _invent_instance(), deps, backend=backend
        )
        assert result.successful
        assert counters["chase.egd_merges"] == 2 == len(rewritten)
        # Every L0 key is unique, so before the merges each enumerated
        # trigger fires; after them, only triggers over the rewritten
        # facts are enumerated.  A full post-merge re-join would add
        # about one rejected trigger per firing.
        assert counters["chase.triggers_enumerated"] <= (
            result.fired + sum(rewritten)
        )

    @staticmethod
    def _checks(monkeypatch, strategy):
        """Chase a growing transitive closure next to constraints.  Count
        the checks of each egd and denial: one per ``_chase_egd`` call
        of an egd, one per body join of a denial.  Also count the body
        joins of each egd, which the key egd ``K`` answers from the
        index without."""
        schema = Schema.of(("E", 2), ("K", 2), ("D", 1))
        deps = [
            *parse_tgds("E(x, y), E(y, z) -> E(x, z)", schema),
            parse_dependency("K(x, y), K(x, z) -> y = z", schema),
            parse_dependency("D(x), K(x, x) -> false", schema),
            parse_dependency("E(x, y), E(y, x) -> x = y", schema),
        ]
        bodies = {
            id(dep.body): str(dep) for dep in deps if not isinstance(dep, TGD)
        }
        checks = {name: 0 for name in bodies.values()}
        joins = {name: 0 for name in bodies.values()}

        def counted_join(name):
            original = getattr(engine, name)

            def counted(atoms, *args, **kwargs):
                if id(atoms) in bodies:
                    counter = checks if name == "find_extension" else joins
                    counter[bodies[id(atoms)]] += 1
                return original(atoms, *args, **kwargs)

            monkeypatch.setattr(engine, name, counted)

        counted_join("all_extensions_of")
        counted_join("find_extension")
        original_check = engine._chase_egd

        def counted_check(state, egd, *args, **kwargs):
            checks[str(egd)] += 1
            return original_check(state, egd, *args, **kwargs)

        monkeypatch.setattr(engine, "_chase_egd", counted_check)
        instance = Instance.parse(
            "E(a, b). E(b, c). E(c, d). E(d, e). E(e, f). "
            "K(a, b). K(c, d). D(a)",
            schema,
        )
        result = chase(instance, deps, strategy=strategy)
        assert result.successful
        return checks, joins, result.rounds

    def test_unchanged_constraint_bodies_are_not_rejoined(self, monkeypatch):
        checks, _joins, rounds = self._checks(monkeypatch, "seminaive")
        assert rounds >= 3
        # K and D never gain a fact: one clean check each.
        assert checks["K(x, y), K(x, z) -> y = z"] == 1
        assert checks["D(x), K(x, x) -> false"] == 1
        # E grows every round but the last, and the egd over it sorts
        # before the closure rule, so it sees new E facts every round.
        assert checks["E(x, y), E(y, x) -> x = y"] == rounds

    def test_naive_still_joins_every_round(self, monkeypatch):
        checks, _joins, rounds = self._checks(monkeypatch, "naive")
        assert set(checks.values()) == {rounds}

    @pytest.mark.parametrize("strategy", ["seminaive", "naive"])
    def test_unique_keys_make_no_egd_body_joins(self, monkeypatch, strategy):
        """A key egd whose keys are unique holds from the index
        statistics alone; the non-key egd over E still joins its body
        at every check."""
        checks, joins, rounds = self._checks(monkeypatch, strategy)
        assert checks["K(x, y), K(x, z) -> y = z"] >= 1
        assert joins["K(x, y), K(x, z) -> y = z"] == 0
        assert joins["E(x, y), E(y, x) -> x = y"] == rounds

    def test_shared_keys_join_only_their_group(self, monkeypatch):
        """With a key shared by two facts, the key egd joins its body
        once, seeded with that key, and fails on the two constants."""
        schema = Schema.of(("K", 2))
        egd = parse_dependency("K(x, y), K(x, z) -> y = z", schema)
        seeds = []
        original = engine.all_extensions_of

        def counted(atoms, target, partial=None, **kwargs):
            if atoms is egd.body:
                seeds.append(dict(partial or {}))
            return original(atoms, target, partial, **kwargs)

        monkeypatch.setattr(engine, "all_extensions_of", counted)
        instance = Instance.parse("K(a, b). K(a, c). K(d, e). K(f, g)", schema)
        result = chase(instance, [egd])
        assert result.stop_reason == "egd_failure"
        assert seeds == [{egd.body[0].args[0]: Const("a")}]


HASHSEED_SCRIPT = r"""
import json
from repro import Instance, Schema, chase, parse_tgds
from repro.lang.terms import element_sort_key
from repro.workloads import WorkloadSpec, generate_rows, schema_of

spec = WorkloadSpec(name="hash-seed", seed=3, facts=300, levels=3, skew=1.0,
                    violation_rate=0.0)
schema = Schema(list(schema_of(spec)) + list(
    Schema.of(("Card", 2), ("Manager", 2), ("Reports", 2), ("Issued", 1))))
deps = parse_tgds(
    "L0(x, y) -> exists c . Card(x, c)\n"
    "L0(x, y), L1(y, z) -> exists m . Manager(y, m)\n"
    "L0(x, y), Manager(y, m) -> Reports(x, m)\n"
    "Card(x, c) -> Issued(c)", schema)
relations = {}
for relation, elements in generate_rows(spec):
    relations.setdefault(relation, set()).add(tuple(elements))
domain = {e for tuples in relations.values() for t in tuples for e in t}
instance = Instance(schema, domain, relations)
out = {}
for backend in ("object", "columnar"):
    result = chase(instance, deps, backend=backend, delta_chunk=7)
    facts = sorted(
        (rel.name, [list(element_sort_key(e)) for e in tup])
        for rel, tuples in result.instance._relations.items() for tup in tuples
    )
    out[backend] = [result.fired, result.nulls_created, facts]
print(json.dumps(out))
"""


def test_chunked_chase_is_independent_of_the_hash_seed():
    """Facts, null numbering and ``fired`` of an existential chunked
    chase agree under three hash seeds, and across both backends."""
    runs = []
    for seed in ("0", "7", "12345"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONHASHSEED"] = seed
        done = subprocess.run(
            [sys.executable, "-c", HASHSEED_SCRIPT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    first = runs[0]
    assert first["object"][1] > 0  # nulls were invented
    assert first["object"] == first["columnar"]
    assert all(run == first for run in runs[1:])


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("matcher", ["compiled", "interpreted"])
def test_working_state_is_freed_without_gc(backend, matcher, monkeypatch):
    """No reference cycle keeps a working state (or a columnar store it
    built) alive after ``chase()`` returns, merges included, so its
    index and sorted views are freed at once rather than at the next
    cyclic collection."""
    substitute(monkeypatch, matcher)
    deps = [parse_dependency(rule, INVENT_SCHEMA) for rule in INVENT_RULES]
    instance = _invent_instance(8)
    gc.collect()
    gc.disable()
    try:
        result = chase(instance, deps, backend=backend)
        kept = {id(instance._columnar), id(result.instance._columnar)}
        alive = [
            obj for obj in gc.get_objects()
            if isinstance(obj, (_State, ColumnarState))
            or isinstance(obj, ColumnarStore) and id(obj) not in kept
        ]
    finally:
        gc.enable()
    assert result.successful
    assert alive == []
