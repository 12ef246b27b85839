"""Self-tests of the benchmark: its oracles, its percentile rule, its
determinism and its tracer.

    python -m pytest perfbench
"""

from __future__ import annotations

import shutil

import pytest

import oracles
import run
import workloads
from tracing import NullTracer, Tracer, engine_patches

SCRATCH = run.OUT / "selftest"


@pytest.fixture
def workdir():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


def small(workload, **sizes):
    for name, value in sizes.items():
        setattr(workload, name, value)
    return workload


def chased(workload, workdir, seed=3):
    inputs = workload.setup(seed, workdir)
    expected = workload.expect(inputs)
    output = workload.op(inputs, 0, NullTracer())
    return inputs, expected, output


def copy(relations):
    return {name: set(tuples) for name, tuples in relations.items()}


class TestRollupOracle:
    @pytest.fixture
    def case(self, workdir):
        workload = small(workloads.Rollup(), facts=400, levels=3)
        inputs, expected, output = chased(workload, workdir)
        result = output.value
        return expected["rows"], workloads.relations_of(result.instance), result

    def test_accepts_the_engine_result(self, case):
        rows, relations, result = case
        assert oracles.check_rollup(rows, 3, relations, result.stop_reason) == []

    def test_rejects_a_missing_rollup_fact(self, case):
        rows, relations, result = case
        bad = copy(relations)
        bad["A0"].pop()
        assert oracles.check_rollup(rows, 3, bad, result.stop_reason)

    def test_rejects_an_extra_rollup_fact(self, case):
        rows, relations, result = case
        bad = copy(relations)
        bad["A1"].add(("n1_0", "nowhere"))
        assert oracles.check_rollup(rows, 3, bad, result.stop_reason)

    def test_rejects_a_lost_input_fact(self, case):
        rows, relations, result = case
        bad = copy(relations)
        bad["L2"].pop()
        assert oracles.check_rollup(rows, 3, bad, result.stop_reason)

    def test_rejects_a_budget_stop(self, case):
        rows, relations, _result = case
        assert oracles.check_rollup(rows, 3, relations, "round_budget")


class TestInventOracle:
    @pytest.fixture
    def case(self, workdir):
        workload = small(workloads.Invent(), facts=400, pins=2)
        inputs, expected, output = chased(workload, workdir)
        result = output.value
        relations = workloads.relations_of(result.instance)
        nulls = {e for tuples in relations.values() for tup in tuples
                 for e in tup if isinstance(e, int)}
        return expected["rows"], relations, result.stop_reason, len(nulls)

    def test_accepts_the_engine_result(self, case):
        assert oracles.check_invent(*case) == []

    def test_the_pins_were_merged(self, case):
        rows, relations, _stop, _nulls = case
        pins = dict(rows["Pin"])
        cards = dict(relations["Card"])
        assert pins and all(cards[key] == value for key, value in pins.items())

    def test_rejects_an_unpinned_card(self, case):
        rows, relations, stop, nulls = case
        bad = copy(relations)
        key, value = rows["Pin"][0]
        bad["Card"].discard((key, value))
        bad["Card"].add((key, 10**9))
        assert oracles.check_invent(rows, bad, stop, nulls)

    def test_rejects_a_second_card(self, case):
        rows, relations, stop, nulls = case
        bad = copy(relations)
        key = rows["L0"][0][0]
        bad["Card"].add((key, 10**9))
        assert oracles.check_invent(rows, bad, stop, nulls)

    def test_rejects_a_missing_report(self, case):
        rows, relations, stop, nulls = case
        bad = copy(relations)
        bad["Reports"].pop()
        assert oracles.check_invent(rows, bad, stop, nulls)

    def test_rejects_a_shared_manager_null(self, case):
        rows, relations, stop, nulls = case
        bad = copy(relations)
        managers = sorted(bad["Manager"])
        (k0, _m0), (k1, m1) = managers[0], managers[1]
        bad["Manager"].discard(managers[0])
        bad["Manager"].add((k0, m1))
        assert oracles.check_invent(rows, bad, stop, nulls)

    def test_rejects_a_wrong_null_count(self, case):
        rows, relations, stop, nulls = case
        assert oracles.check_invent(rows, relations, stop, nulls + 1)


class TestReasonOracle:
    LINEAR = [oracles.parse_rule("R(x) -> P(x)")]
    GUARDED = [oracles.parse_rule("R(x), P(x) -> T(x)")]
    UNGUARDED = [oracles.parse_rule("R(x), P(y) -> T(x)")]
    SCHEMA = {"R", "P", "T"}

    def test_accepts_class_members(self):
        assert oracles.check_rewrite("success", self.LINEAR, "linear", self.SCHEMA) == []
        assert oracles.check_rewrite("success", self.GUARDED, "guarded", self.SCHEMA) == []
        assert oracles.check_rewrite("failure", None, "linear", self.SCHEMA) == []

    def test_rejects_a_rule_outside_the_target_class(self):
        assert oracles.check_rewrite("success", self.GUARDED, "linear", self.SCHEMA)
        assert oracles.check_rewrite("success", self.UNGUARDED, "guarded", self.SCHEMA)

    def test_rejects_inconsistent_status(self):
        assert oracles.check_rewrite("success", None, "linear", self.SCHEMA)
        assert oracles.check_rewrite("failure", self.LINEAR, "linear", self.SCHEMA)
        assert oracles.check_rewrite("maybe", None, "linear", self.SCHEMA)

    def test_rejects_a_rule_off_the_schema(self):
        rule = [oracles.parse_rule("R(x) -> Q(x)")]
        assert oracles.check_rewrite("success", rule, "linear", self.SCHEMA)

    def test_canonical_form_ignores_variable_names(self):
        left = oracles.parse_rule("R(x), P(y) -> T(x)")
        right = oracles.parse_rule("P(b), R(a) -> T(a)")
        other = oracles.parse_rule("R(x), P(y) -> T(y)")
        assert oracles.canonical_rule(left) == oracles.canonical_rule(right)
        assert oracles.canonical_rule(left) != oracles.canonical_rule(other)

    @pytest.fixture
    def pool(self, workdir):
        return workloads.WORKLOADS["reason"].setup(1, workdir)

    def test_known_answers_pass_and_a_wrong_answer_fails(self, pool):
        reason = workloads.WORKLOADS["reason"]
        known = next(i for i, d in enumerate(pool) if d.kind == "known")
        output = reason.op(pool, known, NullTracer())
        assert reason.check(pool, {}, known, output)[0] == []
        wrong = workloads.Decision(
            "known", pool[known].target, pool[known].text, pool[known].tgds,
            pool[known].schema, expected=("failure", None)
            if pool[known].expected[0] == "success"
            else ("success", ()),
        )
        bad_pool = list(pool)
        bad_pool[known] = wrong
        assert reason.check(bad_pool, {}, known, output)[0]

    def test_a_re_ask_must_agree_with_its_original(self, pool):
        reason = workloads.WORKLOADS["reason"]
        again = next(i for i, d in enumerate(pool) if d.kind == "again")
        seen = {}
        original = pool[again].original
        reason.check(pool, seen, original,
                     reason.op(pool, original, NullTracer()))
        output = reason.op(pool, again, NullTracer())
        assert reason.check(pool, dict(seen), again, output)[0] == []
        seen[original] = ("failure", ("not", "the", "same"))
        assert reason.check(pool, seen, again, output)[0]


class TestTailPercentile:
    def test_needs_ten_samples_beyond(self):
        assert run.tail_percentile([float(i) for i in range(1, 100)], 90) is None
        value = run.tail_percentile([float(i) for i in range(1, 101)], 90)
        assert value is not None
        assert sum(1 for i in range(1, 101) if i > value) >= 10

    def test_too_few_samples(self):
        assert run.tail_percentile([], 90) is None
        assert run.tail_percentile([1.0], 90) is None


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_one_seed_gives_one_input_digest(self, name, workdir):
        workload = workloads.WORKLOADS[name]
        first = workload.input_digest(workload.setup(5, workdir))
        second = workload.input_digest(workload.setup(5, workdir))
        other = workload.input_digest(workload.setup(6, workdir))
        assert first == second
        assert first != other


class TestTracer:
    def test_chase_time_is_its_children_plus_self(self, workdir):
        workload = small(workloads.Invent(), facts=400, pins=2)
        inputs = workload.setup(3, workdir)
        tracer = Tracer()
        tracer.egd_bodies = {id(b) for b in workload.egd_bodies(inputs)}
        from repro.chase import engine

        original = engine.all_extensions_of
        with tracer.installed(engine_patches(tracer)):
            assert engine.all_extensions_of is not original
            with tracer.span("op"):
                workload.op(inputs, 0, tracer)
        assert engine.all_extensions_of is original
        totals = tracer.layer_totals()
        chase = totals["chase"]
        children = sum(totals[name]["busy"] for name in
                       ("join", "activity", "sort", "egd.search")
                       if name in totals)
        assert chase["self"] >= 0
        assert chase["self"] + children == chase["busy"]
        assert totals["egd.search"]["calls"] > 0
        assert tracer.counts["join.items"] > 0


class TestBenchmarkContract:
    """The runner prints exactly the metrics BENCHMARK.json lists."""

    @pytest.fixture
    def listed(self):
        import json

        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        return spec

    def test_end_to_end_names_and_units(self, listed):
        assert {m["name"]: m["unit"] for m in listed["end_to_end"]} == \
            run.END_TO_END_UNITS

    def test_per_layer_names_and_units(self, listed):
        phase = run.Phase()
        phase.latencies.append(1.0)
        printed = run.per_layer_metrics(Tracer(), {}, phase, 1.0)
        assert {m["name"]: m["unit"] for m in listed["per_layer"]} == {
            name: unit for name, (_value, unit) in printed.items()
        }

    def test_workload_names(self, listed):
        assert [w["name"] for w in listed["workloads"]] == \
            list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
