"""The benchmark's workloads: inputs from a seed, one op, and its checks.

Each workload is driven as a closed loop by ``run.py``: one process,
one thread, one client, the next op sent when the previous one has
returned.  ``setup`` makes the inputs from the seed (it is timed and
repeated); ``expect`` precomputes what the oracles need (untimed);
``op`` is the timed unit; ``check`` turns its output into plain data
and hands it to :mod:`oracles`.  The engine runs with its defaults
(object backend, compiled static plans, semi-naive, no delta chunks),
so a later change to a default is measured as users get it.
"""

from __future__ import annotations

import gc
import hashlib
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.chase.engine import chase
from repro.dependencies.egd import EGD
from repro.instances.instance import Instance
from repro.instances.streaming import FactStreamWriter
from repro.lang.parser import parse_dependency, parse_tgds
from repro.lang.schema import Relation, Schema
from repro.lang.terms import Const, Null
from repro.perf.families import clear_engine_caches
from repro.rewriting import frontier_guarded_to_guarded, guarded_to_linear
from repro.workloads.factory import (
    WorkloadSpec,
    constraints_of,
    dependencies_of,
    generate_rows,
    write_workload,
)

import oracles


def _sha256_file(path: Path, extra: str) -> str:
    digest = hashlib.sha256(extra.encode())
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _element(element: object) -> object:
    """Constants as their name, nulls as their index."""
    if isinstance(element, Const):
        return element.name
    if isinstance(element, Null):
        return element.index
    raise TypeError(f"unexpected chase element {element!r}")


def relations_of(instance: Instance) -> oracles.Relations:
    return {
        relation.name: {
            tuple(_element(e) for e in tup)
            for tup in instance.tuples(relation)
        }
        for relation in instance.schema
    }


def digest_relations(relations: oracles.Relations) -> str:
    lines = sorted(
        "\t".join([name, *map(repr, tup)])
        for name, tuples in relations.items()
        for tup in tuples
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass
class Output:
    """One op's result as the checks and the traced run see it."""

    value: Any
    tallies: dict[str, float] = field(default_factory=dict)


# -- chase workloads ---------------------------------------------------------

class _StreamChase:
    """An op that ingests a fact-stream file and chases it with the
    engine's defaults.  Every op repeats the same input, so every op must
    give the same output; the output digest is the first op's."""

    fixed_input = True
    digest_ops = 1

    def input_digest(self, inputs: dict[str, Any]) -> str:
        rules = "\n".join(map(str, inputs["deps"]))
        return _sha256_file(inputs["path"], rules)

    def expect(self, inputs: dict[str, Any]) -> dict[str, Any]:
        return {"rows": oracles.read_stream_rows(inputs["path"])}

    def egd_bodies(self, inputs: dict[str, Any]) -> list[object]:
        return [dep.body for dep in inputs["deps"] if isinstance(dep, EGD)]

    def prepare(self, inputs: dict[str, Any], index: int) -> None:
        """Collect the last op's garbage, so no op pays for another's."""
        gc.collect()

    def op(self, inputs: dict[str, Any], index: int, tracer: Any) -> Output:
        with tracer.span("ingest"):
            instance = Instance.from_stream(inputs["path"])
        with tracer.span("chase"):
            result = chase(instance, inputs["deps"])
        return Output(result, {
            "ingest.facts": instance.fact_count(),
            "chase.rounds": result.rounds,
            "chase.fired": result.fired,
            "chase.nulls": result.nulls_created,
            "chase.facts_added": (
                result.instance.fact_count() - instance.fact_count()
            ),
        })


class Rollup(_StreamChase):
    """Stream a layered-FK dataset in and chase it to fixpoint with the
    factory's rollup tgds and per-level key egds.

    Data-heavy: ingest, tgd trigger joins, the canonical trigger sort and
    read-only egd violation scans do the work.  No nulls arise, so the
    activity checks take the ground fast path."""

    name = "rollup"
    facts = 40_000
    levels = 4

    def setup(self, seed: int, workdir: Path) -> dict[str, Any]:
        spec = WorkloadSpec(
            name="rollup", seed=seed, facts=self.facts, levels=self.levels,
            skew=1.0, violation_rate=0.0,
        )
        path = workdir / f"rollup-{seed}.facts"
        write_workload(spec, path)
        deps = [*dependencies_of(spec), *constraints_of(spec)]
        return {"path": path, "deps": deps}

    def check(self, inputs, expected, index, output) -> tuple[list[str], str]:
        result = output.value
        relations = relations_of(result.instance)
        problems = oracles.check_rollup(
            expected["rows"], self.levels, relations, result.stop_reason
        )
        return problems, digest_relations(relations)


# -- invent ----------------------------------------------------------------

_INVENT_SCHEMA = Schema([
    Relation("L0", 2), Relation("L1", 2), Relation("L2", 2),
    Relation("Pin", 2), Relation("Card", 2), Relation("Manager", 2),
    Relation("Reports", 2), Relation("Issued", 1),
])

# Existential rules over the factory's levels, the full rules that
# consume their output, and a key egd that the Pin rows force to merge
# nulls into constants.
INVENT_RULES = """\
L0(x, y) -> exists c . Card(x, c)
L0(x, y), L1(y, z) -> exists m . Manager(y, m)
L0(x, y), Manager(y, m) -> Reports(x, m)
Card(x, c) -> Issued(c)
Pin(x, k) -> Card(x, k)
Card(x, c), Card(x, d) -> c = d"""


class Invent(_StreamChase):
    """Ingest a small factory dataset and chase it with existential
    rules plus a key egd.

    Restricted activity checks, firing with null invention and the egd
    merge path do the work.  Each Pin row forces one null-to-constant
    merge, which rebuilds the working state and forces a full
    re-enumeration, so the pin count is kept to a handful."""

    name = "invent"
    facts = 20_000
    levels = 3
    pins = 2

    def setup(self, seed: int, workdir: Path) -> dict[str, Any]:
        spec = WorkloadSpec(
            name="invent", seed=seed, facts=self.facts, levels=self.levels,
            skew=1.0, violation_rate=0.0,
        )
        rows = list(generate_rows(spec))
        l0_keys = sorted(
            {elements[0].name for relation, elements in rows
             if relation.name == "L0"}
        )
        pinned = random.Random(seed).sample(l0_keys, self.pins)
        path = workdir / f"invent-{seed}.facts"
        schema = Schema([
            Relation(f"L{k}", 2) for k in range(self.levels)
        ] + [Relation("Pin", 2)])
        with FactStreamWriter(path, schema) as writer:
            for relation, elements in rows:
                writer.write(relation, elements)
            for i, key in enumerate(pinned):
                writer.write(Relation("Pin", 2), (key, f"pin_{i}"))
        deps = [
            parse_dependency(line, _INVENT_SCHEMA)
            for line in INVENT_RULES.splitlines()
        ]
        return {"path": path, "deps": deps}

    def check(self, inputs, expected, index, output) -> tuple[list[str], str]:
        result = output.value
        relations = relations_of(result.instance)
        nulls = {
            e for tuples in relations.values() for tup in tuples
            for e in tup if isinstance(e, int)
        }
        problems = oracles.check_invent(
            expected["rows"], relations, result.stop_reason, len(nulls)
        )
        return problems, digest_relations(relations)


# -- reason ----------------------------------------------------------------

_REASON_RELATIONS = ("R0", "R1", "R2")
_REASON_SCHEMA = Schema([Relation(name, 1) for name in _REASON_RELATIONS])
_KNOWN_SCHEMA = Schema([Relation(name, 1) for name in ("R", "P", "T")])

# The paper's known answers: the Example 9/10 positives and the
# Section 9.1 separation witnesses (guarded but not linearizable,
# frontier-guarded but not guardable).
KNOWN = (
    ("E9", "linear", "R(x) -> P(x)\nR(x), P(x) -> T(x)",
     "success", ["R(x) -> P(x)", "R(x) -> T(x)"]),
    ("sigma_G", "linear", "R(x), P(x) -> T(x)", "failure", None),
    ("E10", "guarded", "R(x) -> P(x)\nR(x), P(y) -> T(x)",
     "success", ["R(x) -> P(x)", "P(x), R(x) -> T(x)"]),
    ("sigma_F", "guarded", "R(x), P(y) -> T(x)", "failure", None),
)

# One block of decisions.  Fresh inputs cycle through four cells, so
# every block has the same mix: guarded sets for Algorithm 1 and
# frontier-guarded sets for Algorithm 2, each without and with an
# existential (the existential decides the candidate space and with it
# most of the latency).  Two slots re-ask an earlier input of the block
# with its variables renamed, two ask a known-answer case.
BLOCK = (
    "G0", "F0", "G1", "F1", "G0", "F0", "G1", "F1", "known", "again:2",
    "G0", "F0", "G1", "F1", "G0", "F0", "G1", "F1", "known", "again:13",
)
POOL_BLOCKS = 40


_R = _REASON_RELATIONS
_BODIES = [f"{a}(x)" for a in _R] + [
    f"{a}(x), {b}(x)" for a in _R for b in _R if a != b
]
# Every rule the generator can draw.  Heads are one atom: over a unary
# schema an existential head atom then cannot mention the frontier,
# which keeps every decision in this space under a second (two-atom
# heads such as "R2(x), R0(z)" have decisions that run for minutes).
GUARDED_FULL = [
    f"{body} -> {h}(x)" for body in _BODIES for h in _R if f"{h}(x)" not in body
]
GUARDED_EXISTENTIAL = [f"{body} -> exists z . {h}(z)" for body in _BODIES for h in _R]
FRONTIER_GUARDED_FULL = [
    f"{a}(x), {b}(y) -> {h}(x)" for a in _R for b in _R for h in _R if h != a
]
FRONTIER_GUARDED_EXISTENTIAL = [
    f"{a}(x), {b}(y) -> exists z . {h}(z)" for a in _R for b in _R for h in _R
]
# cell -> (choices for the first rule, choices for the second rule)
CELLS = {
    "G0": (GUARDED_FULL, GUARDED_FULL),
    "G1": (GUARDED_EXISTENTIAL, GUARDED_FULL + GUARDED_EXISTENTIAL),
    "F0": (FRONTIER_GUARDED_FULL, FRONTIER_GUARDED_FULL + GUARDED_FULL),
    "F1": (FRONTIER_GUARDED_EXISTENTIAL,
           FRONTIER_GUARDED_FULL + FRONTIER_GUARDED_EXISTENTIAL
           + GUARDED_FULL + GUARDED_EXISTENTIAL),
}


def reason_input(rng: random.Random, cell: str) -> str:
    """A two-rule set for one cell: ``G`` guarded (Algorithm 1), ``F``
    frontier-guarded with an unguarded first rule (Algorithm 2); ``1``
    puts an existential in the first rule, ``0`` in neither."""
    first, second = CELLS[cell]
    return f"{rng.choice(first)}\n{rng.choice(second)}"


def rename_variables(text: str, suffix: str) -> str:
    return re.sub(r"\b([xyz])\b", lambda m: f"{m.group(1)}_{suffix}", text)


@dataclass(frozen=True)
class Decision:
    kind: str  # a cell name, "known" or "again"
    target: str  # "linear" (Algorithm 1) or "guarded" (Algorithm 2)
    text: str
    tgds: tuple
    schema: Schema
    original: int = -1  # pool index a re-ask repeats
    expected: tuple | None = None  # (status, canonical rules) of known cases


def _rule_of(tgd: Any) -> oracles.Rule:
    def atoms(part: Any) -> tuple[oracles.Atom, ...]:
        return tuple(
            (atom.relation.name, tuple(arg.name for arg in atom.args))
            for atom in part
        )

    return atoms(tgd.body), atoms(tgd.head)


class Reason:
    """Rewriting decisions with Algorithms 1 and 2 on small random rule
    sets over unary schemas, with the paper's known answers interleaved.

    Rule-heavy, no data: entailment, candidate enumeration, certificate
    checks and many tiny chases do the work.  The engine caches are
    cleared at every block start, so each block does the same work
    whatever ran before it, and the renamed re-asks inside a block are
    the caches' reuse.  Arity-2 schemas are avoided: they have decisions
    that take tens of seconds."""

    name = "reason"
    fixed_input = False
    digest_ops = len(BLOCK)  # the output digest covers the first block

    def setup(self, seed: int, workdir: Path) -> list[Decision]:
        rng = random.Random(seed)
        pool: list[Decision] = []
        known = 0
        for _block in range(POOL_BLOCKS):
            start = len(pool)
            for kind in BLOCK:
                if kind == "known":
                    _name, target, text, status, rules = KNOWN[known % len(KNOWN)]
                    known += 1
                    expected = (status, oracles.canonical_rules(
                        None if rules is None else
                        [oracles.parse_rule(rule) for rule in rules]
                    ))
                    pool.append(Decision(
                        kind, target, text, parse_tgds(text, _KNOWN_SCHEMA),
                        _KNOWN_SCHEMA, expected=expected,
                    ))
                elif kind.startswith("again:"):
                    original = start + int(kind.split(":")[1])
                    source = pool[original]
                    text = rename_variables(source.text, str(len(pool)))
                    pool.append(Decision(
                        "again", source.target, text,
                        parse_tgds(text, _REASON_SCHEMA), _REASON_SCHEMA,
                        original=original,
                    ))
                else:
                    text = reason_input(rng, kind)
                    target = "linear" if kind[0] == "G" else "guarded"
                    pool.append(Decision(
                        kind, target, text, parse_tgds(text, _REASON_SCHEMA),
                        _REASON_SCHEMA,
                    ))
        return pool

    def input_digest(self, pool: list[Decision]) -> str:
        return hashlib.sha256(
            "\n--\n".join(d.text for d in pool).encode()
        ).hexdigest()

    def expect(self, pool: list[Decision]) -> dict[int, tuple]:
        """Canonical outputs seen so far in this pass over a block; the
        re-asks compare against them."""
        return {}

    def egd_bodies(self, pool: list[Decision]) -> list[object]:
        return []

    def prepare(self, pool: list[Decision], index: int) -> None:
        if index % len(BLOCK) == 0:
            clear_engine_caches()
            gc.collect()

    def op(self, pool: list[Decision], index: int, tracer: Any) -> Output:
        decision = pool[index % len(pool)]
        algorithm = (guarded_to_linear if decision.target == "linear"
                     else frontier_guarded_to_guarded)
        with tracer.span("rewrite"):
            result = algorithm(decision.tgds, schema=decision.schema)
        return Output(result, {
            "rewrite.considered": result.candidates_considered,
            "rewrite.entailed": result.entailed_candidates,
            "reason.undecided": result.status == "inconclusive",
        })

    def check(self, pool, seen, index, output) -> tuple[list[str], str]:
        position = index % len(pool)
        decision = pool[position]
        result = output.value
        rewriting = (None if result.rewriting is None
                     else [_rule_of(tgd) for tgd in result.rewriting])
        problems = oracles.check_rewrite(
            result.status, rewriting, decision.target,
            {relation.name for relation in decision.schema},
        )
        canonical = (result.status, oracles.canonical_rules(rewriting))
        if decision.expected is not None and canonical != decision.expected:
            problems.append(
                f"known case {decision.text!r}: got {canonical}, "
                f"expected {decision.expected}"
            )
        if decision.original >= 0 and seen.get(decision.original) != canonical:
            problems.append(
                f"renamed re-ask of input {decision.original} disagrees: "
                f"{canonical} vs {seen.get(decision.original)}"
            )
        seen[position] = canonical
        return problems, hashlib.sha256(repr(canonical).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (Rollup(), Invent(), Reason())}
