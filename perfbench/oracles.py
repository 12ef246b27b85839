"""Output checks that do not use the engine.

Every check here is plain Python over plain data: a relation is a set
of tuples whose constants are ``str`` and whose labeled nulls are
``int`` (the null's index), and a rule is ``(body, head)`` with atoms
``(relation, (variable, ...))``.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from pathlib import Path

Relations = dict[str, set[tuple[object, ...]]]
Atom = tuple[str, tuple[str, ...]]
Rule = tuple[tuple[Atom, ...], tuple[Atom, ...]]

_HEADER = "#repro-factstream v1 "


def read_stream_rows(path: Path) -> dict[str, list[tuple[str, ...]]]:
    """The rows of a fact-stream v1 file, read without the engine's
    reader: one header line, then ``relation<TAB>arg<TAB>...`` rows."""
    rows: dict[str, list[tuple[str, ...]]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        if not header.startswith(_HEADER):
            raise ValueError(f"{path}: not a fact-stream v1 file")
        for line in handle:
            relation, *args = line.rstrip("\n").split("\t")
            rows[relation].append(tuple(args))
    return dict(rows)


def _expect_equal(name: str, got: set, want: set, problems: list[str]) -> None:
    if got != want:
        missing = len(want - got)
        extra = len(got - want)
        problems.append(
            f"{name}: {missing} expected facts missing, {extra} unexpected"
        )


def _inputs_kept(
    rows: dict[str, list[tuple[str, ...]]], result: Relations,
    problems: list[str],
) -> None:
    for relation, tuples in rows.items():
        _expect_equal(relation, result.get(relation, set()), set(tuples), problems)


def check_rollup(
    rows: dict[str, list[tuple[str, ...]]], levels: int,
    result: Relations, stop_reason: str,
) -> list[str]:
    """Each ``Ak`` is the hash join of ``Lk`` and ``Lk+1`` on the parent
    key, the input is kept unchanged, and the chase reached a fixpoint."""
    problems: list[str] = []
    if stop_reason != "fixpoint":
        problems.append(f"stop reason {stop_reason!r}, expected 'fixpoint'")
    _inputs_kept(rows, result, problems)
    for k in range(levels - 1):
        parents: dict[str, list[str]] = defaultdict(list)
        for child, parent in rows.get(f"L{k + 1}", ()):
            parents[child].append(parent)
        joined = {
            (x, z)
            for x, y in rows.get(f"L{k}", ())
            for z in parents.get(y, ())
        }
        _expect_equal(f"A{k}", result.get(f"A{k}", set()), joined, problems)
    expected_names = set(rows) | {f"A{k}" for k in range(levels - 1)}
    for relation, tuples in result.items():
        if tuples and relation not in expected_names:
            problems.append(f"unexpected relation {relation}")
    return problems


def check_invent(
    rows: dict[str, list[tuple[str, ...]]], result: Relations,
    stop_reason: str, nulls_in_result: int,
) -> list[str]:
    """The obligations of the invent rules, from the input alone:

    * every ``L0`` key has exactly one ``Card``; it is the pinned constant
      where a ``Pin`` row exists and a null of its own otherwise;
    * every ``L0`` parent with an ``L1`` row has exactly one ``Manager``,
      a null of its own;
    * ``Reports(x, m)`` holds exactly for ``L0(x, y)`` with ``m`` the
      manager of ``y``, and ``Issued`` holds exactly the card values;
    * the result's null count is what those obligations imply.
    """
    problems: list[str] = []
    if stop_reason != "fixpoint":
        problems.append(f"stop reason {stop_reason!r}, expected 'fixpoint'")
    _inputs_kept(rows, result, problems)
    l0 = rows.get("L0", [])
    pins = dict(rows.get("Pin", []))
    with_l1 = {child for child, _parent in rows.get("L1", ())}

    cards: dict[object, list[object]] = defaultdict(list)
    for key, value in result.get("Card", ()):
        cards[key].append(value)
    keys = {x for x, _y in l0}
    if set(cards) != keys:
        problems.append(
            f"Card keys: {len(keys - set(cards))} L0 keys without a card, "
            f"{len(set(cards) - keys)} cards without an L0 key"
        )
    card_nulls = []
    for key, values in cards.items():
        if len(values) != 1:
            problems.append(f"Card({key}) has {len(values)} values")
            continue
        value = values[0]
        if key in pins:
            if value != pins[key]:
                problems.append(f"Card({key}) = {value!r}, pinned {pins[key]!r}")
        elif not isinstance(value, int):
            problems.append(f"Card({key}) = {value!r}, expected a null")
        else:
            card_nulls.append(value)

    managers: dict[object, list[object]] = defaultdict(list)
    for key, value in result.get("Manager", ()):
        managers[key].append(value)
    managed = {y for _x, y in l0 if y in with_l1}
    if set(managers) != managed:
        problems.append(
            f"Manager keys: {len(managed - set(managers))} missing, "
            f"{len(set(managers) - managed)} unexpected"
        )
    manager_nulls = []
    for key, values in managers.items():
        if len(values) != 1 or not isinstance(values[0], int):
            problems.append(f"Manager({key}) = {values!r}, expected one null")
        else:
            manager_nulls.append(values[0])
    fresh = card_nulls + manager_nulls
    if len(set(fresh)) != len(fresh):
        problems.append("two obligations share one null")

    manager_of = {key: values[0] for key, values in managers.items()}
    reports = {(x, manager_of[y]) for x, y in l0 if y in manager_of}
    _expect_equal("Reports", result.get("Reports", set()), reports, problems)
    issued = {(values[0],) for values in cards.values() if len(values) == 1}
    _expect_equal("Issued", result.get("Issued", set()), issued, problems)

    expected_names = set(rows) | {"Card", "Manager", "Reports", "Issued"}
    for relation, tuples in result.items():
        if tuples and relation not in expected_names:
            problems.append(f"unexpected relation {relation}")
    expected_nulls = len(keys - set(pins)) + len(managed)
    if nulls_in_result != expected_nulls:
        problems.append(
            f"{nulls_in_result} nulls in the result, expected {expected_nulls}"
        )
    return problems


# -- rules ---------------------------------------------------------------

_ATOM = re.compile(r"(\w+)\(([^)]*)\)")


def parse_rule(text: str) -> Rule:
    """``"R(x), P(y) -> T(x)"`` as plain data (no ``exists`` prefix)."""
    body_text, head_text = text.split("->")

    def atoms(part: str) -> tuple[Atom, ...]:
        return tuple(
            (name, tuple(arg.strip() for arg in args.split(",")))
            for name, args in _ATOM.findall(part)
        )

    return atoms(body_text), atoms(head_text)


def canonical_rule(rule: Rule) -> tuple:
    """The rule up to renaming of its variables: the least form over
    every numbering of them."""
    body, head = rule
    variables = sorted({v for _r, args in body + head for v in args})
    best = None
    for order in itertools.permutations(range(len(variables))):
        rename = dict(zip(variables, order))
        form = tuple(
            tuple(sorted((r, tuple(rename[v] for v in args)) for r, args in part))
            for part in (body, head)
        )
        if best is None or form < best:
            best = form
    return best


def canonical_rules(rules: list[Rule] | None) -> tuple | None:
    if rules is None:
        return None
    return tuple(sorted({canonical_rule(rule) for rule in rules}))


def is_linear(rule: Rule) -> bool:
    return len(rule[0]) == 1


def is_guarded(rule: Rule) -> bool:
    body = rule[0]
    variables = {v for _r, args in body for v in args}
    return any(variables <= set(args) for _r, args in body)


def check_rewrite(
    status: str, rewriting: list[Rule] | None, target: str,
    schema: set[str],
) -> list[str]:
    """A success output is a non-empty set of ``target`` rules over the
    source schema; any other status carries no rewriting."""
    problems: list[str] = []
    if status not in ("success", "failure", "inconclusive"):
        return [f"unknown status {status!r}"]
    if status != "success":
        if rewriting is not None:
            problems.append(f"{status} result carries a rewriting")
        return problems
    if not rewriting:
        return ["success without a rewriting"]
    in_class = is_linear if target == "linear" else is_guarded
    for rule in rewriting:
        if not in_class(rule):
            problems.append(f"rule {rule} is not {target}")
        for relation, _args in rule[0] + rule[1]:
            if relation not in schema:
                problems.append(f"rule {rule} leaves the source schema")
    return problems
