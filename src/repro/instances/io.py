"""Loading and saving instances.

Two interchange formats:

* **directory of CSVs** — one ``<Relation>.csv`` per relation, one row
  per tuple (the shape every relational tool emits);
* **JSON** — a single document with the schema and relations, able to
  round-trip labeled nulls (serialized as ``{"null": i}``).

Dependency files are plain text (one rule per line) and handled by
:func:`repro.lang.parser.parse_tgds` / the CLI loader.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from ..lang.schema import Relation, Schema
from ..lang.terms import Const, Null
from .instance import Instance, InstanceError

__all__ = [
    "save_instance_csv",
    "load_instance_csv",
    "instance_to_json",
    "instance_from_json",
    "save_instance_json",
    "load_instance_json",
]


def save_instance_csv(instance: Instance, directory: Union[str, Path]) -> None:
    """Write one ``<Relation>.csv`` per relation (header = column index).

    Only constant elements can be written; nulls have no CSV story —
    use the JSON format for chase results.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for rel in instance.schema:
        path = directory / f"{rel.name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow([f"c{i}" for i in range(rel.arity)])
            for tup in sorted(instance.tuples(rel), key=repr):
                row = []
                for elem in tup:
                    if not isinstance(elem, Const):
                        raise InstanceError(
                            f"CSV export supports constants only, got "
                            f"{elem!r}; use the JSON format"
                        )
                    row.append(elem.name)
                writer.writerow(row)


def load_instance_csv(
    directory: Union[str, Path], schema: Schema | None = None
) -> Instance:
    """Read every ``*.csv`` in the directory as a relation.

    Arities are inferred from the headers when no schema is given.  A
    path that is not a directory, a file that cannot be read or decoded
    as UTF-8, a relation the given schema lacks and a malformed table
    all raise :class:`InstanceError` (a ``ValueError``).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise InstanceError(f"{directory} is not a directory")
    relations: dict[Relation, set[tuple]] = {}
    for path in sorted(directory.glob("*.csv")):
        name = path.stem
        try:
            with open(path, newline="", encoding="utf-8") as handle:
                reader = csv.reader(handle)
                header = next(reader, None)
                if header is None:
                    continue
                arity = len(header)
                rel = (
                    Relation(name, arity) if schema is None
                    else schema.get(name)
                )
                if rel is None:
                    raise InstanceError(
                        f"relation {name!r} of {path.name} is not in "
                        f"the schema"
                    )
                if rel.arity != arity:
                    raise InstanceError(
                        f"{path.name} has {arity} columns, schema says "
                        f"{rel.arity}"
                    )
                tuples = relations.setdefault(rel, set())
                for row in reader:
                    if len(row) != arity:
                        raise InstanceError(
                            f"ragged row in {path.name}: {row}"
                        )
                    tuples.add(tuple(Const(cell) for cell in row))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise InstanceError(f"cannot read {path.name}: {exc}") from None
    if schema is None:
        schema = Schema(relations.keys())
    domain = {elem for tuples in relations.values() for tup in tuples for elem in tup}
    return Instance(schema, domain, relations)


def _element_to_json(elem: object):
    if isinstance(elem, Const):
        return elem.name
    if isinstance(elem, Null):
        return {"null": elem.index}
    raise InstanceError(f"cannot serialize element {elem!r}")


def _element_from_json(value):
    if isinstance(value, str):
        return Const(value)
    if isinstance(value, dict) and "null" in value:
        try:
            return Null(int(value["null"]))
        except (TypeError, ValueError, OverflowError):
            pass
    raise InstanceError(f"cannot deserialize element {value!r}")


def _expect(value, kind: type, what: str):
    """``value`` if it is a ``kind``, else an :class:`InstanceError`."""
    if not isinstance(value, kind):
        raise InstanceError(
            f"{what} must be a {kind.__name__}, got {value!r}"
        )
    return value


def instance_to_json(instance: Instance) -> str:
    """A single JSON document (schema, relations, inactive elements)."""
    document = {
        "schema": {rel.name: rel.arity for rel in instance.schema},
        "relations": {
            rel.name: [
                [_element_to_json(e) for e in tup]
                for tup in sorted(instance.tuples(rel), key=repr)
            ]
            for rel in instance.schema
        },
        "inactive": [
            _element_to_json(e)
            for e in sorted(
                instance.domain - instance.active_domain, key=repr
            )
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def instance_from_json(text: str) -> Instance:
    """Parse an :func:`instance_to_json` document.  Anything else —
    invalid JSON, a non-object top level or ``"schema"``, rows that are
    not lists, undeclared relations, bad elements — raises
    :class:`InstanceError` (a ``ValueError``)."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid instance JSON: {exc}") from None
    _expect(document, dict, "an instance document")
    arities = _expect(document.get("schema"), dict, '"schema"')
    for name, arity in arities.items():
        if not name or type(arity) is not int or arity < 0:
            raise InstanceError(f'bad "schema" entry {name!r}: {arity!r}')
    schema = Schema(Relation(name, arity) for name, arity in arities.items())
    relations: dict[Relation, set[tuple]] = {}
    domain = set()
    for name, rows in _expect(
        document.get("relations", {}), dict, '"relations"'
    ).items():
        rel = schema.get(name)
        if rel is None:
            raise InstanceError(f"relation {name!r} is not in the schema")
        tuples = set()
        for row in _expect(rows, list, f"the rows of {name!r}"):
            tup = tuple(
                _element_from_json(v)
                for v in _expect(row, list, f"a row of {name!r}")
            )
            tuples.add(tup)
            domain.update(tup)
        relations[rel] = tuples
    for value in _expect(document.get("inactive", []), list, '"inactive"'):
        domain.add(_element_from_json(value))
    return Instance(schema, domain, relations)


def save_instance_json(instance: Instance, path: Union[str, Path]) -> None:
    Path(path).write_text(instance_to_json(instance))


def load_instance_json(path: Union[str, Path]) -> Instance:
    return instance_from_json(Path(path).read_text())
