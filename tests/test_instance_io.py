"""Unit tests for instance persistence (CSV directories and JSON)."""

import pytest

from repro import Instance, Schema, chase, parse_tgds
from repro.instances import (
    InstanceError,
    instance_from_json,
    instance_to_json,
    load_instance_csv,
    load_instance_json,
    save_instance_csv,
    save_instance_json,
)
from repro.lang import Const

SCHEMA = Schema.of(("E", 2), ("P", 1))


class TestCsv:
    def test_roundtrip(self, tmp_path):
        original = Instance.parse("E(a, b). E(b, c). P(a)", SCHEMA)
        save_instance_csv(original, tmp_path)
        loaded = load_instance_csv(tmp_path, SCHEMA)
        assert loaded.facts() == original.facts()

    def test_schema_inferred(self, tmp_path):
        original = Instance.parse("E(a, b)", SCHEMA)
        save_instance_csv(original, tmp_path)
        loaded = load_instance_csv(tmp_path)
        assert loaded.schema.relation("E").arity == 2
        # P.csv exists but is empty of rows; it still declares P/1.
        assert "P" in loaded.schema

    def test_nulls_rejected(self, tmp_path):
        rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA)
        chased = chase(Instance.parse("P(a)", SCHEMA), rules).instance
        with pytest.raises(InstanceError):
            save_instance_csv(chased, tmp_path)

    def test_arity_mismatch_detected(self, tmp_path):
        (tmp_path / "E.csv").write_text("c0\nonly-one-column\n")
        with pytest.raises(InstanceError):
            load_instance_csv(tmp_path, SCHEMA)

    def test_ragged_row_detected(self, tmp_path):
        (tmp_path / "E.csv").write_text("c0,c1\na,b\nc\n")
        with pytest.raises(InstanceError):
            load_instance_csv(tmp_path)

    def test_missing_directory_raises_instance_error(self, tmp_path):
        with pytest.raises(InstanceError):
            load_instance_csv(tmp_path / "absent")

    def test_file_instead_of_directory_raises_instance_error(self, tmp_path):
        path = tmp_path / "E.csv"
        path.write_text("c0,c1\na,b\n")
        with pytest.raises(InstanceError):
            load_instance_csv(path)

    def test_relation_outside_schema_raises_instance_error(self, tmp_path):
        (tmp_path / "Q.csv").write_text("c0\na\n")
        with pytest.raises(InstanceError):
            load_instance_csv(tmp_path, SCHEMA)

    def test_undecodable_bytes_raise_instance_error(self, tmp_path):
        (tmp_path / "P.csv").write_bytes(b"c0\n\xff\xfe\n")
        with pytest.raises(InstanceError):
            load_instance_csv(tmp_path)

    def test_csv_named_directory_raises_instance_error(self, tmp_path):
        (tmp_path / "P.csv").mkdir()
        with pytest.raises(InstanceError):
            load_instance_csv(tmp_path)

    def test_non_ascii_roundtrip(self, tmp_path):
        (tmp_path / "P.csv").write_text("c0\nzürich\n", encoding="utf-8")
        loaded = load_instance_csv(tmp_path, SCHEMA)
        assert Const("zürich") in loaded.domain
        save_instance_csv(loaded, tmp_path / "out")
        assert load_instance_csv(tmp_path / "out", SCHEMA) == loaded


class TestJson:
    def test_roundtrip_constants(self):
        original = Instance.parse("E(a, b). P(a)", SCHEMA)
        assert instance_from_json(instance_to_json(original)) == original

    def test_roundtrip_nulls(self):
        rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA)
        chased = chase(Instance.parse("P(a)", SCHEMA), rules).instance
        again = instance_from_json(instance_to_json(chased))
        assert again == chased

    def test_roundtrip_inactive_elements(self):
        padded = Instance.parse("P(a)", SCHEMA).with_domain(
            {Const("a"), Const("ghost")}
        )
        again = instance_from_json(instance_to_json(padded))
        assert again == padded

    def test_file_roundtrip(self, tmp_path):
        original = Instance.parse("E(a, b)", SCHEMA)
        path = tmp_path / "instance.json"
        save_instance_json(original, path)
        assert load_instance_json(path) == original

    def test_deterministic_output(self):
        original = Instance.parse("E(a, b). E(b, a). P(a)", SCHEMA)
        assert instance_to_json(original) == instance_to_json(original)

    def test_bad_element_rejected(self):
        with pytest.raises(Exception):
            instance_from_json('{"schema": {"P": 1}, "relations": {"P": [[42]]}}')

    @pytest.mark.parametrize(
        "text",
        [
            "5",
            "[]",
            '"E(a, b)"',
            "null",
            "{not json",
            "{}",
            '{"schema": []}',
            '{"schema": {"P": "1"}}',
            '{"schema": {"P": -1}}',
            '{"schema": {"": 1}}',
            '{"schema": {"P": 1}, "relations": []}',
            '{"schema": {"P": 1}, "relations": {"P": "a"}}',
            '{"schema": {"P": 1}, "relations": {"P": ["a"]}}',
            '{"schema": {"P": 1}, "relations": {"P": [{"a": 1}]}}',
            '{"schema": {"P": 1}, "relations": {"Q": [["a"]]}}',
            '{"schema": {"P": 1}, "relations": {"P": [["a", "b"]]}}',
            '{"schema": {"P": 1}, "relations": {"P": [[{"null": "x"}]]}}',
            '{"schema": {"P": 1}, "relations": {"P": [[{"null": [1]}]]}}',
            '{"schema": {"P": 1}, "relations": {"P": [[{"null": Infinity}]]}}',
            '{"schema": {"P": 1}, "inactive": "a"}',
        ],
        ids=[
            "int-top-level",
            "list-top-level",
            "string-top-level",
            "null-top-level",
            "invalid-json",
            "missing-schema",
            "schema-not-a-mapping",
            "string-arity",
            "negative-arity",
            "empty-relation-name",
            "relations-not-a-mapping",
            "rows-not-a-list",
            "row-not-a-list",
            "row-is-an-object",
            "unknown-relation",
            "wrong-arity",
            "non-numeric-null",
            "list-null-index",
            "infinite-null-index",
            "inactive-not-a-list",
        ],
    )
    def test_malformed_documents_raise_instance_error(self, text):
        with pytest.raises(InstanceError):
            instance_from_json(text)

    def test_instance_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            instance_from_json("5")
