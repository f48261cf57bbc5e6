"""Tests for the one writer and the checked readers of every artifact."""

import pytest

from speechbp.artifacts import (read_csv, read_json, write_bytes, write_csv,
                                write_json)
from speechbp.errors import MalformedArtifact


class TestWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"old contents")
        write_bytes(path, b"new")
        assert path.read_bytes() == b"new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_failed_write_removes_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_bytes(tmp_path / "a.bin", "text, not bytes")
        assert list(tmp_path.iterdir()) == []

    def test_json_layout(self, tmp_path):
        write_json(tmp_path / "a.json", {"b": [1, 2.5], "a": None})
        assert (tmp_path / "a.json").read_bytes() == (
            b'{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n')

    def test_csv_layout(self, tmp_path):
        write_csv(tmp_path / "a.csv", ("id", "x", "n", "empty"),
                  [("p", 0.1, 3, None), ("q,r", 1.0 / 3.0, -1, "")])
        assert (tmp_path / "a.csv").read_bytes() == (
            b"id,x,n,empty\r\n"
            b"p,0.10000000000000001,3,\r\n"
            b'"q,r",0.33333333333333331,-1,\r\n')
        header, rows = read_csv(tmp_path / "a.csv")
        assert header == ("id", "x", "n", "empty")
        assert float(rows[1][1]) == 1.0 / 3.0


class TestRead:
    @pytest.mark.parametrize("raw, match", [
        (b'{"a": 1\xff}', "utf-8"),
        (b'{"a": 1', "Expecting"),
        (b"[1, 2]", "not a JSON object"),
        (b'{"b": 1}', r"lacks \['a'\]"),
        (b'{"a": "1"}', "a is str, expected int"),
    ], ids=["not-utf8", "cut", "not-object", "missing-key", "wrong-type"])
    def test_json_damage(self, tmp_path, raw, match):
        path = tmp_path / "a.json"
        path.write_bytes(raw)
        with pytest.raises(MalformedArtifact, match=match):
            read_json(path, {"a": int})

    def test_json_keys(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_bytes(b'{"a": 1, "b": 2}')
        assert read_json(path, {"a": int, "b": int}) == {"a": 1, "b": 2}

    @pytest.mark.parametrize("raw, match", [
        (b"a,b\n1,2\n3\n", "line 3 has 1 cells"),
        (b"a,b\n1,2,3\n", "line 2 has 3 cells"),
        (b"a,b\n1,\xff\n", "utf-8"),
    ], ids=["short-row", "long-row", "not-utf8"])
    def test_csv_damage(self, tmp_path, raw, match):
        path = tmp_path / "a.csv"
        path.write_bytes(raw)
        with pytest.raises(MalformedArtifact, match=match):
            read_csv(path)

    def test_empty_csv_has_no_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"")
        assert read_csv(path) == ((), [])
