import json
import pathlib
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszlab import (ConfigError, DiagnosticsReport, DimensionError,
                      LineGrid, ParseError, RieszLabError, SampledFunction,
                      Section, ValidationError, Verdict, config_digest,
                      load_complex_matrix, render_csv, render_json, reportio,
                      save_complex_matrix, save_function_csv, save_report)
from rieszlab.reportio import SCHEMA_VERSION, jsonify

from conftest import random_vector

SCHEMA_PATH = (pathlib.Path(__file__).resolve().parents[1] / "docs"
               / "report_schema.json")


def small_report():
    meta = {"schema_version": SCHEMA_VERSION, "tool": "rieszlab",
            "tool_version": "0.1.0", "command": "check-biorthogonal",
            "seed": None, "config_hash": "0" * 64}
    section = Section("biorthogonality",
                      records={"residual": 0.0, "size": 4},
                      verdicts=[Verdict("family-dual-pairings", "pass",
                                        {"residual": 0.0})])
    return DiagnosticsReport(meta, [section])


class TestComplexMatrixCsv:
    def test_round_trip_is_bitwise(self, tmp_path, rng):
        mat = (rng.standard_normal((5, 3))
               + 1j * rng.standard_normal((5, 3))) * np.pi
        path = tmp_path / "mat.csv"
        save_complex_matrix(path, mat)
        back = load_complex_matrix(path)
        assert back.shape == (5, 3)
        assert np.array_equal(back, mat)

    def test_vector_round_trip(self, tmp_path, rng):
        v = random_vector(rng, 7)
        path = tmp_path / "vec.csv"
        save_complex_matrix(path, v)
        back = load_complex_matrix(path)
        assert np.array_equal(back.ravel(), v)

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("re0,im0,re1,im1\n1.0,0.0,2.0,0.5\n")
        back = load_complex_matrix(path)
        assert np.array_equal(back, np.array([[1.0, 2.0 + 0.5j]]))

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("\n1.0,0.0\n\n2.0,1.0\n")
        back = load_complex_matrix(path)
        assert np.array_equal(back, np.array([[1.0], [2.0 + 1.0j]]))

    def test_odd_column_count_rejected(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("1.0,2.0,3.0\n")
        with pytest.raises(ParseError) as err:
            load_complex_matrix(path)
        assert f"{path}:1:3" in str(err.value)

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("1.0,0.0\n2.0,oops\n")
        with pytest.raises(ParseError) as err:
            load_complex_matrix(path)
        assert f"{path}:2:2" in str(err.value)
        assert "oops" in str(err.value)

    @pytest.mark.parametrize("cell, column", [("nan", 4), ("-inf", 3)])
    def test_non_finite_cell_located(self, tmp_path, cell, column):
        path = tmp_path / "mat.csv"
        row = ["1.0", "0.0", "2.0", "0.0"]
        row[column - 1] = cell
        path.write_text("re,im,re,im\n1.0,0.0,1.0,0.0\n\n" + ",".join(row)
                        + "\n")
        with pytest.raises(ParseError) as err:
            load_complex_matrix(path)
        assert f"{path}:4:{column}" in str(err.value)
        assert cell.lstrip("-") in str(err.value)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("1.0,0.0\n1.0,0.0,2.0,0.0\n")
        with pytest.raises(ParseError) as err:
            load_complex_matrix(path)
        assert "ragged" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_complex_matrix(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("re,im\n")
        with pytest.raises(ParseError):
            load_complex_matrix(path)

    def test_expected_shape_names_the_file(self, tmp_path):
        path = tmp_path / "mat.csv"
        save_complex_matrix(path, np.eye(2))
        with pytest.raises(DimensionError) as err:
            load_complex_matrix(path, expected_shape=(3, 3))
        assert str(path) in str(err.value)

    def test_function_csv_round_trips_values(self, tmp_path):
        grid = LineGrid(4.0, 8)
        f = SampledFunction(grid, np.exp(1j * grid.nodes))
        path = tmp_path / "f.csv"
        save_function_csv(path, f)
        text = path.read_text().splitlines()
        assert text[0] == "x,re,im"
        assert len(text) == 9
        x0, re0, im0 = (float(c) for c in text[1].split(","))
        assert x0 == grid.nodes[0]
        assert complex(re0, im0) == f.values[0]


# -- the one-pass route against the row-by-row reader ----------------------

# Derandomized by the suite profile (conftest.py), so every run tries the
# same files and a failure reproduces.
DIFFERENTIAL = settings(max_examples=200)


def outcome(load, path):
    """(shape, bytes) of the matrix `load` returns, or the class and text
    of the error it raises.  Any warning fails the call."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            mat = load(path)
        except RieszLabError as exc:
            return type(exc), str(exc)
    return mat.shape, mat.tobytes()


def row_route(path):
    """The matrix `_parse_rows` reads from the file's text."""
    with open(path, newline="") as fh:
        arr = reportio._parse_rows(path, "".join(fh))
    return arr[:, 0::2] + 1j * arr[:, 1::2]


def assert_routes_agree(path, text):
    path.write_bytes(text.encode())
    assert outcome(load_complex_matrix, path) == outcome(row_route, path)


EDGE_FILES = {
    "numeric": "1.0,-0.0,2.5,1e-300\n-3,+4, 5e2 ,\t6\t\n",
    "header": "re,im\n1.0,2.0\n",
    "header-only": "re,im\n",
    "quoted-cell": '"1.5",0\n2,3\n',
    "blank-lines": "\n1,2\n\n3,4\n\n",
    "whitespace-lines": "  \n1,2\n\t\n3,4\n \n",
    "crlf": "1,2\r\n3,4\r\n",
    "bare-cr": "1,2\r3,4\r",
    "underscore": "1_0,2\n",
    "comment-line": "1,2\n# note\n3,4\n",
    "hash-in-cell": "1,2#3,4\n",
    "trailing-comma": "1,2,\n",
    "trailing-comma-twice": "1,2,\n3,4,\n",
    "nan": "1,2\n3,nan\n",
    "minus-inf": "-inf,0\n",
    "overflow": "1,2\n1e400,0\n",
    "odd": "1,2,3\n",
    "single-column": "1\n2\n",
    "ragged": "1,2\n1,2,3,4\n",
    "empty": "",
    "blank": "\n \n\t\n",
    "commas-only": ",,\n",
}


@pytest.mark.parametrize("text", EDGE_FILES.values(), ids=EDGE_FILES.keys())
def test_routes_agree_on_edge_files(tmp_path, text):
    assert_routes_agree(tmp_path / "mat.csv", text)


NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
AWKWARD = st.sampled_from(["", "  ", " 1.5 ", "+2", "-0", "1e-400", "1_0",
                           '"3"', "nan", "-inf", "1e400", "re", "0x10",
                           "\t4\t", "1#2", "# 1", "1,2", "1,2,3"])
EXTRA_LINES = st.sampled_from(["", " ", "re,im", "1,2,", ",", "# note"])


@st.composite
def csv_files(draw):
    """A numeric table of (re, im) pairs, with a few cells, lines and line
    ends swapped for ones near the edge of the one-pass route."""
    width = 2 * draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(NUMBERS, min_size=width, max_size=width),
                         min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, width - 1))] = draw(AWKWARD)
    lines = [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(EXTRA_LINES))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(ends) for line in lines)


@DIFFERENTIAL
@given(text=csv_files())
def test_routes_agree_on_generated_files(tmp_path_factory, text):
    assert_routes_agree(tmp_path_factory.mktemp("csv") / "mat.csv", text)


@pytest.mark.parametrize("offset", [0, 20_000])
def test_undecodable_file_is_a_config_error(tmp_path, offset):
    path = tmp_path / "mat.csv"
    path.write_bytes(b"1.0,2.0\n" * (offset // 8) + b"1.0,\xff\n")
    # The text a whole-file decode fails with, naming the file offset.
    with open(path, newline="") as fh, pytest.raises(UnicodeDecodeError) \
            as decode:
        fh.read()
    assert decode.value.start == offset + 4
    assert outcome(load_complex_matrix, path) == (
        ConfigError, f"cannot read {path}: {decode.value}")


def test_saved_matrix_takes_the_one_pass_route(tmp_path, monkeypatch, rng):
    calls = []
    parse_rows = reportio._parse_rows

    def counted(*args):
        calls.append(args)
        return parse_rows(*args)

    monkeypatch.setattr(reportio, "_parse_rows", counted)
    mat = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    mat[0, :3] = [-0.0, 1e-300 - 1e300j, 5e-324]
    path = tmp_path / "mat.csv"
    save_complex_matrix(path, mat)
    assert np.array_equal(load_complex_matrix(path), mat)
    assert calls == []
    # A header line sends the same numbers to the row reader.
    path.write_text("re,im\n" + path.read_text())
    assert np.array_equal(load_complex_matrix(path), mat)
    assert len(calls) == 1


class TestJsonify:
    def test_tuple_keys_join(self):
        out = jsonify({(1, 0): 2.0, "plain": 1})
        assert out == {"1->0": 2.0, "plain": 1}

    def test_complex_scalars(self):
        assert jsonify(1.5 + 2.5j) == {"re": 1.5, "im": 2.5}

    def test_arrays_and_numpy_scalars(self):
        out = jsonify({"a": np.arange(3), "b": np.float64(0.5),
                       "c": np.int32(2), "d": np.bool_(True)})
        assert out == {"a": [0, 1, 2], "b": 0.5, "c": 2, "d": True}

    def test_nested_containers(self):
        assert jsonify([(1, 2.0), None, "s"]) == [[1, 2.0], None, "s"]

    def test_unserializable_rejected(self):
        with pytest.raises(ValidationError):
            jsonify({"f": object()})


class TestVerdict:
    def test_vocabulary_enforced(self):
        for word in ("pass", "fail", "strict", "non-strict", "inconclusive",
                     "tainted"):
            Verdict("x", word, {"value": 1.0})
        with pytest.raises(ValidationError):
            Verdict("x", "ok", {"value": 1.0})

    def test_evidence_mandatory(self):
        with pytest.raises(ValidationError):
            Verdict("x", "pass", {})


class TestRendering:
    def test_json_sorted_with_trailing_newline(self):
        text = render_json(small_report())
        assert text.endswith("}\n")
        parsed = json.loads(text)
        assert list(parsed) == ["meta", "sections"]
        assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"

    def test_json_deterministic(self):
        assert render_json(small_report()) == render_json(small_report())

    def test_csv_header_and_rows(self):
        text = render_csv(small_report())
        lines = text.splitlines()
        assert lines[0] == "section,kind,name,key,value"
        assert any(line.startswith("biorthogonality,verdict") for line in lines)
        assert render_csv(small_report()) == text

    def test_save_report_formats(self, tmp_path):
        report = small_report()
        jpath = tmp_path / "r.json"
        cpath = tmp_path / "r.csv"
        save_report(report, jpath, "json")
        save_report(report, cpath, "csv")
        assert jpath.read_text() == render_json(report)
        assert cpath.read_text() == render_csv(report)
        with pytest.raises(ValidationError):
            save_report(report, tmp_path / "r.x", "xml")

    def test_report_validates_against_schema(self):
        schema = json.loads(open(SCHEMA_PATH).read())
        jsonschema.validate(small_report().to_dict(), schema)

    def test_schema_rejects_unknown_verdict(self):
        schema = json.loads(open(SCHEMA_PATH).read())
        doc = small_report().to_dict()
        doc["sections"][0]["verdicts"][0]["verdict"] = "maybe"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)


class TestConfigDigest:
    def test_key_order_insensitive(self):
        a = config_digest({"b": 1, "a": [1, 2.5]})
        b = config_digest({"a": [1, 2.5], "b": 1})
        assert a == b
        assert len(a) == 64

    def test_value_sensitivity(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_handles_numpy_values(self):
        assert config_digest({"w": np.arange(3)}) == \
            config_digest({"w": [0, 1, 2]})
