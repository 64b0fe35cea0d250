"""CSV matrix formats, report assembly and deterministic serialization.

Complex matrices travel as CSV with two columns (re, im) per entry,
row-major, with an optional single header line.  Floats are written with
`repr`, which round-trips bit for bit, and reports serialize to JSON
with sorted keys so identical runs produce identical bytes.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DimensionError, ParseError,
                     ValidationError)

SCHEMA_VERSION = "1.5"

VERDICTS = ("pass", "fail", "strict", "non-strict", "inconclusive", "tainted")


# -- complex matrix CSV ------------------------------------------------------

def _csv_rows(path, text):
    """(line, stripped cells) for each CSV row of `text`, the contents of
    `path`.  Malformed CSV is a ParseError."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for lineno, row in enumerate(reader, start=1):
            yield lineno, [c.strip() for c in row]
    except csv.Error as exc:
        raise ParseError(path, reader.line_num, 1, str(exc)) from exc


def _parse_rows(path, text):
    """The (re, im) float array of `text`, parsed row by row.

    A single leading non-numeric row is treated as a header.  Parse
    failures, non-finite cells included, report file, line and column.
    """
    rows = []
    linenos = []
    width = None
    first_data_line = True
    for lineno, cells in _csv_rows(path, text):
        if not cells or all(c == "" for c in cells):
            continue
        parsed = []
        bad_col = None
        for col, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                bad_col = col
                break
        if bad_col is not None:
            if first_data_line:
                first_data_line = False  # header line, skip it
                continue
            raise ParseError(path, lineno, bad_col,
                             f"not a number: {cells[bad_col - 1]!r}")
        first_data_line = False
        if len(parsed) % 2:
            raise ParseError(path, lineno, len(parsed),
                             "expected (re, im) column pairs, got an odd "
                             "column count")
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise ParseError(path, lineno, len(parsed),
                             f"ragged row: {len(parsed)} columns after "
                             f"{width}")
        rows.append(parsed)
        linenos.append(lineno)
    if not rows:
        raise ParseError(path, 1, 1, "no numeric rows found")
    arr = np.asarray(rows, dtype=float)
    bad = ~np.isfinite(arr)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ParseError(path, linenos[row], int(col) + 1,
                         f"non-finite value: {float(arr[row, col])!r}")
    return arr


def load_complex_matrix(path, expected_shape=None):
    """Read a complex matrix stored row-major with (re, im) column pairs.

    A plain numeric file is parsed in one `np.loadtxt` pass; any other
    file (a header, blank text, quoting, odd or ragged widths, non-finite
    cells) goes to `_parse_rows`, which gives the errors with file, line
    and column.  A shape mismatch names the file.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()  # one decode: errors name the file offset
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    arr = None
    if text.strip():  # loadtxt warns on empty input
        try:
            arr = np.loadtxt(io.StringIO(text), delimiter=",", comments=None,
                             ndmin=2, dtype=float)
        except ValueError:
            pass
    if (arr is None or not arr.size or arr.shape[1] % 2
            or not np.isfinite(arr).all()):
        arr = _parse_rows(path, text)
    mat = arr[:, 0::2] + 1j * arr[:, 1::2]
    if expected_shape is not None and mat.shape != tuple(expected_shape):
        raise DimensionError(
            f"{path}: expected shape {tuple(expected_shape)}, found {mat.shape}")
    return mat


def save_complex_matrix(path, matrix):
    """Write a complex matrix as (re, im) column pairs, `repr` precision."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=complex))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in mat:
            out = []
            for v in row:
                out.append(repr(float(v.real)))
                out.append(repr(float(v.imag)))
            writer.writerow(out)


def save_function_csv(path, f):
    """Write a sampled function as (x, re, im) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re", "im"])
        for x, v in zip(f.grid.nodes, f.values):
            writer.writerow([repr(float(x)), repr(float(v.real)),
                             repr(float(v.imag))])


# -- report values -----------------------------------------------------------

def jsonify(value, where="report"):
    """Recursively convert numbers, arrays and tuple-keyed dicts to plain
    JSON-ready data: complex scalars as {"re": ..., "im": ...}, tuple keys
    joined with '->'.  A NaN or inf raises ValidationError at `where`.key."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            key = "->".join(map(str, k)) if isinstance(k, tuple) else str(k)
            out[key] = jsonify(v, f"{where}.{key}")
        return out
    if isinstance(value, (list, tuple)):
        return [jsonify(v, where) for v in value]
    if isinstance(value, np.ndarray):
        return jsonify(value.tolist(), where)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": jsonify(value.real, where),
                "im": jsonify(value.imag, where)}
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValidationError(f"non-finite value {value} at {where}")
        return float(value)
    if value is None or isinstance(value, str):
        return value
    raise ValidationError(f"cannot serialize {type(value).__name__} into a report")


@dataclass
class Verdict:
    """A named verdict with its numeric evidence; evidence is mandatory."""

    name: str
    verdict: str
    evidence: dict

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValidationError(f"unknown verdict {self.verdict!r}")
        if not self.evidence:
            raise ValidationError("no verdict without numbers")


@dataclass
class Section:
    name: str
    records: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)


@dataclass
class DiagnosticsReport:
    meta: dict
    sections: list

    def to_dict(self):
        return {
            "meta": jsonify(self.meta, "meta"),
            "sections": [
                {
                    "name": s.name,
                    "records": jsonify(s.records, s.name),
                    "verdicts": [
                        {"name": v.name, "verdict": v.verdict,
                         "evidence": jsonify(v.evidence, f"{s.name}.{v.name}")}
                        for v in s.verdicts
                    ],
                }
                for s in self.sections
            ],
        }


def render_json(report):
    return json.dumps(report.to_dict(), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def render_csv(report):
    """Flat, deterministic CSV rendering of `report.to_dict()`: one row per
    record entry or verdict evidence item, compound values JSON-encoded in
    place."""
    data = report.to_dict()

    def rows(name, kind, label, values):
        return [[name, kind, label, k, json.dumps(v, sort_keys=True)]
                for k, v in sorted(values.items())]

    lines = [["section", "kind", "name", "key", "value"]]
    lines += rows("", "meta", "", data["meta"])
    for s in data["sections"]:
        lines += rows(s["name"], "record", "", s["records"])
        for v in s["verdicts"]:
            lines.append([s["name"], "verdict", v["name"], "verdict",
                          v["verdict"]])
            lines += rows(s["name"], "verdict", v["name"], v["evidence"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(lines)
    return buf.getvalue()


def render_report(report, fmt="json"):
    """The report's text in format `fmt`, "json" or "csv"."""
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValidationError(f"unknown report format {fmt!r}")


def save_report(report, path, fmt="json"):
    text = render_report(report, fmt)
    with open(path, "w") as fh:
        fh.write(text)


def config_digest(config):
    """sha256 of the canonical JSON form of a configuration mapping."""
    blob = json.dumps(jsonify(config, "config"), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
