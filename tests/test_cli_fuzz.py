"""The CLI input boundary under generated configs and CSV files.

Whatever the config file holds (wrong types, unknown or nested keys,
non-objects) and whatever a CSV input holds (ragged rows, non-numeric or
non-finite cells, empty or undecodable files), a run ends with exit
status 0 or with an `error:` line and status 2, never with a traceback.
Dimensions stay small so each example runs in milliseconds.
"""
import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from rieszlab import save_complex_matrix
from rieszlab.cli import EXAMPLES, main

# Derandomized by the suite profile (conftest.py), so every run tries the
# same examples and a failure reproduces; open-ended fuzzing is a run
# with derandomize=False.
FUZZ = settings(max_examples=60)

# Input paths a config may name, resolved in the example's directory.
FILES = {"GOOD": "good.csv", "MISSING": "missing.csv", "DIR": "."}
small_ints = st.integers(min_value=-2, max_value=12)
scalars = st.one_of(
    st.none(), st.booleans(), small_ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5), st.sampled_from(EXAMPLES + ("ones", "linear")))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=8)


def block(keys):
    """An object over known keys (and a stray one) with any values."""
    return st.dictionaries(st.sampled_from(keys + ("extra",)), values,
                           max_size=4)


configs = st.one_of(
    values,
    st.fixed_dictionaries({}, optional={
        "example": st.one_of(st.sampled_from(EXAMPLES), values),
        "seed": st.one_of(small_ints, values),
        "no_timing": values,
        "model": st.one_of(block(("dim", "levels", "size", "half_width",
                                  "weights", "weight_rule", "ladder")),
                           values),
        "pseudo": st.one_of(block(("psi_seed", "N_ladder")), values),
        "tolerances": st.one_of(block(("gram", "equality", "support")),
                                values),
        "output": st.one_of(block(("format",)), values),
        "inputs": st.one_of(st.dictionaries(
            st.sampled_from(("family", "dual", "transform", "vector")),
            st.one_of(st.sampled_from(sorted(FILES)), values), max_size=3),
            values),
        "stray": values,
    }))
COMMANDS = ("check-biorthogonal", "frame-report", "bessel", "riesz-fischer",
            "strictness", "reconstruct", "example", "full-report",
            "pseudo-hermitian")


def run(argv):
    """(exit status, stderr) of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean(code, err):
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: "), err


@FUZZ
@given(command=st.sampled_from(COMMANDS), config=configs)
def test_config_shapes_end_cleanly(tmp_path_factory, command, config):
    tmp = tmp_path_factory.mktemp("config")
    save_complex_matrix(tmp / FILES["GOOD"], [[2.0, 0.5], [0.0, 1.0]])
    if isinstance(config, dict):
        # Defaults that keep every run small: a 64-point grid and a seed,
        # unless the generated config sets its own.
        if isinstance(config.get("model"), dict):
            config["model"].setdefault("size", 64)
        config.setdefault("model", {"size": 64})
        config.setdefault("seed", 1)
        if isinstance(config.get("inputs"), dict):
            config["inputs"] = {
                k: str(tmp / FILES[v]) if str(v) in FILES else v
                for k, v in config["inputs"].items()}
    path = tmp / "run.json"
    path.write_text(json.dumps(config))
    code, err = run([command, "--config", str(path),
                     "--out", str(tmp / "report.out")])
    assert_clean(code, err)


cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    small_ints.map(str),
    st.sampled_from(["", " ", "re", "1e999", "-0", "1_0", "0x1", '"3"']),
    st.text(alphabet="0123456789.,e-+ \"j\n", max_size=6))
tables = st.lists(st.lists(cells, max_size=6), max_size=6)


def csv_text(rows):
    return "".join(",".join(row) + "\n" for row in rows)


# Which run reads the generated file, beside a well-formed 2 x 2 "GOOD".
CSV_RUNS = {
    "family": ["riesz-fischer", "--family", "BAD"],
    "dual": ["check-biorthogonal", "--family", "GOOD", "--dual", "BAD"],
    "transform": ["bessel", "--transform", "BAD", "--seed", "1"],
    "vector": ["reconstruct", "--transform", "GOOD", "--vector", "BAD"],
}


@FUZZ
@given(table=tables, raw=st.one_of(st.none(), st.binary(max_size=12)),
       role=st.sampled_from(sorted(CSV_RUNS)))
def test_csv_content_ends_cleanly(tmp_path_factory, table, raw, role):
    tmp = tmp_path_factory.mktemp("csv")
    paths = {"GOOD": str(tmp / "good.csv"), "BAD": str(tmp / "fuzzed.csv")}
    save_complex_matrix(paths["GOOD"], [[2.0, 0.5], [0.0, 1.0]])
    with open(paths["BAD"], "wb") as fh:
        fh.write(csv_text(table).encode() if raw is None else raw)
    argv = [paths.get(a, a) for a in CSV_RUNS[role]]
    assert_clean(*run(argv + ["--out", str(tmp / "report.out")]))
