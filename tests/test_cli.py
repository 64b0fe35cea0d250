import ctypes
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

from rieszlab import (ConfigError, Diagonal, SequenceFamily, WeightedTriplet,
                      cli, save_complex_matrix, spaces)
from rieszlab.cli import SECTIONS, RunConfig, _keep_freed_arrays, main
from rieszlab.reportio import config_digest, jsonify

from conftest import count_calls, well_conditioned_transform

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "docs" / "report_schema.json").read_text())
# The package's own source tree first on the import path of subprocesses.
SRC = ROOT / "src"
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def run_json(tmp_path, argv, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out), "--no-timing"])
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    return doc


def section(doc, name):
    match = [s for s in doc["sections"] if s["name"] == name]
    assert match, f"no section {name!r} in {[s['name'] for s in doc['sections']]}"
    return match[0]


def verdicts(doc):
    return [v["verdict"] for s in doc["sections"] for v in s["verdicts"]]


class TestExitCodes:
    def test_unknown_example(self, capsys):
        assert main(["example", "--example", "bogus", "--seed", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_example_command_needs_example(self, capsys):
        assert main(["example", "--seed", "0"]) == 2

    def test_seeded_command_needs_seed(self, capsys):
        assert main(["bessel", "--example", "number-op"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_unknown_tolerance_key(self):
        assert main(["example", "--example", "number-op", "--seed", "0",
                     "--tolerance", "nope=1e-8"]) == 2

    def test_malformed_tolerance_flag(self):
        assert main(["example", "--example", "number-op", "--seed", "0",
                     "--tolerance", "gram"]) == 2

    def test_non_increasing_ladder(self):
        assert main(["strictness", "--example", "number-op",
                     "--ladder", "8,4,16"]) == 2

    def test_non_numeric_ladder(self):
        assert main(["strictness", "--example", "number-op",
                     "--ladder", "8,a"]) == 2

    def test_no_model(self):
        assert main(["check-biorthogonal"]) == 2

    def test_malformed_csv_input(self, tmp_path, capsys):
        bad = tmp_path / "fam.csv"
        bad.write_text("1.0,0.0\n2.0,oops\n")
        assert main(["check-biorthogonal", "--family", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:2" in err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_csv_cell_is_a_parse_error(self, tmp_path, capsys,
                                                  cell):
        bad = tmp_path / "fam.csv"
        bad.write_text(f"1.0,0.0,0.0,0.0\n0.0,0.0,{cell},0.0\n")
        assert main(["riesz-fischer", "--family", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2:3: non-finite value")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_csv_input_is_an_error(self, tmp_path, capsys, kind):
        path = tmp_path / "fam.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\x80\xff,1\n")
        assert main(["riesz-fischer", "--family", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ")
        assert "Traceback" not in err


class TestCheckBiorthogonal:
    def test_identity_files_pass(self, tmp_path):
        fam = tmp_path / "family.csv"
        dual = tmp_path / "dual.csv"
        save_complex_matrix(fam, np.eye(4))
        save_complex_matrix(dual, np.eye(4))
        doc = run_json(tmp_path, ["check-biorthogonal",
                                  "--family", str(fam), "--dual", str(dual)])
        sec = section(doc, "biorthogonality")
        assert sec["records"]["residual"] == 0.0
        assert sec["verdicts"][0]["verdict"] == "pass"
        assert doc["meta"]["seed"] is None

    def test_scaled_dual_reports_tainted(self, tmp_path):
        fam = tmp_path / "family.csv"
        dual = tmp_path / "dual.csv"
        save_complex_matrix(fam, np.eye(3))
        save_complex_matrix(dual, 2.0 * np.eye(3))
        doc = run_json(tmp_path, ["check-biorthogonal",
                                  "--family", str(fam), "--dual", str(dual)])
        assert section(doc, "biorthogonality")["verdicts"][0]["verdict"] \
            == "tainted"


    @pytest.mark.parametrize("command", ["check-biorthogonal",
                                         "frame-report"])
    def test_overflowing_pairings_are_an_error(self, tmp_path, capsys,
                                               command):
        big = tmp_path / "big.csv"
        save_complex_matrix(big, np.full((4, 4), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails
            assert main([command, "--family", str(big),
                         "--dual", str(big)]) == 2
        out = capsys.readouterr()
        assert out.err == ("error: non-finite biorthogonality residual: the "
                           "family-dual pairings overflow\n")
        assert out.out == ""

    def test_overflowing_frame_operator_is_an_error(self, tmp_path, capsys):
        # The pairings are finite, Z Z^H is not.
        fam = tmp_path / "family.csv"
        dual = tmp_path / "dual.csv"
        save_complex_matrix(fam, 1e-155 * np.eye(4))
        save_complex_matrix(dual, 1e155 * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["frame-report", "--family", str(fam),
                         "--dual", str(dual)]) == 2
        assert capsys.readouterr().err == (
            "error: non-finite values in the scaled operator between levels "
            "1 -> -1\n")

    def test_overflowing_bessel_bound_is_an_error(self, tmp_path, capsys):
        # Both inputs are finite; the squared level-1 norm 1e400 is not.
        fam = tmp_path / "family.csv"
        dual = tmp_path / "dual.csv"
        save_complex_matrix(fam, 1e-200 * np.eye(4))
        save_complex_matrix(dual, 1e200 * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bessel", "--family", str(fam), "--dual", str(dual),
                         "--seed", "0"]) == 2
        out = capsys.readouterr()
        assert out.err == "error: the level-1 Bessel bound overflows\n"
        assert out.out == ""


class TestDeterminism:
    ARGS = ["bessel", "--example", "number-op", "--dim", "6", "--seed", "11"]

    def test_identical_bytes_across_runs_and_paths(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "sub"
        b.mkdir()
        b = b / "b.json"
        assert main(self.ARGS + ["--out", str(a), "--no-timing"]) == 0
        assert main(self.ARGS + ["--out", str(b), "--no-timing"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_enters_config_hash(self, tmp_path):
        doc1 = run_json(tmp_path, self.ARGS, "s1.json")
        doc2 = run_json(tmp_path, self.ARGS[:-1] + ["12"], "s2.json")
        assert doc1["meta"]["config_hash"] != doc2["meta"]["config_hash"]
        assert doc1["meta"]["seed"] == 11
        assert doc2["meta"]["seed"] == 12

    def test_hermite_half_width_enters_config_hash(self, tmp_path):
        # Unset, the window follows the dimension: 22.7 at dim 64, not 20.
        argv = ["example", "--example", "hermite", "--dim", "64", "--seed",
                "0"]
        docs = [run_json(tmp_path, argv + extra, f"h{len(extra)}.json")
                for extra in ([], ["--half-width", "20"])]
        widths = [section(d, "hermite-values")["records"]["half_width"]
                  for d in docs]
        assert widths[0] > widths[1] == 20.0
        assert docs[0]["meta"]["config_hash"] != docs[1]["meta"]["config_hash"]

    def test_spelled_out_pseudo_defaults_give_the_same_report(self,
                                                              tmp_path):
        cfg = tmp_path / "pseudo.json"
        cfg.write_text(json.dumps({"model": {"ladder": [8, 16, 32, 64]},
                                   "pseudo": {"psi_seed": 7}}))
        reports = []
        for extra in ([], ["--config", str(cfg)]):
            out = tmp_path / f"p{len(extra)}.json"
            assert main(["pseudo-hermitian", "--seed", "0", "--no-timing",
                         "--out", str(out)] + extra) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("argv, config", [
        (["pseudo-hermitian", "--dim", "8"], {"pseudo": {"psi_seed": None}}),
        (["pseudo-hermitian", "--dim", "8"], {"model": {"ladder": None}}),
        (["full-report", "--example", "number-op"],
         {"model": {"weight_rule": None}}),
        (["example", "--example", "hermite"], {"model": {"size": None}}),
        (["full-report", "--example", "number-op"], {"model": {"size": None}}),
    ], ids=["psi_seed", "ladder", "weight_rule", "hermite-size",
            "number-op-size"])
    def test_null_config_value_is_the_default(self, tmp_path, argv, config):
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps(config))
        reports = []
        for extra in ([], ["--config", str(cfg)]):
            out = tmp_path / f"r{len(extra)}.json"
            assert main(argv + ["--seed", "0", "--no-timing", "--out",
                                str(out)] + extra) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_spelled_out_model_defaults_share_the_hash(self, tmp_path):
        argv = ["full-report", "--example", "number-op", "--seed", "0"]
        docs = [run_json(tmp_path, argv + extra, f"n{len(extra)}.json")
                for extra in ([], ["--dim", "8", "--levels", "1"])]
        assert docs[0]["meta"]["config_hash"] == docs[1]["meta"]["config_hash"]

    @pytest.mark.parametrize("kwargs", [
        {"command": "example", "example": "hermite", "dim": 64, "seed": 0},
        {"command": "pseudo-hermitian", "seed": 3, "pseudo": {"psi_seed": 1}},
        {"command": "bessel", "seed": 0, "weights": [1, 2],
         "inputs": {"transform": "t.csv"}, "tolerances": {"gram": 1e-6}},
    ])
    def test_canonical_lists_every_resolved_field(self, kwargs):
        # Every field but the output knobs enters the digest as resolved,
        # so a new field cannot be left out of it and canonical() resolves
        # no default of its own.
        cfg = RunConfig(**kwargs)
        canon = cfg.canonical()
        model = canon.pop("model")
        flat = {**model, **canon}
        names = {f.name for f in dataclasses.fields(RunConfig)} \
            - {"out", "fmt", "no_timing"}
        assert set(flat) == names and len(model) + len(canon) == len(names)
        for name in names:
            assert jsonify(flat[name]) == jsonify(getattr(cfg, name)), name

    @pytest.mark.parametrize("kwargs, digest", [
        ({"command": "bessel", "weights": (1e6, 1e6), "seed": 1,
          "inputs": {"family": "f.csv", "dual": "d.csv"},
          "tolerances": {"equality": 1e-9}, "out": "r.csv", "fmt": "csv",
          "no_timing": True},
         "aa19429caecd0523ab7cf89fa87521ce3efed34d1f0d0471d3df097d05435376"),
        ({"command": "example", "example": "hermite", "dim": 6, "levels": 2,
          "size": 256, "half_width": 7.5, "weight_rule": "linear",
          "ladder": (4, 8, 16), "seed": 2,
          "pseudo": {"psi_seed": 5}},
         "7f71dd6eddd1a69dbdd652ee44b1033511c7cb549ad264518549fb0682242b8b"),
    ], ids=["bessel-inputs", "hermite-model"])
    def test_config_hash_is_stable(self, kwargs, digest):
        # Digests over every top-level and model key between them, taken
        # from the hand-written canonical() that the key sets replaced and
        # retaken when the ladder knob left the resolved pseudo block,
        # which enters every digest.
        assert config_digest(RunConfig(**kwargs).canonical()) == digest

    def test_timing_fields_optional(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, SCHEMA)
        assert "generated_at" in doc["meta"]
        assert doc["meta"]["duration_seconds"] >= 0.0


class TestNumberOpReports:
    def test_strictness_constants_all_one(self, tmp_path):
        doc = run_json(tmp_path, ["strictness", "--example", "number-op",
                                  "--dim", "4"])
        sec = section(doc, "strictness")
        assert sec["verdicts"][0]["verdict"] == "strict"
        assert sec["records"]["lower"] == pytest.approx([1.0] * 4)

    def test_two_level_strictness_grows(self, tmp_path):
        doc = run_json(tmp_path, ["strictness", "--example", "number-op",
                                  "--dim", "4", "--levels", "2"])
        sec = section(doc, "strictness")
        assert sec["verdicts"][0]["verdict"] == "non-strict"
        assert sec["records"]["upper"]["2"] == \
            pytest.approx([64.0, 256.0, 1024.0, 4096.0])

    def test_bessel_lanczos_attains_certified(self, tmp_path):
        doc = run_json(tmp_path, ["bessel", "--example", "number-op",
                                  "--dim", "8", "--seed", "0"])
        sec = section(doc, "bessel")
        level_one = sec["records"]["levels"]["1"]
        assert level_one["ritz"] <= level_one["bound"] * (1 + 1e-12)
        assert level_one["bound"] == pytest.approx(1.0, abs=1e-12)
        assert 1 <= level_one["steps"] <= 8
        assert [v["name"] for v in sec["verdicts"]] == [
            "lanczos-attains-certified", "factorization-identity"]
        assert all(v == "pass" for v in
                   (x["verdict"] for x in sec["verdicts"]))

    def test_full_report_has_no_tainted_verdicts(self, tmp_path):
        doc = run_json(tmp_path, ["full-report", "--example", "number-op",
                                  "--dim", "4", "--seed", "0"])
        words = verdicts(doc)
        assert "tainted" not in words
        assert "fail" not in words
        names = [s["name"] for s in doc["sections"]]
        for expected in ("construction", "biorthogonality", "strictness",
                         "frame-operator", "riesz-fischer", "reconstruction"):
            assert expected in names

    def test_realization_reports_its_gram_defect(self, tmp_path):
        doc = run_json(tmp_path, ["full-report", "--example", "number-op",
                                  "--dim", "64", "--seed", "0"])
        (collapse,) = section(doc, "triplet-realization")["verdicts"]
        assert collapse["verdict"] == "pass"
        assert collapse["evidence"]["gram_defect"] <= \
            collapse["evidence"]["gram_tolerance"]

    def test_realization_fails_inside_the_report(self, tmp_path,
                                                  monkeypatch):
        model = cli.number_operator_model

        def doubled(dim, levels, ladder):
            # The strict basis with every family column doubled, held as
            # a Diagonal: the +1 Gram becomes 4 I.
            tri, basis = model(dim, levels, ladder)
            twice = Diagonal(np.full(dim, 2.0))
            fam = SequenceFamily(basis.fam.family @ twice, tri,
                                 dual=basis.fam.dual)
            return tri, dataclasses.replace(basis, fam=fam)

        monkeypatch.setattr(cli, "number_operator_model", doubled)
        doc = run_json(tmp_path, ["full-report", "--example", "number-op",
                                  "--dim", "8", "--seed", "0"])
        (collapse,) = section(doc, "triplet-realization")["verdicts"]
        assert collapse["verdict"] == "fail"
        assert collapse["evidence"]["gram_defect"] == pytest.approx(3.0)

    def test_unrealized_collapse_carries_the_ladder_verdict(self, tmp_path):
        doc = run_json(tmp_path, ["full-report", "--example", "number-op",
                                  "--dim", "8", "--levels", "2",
                                  "--seed", "0"])
        (collapse,) = section(doc, "triplet-realization")["verdicts"]
        assert collapse["verdict"] == "inconclusive"
        assert collapse["evidence"] == {"strict": "non-strict"}


class TestReconstruct:
    def test_default_probe_halves_each_step(self, tmp_path):
        doc = run_json(tmp_path, ["reconstruct", "--example", "number-op",
                                  "--dim", "16"])
        sec = section(doc, "reconstruction")
        # geometric tail: the ratio sits at 0.5 up to a 4^-(N-n) correction,
        # so only increments with at least ~12 terms left are pinned tightly
        ratios = sec["records"]["ratios"][:4]
        assert ratios == pytest.approx([0.5] * 4, abs=1e-6)
        assert sec["verdicts"][0]["verdict"] == "pass"

    def test_vector_file_probe(self, tmp_path):
        vec = tmp_path / "probe.csv"
        save_complex_matrix(vec, np.eye(4)[:, :1])
        doc = run_json(tmp_path, ["reconstruct", "--example", "number-op",
                                  "--dim", "4", "--vector", str(vec)])
        sec = section(doc, "reconstruction")
        assert sec["records"]["residuals"][-1] <= 1e-12

    def test_wrong_probe_length(self, tmp_path):
        vec = tmp_path / "probe.csv"
        save_complex_matrix(vec, np.eye(3)[:, :1])
        assert main(["reconstruct", "--example", "number-op", "--dim", "4",
                     "--vector", str(vec)]) == 2

    def test_multi_column_probe_is_refused(self, tmp_path, capsys):
        t, vec = tmp_path / "t.csv", tmp_path / "v.csv"
        save_complex_matrix(t, np.diag([1.0, 2.0, 3.0, 4.0]))
        save_complex_matrix(vec, np.ones((4, 2)) + 1j)
        err = refusal(["reconstruct", "--transform", str(t), "--vector",
                       str(vec)], capsys)
        assert "expected shape (4, 1), found (4, 2)" in err


class TestFileModels:
    def test_transform_file_strictness_is_inconclusive(self, tmp_path):
        t = tmp_path / "t.csv"
        save_complex_matrix(t, np.diag([1.0, 2.0, 3.0]))
        doc = run_json(tmp_path, ["strictness", "--transform", str(t),
                                  "--weight-rule", "linear"])
        sec = section(doc, "strictness")
        assert sec["verdicts"][0]["verdict"] == "inconclusive"

    def test_family_without_dual_riesz_fischer(self, tmp_path):
        fam = tmp_path / "family.csv"
        save_complex_matrix(fam, np.eye(3))
        doc = run_json(tmp_path, ["riesz-fischer", "--family", str(fam)])
        sec = section(doc, "riesz-fischer")
        assert sec["verdicts"][0]["verdict"] == "pass"
        assert sec["records"]["flattening_residual"] <= 1e-12

    def test_weights_from_quadratic_rule(self, tmp_path):
        t = tmp_path / "t.csv"
        save_complex_matrix(t, np.eye(3))
        doc = run_json(tmp_path, ["frame-report", "--transform", str(t),
                                  "--weight-rule", "quadratic"])
        assert section(doc, "frame-operator")["verdicts"][0]["verdict"] \
            == "pass"


class TestExampleBatteries:
    def test_sobolev_gram_section(self, tmp_path):
        doc = run_json(tmp_path, ["example", "--example", "sobolev",
                                  "--dim", "4", "--size", "256",
                                  "--seed", "1"])
        sec = section(doc, "sobolev-family")
        names = {v["name"]: v for v in sec["verdicts"]}
        gram = names["modified-orthonormality"]
        assert gram["verdict"] == "pass"
        assert gram["evidence"]["modified_gram_defect"] <= 1e-8

    def test_hermite_battery(self, tmp_path):
        doc = run_json(tmp_path, ["example", "--example", "hermite",
                                  "--dim", "6", "--seed", "1"])
        sec = section(doc, "hermite-values")
        names = {v["name"]: v for v in sec["verdicts"]}
        assert names["recurrence-vs-closed-forms"]["verdict"] == "pass"
        assert names["quadrature-orthonormality"]["verdict"] == "pass"
        assert names["band-limited-resolution"]["verdict"] == "pass"

    def test_schwartz_defaults_to_two_levels(self, tmp_path):
        doc = run_json(tmp_path, ["example", "--example", "schwartz",
                                  "--dim", "6", "--seed", "1"])
        sec = section(doc, "strictness")
        assert sec["verdicts"][0]["verdict"] == "non-strict"


PSEUDO = ["pseudo-hermitian", "--seed", "2"]
BESSEL = ["bessel", "--example", "number-op", "--seed", "0"]


@pytest.mark.parametrize("argv, config", [
    pytest.param(PSEUDO, {"pseudo": {"psi_seed": "abc"}}, id="psi_seed-text"),
    pytest.param(PSEUDO, {"pseudo": {"psi_seed": -3}}, id="psi_seed-negative"),
    pytest.param(PSEUDO, {"pseudo": {"lambda_rule": "linear"}},
                 id="lambda_rule-removed"),
    pytest.param(PSEUDO, {"pseudo": {"T_rule": "diag"}}, id="T_rule-removed"),
    pytest.param(PSEUDO, {"model": {"dim": "x"}}, id="dim-text"),
    pytest.param(PSEUDO + ["--dim", "0"], None, id="dim-zero"),
    pytest.param(PSEUDO + ["--seed", "-1"], None, id="seed-negative"),
    pytest.param(BESSEL, {"model": {"levels": True}}, id="levels-bool"),
    pytest.param(BESSEL, {"model": {"half_width": "wide"}},
                 id="half_width-text"),
    # The digest refuses an unread non-finite value as a report would.
    pytest.param(BESSEL + ["--half-width", "inf"], None,
                 id="half_width-inf-unread"),
    pytest.param(BESSEL + ["--size", "0"], None, id="size-zero"),
    pytest.param(BESSEL + ["--tolerance", "equality=nan"], None,
                 id="tolerance-nan"),
    pytest.param(BESSEL + ["--tolerance", "equality=-1"], None,
                 id="tolerance-negative"),
    pytest.param(BESSEL + ["--tolerance", "gram=inf"], None,
                 id="tolerance-inf"),
    pytest.param(BESSEL, {"tolerances": {"gram": "tight"}},
                 id="tolerance-text"),
    pytest.param(BESSEL, {"model": {"ladder": [8.7, 16, 32, 64]}},
                 id="ladder-float"),
    pytest.param(BESSEL, {"model": {"ladder": [True, 16, 32, 64]}},
                 id="ladder-bool"),
    pytest.param(PSEUDO, {"pseudo": {"psi_seed": 7.5}}, id="psi_seed-float"),
])
def test_bad_config_value_is_a_config_error(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_infinite_half_width_is_refused_before_sampling(capsys):
    argv = ["full-report", "--example", "sobolev", "--size", "256",
            "--seed", "1", "--half-width", "inf"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: half width must be finite\n"


def refusal(argv, capsys):
    """The stderr of a run that must end with exit 2, no output and no
    warning; every warning raised along the way fails the run."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--no-timing"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("error: ") and "Warning" not in out.err
    return out.err


@pytest.mark.parametrize("argv", [
    ["strictness", "--example", "schwartz", "--dim", "8", "--levels", "150"],
    ["full-report", "--example", "number-op", "--dim", "8", "--levels", "200",
     "--seed", "0"],
], ids=["schwartz-ladder", "number-op-basis"])
def test_overflowing_strictness_constants_are_an_error(capsys, argv):
    # At 86 levels and more the ladder constant 64^(2q) overflows.
    assert "non-finite values in the scaled operator" in refusal(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["reconstruct"], ["bessel", "--seed", "0"], ["strictness"],
    ["check-biorthogonal"]], ids=lambda argv: argv[0])
def test_overflowing_pseudo_inverse_is_an_error(tmp_path, capsys, argv):
    # A one-to-one transform with subnormal singular values: 1/s overflows.
    path = tmp_path / "t.csv"
    path.write_text("1e-310,0,0,0\n0,0,1e-310,0\n")
    assert refusal(argv + ["--transform", str(path)], capsys) == (
        "error: the pseudo-inverse overflows: smallest kept singular value "
        "1e-310\n")


STRICTNESS = ["strictness", "--example", "number-op"]


@pytest.mark.parametrize("flag, config, message", [
    ("8,4", None, "ladder must be strictly increasing"),
    ("0,4", None, "ladder entry must be at least 1, got 0"),
    (None, [8.7, 16, 32, 64], "ladder entry must be an integer, got 8.7"),
    (None, [True, 16, 32, 64], "ladder entry must be an integer, got True"),
    (None, 5, "ladder must be a list of integers"),
    (None, [], "ladder needs positive dimensions"),
    (None, [None, 8], "ladder needs positive dimensions"),
], ids=["decreasing", "zero", "float", "bool", "scalar", "empty", "null"])
def test_bad_ladder_refusal_lines(tmp_path, capsys, flag, config, message):
    argv = STRICTNESS + (["--ladder", flag] if flag else [])
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": {"ladder": config}}))
        argv += ["--config", str(path)]
    assert refusal(argv, capsys) == f"error: {message}\n"


SOBOLEV_STRICTNESS = ["strictness", "--example", "sobolev", "--seed", "0"]


def test_sobolev_ladder_above_the_family_is_refused(capsys):
    # The default ladder 8, 16, 32, 64 outgrows the default 10 columns.
    err = refusal(SOBOLEV_STRICTNESS, capsys)
    assert err.startswith("error: ladder rung 16 exceeds the 10 Sobolev")


@pytest.mark.parametrize("extra", [["--dim", "64"],
                                   ["--ladder", "2,4,8,10"]])
def test_sobolev_ladder_within_the_family_is_strict(tmp_path, extra):
    doc = run_json(tmp_path, SOBOLEV_STRICTNESS + extra)
    assert verdicts(doc) == ["strict"]


@pytest.mark.parametrize("argv", [
    ["example", "--example", "number-op", "--seed", "0", "--format", "xml"],
    ["example", "--example", "number-op", "--seed", "0", "--dim", "abc"],
    ["no-such-command"],
    ["example", "--example", "number-op", "--seed", "0", "--no-such-flag"],
    [],
], ids=["format", "dim", "command", "flag", "empty"])
def test_refused_command_line_is_an_error_line(capsys, argv):
    assert "usage:" not in refusal(argv, capsys)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_the_shared_parser_carries_no_state(tmp_path, capsys):
    # One parser, built on the first request, serves every request of the
    # process: a request with other flags, `--tolerance` among them,
    # leaves the next one printing what it prints first.
    path = tmp_path / "t.csv"
    save_complex_matrix(path, well_conditioned_transform(
        np.random.default_rng(2), 8))
    first = ["full-report", "--example", "number-op", "--seed", "0",
             "--no-timing"]
    other = ["bessel", "--transform", str(path), "--seed", "0",
             "--tolerance", "equality=1e-10", "--no-timing"]
    cli.build_parser.cache_clear()
    outputs = []
    for argv in (first, other, first):
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[2] == outputs[0] and outputs[0].err == ""
    assert outputs[1].out != outputs[0].out
    assert cli.build_parser.cache_info().misses == 1
    assert "usage:" not in refusal(["full-report", "--format", "xml"], capsys)


HERMITE = ["example", "--example", "hermite", "--dim", "10", "--seed", "0"]


def test_hermite_grid_takes_the_half_width(tmp_path):
    doc = run_json(tmp_path, HERMITE + ["--half-width", "40"])
    assert section(doc, "hermite-values")["records"]["half_width"] == 40.0
    default = run_json(tmp_path, HERMITE, "default.json")
    assert section(default, "hermite-values")["records"]["half_width"] == 20.0


def test_narrow_hermite_half_width_is_refused(capsys):
    assert refusal(HERMITE + ["--half-width", "5"], capsys).startswith(
        "error: half width 5 too small for basis function 0 ")


@pytest.mark.parametrize("example", ["hermite", "sobolev"])
def test_overflowing_grid_spacing_is_refused(capsys, example):
    argv = ["example", "--example", example, "--seed", "0",
            "--half-width", "1e308"]
    assert refusal(argv, capsys) == (
        "error: half width 1e+308 overflows the grid spacing\n")


@pytest.mark.parametrize("example", ["hermite", "sobolev"])
def test_huge_half_width_is_refused_without_a_warning(capsys, example):
    # The squared nodes overflow; exp(-inf) = 0 needs no warning.  Both
    # examples double the grid while a column is 0 on every node, and
    # refuse the zero column at the cap.
    argv = ["example", "--example", example, "--seed", "0",
            "--half-width", "1e200"]
    assert refusal(argv, capsys) == (
        "error: half width 1e+200 is too wide for 65536 points: basis "
        "function 1 is 0 on every node (spacing 3.05e+195)\n")


@pytest.mark.parametrize("example", ["hermite", "sobolev"])
def test_unresolvable_window_names_its_half_width(capsys, example):
    # The one column is a spike at x = 0, which no doubling resolves.
    argv = ["example", "--example", example, "--dim", "1", "--seed", "0",
            "--half-width", "1e200"]
    assert refusal(argv, capsys) == (
        "error: half width 1e+200 is too wide for 65536 points: the "
        "aliasing check keeps failing (worst fraction 3.33e-01)\n")


def test_sobolev_grid_too_coarse_for_phi_1_is_refused(capsys):
    # At spacing 39 the envelope exp(-x^2/2) underflows on every node but
    # x = 0, where phi_1 = sqrt(2) x phi_0 vanishes.  Doubling gives every
    # column a nonzero node, but even 65,536 points (spacing 0.61) leave
    # phi_9 aliased.
    argv = ["example", "--example", "sobolev", "--seed", "0",
            "--half-width", "2e4"]
    assert refusal(argv, capsys) == (
        "error: half width 20000 is too wide for 65536 points: the "
        "aliasing check keeps failing (worst fraction 4.61e-01)\n")


def test_support_tolerance_bounds_the_hermite_window(capsys):
    argv = ["full-report", "--example", "hermite", "--seed", "1",
            "--tolerance", "support=1e-300"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: half width 20 too small for basis function 0 ")


def test_support_tolerance_admits_a_narrow_sobolev_window(tmp_path):
    # At the default 1e-12 a half width of 8 is refused for function 7.
    doc = run_json(tmp_path, ["example", "--example", "sobolev", "--size",
                              "256", "--half-width", "8", "--seed", "1",
                              "--tolerance", "support=1e-3"])
    assert section(doc, "sobolev-family")["records"]["round_trip_residual"] \
        <= 1e-12


def test_aliasing_tolerance_sets_the_hermite_grid(tmp_path):
    # The worst fraction is 0.47 at 64 points and 1.7e-9 at 128; the
    # default 1e-10 takes 256.
    argv = ["example", "--example", "hermite", "--size", "64", "--seed", "1"]
    loose = run_json(tmp_path, argv + ["--tolerance", "aliasing=1e-2"])
    records = section(loose, "hermite-values")["records"]
    assert records["grid_points"] == 128
    assert 1e-10 < records["worst_aliasing_fraction"] <= 1e-2
    default = run_json(tmp_path, argv, "default.json")
    assert section(default, "hermite-values")["records"]["grid_points"] == 256


GRID_KEYS = ("grid_points", "half_width", "worst_aliasing_fraction")


@pytest.mark.parametrize("extra, points", [
    ([], 1024),
    (["--size", "64"], 256),
    (["--size", "64", "--tolerance", "aliasing=1e-2"], 128),
], ids=["default", "size-64", "size-64-loose"])
def test_both_function_examples_take_the_same_grid(tmp_path, extra, points):
    grids = []
    for example, name in (("hermite", "hermite-values"),
                          ("sobolev", "sobolev-family")):
        doc = run_json(tmp_path, ["example", "--example", example, "--seed",
                                  "0"] + extra, f"{example}.json")
        records = section(doc, name)["records"]
        grids.append({key: records[key] for key in GRID_KEYS})
    assert grids[0] == grids[1]
    assert grids[0]["grid_points"] == points


@pytest.mark.parametrize("dim", ["1", "10"])
@pytest.mark.parametrize("example", ["hermite", "sobolev"])
def test_two_requested_points_give_the_report_of_four(tmp_path, example, dim):
    # Both grids double to the same accepted one.  On 2 points the last
    # node, x = 0, counted as a window edge and every run was refused.
    sections = [run_json(tmp_path, ["example", "--example", example, "--dim",
                                    dim, "--size", size, "--seed", "0"],
                         f"{size}.json")["sections"] for size in ("2", "4")]
    assert sections[0] == sections[1]


def test_sobolev_report_on_a_doubled_grid_passes(tmp_path):
    # At its 64 requested points the family failed its modified Gram and
    # level constants and tainted its pairings; the grid rule takes 256.
    doc = run_json(tmp_path, ["full-report", "--example", "sobolev",
                              "--size", "64", "--seed", "0"])
    words = verdicts(doc)
    assert "fail" not in words and "tainted" not in words
    assert section(doc, "sobolev-family")["records"]["grid_points"] == 256


def test_sobolev_report_verifies_its_construction_once(tmp_path, monkeypatch):
    counts = count_calls(monkeypatch, ("hermite_values", "aliasing_fraction",
                                       "sobolev_multiplier"))
    run_json(tmp_path, ["full-report", "--example", "sobolev", "--size",
                        "256", "--seed", "1"])
    # The grid rule samples the ten Hermite columns once, measures their
    # aliasing once, by one FFT of all ten, and hands both to the model and
    # the section.  The model builds the family with the triplet's own
    # scalings; the multiplier runs once, as the section's construction
    # reference.  It ran 4 times while the model built the family with it.
    assert counts == {"hermite_values": 1, "aliasing_fraction": 1,
                      "sobolev_multiplier": 1}


def test_a_triplet_off_the_multiplier_fails_the_construction(tmp_path,
                                                             monkeypatch):
    # Triplet weights off by one part in a million build a family that the
    # multiplier reference does not.  The round trip closes on the same
    # weights and the Gram checks read the Hermite quadrature, so only the
    # construction verdict sees it; it passed while the multiplier built
    # the family too.
    triplet = spaces.sobolev_triplet

    def perturbed(grid):
        tri = triplet(grid)
        return WeightedTriplet.fourier(tri.weights * (1 + 1e-6), tri.levels)

    monkeypatch.setattr(spaces, "sobolev_triplet", perturbed)
    doc = run_json(tmp_path, ["full-report", "--example", "sobolev", "--seed",
                              "0"])
    words = {v["name"]: v["verdict"]
             for v in section(doc, "sobolev-family")["verdicts"]}
    assert words == {"inverse-multiplier-construction": "fail",
                     "multiplier-round-trip": "pass",
                     "modified-orthonormality": "pass",
                     "level-constants-near-one": "pass"}


def test_hermite_report_samples_the_columns_once(tmp_path, monkeypatch):
    counts = count_calls(monkeypatch, ("hermite_values", "aliasing_fraction"))
    run_json(tmp_path, ["full-report", "--example", "hermite", "--dim", "10",
                        "--seed", "0"])
    # The grid search hands the columns it checked, and their worst
    # aliasing fraction, to the section: one FFT of all ten columns.
    assert counts == {"hermite_values": 1, "aliasing_fraction": 1}


def failing(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_linear_algebra_failure_is_an_error_line(monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "svd", failing(
        np.linalg.LinAlgError("SVD did not converge")))
    assert main(["full-report", "--example", "sobolev", "--dim", "4",
                 "--size", "256", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: linear algebra failure: SVD did not converge\n"


def test_memory_failure_is_an_error_line(monkeypatch, capsys):
    monkeypatch.setitem(SECTIONS, "bessel", failing(MemoryError()))
    assert main(["bessel", "--example", "number-op", "--seed", "1"]) == 2
    out = capsys.readouterr()
    assert out.err == "error: out of memory\n" and out.out == ""
    assert "Traceback" not in out.err


def has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Runs `main` three times in one process and prints the minor page faults
# of the third run, then the first run's report.
FAULT_PROBE = """
import contextlib, io, resource, sys
from rieszlab.cli import main
reports = []
for _ in range(3):
    out = io.StringIO()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(out):
        assert main(sys.argv[1:]) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    reports.append(out.getvalue())
print(faults)
sys.stdout.write(reports[0])
"""


@pytest.mark.skipif(not has_mallopt(), reason="C library has no mallopt")
def test_repeated_report_reuses_freed_array_memory(capsys):
    pytest.importorskip("resource")
    argv = ["full-report", "--example", "sobolev", "--dim", "10", "--size",
            "1024", "--seed", "0", "--no-timing"]
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE, *argv],
                          capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    faults, report = proc.stdout.split("\n", 1)
    # The default thresholds unmap the report's 160 KiB panels when they
    # are freed: a few hundred faults per report.
    assert int(faults) <= 64
    assert main(argv) == 0
    assert report == capsys.readouterr().out


@pytest.mark.parametrize("lookup_error", [OSError, AttributeError])
def test_missing_mallopt_leaves_the_report_unchanged(monkeypatch, capsys,
                                                     request, lookup_error):
    argv = ["strictness", "--example", "number-op", "--dim", "4",
            "--no-timing"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    lookups = []

    def libc(name):
        lookups.append(name)
        if lookup_error is OSError:
            raise OSError("no C library")
        return object()  # a C library without mallopt

    monkeypatch.setattr(ctypes, "CDLL", libc)
    _keep_freed_arrays.cache_clear()
    request.addfinalizer(_keep_freed_arrays.cache_clear)
    assert main(argv) == 0
    assert lookups == [None] and capsys.readouterr() == expected


class TestPseudoHermitian:
    def test_default_demo(self, tmp_path):
        doc = run_json(tmp_path, ["pseudo-hermitian", "--seed", "2"])
        spectral = section(doc, "spectral")
        names = {v["name"]: v for v in spectral["verdicts"]}
        assert names["eigenpairs"]["verdict"] == "pass"
        assert names["real-spectrum"]["verdict"] == "pass"
        assert spectral["records"]["nonnormality"] > 0.1
        weak = section(doc, "weak-similarity")
        assert weak["verdicts"][0]["verdict"] == "pass"
        adm = section(doc, "admissibility")
        assert adm["records"]["flag"] == "growing"

    def test_pseudo_config_keys(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "pseudo-hermitian",
            "seed": 2,
            "model": {"dim": 8, "ladder": [4, 8, 16, 32]},
            "pseudo": {"psi_seed": 9},
        }))
        doc = run_json(tmp_path, ["pseudo-hermitian", "--config", str(cfg)])
        adm = section(doc, "admissibility")
        assert adm["records"]["ladder"] == [4, 8, 16, 32]

    def test_one_point_ladder_has_no_slope(self, tmp_path):
        doc = run_json(tmp_path, ["pseudo-hermitian", "--seed", "2",
                                  "--ladder", "8"])
        adm = section(doc, "admissibility")
        [verdict] = adm["verdicts"]
        assert adm["records"]["slope"] is None
        assert verdict["evidence"]["slope"] is None
        assert verdict["verdict"] == "inconclusive"

    def test_unknown_pseudo_key(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "pseudo-hermitian", "seed": 2,
            "pseudo": {"gamma": 1.0},
        }))
        assert main(["pseudo-hermitian", "--config", str(cfg)]) == 2
        # RunConfig itself refuses it, as it refuses an unknown tolerance.
        with pytest.raises(ConfigError, match="^unknown pseudo keys: gamma$"):
            RunConfig("pseudo-hermitian", seed=2, pseudo={"gamma": 1.0})


class TestConfigFile:
    def test_config_drives_a_run(self, tmp_path):
        out = tmp_path / "from_config.json"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "bessel",
            "example": "number-op",
            "model": {"dim": 4},
            "seed": 3,
            "no_timing": True,
            "output": {"path": str(out), "format": "json"},
        }))
        assert main(["bessel", "--config", str(cfg)]) == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, SCHEMA)
        assert doc["meta"]["seed"] == 3

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "bessel", "example": "number-op",
            "model": {"dim": 4}, "seed": 3,
        }))
        doc = run_json(tmp_path, ["bessel", "--config", str(cfg),
                                  "--seed", "5"])
        assert doc["meta"]["seed"] == 5

    def test_unknown_top_level_key(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "bessel", "seeds": 3}))
        assert main(["bessel", "--config", str(cfg)]) == 2

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        assert main(["bessel", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("block, key", [
        ("output", "path"), ("output", "format"), ("inputs", "transform"),
        ("inputs", "vector"),
    ])
    def test_null_output_or_input_is_unset(self, tmp_path, monkeypatch,
                                           capsys, block, key):
        monkeypatch.chdir(tmp_path)
        save_complex_matrix(tmp_path / "fam.csv", np.diag([1.0, 2.0, 4.0]))
        save_complex_matrix(tmp_path / "dual.csv", np.diag([1.0, 0.5, 0.25]))
        argv = ["reconstruct", "--family", "fam.csv", "--dual", "dual.csv",
                "--no-timing"]
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps({block: {key: None}}))
        outputs = []
        for extra in ([], ["--config", str(cfg)]):
            assert main(argv + extra) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        jsonschema.validate(json.loads(outputs[0]), SCHEMA)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["dual.csv", "fam.csv", "null.json"]


class TestOutputFormats:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["strictness", "--example", "number-op", "--dim", "4",
                     "--out", str(out), "--format", "csv",
                     "--no-timing"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "section,kind,name,key,value"
        assert any(line.startswith("strictness,verdict") for line in lines)

    def test_stdout_default(self, capsys):
        assert main(["strictness", "--example", "number-op", "--dim", "4",
                     "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_and_file_carry_the_same_bytes(self, tmp_path, capsys,
                                                  fmt):
        argv = ["strictness", "--example", "number-op", "--dim", "4",
                "--format", fmt, "--no-timing"]
        out = tmp_path / f"r.{fmt}"
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "rieszlab", "strictness", "--example",
         "number-op", "--dim", "4", "--out", str(out), "--no-timing"],
        capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    jsonschema.validate(json.loads(out.read_text()), SCHEMA)
