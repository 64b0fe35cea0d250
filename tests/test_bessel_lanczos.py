"""The Bessel bound attained by Lanczos, against a dense eigenvalue.

`bessel_bound_lanczos` reaches the top eigenvalue of S^H S, S the
level's scaled dual, through products with S and S^H only, and the
`bessel` section holds it to the SVD certificate from both sides.  Here
the kernel is compared with `eigvalsh` of the M x M Gram of the dense
scaled dual (`reference.dense_top_eigenvalue`), and the verdict is shown
to pass on a bound near the tolerance and to fail when the certificate
is off by one part in a million either way, or when the kernel returns
NaN; a NaN then ends the run with an error, since no report may carry
it.  Lanczos takes each beta on a power-of-two rescaling of its vector,
so a transform scaled by 2^k gives finite records up to the largest k
whose bound is finite.
"""
import json
import warnings

import numpy as np
import pytest

import rieszlab.cli as cli
from rieszlab import (ContinuityError, LevelError, SequenceFamily,
                      WeightedTriplet, bessel_bound, bessel_bound_lanczos,
                      bessel_bound_sampled, number_operator_model,
                      save_complex_matrix)

from conftest import well_conditioned_transform
from reference import CASES, EQ, FAMILIES, dense_top_eigenvalue


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_lanczos_matches_the_dense_eigenvalue(name):
    fam = FAMILIES[name]()
    for j in range(1, fam.triplet.levels + 1):
        ritz, residual, steps = bessel_bound_lanczos(fam, j, EQ, seed=0)
        reference = dense_top_eigenvalue(fam, j)
        assert abs(ritz - reference) <= residual + EQ * (1 + reference)
        assert 1 <= steps <= fam.size
        assert residual <= EQ * (1 + ritz) or steps == fam.size


def test_an_isometry_stops_after_one_step():
    fam = number_operator_model(64, 1)[1].fam
    ritz, residual, steps = bessel_bound_lanczos(fam, 1, EQ, seed=3)
    assert steps == 1 and residual <= EQ
    assert ritz == pytest.approx(1.0, rel=1e-15)


def test_empty_family_takes_no_step():
    tri = WeightedTriplet(3, (1.0, 2.0, 3.0))
    empty = np.zeros((3, 0))
    fam = SequenceFamily(empty, tri, dual=empty)
    assert bessel_bound_lanczos(fam, 1, EQ, seed=0) == (0.0, 0.0, 0)


def test_non_finite_product_is_a_continuity_error():
    # S = 1e200 I is finite; S^H S v is not.
    tri = WeightedTriplet(4, np.ones(4))
    fam = SequenceFamily(np.eye(4), tri, dual=1e200 * np.eye(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContinuityError):
            bessel_bound_lanczos(fam, 1, EQ, seed=0)


@pytest.mark.parametrize("level", [0, 3, -1])
def test_levels_outside_the_ladder_are_refused(level):
    fam = CASES["number-op-L2"]()
    with pytest.raises(LevelError):
        bessel_bound_lanczos(fam, level, EQ, seed=0)
    with pytest.raises(LevelError):
        bessel_bound_sampled(fam, level, samples=10)


# -- the verdict --------------------------------------------------------------

def transform_argv(tmp_path):
    path = tmp_path / "transform.csv"
    save_complex_matrix(path, well_conditioned_transform(
        np.random.default_rng(2), 32))
    return ["bessel", "--transform", str(path), "--weight-rule", "linear",
            "--seed", "0"]


REPORTS = {
    "number-op": lambda tmp_path: ["full-report", "--example", "number-op",
                                   "--dim", "64", "--levels", "2",
                                   "--seed", "1"],
    "schwartz": lambda tmp_path: ["full-report", "--example", "schwartz",
                                  "--dim", "12", "--levels", "3",
                                  "--seed", "1"],
    "sobolev": lambda tmp_path: ["full-report", "--example", "sobolev",
                                 "--seed", "1"],
    "transform": transform_argv,
}


def lanczos_verdict(tmp_path, argv):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--no-timing", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    [sec] = [s for s in doc["sections"] if s["name"] == "bessel"]
    [verdict] = [v for v in sec["verdicts"]
                 if v["name"] == "lanczos-attains-certified"]
    return verdict["verdict"]


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_verdict_fails_when_the_bound_moves(tmp_path, monkeypatch, name):
    argv = REPORTS[name](tmp_path)
    assert lanczos_verdict(tmp_path, argv) == "pass"
    for factor in (1 - 1e-6, 1 + 1e-6):
        with monkeypatch.context() as m:
            m.setattr(cli, "bessel_bound",
                      lambda fam, j: factor * bessel_bound(fam, j))
            assert lanczos_verdict(tmp_path, argv) == "fail"


@pytest.mark.parametrize("seed", range(8))
def test_verdict_passes_on_a_bound_near_the_tolerance(tmp_path, seed):
    # Bound 2e-12, second eigenvalue 1e-18, equality tolerance 1e-12: a
    # stop at residual <= tol (1 + ritz) took one step and a Ritz value
    # far below the bound at seeds 1, 2 and 7.
    save_complex_matrix(tmp_path / "family.csv", np.eye(2))
    save_complex_matrix(tmp_path / "dual.csv", np.diag([np.sqrt(2.0), 1e-3]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"weights": [1e6, 1e6]}}))
    argv = ["bessel", "--family", str(tmp_path / "family.csv"), "--dual",
            str(tmp_path / "dual.csv"), "--config", str(config),
            "--seed", str(seed)]
    assert lanczos_verdict(tmp_path, argv) == "pass"


@pytest.mark.parametrize("slot", [0, 1])
def test_nan_from_the_kernel_fails(tmp_path, monkeypatch, capsys, slot):
    def nan_kernel(fam, j, tol, seed):
        out = list(bessel_bound_lanczos(fam, j, tol, seed))
        out[slot] = float("nan")
        return tuple(out)

    monkeypatch.setattr(cli, "bessel_bound_lanczos", nan_kernel)
    argv = REPORTS["number-op"](tmp_path) + ["--no-timing"]
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    _, verdicts = cli.SECTIONS["bessel"](cli.resolve_model(cfg), cfg)
    assert verdicts[0].verdict == "fail"
    assert cli.main(argv) == 2
    key = ("ritz", "residual")[slot]
    assert capsys.readouterr() == (
        "", f"error: non-finite value nan at bessel.levels.1.{key}\n")


def no_constant(token):
    raise AssertionError(f"{token} in a report")


@pytest.mark.parametrize("k", [300, 400, 500])
def test_a_transform_scaled_by_two_to_the_k_stays_finite(tmp_path, capsys,
                                                         k):
    # Below k = 550, where the bound itself overflows, the sum of squares
    # of the Lanczos vector overflowed from k = 300 and its NaN reached
    # the report.
    rng = np.random.default_rng(1)
    g = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    t = np.eye(24) + 0.3 * g / np.sqrt(24)
    docs = []
    for power in (0, k):
        save_complex_matrix(tmp_path / "t.csv", 2.0 ** power * t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bessel", "--transform", str(tmp_path / "t.csv"),
                             "--seed", "0", "--no-timing"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        docs.append(json.loads(out, parse_constant=no_constant))
    words = [[(v["name"], v["verdict"]) for s in doc["sections"]
              for v in s["verdicts"]] for doc in docs]
    assert words[0] == words[1] and {w for _, w in words[1]} == {"pass"}
    level = docs[1]["sections"][0]["records"]["levels"]["1"]
    assert level["bound"] > 1e180 and level["residual"] > 0.0
