"""The Bessel bound attained by Lanczos, against a dense eigenvalue.

`bessel_bound_lanczos` reaches the top eigenvalue of S^H S, S the
level's scaled dual, through products with S and S^H only, and the
`bessel` section holds it to the SVD certificate from both sides.  Here
the kernel is compared with `eigvalsh` of the M x M Gram written out in
the test, and the verdict is shown to fail when the certificate is off
by one part in a million either way, or when the kernel returns NaN.
"""
import json
import warnings

import numpy as np
import pytest

import rieszlab.cli as cli
from rieszlab import (ContinuityError, LevelError, LineGrid, SequenceFamily,
                      WeightedTriplet, bessel_bound, bessel_bound_lanczos,
                      bessel_bound_sampled, number_operator_model,
                      save_complex_matrix, sobolev_basis)

from conftest import well_conditioned_transform
from test_shared_work import CASES

EQ = cli.DEFAULT_TOLERANCES["equality"]

FAMILIES = {
    **CASES,
    "number-op-N256-L2": lambda: number_operator_model(256, 2)[1].fam,
    "sobolev-P1024": lambda: sobolev_basis(LineGrid(20.0, 1024), 10),
}


def dense_top_eigenvalue(fam, j):
    s = fam.triplet.scale(-j, np.asarray(fam.dual))
    return float(np.linalg.eigvalsh(s.conj().T @ s)[-1])


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


@pytest.mark.parametrize("slot", [0, 1])
def test_nan_from_the_kernel_fails(tmp_path, monkeypatch, slot):
    def nan_kernel(fam, j, tol, seed):
        out = list(bessel_bound_lanczos(fam, j, tol, seed))
        out[slot] = float("nan")
        return tuple(out)

    monkeypatch.setattr(cli, "bessel_bound_lanczos", nan_kernel)
    assert lanczos_verdict(tmp_path, REPORTS["number-op"](tmp_path)) == "fail"
