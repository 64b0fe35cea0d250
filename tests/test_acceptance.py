"""Acceptance gate: the eleven package-level criteria.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible
under `pytest -s`) and pins the tolerances the package promises.  Run
order follows the numbering; every criterion is independent.
"""
import dataclasses
import functools
import json

import numpy as np
import pytest

from rieszlab import (LineGrid, WeightedTriplet, bessel_bound,
                      bessel_bound_sampled, coefficient_seminorm, coords_of,
                      demo_pair, eigen_residual, hermite_gram, hermite_values,
                      hilbert_triplet_realization, level_gram,
                      load_complex_matrix, make_riesz_basis,
                      metric_operator_check, nonnormality,
                      number_operator_model, pairing, partial_sum,
                      range_membership, realized_grams, save_complex_matrix,
                      sobolev_basis, sobolev_multiplier, spectrum_residual,
                      strictness_report, weak_expansion_residual,
                      weak_similarity_residual)
from rieszlab.cli import main

from conftest import well_conditioned_transform

LADDER = (8, 16, 32, 64)


def criterion(number):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number}: FAIL")
                raise
            print(f"[acceptance] criterion {number}: PASS")
        return wrapper
    return deco


def hundred_instances(n=6):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        t = well_conditioned_transform(rng, n)
        tri = WeightedTriplet(n, np.ones(n))
        yield rng, t, make_riesz_basis(t, tri)


def number_op_rule(levels):
    def rule(n):
        w = np.arange(1.0, n + 1)
        return make_riesz_basis(np.diag(w), WeightedTriplet(n, w, levels))
    return rule


@criterion(1)
def test_criterion_1_construction_identities():
    eye = np.eye(6)
    for _, t, basis in hundred_instances():
        xi, z = basis.fam.family, basis.fam.dual
        assert np.max(np.abs(t @ xi - eye)) <= 1e-10
        assert np.max(np.abs(z - t.conj().T)) <= 1e-10
        assert np.max(np.abs(t.conj().T @ t @ xi - z)) <= 1e-10
        smat = metric_operator_check(basis.fam).metric.matrix
        assert np.max(np.abs(smat - t.conj().T @ t)) <= 1e-10


@criterion(2)
def test_criterion_2_equivalence_loop():
    for rng, t, basis in hundred_instances():
        fam = basis.fam
        smat = t.conj().T @ t
        for _ in range(20):
            f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            f /= np.linalg.norm(f)
            # (i) -> (ii): the coefficient seminorm is ||T f||
            assert coefficient_seminorm(fam, f) == pytest.approx(
                float(np.linalg.norm(t @ f)), rel=1e-12)
            # (ii) -> (iii): <S f, f> is the squared coefficient mass
            a = t @ f
            assert abs(pairing(smat @ f, f)
                       - float(np.sum(np.abs(a) ** 2))) <= 1e-10
        # (iii) -> (i): the square root of S carries the family back to
        # an orthonormal image
        evals, evecs = np.linalg.eigh(smat)
        root = (evecs * np.sqrt(evals)) @ evecs.conj().T
        image = root @ fam.family
        gram = image.conj().T @ image
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-9


@criterion(3)
def test_criterion_3_bessel_bound_exactness():
    for n in (4, 8, 16, 32, 64):
        _, basis = number_operator_model(n)
        bound = bessel_bound(basis.fam, 1)
        assert bound == pytest.approx(1.0, abs=1e-12)
        sampled = bessel_bound_sampled(basis.fam, 1, samples=10000, seed=n)
        assert sampled <= bound


@criterion(4)
def test_criterion_4_strictness_dichotomy():
    one = strictness_report(number_op_rule(1), LADDER)
    assert one.verdict == "strict"
    assert one.lower == pytest.approx((1.0,) * 4, abs=1e-12)
    for values in one.upper.values():
        assert values == pytest.approx((1.0,) * 4, abs=1e-12)

    two = strictness_report(number_op_rule(2), LADDER)
    assert two.verdict == "non-strict"
    for n, c2 in zip(LADDER, two.upper[2]):
        assert c2 == pytest.approx(n ** 2, abs=1e-8)
    assert two.upper_slopes[2] == pytest.approx(2.0, abs=0.1)


@criterion(5)
def test_criterion_5_hilbert_triplet_realization():
    _, strict_basis = number_operator_model(16)
    assert strict_basis.strict == "strict"
    g_plus, g_minus = realized_grams(strict_basis)
    eye = np.eye(16)
    assert np.max(np.abs(g_plus - eye)) <= 1e-9
    assert np.max(np.abs(g_minus - eye)) <= 1e-9
    hilbert_triplet_realization(strict_basis)

    for seed in range(10):
        rng = np.random.default_rng(seed)
        t = well_conditioned_transform(rng, 6)
        basis = make_riesz_basis(t, WeightedTriplet(6, np.ones(6)))
        basis = dataclasses.replace(basis, strict="strict")
        g_plus, g_minus = realized_grams(basis)
        assert np.max(np.abs(g_plus - np.eye(6))) <= 1e-9
        assert np.max(np.abs(g_minus - np.eye(6))) <= 1e-9


@criterion(6)
def test_criterion_6_sobolev_example():
    grid = LineGrid(20.0, 1024)
    count = 10
    fam = sobolev_basis(grid, count)
    phis = hermite_values(grid, count)
    scale = np.sqrt(grid.spacing)

    worst_build = 0.0
    worst_round = 0.0
    for n in range(count):
        forward = sobolev_multiplier(grid, 1.0, fam.family[:, n] / scale)
        worst_build = max(worst_build, scale * float(
            np.linalg.norm(forward - phis[:, n])))
        down = sobolev_multiplier(grid, -1.0, phis[:, n])
        back = sobolev_multiplier(grid, 1.0, down)
        worst_round = max(worst_round, scale * float(
            np.linalg.norm(back - phis[:, n])))
    assert worst_build <= 1e-10
    assert worst_round <= 1e-12
    assert np.max(np.abs(hermite_gram(grid, phis) - np.eye(count))) <= 1e-8
    assert np.max(np.abs(level_gram(fam, 1) - np.eye(count))) <= 1e-8


@criterion(7)
def test_criterion_7_hermite_values():
    grid = LineGrid(20.0, 1024)
    vals = hermite_values(grid, 3)
    origin = int(np.argmin(np.abs(grid.nodes)))
    assert vals[origin, 0] == pytest.approx(np.pi ** -0.25, abs=1e-12)
    assert vals[origin, 1] == pytest.approx(0.0, abs=1e-12)
    x = grid.nodes
    phi0 = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    closed = [phi0,
              np.sqrt(2.0) * x * phi0,
              (np.sqrt(2.0) * x ** 2 - np.sqrt(0.5)) * phi0]
    for n in range(3):
        assert np.max(np.abs(vals[:, n] - closed[n])) <= 1e-12


@criterion(8)
def test_criterion_8_pseudo_hermitian_demo():
    pair = demo_pair(32)
    assert eigen_residual(pair) <= 1e-10
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        xi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        eta = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        xi /= np.linalg.norm(xi)
        eta /= np.linalg.norm(eta)
        worst = max(worst, weak_similarity_residual(pair, xi, eta))
    assert worst <= 1e-10
    assert spectrum_residual(pair) <= 1e-8
    assert nonnormality(pair.hamiltonian) > 0.1


@criterion(9)
def test_criterion_9_range_characterization():
    rule = number_op_rule(1)
    bounded = range_membership(rule, lambda n: np.ones(n), LADDER)
    assert bounded.trend == "bounded"
    assert bounded.in_range is True
    target = np.pi ** 2 / 6.0
    for n, s in zip(LADDER, bounded.sq_sums):
        assert 0.0 < target - s < 1.0 / n
    assert max(bounded.preimage_residuals) <= 1e-10

    growing = range_membership(rule, lambda n: np.arange(1.0, n + 1), LADDER)
    assert growing.sq_sums == tuple(float(n) for n in LADDER)
    assert growing.in_range is False
    assert max(growing.preimage_residuals) <= 1e-10


@criterion(10)
def test_criterion_10_reconstruction_decay():
    n = 32
    _, basis = number_operator_model(n)
    fam = basis.fam
    f = 2.0 ** -np.arange(1, n + 1)
    residuals = [float(np.linalg.norm(f - coords_of(partial_sum(fam, f, m))))
                 for m in range(n + 1)]
    # ratios sit at 0.5 up to the geometric tail correction 4^-(n-m),
    # so increments with at least twelve remaining terms are pinned
    for m in range(20):
        assert residuals[m + 1] / residuals[m] == pytest.approx(0.5,
                                                                abs=1e-6)
    assert weak_expansion_residual(fam, np.ones(n), f, n) <= 1e-12


@criterion(11)
def test_criterion_11_cli_determinism(tmp_path):
    args = ["bessel", "--example", "number-op", "--dim", "6",
            "--seed", "7", "--no-timing"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    text = a.read_text()
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" \
        == text

    rng = np.random.default_rng(11)
    mat = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    path = tmp_path / "mat.csv"
    save_complex_matrix(path, mat)
    assert np.array_equal(load_complex_matrix(path), mat)

    for example in ("number-op", "schwartz", "hermite", "sobolev"):
        out = tmp_path / f"full_{example}.json"
        code = main(["full-report", "--example", example, "--seed", "0",
                     "--no-timing", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        words = [v["verdict"] for s in doc["sections"]
                 for v in s["verdicts"]]
        assert "tainted" not in words
