import dataclasses
import json

import numpy as np
import pytest

import rieszlab.cli as cli
import rieszlab.hamiltonian as hamiltonian
from rieszlab import (ContinuityError, DimensionError, InjectivityError,
                      ValidationError, build_pair, build_selfadjoint,
                      demo_pair, demo_transform, density_diagnostic,
                      eigen_residual, hermitian_defect, nonnormality, pairing,
                      random_unitary, spectrum_residual,
                      weak_similarity_residual)

from conftest import count_calls, random_vector
from reference import commutator_norm, matching_distance, pairs

LADDER = (8, 16, 32, 64)


class TestRandomUnitary:
    def test_unitary(self):
        q = random_unitary(8, seed=0)
        assert np.max(np.abs(q.conj().T @ q - np.eye(8))) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(random_unitary(6, seed=3),
                              random_unitary(6, seed=3))
        assert not np.array_equal(random_unitary(6, seed=3),
                                  random_unitary(6, seed=4))


class TestBuildSelfadjoint:
    def test_diagonal_case(self):
        h = build_selfadjoint([1.0, 2.0, 3.0], np.eye(3))
        assert np.allclose(h, np.diag([1.0, 2.0, 3.0]))

    def test_hermitian_and_spectrum(self):
        lam = np.arange(1.0, 7.0)
        h = build_selfadjoint(lam, random_unitary(6, seed=1))
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        assert np.allclose(np.linalg.eigvalsh(h), lam, atol=1e-12)

    def test_complex_eigenvalues_rejected(self):
        with pytest.raises(ValidationError):
            build_selfadjoint([1.0 + 1e-6j, 2.0], random_unitary(2, seed=0))

    def test_real_typed_complex_eigenvalues_allowed(self):
        h = build_selfadjoint(np.array([1.0 + 0j, 2.0 + 0j]), np.eye(2))
        assert np.allclose(h, np.diag([1.0, 2.0]))

    def test_non_unitary_eigenvectors_rejected(self):
        with pytest.raises(ValidationError):
            build_selfadjoint([1.0, 2.0], np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            build_selfadjoint([1.0, 2.0, 3.0], np.eye(2))
        with pytest.raises(DimensionError):
            build_selfadjoint([1.0, 2.0], np.ones((2, 3)))


class TestBuildPair:
    def test_identity_transform_keeps_selfadjoint(self):
        lam = np.arange(1.0, 5.0)
        psi = random_unitary(4, seed=2)
        pair = build_pair(lam, psi, np.eye(4))
        assert np.max(np.abs(pair.hamiltonian - pair.selfadjoint)) < 1e-12
        assert not pair.degenerate

    def test_diagonal_commuting_case(self):
        lam = np.array([1.0, 2.0, 3.0])
        pair = build_pair(lam, np.eye(3), np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(pair.hamiltonian, np.diag(lam), atol=1e-14)
        assert nonnormality(pair.hamiltonian) < 1e-12

    def test_eigenvalue_oracle(self):
        pair = demo_pair(8)
        ev = np.sort(np.linalg.eigvals(pair.hamiltonian).real)
        assert np.allclose(ev, np.arange(1.0, 9.0), atol=1e-10)

    def test_eigenvectors_transported(self):
        pair = demo_pair(6)
        tinv_psi = np.linalg.solve(pair.transform, pair.eigenvectors_sa)
        assert np.max(np.abs(pair.eigenvectors - tinv_psi)) < 1e-10

    def test_degenerate_flagged(self):
        lam = np.array([1.0, 1.0, 2.0])
        pair = build_pair(lam, random_unitary(3, seed=5), np.diag([1., 2., 3.]))
        assert pair.degenerate

    def test_singular_transform_rejected(self):
        with pytest.raises(InjectivityError):
            build_pair([1.0, 2.0], np.eye(2), np.diag([1.0, 0.0]))

    def test_transform_shape_checked(self):
        with pytest.raises(DimensionError):
            build_pair([1.0, 2.0], np.eye(2), np.eye(3))


class TestWeakSimilarity:
    def test_exact_pair_has_tiny_residual(self, rng):
        pair = demo_pair(12)
        for _ in range(20):
            xi = random_vector(rng, 12)
            eta = random_vector(rng, 12)
            assert weak_similarity_residual(pair, xi, eta) < 1e-10

    def test_corruption_grows_linearly(self, rng):
        pair = demo_pair(8)
        direction = random_unitary(8, seed=9)
        xi = random_vector(rng, 8)
        eta = random_vector(rng, 8)
        outputs = []
        for eps in (1e-6, 1e-4, 1e-2):
            bad = dataclasses.replace(
                pair, hamiltonian=pair.hamiltonian + eps * direction)
            outputs.append(weak_similarity_residual(bad, xi, eta))
        ratios = np.diff(np.log(outputs)) / np.log(100.0)
        assert np.allclose(ratios, 1.0, atol=0.05)


class TestWeakSimilarityColumns:
    def test_vector_gives_the_float_of_the_two_pairings(self, rng):
        pair = demo_pair(16)
        for _ in range(5):
            xi, eta = random_vector(rng, 16), random_vector(rng, 16)
            value = weak_similarity_residual(pair, xi, eta)
            assert type(value) is float
            t = np.asarray(pair.transform)
            lhs = pairing(pair.hamiltonian @ xi, t.conj().T @ eta)
            rhs = pairing(t @ xi, pair.selfadjoint @ eta)
            assert value == pytest.approx(abs(lhs - rhs), abs=1e-13)

    @pytest.mark.parametrize("dim", [1, 12, 64])
    def test_columns_match_single_calls(self, rng, dim):
        pair = demo_pair(dim)
        bad = dataclasses.replace(pair, hamiltonian=pair.hamiltonian
                                  + 1e-3 * random_unitary(dim, seed=9))
        xi = rng.standard_normal((dim, 7)) + 1j * rng.standard_normal((dim, 7))
        eta = rng.standard_normal((dim, 7)) + 1j * rng.standard_normal((dim, 7))
        xi /= np.linalg.norm(xi, axis=0)
        eta /= np.linalg.norm(eta, axis=0)
        for p, exact in ((pair, True), (bad, False)):
            cols = weak_similarity_residual(p, xi, eta)
            single = [weak_similarity_residual(p, xi[:, k], eta[:, k])
                      for k in range(7)]
            assert cols.shape == (7,)
            if exact:
                # Both are roundoff of a vanishing identity.
                assert max(cols.max(), max(single)) < 1e-12
            else:
                assert np.allclose(cols, single, rtol=1e-9, atol=0.0)

    def test_corrupted_pair_columns_equal_single_calls(self, rng):
        # A diagonal transform and a real diagonal Hamiltonian keep every
        # product exact, so batching changes no bit.
        pair = build_pair([1.0, 2.0, 3.0], np.eye(3), np.diag([1.0, 2.0, 4.0]))
        bad = dataclasses.replace(pair, hamiltonian=pair.hamiltonian
                                  + np.diag([0.0, 1e-3, 0.0]))
        xi = rng.standard_normal((3, 4))
        eta = rng.standard_normal((3, 4))
        cols = weak_similarity_residual(bad, xi, eta)
        assert np.array_equal(cols, [weak_similarity_residual(
            bad, xi[:, k], eta[:, k]) for k in range(4)])
        assert cols.max() > 1e-4

    @pytest.mark.parametrize("shapes", [((5,), (5,)), ((5, 2), (5, 2)),
                                        ((4, 2), (4, 3)), ((4,), (4, 1))])
    def test_wrong_shapes_rejected(self, shapes):
        pair = demo_pair(4)
        with pytest.raises(DimensionError):
            weak_similarity_residual(pair, np.ones(shapes[0]),
                                     np.ones(shapes[1]))


class TestResiduals:
    def test_eigen_residual_of_exact_pair(self):
        assert eigen_residual(demo_pair(8)) < 1e-10

    def test_eigen_residual_detects_wrong_spectrum(self):
        pair = demo_pair(6)
        bad = dataclasses.replace(pair, eigenvalues=pair.eigenvalues + 0.5)
        assert eigen_residual(bad) > 0.1

    def test_spectrum_residual_of_exact_pair(self):
        assert spectrum_residual(demo_pair(8)) < 1e-8

    def test_spectrum_residual_detects_shift(self):
        pair = demo_pair(6)
        bad = dataclasses.replace(
            pair, hamiltonian=pair.hamiltonian + 0.25 * np.eye(6))
        assert spectrum_residual(bad) == pytest.approx(0.25, abs=1e-8)


def perturbed(pair, delta, seed):
    """H + delta E for a seeded real Gaussian E."""
    e = np.random.default_rng(seed).standard_normal((pair.dim, pair.dim))
    return dataclasses.replace(pair, hamiltonian=pair.hamiltonian + delta * e)


def complex_pair(dim, psi_seed=7):
    """The demo pair with its eigenvalues 1 and 2 turned into the complex
    pair 1.5 +- i sqrt(3)/2 by the block [[1, 1], [-1, 2]] in the psi
    basis; the declared spectrum stays 1..N."""
    pair = demo_pair(dim, psi_seed)
    block = np.zeros((dim, dim))
    block[0, 1], block[1, 0] = 1.0, -1.0
    psi, t = pair.eigenvectors_sa, pair.transform
    extra = np.linalg.solve(t, psi @ block @ psi.conj().T @ t)
    return dataclasses.replace(pair, hamiltonian=pair.hamiltonian + extra)


class TestSpectrumCertificate:
    """The Hermitian route through T H T^{-1} against the general
    non-Hermitian eigensolver, which the package no longer calls."""

    @pytest.mark.parametrize("dim", [8, 32, 256])
    @pytest.mark.parametrize("psi_seed", [7, 12345, 99])
    def test_demo_pair_agrees_with_the_eigensolver(self, dim, psi_seed):
        pair = demo_pair(dim, psi_seed)
        value, reference = spectrum_residual(pair), matching_distance(pair)
        assert max(value, reference) <= 1e-8
        assert abs(value - reference) <= 1e-10

    def test_dense_transform_agrees_with_the_eigensolver(self):
        pair = pairs()["dense-48"]
        value, reference = spectrum_residual(pair), matching_distance(pair)
        assert max(value, reference) <= 1e-8
        assert abs(value - reference) <= 1e-10
        assert hermitian_defect(pair) <= 1e-12

    @pytest.mark.parametrize("delta", [1e-3, 1e-6])
    @pytest.mark.parametrize("dim, seed", [(6, 0), (8, 1), (32, 2)])
    def test_bound_covers_a_non_hermitian_perturbation(self, delta, dim,
                                                       seed):
        bad = perturbed(demo_pair(dim), delta, seed)
        reference = matching_distance(bad)
        assert reference > 0.1 * delta
        assert spectrum_residual(bad) >= reference
        assert hermitian_defect(bad) > 0.1 * delta

    def test_shift_leaves_the_similar_matrix_hermitian(self):
        pair = demo_pair(6)
        assert spectrum_residual(pair) < 1e-12
        # The copy does not inherit the memoised certificate of `pair`.
        bad = dataclasses.replace(
            pair, hamiltonian=pair.hamiltonian + 0.25 * np.eye(6))
        assert spectrum_residual(bad) == pytest.approx(0.25, abs=1e-8)
        assert hermitian_defect(bad) < 1e-12
        assert matching_distance(bad) == pytest.approx(0.25, abs=1e-8)

    def test_complex_pair_is_far_from_the_declared_spectrum(self):
        bad = complex_pair(8)
        reference = matching_distance(bad)
        assert reference == pytest.approx(np.sqrt(0.25 + 0.75), abs=1e-8)
        assert spectrum_residual(bad) >= reference
        assert hermitian_defect(bad) > 0.5

    def test_spectral_section_forms_the_similar_matrix_once(self,
                                                            monkeypatch):
        pair, inverses = demo_pair(16), []
        inverse = hamiltonian.pseudo_inverse
        monkeypatch.setattr(hamiltonian, "pseudo_inverse",
                            lambda t: inverses.append(t) or inverse(t))
        records, _ = cli._spectral_section(
            cli.ModelBundle("pseudo-hermitian", pair=pair),
            cli.RunConfig("pseudo-hermitian", seed=0))
        assert len(inverses) == 1
        assert records["spectrum_residual"] == spectrum_residual(pair)
        assert records["hermitian_defect"] == hermitian_defect(pair)

    def test_complex_pair_fails_real_spectrum_in_the_report(
            self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "demo_pair", complex_pair)
        assert cli.main(["pseudo-hermitian", "--dim", "8", "--seed", "0",
                         "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        spectral = next(s for s in doc["sections"] if s["name"] == "spectral")
        real = next(v for v in spectral["verdicts"]
                    if v["name"] == "real-spectrum")
        assert real["verdict"] == "fail"
        assert real["evidence"]["hermitian_defect"] == \
            spectral["records"]["hermitian_defect"] > 0.5
        assert real["evidence"]["spectrum_residual"] >= 1.0


def jordan_block(n):
    return np.eye(n, k=1)


class TestNonnormality:
    def test_normal_matrices_vanish(self):
        assert nonnormality(np.diag([1.0, 2.0, 3.0])) == 0.0
        assert nonnormality(random_unitary(5, seed=0)) < 1e-12

    @pytest.mark.parametrize("a", [
        np.diag([-3.0, 0.5, 2.0, 7.0]), np.eye(6)[[2, 0, 5, 1, 3, 4]],
        np.zeros((5, 5)), np.ones((1, 1)), np.zeros((0, 0))],
        ids=["real-diagonal", "permutation", "zero", "scalar", "empty"])
    def test_exactly_normal_matrices_give_exactly_zero(self, a):
        assert nonnormality(a) == 0.0 == commutator_norm(a)

    def test_jordan_block_is_nonnormal(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert nonnormality(a) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 16])
    def test_jordan_block_agrees_with_the_eigensolver(self, n):
        a = jordan_block(n)
        assert nonnormality(a) == pytest.approx(commutator_norm(a),
                                                rel=1e-12, abs=0)

    def test_demo_pair_is_genuinely_nonnormal(self):
        assert nonnormality(demo_pair(32).hamiltonian) > 0.1

    @pytest.mark.parametrize("psi_seed", [7, 12345, 99])
    @pytest.mark.parametrize("dim", [8, 32, 256])
    def test_demo_pair_agrees_with_the_eigensolver(self, dim, psi_seed):
        h = demo_pair(dim, psi_seed).hamiltonian
        assert nonnormality(h) == pytest.approx(commutator_norm(h),
                                                rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_dense_complex_matrix_agrees_with_the_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        assert nonnormality(a, seed=seed) == pytest.approx(
            commutator_norm(a), rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_matrix_is_a_continuity_error(self, bad):
        a = demo_pair(6).hamiltonian.copy()
        a[2, 4] = bad
        with pytest.raises(ContinuityError):
            nonnormality(a)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
    def test_non_square_matrix_is_a_dimension_error(self, shape):
        with pytest.raises(DimensionError):
            nonnormality(np.ones(shape))

    def test_spectral_section_passes_the_run_tolerance_and_seed(
            self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "nonnormality",
                            lambda a, tol, seed: seen.append((tol, seed)))
        cfg = cli.RunConfig("pseudo-hermitian", seed=5,
                            tolerances={"equality": 1e-9})
        cli._spectral_section(
            cli.ModelBundle("pseudo-hermitian", pair=demo_pair(8)), cfg)
        assert seen == [(1e-9, 5)]


class TestDensityDiagnostic:
    def test_diagonal_transform_grows(self):
        res = density_diagnostic(demo_transform, LADDER)
        # probe = last canonical vector, so the norm is sigma_max = N
        assert res.norms == pytest.approx(LADDER)
        assert res.flag == "growing"
        assert res.slope == pytest.approx(1.0, abs=1e-6)
        assert res.ladder == LADDER

    def test_identity_transform_is_benign(self):
        res = density_diagnostic(lambda n: np.eye(n), LADDER)
        assert res.flag == "benign"
        assert res.norms == pytest.approx((1.0,) * 4)

    def test_single_point_inconclusive(self):
        res = density_diagnostic(demo_transform, (8,))
        assert res.flag == "inconclusive"
        assert res.slope is None

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValidationError):
            density_diagnostic(demo_transform, ())

    def test_report_builds_one_pair_and_one_unitary(self, monkeypatch,
                                                     capsys):
        # The default ladder (8, 16, 32, 64) reads transforms only;
        # building a pair per rung took one pair and one unitary per rung
        # beside the report's own.
        calls = count_calls(monkeypatch, ("demo_pair", "random_unitary"),
                            (cli, hamiltonian))
        assert cli.main(["pseudo-hermitian", "--dim", "8", "--seed", "0",
                         "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert calls == {"demo_pair": 1, "random_unitary": 1}
        admissibility = next(s for s in doc["sections"]
                             if s["name"] == "admissibility")
        assert admissibility["records"]["ladder"] == [8, 16, 32, 64]


class TestDemoPair:
    def test_deterministic(self):
        a = demo_pair(8)
        b = demo_pair(8)
        assert np.array_equal(a.hamiltonian, b.hamiltonian)
        c = demo_pair(8, psi_seed=11)
        assert not np.array_equal(a.hamiltonian, c.hamiltonian)

    def test_documented_shape(self):
        pair = demo_pair(5)
        assert pair.dim == 5
        assert np.allclose(pair.transform, np.diag(np.arange(1.0, 6.0)))
        assert np.allclose(pair.eigenvalues, np.arange(1.0, 6.0))
        assert np.array_equal(pair.transform.d, demo_transform(5).d)
