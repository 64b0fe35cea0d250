import warnings

import numpy as np
import pytest

from rieszlab import (ContinuityError, DimensionError, LevelError,
                      MissingDualError, SequenceFamily, ValidationError,
                      WeightedTriplet, analysis, bessel_bound,
                      bessel_bound_sampled, bessel_factor,
                      biorthogonality_residual, coords_of, dual_analysis,
                      frame_operator, level_gram,
                      make_riesz_basis, number_operator_model, pairing,
                      partial_sum, riesz_fischer_check,
                      schauder_inequality_probe, schwartz_hermite_model,
                      synthesis, weak_expansion_residual)
from rieszlab.sequences import BIORTH_TOL, _family_map, pseudo_inverse
from rieszlab.triplet import Diagonal

from conftest import random_vector, well_conditioned_transform
from reference import dense_certificate

E4 = np.eye(4)


def number_op(n=4, levels=1):
    k = np.arange(1.0, n + 1)
    tri = WeightedTriplet(n, k, levels)
    return SequenceFamily(np.diag(1.0 / k), tri, dual=np.diag(k))


def transported(rng, n, levels=1):
    """Exactly biorthogonal square family xi = T^-1 columns, zeta = T^H."""
    t = well_conditioned_transform(rng, n)
    tri = WeightedTriplet(n, np.ones(n), levels)
    return SequenceFamily(np.linalg.inv(t), tri, dual=t.conj().T), t


class TestFamilyConstruction:
    def test_dimension_checks(self):
        tri = WeightedTriplet(3, np.ones(3))
        with pytest.raises(DimensionError):
            SequenceFamily(np.ones((4, 2)), tri)
        with pytest.raises(DimensionError):
            SequenceFamily(np.ones((3, 2)), tri, dual=np.ones((3, 3)))
        with pytest.raises(DimensionError):
            SequenceFamily(np.ones(3), tri)

    def test_zero_column_rejected(self):
        tri = WeightedTriplet(3, np.ones(3))
        bad = np.eye(3)
        bad[:, 1] = 0.0
        with pytest.raises(ValidationError):
            SequenceFamily(bad, tri)

    @pytest.mark.parametrize("scale", [1e-200, 1e308])
    def test_extreme_nonzero_columns_accepted(self, scale):
        # Their 2-norms underflow to 0 or overflow; the entries are nonzero.
        tri = WeightedTriplet(3, np.ones(3))
        assert SequenceFamily(scale * np.eye(3), tri).size == 3

    def test_empty_family_allowed(self):
        tri = WeightedTriplet(3, np.ones(3))
        fam = SequenceFamily(np.zeros((3, 0)), tri, dual=np.zeros((3, 0)))
        assert fam.size == 0
        assert biorthogonality_residual(fam) == 0.0
        assert frame_operator(fam).matrix.shape == (3, 3)

    def test_missing_dual(self):
        tri = WeightedTriplet(2, np.ones(2))
        fam = SequenceFamily(np.eye(2), tri)
        with pytest.raises(MissingDualError):
            bessel_bound_sampled(fam, 1, samples=1)


class TestBiorthogonality:
    def test_identity_pair(self):
        tri = WeightedTriplet(4, np.ones(4))
        fam = SequenceFamily(E4, tri, dual=E4)
        assert biorthogonality_residual(fam) == 0.0

    def test_number_op_pair(self):
        assert biorthogonality_residual(number_op()) == 0.0

    def test_scaled_dual_is_tainted(self):
        tri = WeightedTriplet(4, np.ones(4))
        fam = SequenceFamily(E4, tri, dual=2.0 * E4)
        assert biorthogonality_residual(fam) == 1.0 > BIORTH_TOL


class TestAnalysisSynthesis:
    def test_analysis_number_op(self):
        a = analysis(number_op(), E4[:, 1])
        assert np.allclose(a, [0.0, 2.0, 0.0, 0.0], atol=1e-15)

    def test_analysis_dimension(self):
        with pytest.raises(DimensionError):
            analysis(number_op(), np.ones(5))

    def test_synthesis_single_dual_vector(self):
        out = synthesis(number_op(), [0.0, 1.0, 0.0, 0.0])
        assert np.allclose(coords_of(out), 2.0 * E4[:, 1], atol=1e-15)

    def test_synthesis_coefficient_count(self):
        with pytest.raises(DimensionError):
            synthesis(number_op(), np.ones(3))

    def test_adjoint_relation(self, rng):
        fam, _ = transported(rng, 6)
        for _ in range(10):
            a = random_vector(rng, 6)
            f = random_vector(rng, 6)
            lhs = pairing(coords_of(synthesis(fam, a)), f)
            rhs = np.vdot(analysis(fam, f), a)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestFrameOperator:
    def test_number_op_matrix(self):
        op = frame_operator(number_op())
        assert np.allclose(op.matrix, np.diag([1.0, 4.0, 9.0, 16.0]),
                           atol=1e-15)
        assert set(op.certificate) == {(1, -1)}

    def test_positive_semidefinite(self, rng):
        fam, _ = transported(rng, 5)
        eigs = np.linalg.eigvalsh(frame_operator(fam).matrix)
        assert float(np.min(eigs)) >= -1e-12

    def test_matches_synthesis_of_analysis(self, rng):
        fam, _ = transported(rng, 5)
        op = frame_operator(fam)
        for _ in range(5):
            f = random_vector(rng, 5)
            direct = op.matrix @ f
            composed = coords_of(synthesis(fam, analysis(fam, f)))
            assert np.max(np.abs(direct - composed)) < 1e-12


class TestBesselBounds:
    def test_number_op_bound_is_one(self):
        assert bessel_bound(number_op(), 1) == pytest.approx(1.0, abs=1e-15)

    def test_identity_dual_with_growing_weights(self):
        tri = WeightedTriplet(4, (1.0, 2.0, 3.0, 4.0))
        fam = SequenceFamily(E4, tri, dual=E4)
        assert bessel_bound(fam, 1) == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_in_dual_scaling(self):
        tri = WeightedTriplet(4, (1.0, 2.0, 3.0, 4.0))
        base = SequenceFamily(E4, tri, dual=E4)
        fam = SequenceFamily(E4, tri, dual=3.0 * E4)
        assert bessel_bound(fam, 1) == pytest.approx(
            9.0 * bessel_bound(base, 1), rel=1e-14)

    def test_level_validation(self):
        with pytest.raises(LevelError):
            bessel_bound(number_op(), 2)
        with pytest.raises(LevelError):
            bessel_bound_sampled(number_op(), 0)

    def test_sampled_never_exceeds_certified(self, rng):
        for trial in range(10):
            n = int(rng.integers(2, 8))
            fam, _ = transported(rng, n, levels=2)
            for j in (1, 2):
                cert = bessel_bound(fam, j)
                samp = bessel_bound_sampled(fam, j, samples=2000, seed=trial)
                assert samp <= cert * (1 + 1e-12)
                assert samp >= 0.0

    def test_sampled_attains_certified_for_diagonal_model(self):
        fam = number_op(8)
        cert = bessel_bound(fam, 1)
        samp = bessel_bound_sampled(fam, 1, samples=10000, seed=0)
        assert samp <= cert
        assert samp == pytest.approx(cert, rel=1e-12)

    def test_sampled_deterministic_in_seed(self):
        fam = number_op(6)
        a = bessel_bound_sampled(fam, 1, samples=500, seed=3)
        b = bessel_bound_sampled(fam, 1, samples=500, seed=3)
        assert a == b


class TestBesselFactor:
    def test_zero_padded_columns(self):
        tri = WeightedTriplet(4, (1.0, 2.0, 3.0, 4.0))
        fam = SequenceFamily(E4[:, :2], tri, dual=E4[:, :2])
        lm = bessel_factor(fam)
        assert lm.shape == (4, 4)
        assert np.allclose(lm.matrix[:, :2], E4[:, :2])
        assert np.allclose(lm.matrix[:, 2:], 0.0)

    def test_certificate_squares_to_bessel_bound(self, rng):
        fam, _ = transported(rng, 5)
        lm = bessel_factor(fam)
        cert = lm.certificate[(0, -1)]
        assert cert ** 2 == pytest.approx(bessel_bound(fam, 1), rel=1e-12)

    def test_diagonal_dual(self):
        fam = number_op()
        lm = bessel_factor(fam)
        assert np.allclose(lm.matrix, np.diag([1.0, 2.0, 3.0, 4.0]))
        assert lm.certificate[(0, -1)] == pytest.approx(1.0, abs=1e-14)


class TestCertificates:
    def test_nonfinite_factor_rejected(self):
        tri = WeightedTriplet(2, np.ones(2))
        fam = SequenceFamily(np.ones((2, 1)), tri,
                             dual=np.array([[np.inf], [0.0]]))
        # The tall dual's singular values come from no R factor here: its
        # QR is not finite, and the SVD's NaN fails the Bessel bound.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (frame_operator, lambda f: bessel_bound(f, 1)):
                with pytest.raises(ContinuityError):
                    check(fam)

    def test_factored_map_is_formed_on_read(self):
        tri = WeightedTriplet(3, (1.0, 2.0, 3.0))
        b = np.array([[1.0], [2.0], [0.0]])
        c = np.array([[0.0], [1.0], [1.0j]])
        # Dual times family^H: the factor pair (b, c).
        lm = _family_map(SequenceFamily(c, tri, dual=b), "dual", "family",
                         (1, -1))
        dense = b @ c.conj().T
        assert lm.shape == (3, 3)
        assert np.array_equal(lm.matrix, dense)
        assert lm.certificate[(1, -1)] == pytest.approx(
            dense_certificate(dense, tri, 1, -1), rel=1e-14)


class TestRieszFischer:
    def test_identity_family(self):
        tri = WeightedTriplet(4, np.ones(4))
        res = riesz_fischer_check(SequenceFamily(E4, tri))
        assert res.ok
        assert res.rank == 4
        assert res.residual < 1e-14
        assert np.allclose(res.flatten.matrix, E4)
        assert np.allclose(res.family.dual, E4)

    def test_number_op_recovers_dual(self):
        fam = SequenceFamily(number_op().family, number_op().triplet)
        res = riesz_fischer_check(fam)
        assert res.ok
        assert np.allclose(res.flatten.matrix, np.diag([1.0, 2.0, 3.0, 4.0]),
                           atol=1e-12)
        assert np.allclose(res.family.dual, np.diag([1.0, 2.0, 3.0, 4.0]),
                           atol=1e-12)
        assert biorthogonality_residual(res.family) < 1e-12

    def test_rank_deficient_is_negative_not_error(self):
        tri = WeightedTriplet(3, np.ones(3))
        fam = SequenceFamily(np.column_stack([np.eye(3)[:, 0],
                                              np.eye(3)[:, 0]]), tri)
        res = riesz_fischer_check(fam)
        assert not res.ok
        assert res.rank == 1
        assert res.family.dual is None
        assert "independent" in res.note

    def test_more_columns_than_dimension_is_negative(self):
        tri = WeightedTriplet(2, np.ones(2))
        fam = SequenceFamily(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
                             tri)
        res = riesz_fischer_check(fam)
        assert not res.ok
        assert res.rank == 2
        assert res.flatten.shape == (2, 2)

    def test_input_family_unchanged(self):
        tri = WeightedTriplet(3, np.ones(3))
        fam = SequenceFamily(np.eye(3), tri)
        riesz_fischer_check(fam)
        assert fam.dual is None

    def test_rectangular_family(self):
        tri = WeightedTriplet(5, np.ones(5))
        fam = SequenceFamily(np.eye(5)[:, :3], tri)
        res = riesz_fischer_check(fam)
        assert res.ok
        assert res.residual < 1e-14
        assert res.flatten.shape == (5, 5)

    def test_existing_dual_kept(self):
        fam = number_op()
        res = riesz_fischer_check(fam)
        assert res.family.dual is fam.dual

    def test_note_mentions_other_duals(self):
        res = riesz_fischer_check(number_op())
        assert "other duals" in res.note


class TestDualAnalysis:
    def test_number_op_ones(self):
        res = dual_analysis(number_op(), np.ones(4))
        assert np.allclose(res.coefficients, [1.0, 0.5, 1 / 3, 0.25],
                           atol=1e-15)
        assert res.sq_sum == pytest.approx(1 + 0.25 + 1 / 9 + 1 / 16,
                                           rel=1e-14)
        assert res.rank == 4
        assert res.surjective

    def test_rank_deficient_not_surjective(self):
        tri = WeightedTriplet(2, np.ones(2))
        fam = SequenceFamily(np.array([[1.0, 2.0], [0.0, 0.0]]), tri)
        res = dual_analysis(fam, np.ones(2))
        assert res.rank == 1
        assert not res.surjective

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            dual_analysis(number_op(), np.ones(3))


class TestPartialSums:
    def test_truncation_drops_late_directions(self):
        fam = number_op()
        out = partial_sum(fam, E4[:, 2], 2)
        assert np.allclose(coords_of(out), 0.0)

    def test_full_order_reconstructs(self):
        out = partial_sum(number_op(), E4[:, 2], 3)
        assert np.allclose(coords_of(out), E4[:, 2], atol=1e-15)

    def test_order_bounds(self):
        with pytest.raises(DimensionError):
            partial_sum(number_op(), E4[:, 0], 5)
        with pytest.raises(DimensionError):
            partial_sum(number_op(), E4[:, 0], -1)

    def test_order_zero_is_zero(self):
        assert np.allclose(coords_of(partial_sum(number_op(), np.ones(4), 0)),
                           0.0)

    def test_permuting_columns_preserves_full_sum(self, rng):
        fam, _ = transported(rng, 6)
        perm = rng.permutation(6)
        shuffled = SequenceFamily(fam.family[:, perm], fam.triplet,
                                  dual=fam.dual[:, perm])
        f = random_vector(rng, 6)
        a = coords_of(partial_sum(fam, f, 6))
        b = coords_of(partial_sum(shuffled, f, 6))
        assert np.max(np.abs(a - b)) < 1e-12


class TestWeakExpansion:
    def test_vanishes_at_full_order(self):
        fam = number_op()
        assert weak_expansion_residual(fam, E4[:, 1], E4[:, 1], 4) < 1e-15

    def test_truncation_leaves_the_pairing(self):
        fam = number_op()
        # order below the active direction: the defect is the whole pairing
        assert weak_expansion_residual(fam, E4[:, 1], E4[:, 1], 1) == \
            pytest.approx(1.0, abs=1e-15)
        assert weak_expansion_residual(fam, E4[:, 1], E4[:, 1], 2) < 1e-15

    def test_random_family_full_order(self, rng):
        fam, _ = transported(rng, 7)
        for _ in range(5):
            psi = random_vector(rng, 7)
            f = random_vector(rng, 7)
            assert weak_expansion_residual(fam, psi, f, 7) < 1e-10

    def test_order_validation(self):
        with pytest.raises(DimensionError):
            weak_expansion_residual(number_op(), E4[:, 0], E4[:, 0], 9)


class TestSchauderProbe:
    def test_orthonormal_family_dominated_at_base_level(self):
        tri = WeightedTriplet(4, np.ones(4))
        fam = SequenceFamily(E4, tri, dual=E4)
        res = schauder_inequality_probe(fam, 0, trials=200, seed=11)
        assert res.q_level == 0
        assert res.worst_ratio == pytest.approx(1.0, rel=1e-12)

    def test_number_op_needs_the_smooth_level(self):
        fam = number_op()
        res = schauder_inequality_probe(fam, 1, trials=200, seed=11)
        assert res.q_level == 1
        assert res.worst_ratio == pytest.approx(1.0, rel=1e-12)
        assert res.per_level[0] > 1.0

    def test_overlapping_columns_exceed_one(self):
        tri = WeightedTriplet(2, np.ones(2))
        fam = SequenceFamily(np.array([[1.0, 1.0], [0.0, 0.2]]), tri,
                             dual=np.eye(2))
        res = schauder_inequality_probe(fam, 0, trials=200, seed=11)
        assert res.per_level[0] > 1.0

    def test_level_validation(self):
        with pytest.raises(LevelError):
            schauder_inequality_probe(number_op(), 2, trials=10, seed=0)

    def test_empty_family_rejected(self):
        tri = WeightedTriplet(2, np.ones(2))
        fam = SequenceFamily(np.zeros((2, 0)), tri, dual=np.zeros((2, 0)))
        with pytest.raises(ValidationError):
            schauder_inequality_probe(fam, 0, trials=10, seed=0)


class TestLevelGram:
    def test_diagonal_family(self):
        g = level_gram(number_op(), 1)
        assert np.allclose(g, np.eye(4), atol=1e-15)

    def test_hermitian(self, rng):
        fam, _ = transported(rng, 5, levels=2)
        g = level_gram(fam, 2)
        assert np.max(np.abs(g - g.conj().T)) < 1e-14

    @pytest.mark.parametrize("model", ["number-op", "schwartz"])
    def test_declared_diagonal_equals_the_dense_gram(self, model):
        fam = (number_operator_model(16, 2)[1].fam if model == "number-op"
               else schwartz_hermite_model(16, 2)[1])
        for j in range(fam.triplet.levels + 1):
            x = fam.triplet.scale(j, np.asarray(fam.family))
            gram = level_gram(fam, j)
            assert isinstance(gram, np.ndarray)
            assert gram.shape == (16, 16) and (gram == x.conj().T @ x).all()


def test_duality_estimate_through_coefficients(rng):
    # |<phi, f>| routed through the expansion is controlled by the
    # coefficient mass of phi times the level bound on the dual family.
    for _ in range(10):
        n = int(rng.integers(2, 8))
        fam, _ = transported(rng, n)
        phi = random_vector(rng, n)
        bound = np.sqrt(bessel_bound(fam, 1)
                        * dual_analysis(fam, phi).sq_sum)
        assert fam.triplet.dual_norm(phi, 1) <= bound * (1 + 1e-10) + 1e-12


def test_family_rank_cutoff():
    mat = np.diag([1.0, 1e-6, 1e-14])
    assert pseudo_inverse(mat)[1] == 2
    assert pseudo_inverse(np.zeros((3, 2)))[1] == 0


def test_pseudo_inverse_drops_tiny_singular_values(rng):
    a = well_conditioned_transform(rng, 4)[:, :3]
    pinv, rank = pseudo_inverse(a)
    assert rank == 3
    assert np.max(np.abs(pinv @ a - np.eye(3))) < 1e-13
    # Numerical rank 2: the third singular value sits below the cutoff.
    b = a @ np.diag([1.0, 1.0, 1e-14]) @ a.conj().T
    pinv, rank = pseudo_inverse(b)
    assert rank == 2
    assert np.max(np.abs(pinv - np.linalg.pinv(b, rcond=1e-12))) < 1e-12
    assert pseudo_inverse(np.zeros((3, 2)))[1] == 0


@pytest.mark.parametrize("matrix", [Diagonal(np.full(3, 1e-310)),
                                    np.diag([1e-310, 1e-310])],
                         ids=["diagonal", "dense"])
def test_overflowing_pseudo_inverse_is_refused(matrix):
    # Subnormal singular values are kept (the cutoff is relative) and
    # their reciprocals overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails
        with pytest.raises(ContinuityError) as err:
            pseudo_inverse(matrix)
    assert str(err.value) == ("the pseudo-inverse overflows: smallest kept "
                              "singular value 1e-310")


def test_flattening_certificate_controls_coefficients(rng):
    # the (1, 0) certificate of the flattening map bounds coefficient
    # recovery from the level-1 seminorm
    fam, t = transported(rng, 6)
    res = riesz_fischer_check(
        SequenceFamily(fam.family, fam.triplet))
    cert = res.flatten.certificate[(1, 0)]
    for _ in range(10):
        c = random_vector(rng, 6)
        f = fam.family @ c
        assert np.linalg.norm(c) <= \
            cert * fam.triplet.seminorm(f, 1) * (1 + 1e-10)


def test_make_riesz_basis_consistency(rng):
    # cross-module smoke: the basis built from T matches the raw family
    t = well_conditioned_transform(rng, 5)
    tri = WeightedTriplet(5, np.ones(5))
    basis = make_riesz_basis(t, tri)
    assert np.max(np.abs(basis.fam.family - np.linalg.inv(t))) < 1e-10
    assert np.max(np.abs(basis.fam.dual - t.conj().T)) < 1e-12
