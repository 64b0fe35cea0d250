import dataclasses
import warnings

import numpy as np
import pytest

from rieszlab import (ContinuityError, Diagonal, DimensionError,
                      InjectivityError, RieszBasis, SequenceFamily,
                      StateError, ValidationError, WeightedTriplet,
                      adjoint_action, coefficient_seminorm, coords_of,
                      demo_transform, density_diagnostic,
                      hilbert_triplet_realization, make_riesz_basis,
                      metric_operator_check, number_operator_model,
                      range_membership, realized_grams, strictness_constants,
                      strictness_report)
from rieszlab.cli import DEFAULT_TOLERANCES
from rieszlab.riesz import _realized
from rieszlab.sequences import dual_level_norm
from rieszlab.trends import (checked_ladder, classify_growth, fit_trend,
                             loglog_slope)

from conftest import random_vector, well_conditioned_transform

LADDER = (8, 16, 32, 64)
GRAM_TOL = DEFAULT_TOLERANCES["gram"]


def number_op_basis(n, levels=1):
    k = np.arange(1.0, n + 1)
    return make_riesz_basis(np.diag(k), WeightedTriplet(n, k, levels))


def identity_basis(n, levels=1):
    return make_riesz_basis(np.eye(n), WeightedTriplet(n, np.ones(n), levels))


class TestMakeRieszBasis:
    def test_transported_identities(self, rng):
        n = 6
        t = well_conditioned_transform(rng, n)
        basis = make_riesz_basis(t, WeightedTriplet(n, np.ones(n)))
        xi, z = basis.fam.family, basis.fam.dual
        eye = np.eye(n)
        assert np.max(np.abs(t @ xi - eye)) < 1e-10
        assert np.max(np.abs(z - t.conj().T)) < 1e-12
        assert np.max(np.abs(t.conj().T @ t @ xi - z)) < 1e-10

    def test_starts_inconclusive(self):
        assert number_op_basis(4).strict == "inconclusive"

    def test_unknown_verdict_rejected(self):
        basis = number_op_basis(4)
        with pytest.raises(ValidationError):
            dataclasses.replace(basis, strict="maybe")

    def test_continuity_certificate_of_the_transform(self):
        basis = number_op_basis(4)
        # ||T f|| over the level-1 ball of w = (1..4): T cancels the
        # scale, and ||T||_{1->0} is the level-1 norm of the dual Z = T^H.
        assert dual_level_norm(basis.fam, 1) == pytest.approx(1.0)

    def test_transform_is_held_as_declared(self):
        d = Diagonal(np.arange(1.0, 5.0))
        tri = WeightedTriplet(4, d.d)
        assert make_riesz_basis(d, tri).transform is d
        t = np.diag(np.arange(1.0, 5.0)).astype(complex)
        basis = make_riesz_basis(t, tri)
        assert basis.transform is t and basis.triplet is basis.fam.triplet
        fields = [f.name for f in dataclasses.fields(RieszBasis)]
        assert fields == ["transform", "fam", "strict"]

    def test_singular_transform_rejected(self):
        tri = WeightedTriplet(3, np.ones(3))
        with pytest.raises(InjectivityError):
            make_riesz_basis(np.diag([1.0, 1.0, 0.0]), tri)

    def test_nearly_singular_transform_rejected(self):
        tri = WeightedTriplet(2, np.ones(2))
        with pytest.raises(InjectivityError):
            make_riesz_basis(np.diag([1.0, 1e-15]), tri)

    def test_shape_validation(self):
        tri = WeightedTriplet(3, np.ones(3))
        with pytest.raises(DimensionError):
            make_riesz_basis(np.ones((3, 2)), tri)
        with pytest.raises(DimensionError):
            make_riesz_basis(np.eye(4), tri)


class TestAdjointAction:
    def test_diagonal_example(self):
        out = adjoint_action(number_op_basis(4), [1.0, 1.0, 0.0, 0.0])
        assert np.allclose(coords_of(out), [1.0, 2.0, 0.0, 0.0], atol=1e-15)

    def test_matches_dual_expansion(self, rng):
        n = 5
        t = well_conditioned_transform(rng, n)
        basis = make_riesz_basis(t, WeightedTriplet(n, np.ones(n)))
        g = random_vector(rng, n)
        direct = coords_of(adjoint_action(basis, g))
        expanded = basis.fam.dual @ g
        assert np.max(np.abs(direct - expanded)) < 1e-12

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            adjoint_action(number_op_basis(4), np.ones(3))


class TestCoefficientSeminorm:
    def test_diagonal_example(self):
        basis = number_op_basis(4)
        f = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        assert coefficient_seminorm(basis.fam, f) == \
            pytest.approx(np.sqrt(2.5), rel=1e-12)

    def test_equals_transformed_norm(self, rng):
        n = 6
        t = well_conditioned_transform(rng, n)
        basis = make_riesz_basis(t, WeightedTriplet(n, np.ones(n)))
        for _ in range(20):
            f = random_vector(rng, n)
            assert coefficient_seminorm(basis.fam, f) == \
                pytest.approx(float(np.linalg.norm(t @ f)), rel=1e-12)


class TestMetricOperator:
    def test_identity_basis(self):
        res = metric_operator_check(identity_basis(4).fam)
        assert np.allclose(res.metric.matrix, np.eye(4), atol=1e-12)
        assert res.verdict == "pass"
        assert res.p_zeta_level == 0

    def test_number_op_metric_is_squared_weights(self):
        res = metric_operator_check(number_op_basis(4).fam)
        assert np.allclose(res.metric.matrix,
                           np.diag([1.0, 4.0, 9.0, 16.0]), atol=1e-10)
        assert res.level_constants == pytest.approx({0: 4.0, 1: 1.0})
        assert res.p_zeta_level == 1
        assert res.positivity < 1e-10
        assert res.verdict == "pass"

    def test_transported_metric_is_gram_of_transform(self, rng):
        n = 5
        t = well_conditioned_transform(rng, n)
        basis = make_riesz_basis(t, WeightedTriplet(n, np.ones(n)))
        res = metric_operator_check(basis.fam)
        assert np.max(np.abs(res.metric.matrix - t.conj().T @ t)) < 1e-10
        assert res.verdict == "pass"

    def test_mismatched_dual_fails(self):
        tri = WeightedTriplet(4, np.ones(4))
        fam = SequenceFamily(np.eye(4), tri, dual=2.0 * np.eye(4))
        res = metric_operator_check(fam)
        assert res.verdict == "fail"
        assert res.biorthogonality == pytest.approx(1.0)
        assert res.positivity > 0.5

    def test_singular_family_rejected(self):
        tri = WeightedTriplet(3, np.ones(3))
        col = np.eye(3)[:, :1]
        fam = SequenceFamily(np.hstack([col, col, col]), tri,
                             dual=np.eye(3))
        with pytest.raises(InjectivityError):
            metric_operator_check(fam)

    def test_deterministic_in_seed(self):
        fam = number_op_basis(4).fam
        a = metric_operator_check(fam, seed=5)
        b = metric_operator_check(fam, seed=5)
        assert a.positivity == b.positivity


class TestRangeMembership:
    def test_constant_probe_stays_bounded(self):
        res = range_membership(number_op_basis, lambda n: np.ones(n), LADDER)
        assert res.trend == "bounded"
        assert res.in_range is True
        # the coefficient mass climbs toward pi^2/6 from below
        target = np.pi ** 2 / 6.0
        for n, s in zip(res.ladder, res.sq_sums):
            assert s < target
            assert target - s < 1.0 / n
        assert max(res.preimage_residuals) < 1e-10

    def test_linear_probe_grows(self):
        res = range_membership(number_op_basis,
                               lambda n: np.arange(1.0, n + 1), LADDER)
        assert res.sq_sums == pytest.approx(LADDER)
        assert res.trend == "growing"
        assert res.in_range is False
        assert res.slope == pytest.approx(1.0, abs=1e-6)
        assert max(res.preimage_residuals) < 1e-10

    def test_single_dual_vector_is_flat(self):
        res = range_membership(number_op_basis,
                               lambda n: np.eye(n)[:, 0], LADDER)
        assert res.sq_sums == pytest.approx((1.0,) * 4)
        assert res.trend == "bounded"

    def test_single_point_is_inconclusive(self):
        res = range_membership(number_op_basis, lambda n: np.ones(n), (8,))
        assert res.trend == "inconclusive"
        assert res.in_range is None
        assert res.slope is None

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValidationError):
            range_membership(number_op_basis, lambda n: np.ones(n), ())


class TestStrictnessConstants:
    def test_number_op_level_one(self):
        basis = number_op_basis(8)
        lower, upper = strictness_constants(basis.fam)
        assert lower == pytest.approx(1.0, abs=1e-12)
        assert upper[0] == pytest.approx(1.0, abs=1e-12)
        assert upper[1] == pytest.approx(1.0, abs=1e-12)

    def test_number_op_level_two_upper(self):
        for n in (8, 16):
            basis = number_op_basis(n, levels=2)
            _, upper = strictness_constants(basis.fam)
            assert upper[2] == pytest.approx(n ** 2, rel=1e-12)

    def test_too_many_columns_rejected(self):
        tri = WeightedTriplet(2, np.ones(2))
        with pytest.raises(DimensionError):
            strictness_constants(SequenceFamily(np.ones((2, 3)), tri))

    # Weight 1e200 keeps the level-1 family finite but not its squared
    # constant; weight 1e300 squared overflows the level-2 scaling itself
    # although the scaled entry 1e300^2 * 1e-300 would be finite.
    @pytest.mark.parametrize("weight, entry, levels", [
        (1e200, 1.0, 1), (1e300, 1e-300, 2)], ids=["constant", "scaling"])
    def test_overflow_raises_without_warnings(self, weight, entry, levels):
        tri = WeightedTriplet(2, np.array([1.0, weight]), levels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContinuityError, match=f"levels 0 -> {levels}"):
                strictness_constants(SequenceFamily(np.diag([1.0, entry]), tri))


class TestStrictnessReport:
    def test_number_op_level_one_is_strict(self):
        report = strictness_report(number_op_basis, LADDER)
        assert report.verdict == "strict"
        assert report.lower == pytest.approx((1.0,) * 4, abs=1e-12)
        for q, values in report.upper.items():
            assert values == pytest.approx((1.0,) * 4, abs=1e-12)

    def test_number_op_level_two_is_non_strict(self):
        report = strictness_report(lambda n: number_op_basis(n, levels=2),
                                   LADDER)
        assert report.verdict == "non-strict"
        assert report.upper[2] == pytest.approx([n ** 2 for n in LADDER],
                                                rel=1e-10)
        assert report.upper_slopes[2] == pytest.approx(2.0, abs=1e-6)

    def test_identity_basis_is_strict(self):
        report = strictness_report(identity_basis, LADDER)
        assert report.verdict == "strict"

    def test_short_ladder_inconclusive(self):
        report = strictness_report(number_op_basis, (8, 16, 32))
        assert report.verdict == "inconclusive"
        assert "window" in report.note

    def test_single_point_inconclusive(self):
        report = strictness_report(number_op_basis, (8,))
        assert report.verdict == "inconclusive"
        assert "single truncation" in report.note

    def test_ladder_validation(self):
        with pytest.raises(ValidationError):
            strictness_report(number_op_basis, ())
        with pytest.raises(ValidationError):
            strictness_report(number_op_basis, (8, 8, 16, 32))

    def test_truncated_family_rule(self):
        tri = WeightedTriplet(8, np.ones(8))
        eye = np.eye(8)
        report = strictness_report(lambda n: SequenceFamily(eye[:, :n], tri),
                                   (4, 5, 6, 7))
        assert report.verdict == "strict"
        assert report.lower == pytest.approx((1.0,) * 4)

    def test_frame_rotation_leaves_constants(self, rng):
        n, levels = 6, 2
        w = np.sort(rng.uniform(1.0, 3.0, n))
        t = well_conditioned_transform(rng, n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))

        plain = WeightedTriplet(n, w, levels)
        rotated = WeightedTriplet(n, w, levels, frame=q)
        lo1, up1 = strictness_constants(make_riesz_basis(t, plain).fam)
        lo2, up2 = strictness_constants(
            make_riesz_basis(q @ t @ q.conj().T, rotated).fam)
        assert lo2 == pytest.approx(lo1, rel=1e-9)
        for level in up1:
            assert up2[level] == pytest.approx(up1[level], rel=1e-9)

    @pytest.mark.parametrize("levels, verdict", [(1, "strict"),
                                                 (2, "non-strict")])
    def test_number_operator_model_attaches_verdict(self, levels, verdict):
        _, basis = number_operator_model(8, levels)
        assert basis.strict == verdict


class TestRealization:
    def strict_number_ops(self, n=6):
        """The strict number-operator basis with T held both ways:
        Diagonal(k), realized in closed form, and np.diag(k), by SVD."""
        report = strictness_report(number_op_basis, LADDER)
        k = np.arange(1.0, n + 1)
        return [dataclasses.replace(
            make_riesz_basis(t, WeightedTriplet(n, k)), strict=report.verdict)
            for t in (Diagonal(k), np.diag(k))]

    def test_weights_are_singular_values(self):
        for basis in self.strict_number_ops(6):
            tri = hilbert_triplet_realization(basis)
            assert np.allclose(np.sort(tri.weights), np.arange(1.0, 7.0),
                               atol=1e-12)

    def test_level_one_seminorm_is_transformed_norm(self, rng):
        for basis in self.strict_number_ops(6):
            tri = hilbert_triplet_realization(basis)
            t = basis.transform
            for _ in range(20):
                f = random_vector(rng, 6)
                assert tri.seminorm(f, 1) == \
                    pytest.approx(float(np.linalg.norm(t @ f)), rel=1e-12)

    def test_realized_grams_are_identities(self):
        for basis in self.strict_number_ops(6):
            g_plus, g_minus = realized_grams(basis)
            eye = np.eye(6)
            assert np.max(np.abs(g_plus - eye)) < 1e-9
            assert np.max(np.abs(g_minus - eye)) < 1e-9

    def test_dual_vectors_normalized_in_realized_dual_norm(self):
        for basis in self.strict_number_ops(6):
            tri = hilbert_triplet_realization(basis)
            for k in range(6):
                zeta = np.asarray(basis.fam.dual)[:, k]
                assert tri.dual_norm(zeta, 1) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("d", [np.arange(1.0, n + 1) for n in
                                   (1, 8, 64, 256)]
                             + [np.array([-3.0, 1.0, -0.5, 2.0, 7.25])],
                             ids=["N1", "N8", "N64", "N256", "negative"])
    def test_closed_form_matches_the_dense_route(self, d):
        n = d.size
        realized = [_realized(dataclasses.replace(
            make_riesz_basis(t, WeightedTriplet(n, np.ones(n))),
            strict="strict")) for t in (Diagonal(d), np.diag(d))]
        (closed, closed_defect, _), (dense, dense_defect, _) = realized
        assert closed.frame is None and dense.frame is not None
        np.testing.assert_array_equal(np.sort(closed.weights),
                                      np.sort(dense.weights))
        assert max(closed_defect, dense_defect) <= GRAM_TOL

    def test_random_transported_basis_realizes(self, rng):
        n = 6
        t = well_conditioned_transform(rng, n)
        basis = make_riesz_basis(t, WeightedTriplet(n, np.ones(n)))
        basis = dataclasses.replace(basis, strict="strict")
        tri = hilbert_triplet_realization(basis)
        s = np.linalg.svd(t, compute_uv=False)
        assert np.allclose(np.sort(tri.weights), np.sort(s), atol=1e-10)

    def test_non_strict_rejected(self):
        with pytest.raises(StateError):
            hilbert_triplet_realization(number_op_basis(6))
        report = strictness_report(lambda n: number_op_basis(n, levels=2),
                                   LADDER)
        basis = dataclasses.replace(number_op_basis(6, levels=2),
                                    strict=report.verdict)
        with pytest.raises(StateError):
            hilbert_triplet_realization(basis)

    def test_corrupted_family_rejected(self):
        for basis in self.strict_number_ops(4):
            # Every column doubled, the family held as before.
            fam = SequenceFamily(basis.fam.family @ Diagonal(np.full(4, 2.0)),
                                 basis.triplet, dual=basis.fam.dual)
            bad = dataclasses.replace(basis, fam=fam)
            with pytest.raises(ValidationError):
                hilbert_triplet_realization(bad)


class TestTrendHelpers:
    def test_loglog_slope_of_power_law(self):
        ns = np.array([8, 16, 32, 64])
        assert loglog_slope(ns, ns.astype(float) ** 2) == \
            pytest.approx(2.0, abs=1e-12)

    def test_classification_bands(self):
        assert classify_growth(0.1) == "bounded"
        assert classify_growth(1.0) == "growing"
        assert classify_growth(0.5) == "inconclusive"
        assert classify_growth(0.52) == "inconclusive"
        assert classify_growth(0.56) == "growing"

    def test_slope_input_validation(self):
        with pytest.raises(ValueError):
            loglog_slope([1, 2], [1.0])
        with pytest.raises(ValueError):
            loglog_slope([1], [1.0])

    def test_single_rung_has_no_trend(self):
        assert fit_trend((8,), (1.0,)) == (None, "inconclusive")
        # Two and three rungs fit a slope but no class: a class needs
        # MIN_LADDER_POINTS rungs.
        assert fit_trend((8, 16), (1.0, 4.0)) == (pytest.approx(2.0),
                                                  "inconclusive")
        assert fit_trend((8, 16, 32), (1.0, 4.0, 16.0)) == (
            pytest.approx(2.0), "inconclusive")
        assert fit_trend(LADDER, (1.0, 4.0, 16.0, 64.0)) == (
            pytest.approx(2.0), "growing")

    def test_qualifying_ladder_comes_back_as_is(self):
        assert checked_ladder(LADDER) is LADDER


#: The three ladder diagnostics of the library, each on a ladder argument.
DIAGNOSTICS = {
    "strictness": lambda ladder: strictness_report(number_op_basis, ladder),
    "range": lambda ladder: range_membership(
        number_op_basis, lambda n: np.ones(n), ladder),
    "density": lambda ladder: density_diagnostic(demo_transform, ladder),
}


@pytest.mark.parametrize("ladder", [
    (), (0, 8), (-3, 8), (8.9, 16), (True, 8), (8, 8, 16), (16, 8)],
    ids=["empty", "zero", "negative", "float", "bool", "repeated",
         "decreasing"])
@pytest.mark.parametrize("name", sorted(DIAGNOSTICS))
def test_every_diagnostic_refuses_a_bad_ladder(name, ladder):
    with pytest.raises(ValidationError):
        DIAGNOSTICS[name](ladder)


@pytest.mark.parametrize("ladder", [(8, 16), (8, 16, 32)])
def test_every_diagnostic_needs_four_rungs_for_a_class(ladder):
    # On LADDER each diagnostic decides; on a shorter ladder none does,
    # though each still fits its slopes.
    full = {name: run(LADDER) for name, run in DIAGNOSTICS.items()}
    assert (full["strictness"].verdict, full["range"].in_range,
            full["density"].flag) == ("strict", True, "growing")
    short = {name: run(ladder) for name, run in DIAGNOSTICS.items()}
    assert short["strictness"].verdict == "inconclusive"
    assert short["strictness"].lower_slope is not None
    assert (short["range"].trend, short["range"].in_range) == (
        "inconclusive", None)
    assert short["range"].slope is not None
    assert short["density"].flag == "inconclusive"
    assert short["density"].slope == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(DIAGNOSTICS))
def test_numpy_integer_rungs_come_back_as_plain_ints(name):
    ladder = DIAGNOSTICS[name](np.array(LADDER)).ladder
    assert ladder == LADDER and all(type(n) is int for n in ladder)
