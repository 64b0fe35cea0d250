import inspect

import numpy as np
import pytest

import rieszlab.cli as cli
from rieszlab import spaces

from rieszlab import (DimensionError, LineGrid, SampledFunction, SupportError,
                      ValidationError, aliasing_fraction, bessel_bound,
                      biorthogonality_residual, hermite_gram, hermite_grid,
                      hermite_values, level_gram, number_operator_model,
                      schwartz_hermite_model, sobolev_basis,
                      sobolev_multiplier, sobolev_triplet)
from rieszlab.spaces import default_half_width

from reference import reference_hermite

GRID = LineGrid(20.0, 256)


def coef(f):
    """Quadrature-scaled coordinates sqrt(h) * values, whose plain l2 norm
    is the quadrature L2 norm."""
    return np.sqrt(f.grid.spacing) * f.values


class TestLineGrid:
    def test_zero_is_a_node(self):
        assert 0.0 in GRID.nodes
        assert GRID.nodes[0] == -20.0
        assert GRID.nodes[-1] < 20.0

    def test_spacing(self):
        assert GRID.spacing == pytest.approx(40.0 / 256)

    def test_point_count_must_be_power_of_two(self):
        with pytest.raises(ValidationError):
            LineGrid(10.0, 100)
        with pytest.raises(ValidationError):
            LineGrid(10.0, 1)

    def test_half_width_must_be_positive(self):
        with pytest.raises(ValidationError):
            LineGrid(0.0, 64)

    def test_half_width_must_be_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            LineGrid(np.inf, 64)

    def test_spacing_must_be_finite(self):
        # 2L overflows although L is finite.
        with pytest.raises(ValidationError, match="grid spacing"):
            LineGrid(1e308, 64)
        assert np.isfinite(LineGrid(8e307, 64).spacing)

    def test_band_edge(self):
        freqs = GRID.angular_frequencies
        assert np.max(np.abs(freqs)) == pytest.approx(np.pi / GRID.spacing)


class TestSampledFunction:
    def test_norm_is_quadrature(self):
        f = SampledFunction(GRID, np.ones(256))
        assert f.norm() == pytest.approx(np.sqrt(40.0), rel=1e-12)

    def test_inner_linear_in_self(self):
        f = SampledFunction(GRID, 1j * np.ones(256))
        g = SampledFunction(GRID, np.ones(256))
        assert f.inner(g) == pytest.approx(40.0j)
        assert g.inner(f) == pytest.approx(-40.0j)

    def test_sample_count_checked(self):
        with pytest.raises(DimensionError):
            SampledFunction(GRID, np.ones(100))

    def test_mismatched_grids_rejected(self):
        f = SampledFunction(GRID, np.ones(256))
        g = SampledFunction(LineGrid(10.0, 256), np.ones(256))
        with pytest.raises(DimensionError):
            f.inner(g)


class TestHermiteValues:
    def test_ground_state_at_origin(self):
        vals = hermite_values(GRID, 2)
        origin = np.argmin(np.abs(GRID.nodes))
        assert vals[origin, 0] == pytest.approx(np.pi ** -0.25, abs=1e-12)
        assert vals[origin, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_scipy_up_to_ten(self):
        count = 11
        vals = hermite_values(GRID, count)
        for n in range(count):
            ref = reference_hermite(n, GRID.nodes)
            assert np.max(np.abs(vals[:, n] - ref)) < 1e-12

    def test_recurrence_matches_closed_forms(self):
        x = GRID.nodes
        vals = hermite_values(GRID, 3)
        phi0 = np.pi ** -0.25 * np.exp(-0.5 * x * x)
        assert np.max(np.abs(vals[:, 0] - phi0)) < 1e-12
        assert np.max(np.abs(vals[:, 1] - np.sqrt(2.0) * x * phi0)) < 1e-12
        phi2 = (np.sqrt(2.0) * x ** 2 - np.sqrt(0.5)) * phi0
        assert np.max(np.abs(vals[:, 2] - phi2)) < 1e-12

    def test_narrow_window_rejected(self):
        with pytest.raises(SupportError):
            hermite_values(LineGrid(2.0, 256), 8)

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            hermite_values(GRID, 0)


class TestHermiteGram:
    def test_orthonormal_to_quadrature_accuracy(self):
        g = hermite_gram(GRID, 10)
        assert np.max(np.abs(g - np.eye(10))) < 1e-8


class TestAliasing:
    def test_smooth_function_has_no_high_band_mass(self):
        f = np.exp(-0.5 * GRID.nodes ** 2)
        assert aliasing_fraction(GRID, f) < 1e-12

    def test_nyquist_oscillation_is_all_high_band(self):
        f = np.cos(np.pi * np.arange(256))  # alternating signs
        assert aliasing_fraction(GRID, f) == pytest.approx(1.0)

    def test_zero_function(self):
        assert aliasing_fraction(GRID, np.zeros(256)) == 0.0

    def test_columns_share_one_fft_and_keep_their_fractions(self):
        vals = hermite_values(LineGrid(20.0, 1024), 30)
        vals[:, 3] = 0.0
        fractions = aliasing_fraction(LineGrid(20.0, 1024), vals)
        # One transform of all columns, each summed as a lone vector.
        assert fractions.tolist() == [
            aliasing_fraction(LineGrid(20.0, 1024), vals[:, n])
            for n in range(30)]
        assert fractions[3] == 0.0 and fractions[29] > 0.0


class TestHermiteGrid:
    def test_default_window_rule(self):
        assert default_half_width(10) == 20.0
        assert default_half_width(1000) == pytest.approx(
            2.0 * np.sqrt(2001.0))

    def test_coarse_start_doubles_until_resolved(self):
        grid, _, worst = hermite_grid(10, points=4)
        assert grid.points > 4
        vals = hermite_values(grid, 10)
        assert worst == max(aliasing_fraction(grid, vals[:, n])
                            for n in range(10))
        assert worst <= 1e-10

    def test_adequate_start_is_kept(self):
        grid, _, _ = hermite_grid(10, points=1024)
        assert grid.points == 1024
        assert grid.half_width == 20.0

    def test_support_failure_propagates(self):
        with pytest.raises(SupportError):
            hermite_grid(10, half_width=2.0)

    def test_zero_columns_are_doubled_away(self):
        # At spacing 40 phi_1, phi_3 and phi_5 are 0 on all four nodes;
        # the grid doubles as for aliasing and ends where 8 points end.
        grid, vals, worst = hermite_grid(10, half_width=80, points=4)
        assert (grid, worst) == hermite_grid(10, half_width=80, points=8)[::2]
        assert grid.points == 1024 and vals.any(axis=0).all()

    @pytest.mark.parametrize("count, half_width", [
        (1, None), (1, 200.0), (10, None)])
    def test_two_points_double_like_any_unresolved_grid(self, count,
                                                         half_width):
        # The right endpoint is excluded, so on 2 points the last node is
        # x = 0; read as a window edge, it refused every half width.
        grid, vals, worst = hermite_grid(count, half_width, points=2)
        kept = hermite_grid(count, half_width, points=4)
        assert (grid, worst) == kept[::2]
        assert np.array_equal(vals, kept[1])

    def test_a_last_node_outside_the_edge_band_is_no_edge_value(self):
        column = np.zeros(2)
        column[-1] = 1.0  # the centre, x = 0
        assert spaces._support_residual(LineGrid(20.0, 2), column) == 0.0
        # From 16 points on the last node lies in the band, at 7L/8 or more.
        grid = LineGrid(20.0, 16)
        column = np.zeros(16)
        column[-1] = 1.0
        assert spaces._support_residual(grid, column) == \
            grid.spacing + 1.0 / 40.0

    def test_fixed_grid_sobolev_basis_refuses_a_zero_column(self):
        with pytest.raises(SupportError, match="for 4 points: basis "
                           "function 1 is 0 on every node"):
            sobolev_basis(LineGrid(80.0, 4), 10)


class TestSobolevMultiplier:
    def test_order_zero_is_identity(self):
        f = SampledFunction(GRID, np.sin(GRID.nodes))
        out = sobolev_multiplier(GRID, 0.0, f)
        assert np.max(np.abs(out.values - f.values)) < 1e-14

    def test_opposite_orders_invert(self):
        f = SampledFunction(GRID, np.exp(-0.5 * GRID.nodes ** 2))
        out = sobolev_multiplier(GRID, -1.0,
                                 sobolev_multiplier(GRID, 1.0, f))
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_self_adjoint(self):
        phis = hermite_values(GRID, 4)
        f = SampledFunction(GRID, phis[:, 1])
        g = SampledFunction(GRID, phis[:, 3] + 0.5 * phis[:, 0])
        left = sobolev_multiplier(GRID, 1.0, f).inner(g)
        right = f.inner(sobolev_multiplier(GRID, 1.0, g))
        assert left == pytest.approx(right, abs=1e-10)

    def test_positive(self):
        f = SampledFunction(GRID, np.exp(-GRID.nodes ** 2) + 0.1)
        value = sobolev_multiplier(GRID, 1.0, f).inner(f)
        assert value.imag == pytest.approx(0.0, abs=1e-10)
        assert value.real > 0.0

    def test_sample_count_checked(self):
        with pytest.raises(DimensionError):
            sobolev_multiplier(GRID, 1.0, np.ones(100))
        with pytest.raises(DimensionError):
            sobolev_multiplier(GRID, 1.0, np.ones((100, 2)))

    def test_columns_match_single_functions(self):
        phis = hermite_values(GRID, 4)
        out = sobolev_multiplier(GRID, -1.0, phis)
        assert out.shape == phis.shape
        for n in range(4):
            single = sobolev_multiplier(GRID, -1.0, phis[:, n]).values
            assert np.max(np.abs(out[:, n] - single)) < 1e-15


class TestSobolevTriplet:
    def test_level_zero_is_quadrature_norm(self):
        tri = sobolev_triplet(GRID)
        f = SampledFunction(GRID, np.exp(-0.5 * GRID.nodes ** 2))
        assert tri.seminorm(coef(f), 0) == pytest.approx(f.norm(), rel=1e-10)

    def test_level_one_matches_multiplier(self):
        tri = sobolev_triplet(GRID)
        f = SampledFunction(GRID, np.exp(-0.5 * GRID.nodes ** 2))
        expect = sobolev_multiplier(GRID, 1.0, f).norm()
        assert tri.seminorm(coef(f), 1) == pytest.approx(expect, rel=1e-10)

    def test_dual_norm_matches_inverse_multiplier(self):
        tri = sobolev_triplet(GRID)
        f = SampledFunction(GRID, np.exp(-0.5 * GRID.nodes ** 2)
                            * GRID.nodes)
        expect = sobolev_multiplier(GRID, -1.0, f).norm()
        assert tri.dual_norm(coef(f), 1) == pytest.approx(expect, rel=1e-10)

    def test_constants_pinned_to_band(self):
        tri = sobolev_triplet(GRID)
        assert float(np.min(tri.weights)) == pytest.approx(1.0)
        edge = np.pi / GRID.spacing
        assert float(np.max(tri.weights)) == pytest.approx(
            np.sqrt(1.0 + edge ** 2), rel=1e-12)


class TestSobolevBasis:
    def test_family_shape_and_biorthogonality(self):
        fam = sobolev_basis(GRID, 6)
        assert fam.dim == 256
        assert fam.size == 6
        assert biorthogonality_residual(fam) < 1e-8

    def test_columns_contract_in_hilbert_norm(self):
        fam = sobolev_basis(GRID, 6)
        phis = hermite_values(GRID, 6)
        h = GRID.spacing
        for n in range(6):
            assert np.linalg.norm(fam.family[:, n]) < \
                np.sqrt(h) * np.linalg.norm(phis[:, n])

    def test_forward_multiplier_recovers_source(self):
        fam = sobolev_basis(GRID, 4)
        phis = hermite_values(GRID, 4)
        for n in range(4):
            xi = SampledFunction(GRID, fam.family[:, n]
                                 / np.sqrt(GRID.spacing))
            back = sobolev_multiplier(GRID, 1.0, xi)
            assert np.max(np.abs(back.values - phis[:, n])) < 1e-12

    def test_modified_gram_near_identity(self):
        fam = sobolev_basis(GRID, 6)
        g = level_gram(fam, 1)
        assert np.max(np.abs(g - np.eye(6))) < 1e-8

    def test_level_one_bessel_bound_near_one(self):
        fam = sobolev_basis(GRID, 6)
        assert bessel_bound(fam, 1) == pytest.approx(1.0, abs=1e-6)

    def test_keeps_the_callers_grid(self):
        # No aliasing rule doubles it; the 64-point reference models
        # rely on that.
        fam = sobolev_basis(LineGrid(20.0, 64), 6)
        assert fam.dim == 64 and fam.size == 6


class TestNumberOperatorModel:
    def test_single_level_is_strict(self):
        tri, basis = number_operator_model(4)
        assert np.allclose(tri.weights, [1.0, 2.0, 3.0, 4.0])
        assert basis.strict == "strict"
        assert np.allclose(basis.fam.family,
                           np.diag([1.0, 0.5, 1 / 3, 0.25]), atol=1e-12)
        assert np.allclose(basis.fam.dual,
                           np.diag([1.0, 2.0, 3.0, 4.0]), atol=1e-12)

    def test_two_levels_is_non_strict(self):
        tri, basis = number_operator_model(4, levels=2)
        assert basis.strict == "non-strict"
        for k in range(4):
            xi = np.asarray(basis.fam.family)[:, k]
            assert tri.seminorm(xi, 2) == pytest.approx(k + 1.0, rel=1e-12)

    def test_dimension_one(self):
        tri, basis = number_operator_model(1)
        assert tri.dim == 1
        assert basis.strict == "strict"

    def test_custom_ladder_short_window(self):
        _, basis = number_operator_model(4, ladder=(8, 16))
        assert basis.strict == "inconclusive"

    def test_one_default_ladder(self):
        default = inspect.signature(number_operator_model).parameters[
            "ladder"].default
        assert default is spaces.DEFAULT_LADDER is cli.DEFAULT_LADDER


class TestSchwartzHermiteModel:
    def test_identity_family_with_growing_weights(self):
        tri, fam = schwartz_hermite_model(5)
        assert np.allclose(tri.weights, np.arange(1.0, 6.0))
        assert np.array_equal(fam.family, np.eye(5))
        assert biorthogonality_residual(fam) == 0.0
        assert fam.dual is not fam.family

    def test_level_one_bessel_bound(self):
        _, fam = schwartz_hermite_model(5)
        assert bessel_bound(fam, 1) == pytest.approx(1.0, abs=1e-14)

    def test_two_level_model(self):
        tri, fam = schwartz_hermite_model(4, levels=2)
        assert tri.levels == 2
        assert bessel_bound(fam, 2) == pytest.approx(1.0, abs=1e-14)
