import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieszlab import (DimensionError, LevelError, ValidationError,
                      WeightedTriplet, coords_of, pairing, random_unitary)

from conftest import random_vector
from reference import framed_triplets

W4 = WeightedTriplet(4, (1.0, 2.0, 3.0, 4.0), levels=2)
E = np.eye(4)


def dual_norm(tri, phi, j):
    """Dual-side norm ||diag(w)^{-j} phi||_2 in frame coordinates: the
    length of the level -j scaling."""
    return float(np.linalg.norm(tri.scale(-j, phi)))


def small_models():
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.floats(min_value=1.0, max_value=5.0),
                     min_size=n, max_size=n),
            st.integers(min_value=1, max_value=3)))


def vectors(n):
    scalar = st.floats(min_value=-3.0, max_value=3.0,
                       allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(scalar, scalar), min_size=n, max_size=n).map(
        lambda ps: np.array([complex(a, b) for a, b in ps]))


class TestSeminorm:
    def test_weighted_basis_vector(self):
        assert W4.seminorm(E[:, 1], 1) == pytest.approx(2.0, abs=1e-15)

    def test_zero_vector(self):
        assert W4.seminorm(np.zeros(4), 2) == 0.0

    def test_level_zero_is_hilbert_norm(self):
        assert W4.seminorm(E[:, 1], 0) == pytest.approx(1.0, abs=1e-15)

    def test_level_out_of_range(self):
        with pytest.raises(LevelError):
            W4.seminorm(E[:, 0], 3)
        with pytest.raises(LevelError):
            W4.seminorm(E[:, 0], -1)

    def test_wrong_length(self):
        with pytest.raises(DimensionError):
            W4.seminorm(np.ones(5), 1)
        with pytest.raises(DimensionError):
            W4.seminorm(np.ones((5, 3)), 1)
        with pytest.raises(DimensionError):
            W4.seminorm(np.ones((3, 4)), 1)


class TestSeminormColumns:
    @pytest.mark.parametrize("n", [1, 7, 64, 256])
    def test_vector_gives_the_float_of_the_plain_norm(self, rng, n):
        for tri in framed_triplets(n, rng).values():
            f = random_vector(rng, n)
            for j in range(3):
                value = tri.seminorm(f, j)
                assert type(value) is float
                assert value == tri.seminorm(f[:, None], j)[0]
                # ||Q diag(w^j) Q^H f||, up to the order in which the
                # squares are summed.
                plain = np.linalg.norm(tri.scale(j, f))
                assert value == pytest.approx(plain, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 7, 64, 256])
    def test_columns_equal_single_calls(self, rng, n):
        x = rng.standard_normal((n, 9)) + 1j * rng.standard_normal((n, 9))
        for name, tri in framed_triplets(n, rng).items():
            for j in range(3):
                cols = tri.seminorm(x, j)
                single = np.array([tri.seminorm(x[:, k], j)
                                   for k in range(9)])
                assert cols.shape == (9,)
                if name == "dense":
                    # A matrix product may round each column differently
                    # from a matrix-vector product.
                    assert np.allclose(cols, single, rtol=1e-14, atol=0.0)
                else:
                    assert np.array_equal(cols, single)

    def test_transposed_and_empty_inputs(self, rng):
        rows = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        cols = W4.seminorm(rows.T, 2)
        assert np.array_equal(cols, [W4.seminorm(r, 2) for r in rows])
        assert W4.seminorm(np.zeros((4, 0)), 1).shape == (0,)


class TestDualNorm:
    def test_weighted_basis_vector(self):
        assert dual_norm(W4, E[:, 3], 1) == pytest.approx(0.25, abs=1e-15)

    def test_trivial_weights_collapse(self):
        tri = WeightedTriplet(4, np.ones(4))
        phi = np.array([1.0, 2.0, -1.0, 0.5])
        assert dual_norm(tri, phi, 1) == pytest.approx(np.linalg.norm(phi))

    def test_dual_of_seminorm_example(self):
        assert dual_norm(W4, [0, 2, 0, 0], 1) == pytest.approx(1.0,
                                                               abs=1e-15)


class TestPairing:
    def test_orthonormality(self):
        assert pairing(E[:, 0], E[:, 0]) == 1.0
        assert pairing(E[:, 0], E[:, 1]) == 0.0

    def test_dual_pairing_cancellation(self):
        assert pairing([0, 2, 0, 0], [0, 0.5, 0, 0]) == pytest.approx(1.0)

    def test_sesquilinearity(self):
        phi = np.array([1j, 0.0])
        f = np.array([1j, 0.0])
        # linear in the first slot, conjugate-linear in the second
        assert pairing(phi, f) == pytest.approx(1.0)
        assert pairing(2j * phi, f) == pytest.approx(2j)
        assert pairing(phi, 2j * f) == pytest.approx(-2j)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            pairing(np.ones(3), np.ones(4))


class TestConstruction:
    def test_weights_below_one_rejected(self):
        with pytest.raises(ValidationError):
            WeightedTriplet(3, (1.0, 0.5, 2.0))

    def test_weights_below_one_allowed_when_unchecked(self):
        tri = WeightedTriplet(3, (1.0, 0.5, 2.0), check_weights=False)
        assert tri.seminorm(np.eye(3)[:, 1], 1) == pytest.approx(0.5)

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValidationError):
            WeightedTriplet(2, (1.0, np.inf))

    def test_wrong_weight_count(self):
        with pytest.raises(DimensionError):
            WeightedTriplet(3, (1.0, 2.0))

    def test_nonunitary_frame_rejected(self):
        with pytest.raises(ValidationError):
            WeightedTriplet(2, (1.0, 2.0), frame=np.array([[1.0, 1.0],
                                                           [0.0, 1.0]]))

    def test_coords_of_gives_a_complex_array(self):
        v = coords_of([1.0, 2.0])
        assert v.dtype == complex and v.shape == (2,)
        assert coords_of(3.0).shape == (1,)
        assert coords_of(v) is v


class TestScaleMatrix:
    def test_opposite_levels_invert(self):
        prod = W4.scale_matrix(2) @ W4.scale_matrix(-2)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-14

    def test_out_of_ladder(self):
        with pytest.raises(LevelError):
            W4.scale_matrix(3)

    def test_rotated_scaling_matches_seminorm(self, rng):
        tri = WeightedTriplet(5, np.linspace(1.0, 4.0, 5), 1,
                              random_unitary(5, seed=2))
        f = random_vector(rng, 5)
        direct = float(np.linalg.norm(tri.scale_matrix(1) @ f))
        assert direct == pytest.approx(tri.seminorm(f, 1), rel=1e-12)


class TestGraphNormTriplet:
    """A dense frame Q with weights w >= 1 is the graph-norm triplet of
    A = diag(sqrt(w^2 - 1)) Q^H, since I + A^H A = Q diag(w^2) Q^H."""

    def test_zero_map_collapses(self, rng):
        # A = 0: unit weights give the Hilbert norm in any frame.
        tri = WeightedTriplet(3, np.ones(3), 2, random_unitary(3, seed=1))
        f = random_vector(rng, 3)
        for j in range(3):
            assert tri.seminorm(f, j) == pytest.approx(np.linalg.norm(f),
                                                       rel=1e-14)

    def test_graph_norm_identity(self, rng):
        # p_1(f)^2 must recover ||f||^2 + ||A f||^2, the defining property,
        # via an oracle that never rotates f into the frame first.
        w = np.linspace(1.0, 6.0, 7)
        q = random_unitary(7, seed=3)
        a = np.sqrt(w ** 2 - 1.0)[:, None] * q.conj().T
        tri = WeightedTriplet(7, w, 1, q)
        for _ in range(20):
            f = random_vector(rng, 7)
            expect = np.sqrt(np.linalg.norm(f) ** 2
                             + np.linalg.norm(a @ f) ** 2)
            assert tri.seminorm(f, 1) == pytest.approx(expect, rel=1e-10)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            WeightedTriplet(2, (1.0, 2.0), frame=np.ones((2, 3)))


@given(small_models().flatmap(
    lambda m: st.tuples(st.just(m), vectors(m[0]))))
def test_seminorms_monotone_in_level(data):
    (n, w, levels), f = data
    tri = WeightedTriplet(n, w, levels)
    values = [tri.seminorm(f, j) for j in range(levels + 1)]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi * (1 + 1e-12) + 1e-12


@given(small_models().flatmap(
    lambda m: st.tuples(st.just(m), vectors(m[0]), vectors(m[0]))))
def test_duality_cauchy_schwarz(data):
    (n, w, levels), phi, f = data
    tri = WeightedTriplet(n, w, levels)
    for j in range(1, levels + 1):
        bound = dual_norm(tri, phi, j) * tri.seminorm(f, j)
        assert abs(pairing(phi, f)) <= bound * (1 + 1e-10) + 1e-12


@given(small_models().flatmap(
    lambda m: st.tuples(st.just(m), vectors(m[0]))))
def test_dual_norm_attained_on_unit_ball(data):
    (n, w, levels), phi = data
    tri = WeightedTriplet(n, w, levels)
    wv = np.asarray(w)
    for j in range(1, levels + 1):
        # closed-form maximizer of |<phi, f>| over the level-j unit ball
        f = wv ** (-2 * j) * phi
        norm = tri.seminorm(f, j)
        if norm == 0.0:
            assert dual_norm(tri, phi, j) == 0.0
            continue
        attained = abs(pairing(phi, f / norm))
        assert attained == pytest.approx(dual_norm(tri, phi, j),
                                         rel=1e-10, abs=1e-10)


@given(st.integers(min_value=1, max_value=8).flatmap(vectors))
def test_pairing_positive_definite(f):
    value = pairing(f, f)
    assert value.imag == pytest.approx(0.0, abs=1e-12)
    assert value.real >= 0.0
    # strict positivity needs |f_k|^2 to survive underflow, so only
    # claim it when some entry is comfortably above sqrt(tiny)
    if np.max(np.abs(f)) > 1e-150:
        assert value.real > 0.0
