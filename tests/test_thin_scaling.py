"""Thin scaling path against the dense reference, and its memory footprint.

The diagnostics apply Q diag(w^j) Q^H through `WeightedTriplet.scale`
and certify low-rank maps from their thin factors.  The comparisons of
`reference.CHECKS` rebuild each scaling as a dense matrix from the frame
and recompute each certificate, bound, Gram matrix and strictness
constant the slow way; here they run on four hand-picked families on DFT
and graph-norm frames at sizes above the generated models'.  A grid at
P = 2^14 then checks that the thin path never allocates a P x P array,
a number-operator report at N = 8192 that its Diagonal maps stay O(N),
and a grid at P = 2^16 that the sampled Bessel draws stay within budget.
"""
import contextlib
import os
import resource
import tracemalloc

import numpy as np
import pytest

from rieszlab import (LineGrid, SequenceFamily, WeightedTriplet,
                      bessel_bound, bessel_bound_lanczos,
                      bessel_bound_sampled, bessel_factor, frame_operator,
                      level_gram, make_riesz_basis, riesz_fischer_check,
                      sobolev_basis, strictness_constants)
from rieszlab.cli import main

from reference import (TOL, THIN_CASES, check_bessel, check_certificates,
                       check_grams, check_inverse, check_norms, check_scale,
                       close, dense_certificate, dense_scaling)


@pytest.fixture(params=sorted(THIN_CASES))
def case(request):
    return THIN_CASES[request.param]()


class TestAgainstDenseReference:
    def test_scale_matches_dense_and_round_trips(self, case):
        check_scale(case)

    def test_low_rank_certificates(self, case):
        check_certificates(case)

    def test_flatten_residual(self, case):
        check_inverse(case)

    def test_bounds_grams_and_constants(self, case):
        check_bessel(case)
        check_grams(case)
        # On these families sigma_min^2 also holds to 1e-12 of itself.
        x = dense_scaling(case.triplet, 1) @ np.asarray(case.family)
        s1 = np.linalg.svd(x, compute_uv=False)
        assert close(strictness_constants(case.triplet, case.family)[0],
                     s1[-1] ** 2)

    def test_square_transform_certificate(self):
        fam = THIN_CASES["graph-norm-square"]()
        t = fam.dual.conj().T
        basis = make_riesz_basis(t, fam.triplet)
        assert close(basis.transform.certificate[(1, 0)],
                     dense_certificate(t, fam.triplet, 1, 0))

    def test_fourier_frame_two_levels(self):
        rng = np.random.default_rng(5)
        w = 1.0 + rng.uniform(0.0, 3.0, 64)
        tri = WeightedTriplet.fourier(w, levels=2)
        x = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        fam = SequenceFamily(x, tri)
        check_scale(fam)
        check_norms(fam)


# -- memory -------------------------------------------------------------------

@contextlib.contextmanager
def address_space_headroom(extra):
    """Cap this process's address space `extra` bytes above its size.

    A regression that builds a P x P array at P = 2^14 then fails fast
    with MemoryError instead of taking 4 GiB from the machine.
    """
    try:
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_no_square_array_at_large_grid():
    points = 2 ** 14  # one P x P complex array would take 4 GiB
    tracemalloc.start()
    try:
        with address_space_headroom(1 << 30):
            fam = sobolev_basis(LineGrid(20.0, points), 10)
            frame_operator(fam)
            bessel_factor(fam)
            riesz_fischer_check(fam)
            bessel_bound(fam, 1)
            bessel_bound_lanczos(fam, 1, TOL, seed=0)
            level_gram(fam, 1)
            strictness_constants(fam.triplet, fam.family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("levels", ["1", "2"], ids=["L1", "L2"])
def test_number_op_report_fits_in_linear_memory(capsys, levels):
    # The number-operator model is diagonal throughout, its level-1
    # triplet realization too: one N x N array at N = 8192 would take
    # 512 MiB (1 GiB complex).
    tracemalloc.start()
    try:
        with address_space_headroom(1 << 30):
            code = main(["full-report", "--example", "number-op", "--dim",
                         "8192", "--levels", levels, "--seed", "0",
                         "--no-timing"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    capsys.readouterr()
    assert peak < 512 * 2 ** 20


def test_sampled_bessel_chunks_fit_a_memory_budget():
    points = 2 ** 16  # a 2048-column draw at this size would take 1 GiB
    tri = WeightedTriplet(points, np.ones(points))
    cols = np.eye(points, 1, dtype=complex)
    fam = SequenceFamily(cols, tri, dual=cols)
    tracemalloc.start()
    try:
        with address_space_headroom(1 << 30):
            sampled = bessel_bound_sampled(fam, 1, samples=300, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2 ** 20
    assert 0.0 < sampled <= bessel_bound(fam, 1) * (1 + 1e-12)


def test_row_space_draws_take_no_grid_sized_chunk():
    # Five thin columns over two levels at P = 2^16: the full complex
    # Gaussian stream would draw 10^4 points of 2^16 coordinates each, in
    # chunks of 128 MiB; the row-space stream draws 5 coordinates each.
    points = 2 ** 16
    rng = np.random.default_rng(3)
    tri = WeightedTriplet(points, np.linspace(1.0, 2.0, points), 2)
    cols = rng.standard_normal((points, 5)) + 1j * rng.standard_normal(
        (points, 5))
    fam = SequenceFamily(cols, tri, dual=cols)
    tracemalloc.start()
    try:
        with address_space_headroom(1 << 30):
            sampled = [bessel_bound_sampled(fam, j, seed=0) for j in (1, 2)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    for j, value in zip((1, 2), sampled):
        assert 0.0 < value <= bessel_bound(fam, j) * (1 + 1e-12)
