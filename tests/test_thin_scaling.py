"""Thin scaling path against a dense reference, and its memory footprint.

The diagnostics apply Q diag(w^j) Q^H through `WeightedTriplet.scale`
and certify low-rank maps from their thin factors.  Here every scaling
is rebuilt as a dense matrix from the frame the test constructs itself,
and each certificate, bound, Gram matrix and strictness constant is
recomputed the slow way; the two must agree to 1e-12.  A grid at
P = 2^14 then checks that the thin path never allocates a P x P array,
a number-operator report at N = 8192 that its Diagonal maps stay O(N),
and a grid at P = 2^16 that the sampled Bessel draws stay within budget.
"""
import contextlib
import io
import json
import os
import resource
import tracemalloc

import numpy as np
import pytest

from rieszlab import (LevelError, LineGrid, SequenceFamily, WeightedTriplet,
                      bessel_bound, bessel_bound_lanczos,
                      bessel_bound_sampled, bessel_factor, certificate_norm,
                      frame_operator, graph_norm_triplet,
                      level_gram, make_riesz_basis, metric_operator_check,
                      riesz_fischer_check, sobolev_basis,
                      strictness_constants)
from rieszlab.cli import main

from conftest import well_conditioned_transform

TOL = 1e-12


def dft_frame(p):
    """Q = F^H with F the unitary DFT matrix, F x = fft(x, norm="ortho")."""
    return np.fft.fft(np.eye(p), axis=0).conj().T / np.sqrt(p)


def dense_scaling(q, w, j):
    d = np.diag(w ** j).astype(complex)
    return d if q is None else q @ d @ q.conj().T


def dense_certificate(a, q, w, from_level, to_level):
    prod = dense_scaling(q, w, to_level) @ a @ dense_scaling(q, w, -from_level)
    return float(np.linalg.svd(prod, compute_uv=False)[0])


def close(value, ref):
    value, ref = np.asarray(value), np.asarray(ref)
    scale = max(1.0, float(np.max(np.abs(ref))) if ref.size else 0.0)
    return float(np.max(np.abs(value - ref))) <= TOL * scale


def sobolev_case(points, count):
    fam = sobolev_basis(LineGrid(20.0, points), count)
    return fam, dft_frame(points)


def graph_case(square):
    rng = np.random.default_rng(11)
    n = 24
    tri = graph_norm_triplet(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))
    if square:
        basis = make_riesz_basis(well_conditioned_transform(rng, n), tri)
        return basis.fam, tri.frame
    xi = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
    fam = riesz_fischer_check(SequenceFamily(xi, tri)).family
    return fam, tri.frame


CASES = {
    "sobolev-64": lambda: sobolev_case(64, 6),
    "sobolev-128": lambda: sobolev_case(128, 8),
    "graph-norm-thin": lambda: graph_case(square=False),
    "graph-norm-square": lambda: graph_case(square=True),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


class TestAgainstDenseReference:
    def test_scale_matches_dense_and_round_trips(self, case):
        fam, q = case
        tri = fam.triplet
        x = fam.family
        for j in range(-tri.levels, tri.levels + 1):
            ref = dense_scaling(q, tri.weights, j)
            assert close(tri.scale(j, x), ref @ x)
            assert close(tri.scale(-j, tri.scale(j, x)), x)
            assert close(tri.scale_matrix(j), ref)
        with pytest.raises(LevelError):
            tri.scale(tri.levels + 1, x)

    def test_low_rank_certificates(self, case):
        fam, q = case
        w = fam.triplet.weights
        z, xi = fam.dual, fam.family
        n, m = xi.shape
        pinv = np.linalg.pinv(xi)
        pad = np.zeros((n, n), dtype=complex)
        pad[:, :m] = z
        maps = [
            (frame_operator(fam), z @ z.conj().T, (1, -1)),
            (bessel_factor(fam), pad, (0, -1)),
            (riesz_fischer_check(fam).flatten, np.eye(n)[:, :m] @ pinv,
             (1, 0)),
            (metric_operator_check(fam).metric, z @ pinv, (1, -1)),
        ]
        for lm, dense, pair in maps:
            assert close(lm.certificate[pair],
                         dense_certificate(dense, q, w, *pair))
            assert lm.shape == (n, n)
            assert close(lm.matrix, dense)
            assert close(certificate_norm(dense, fam.triplet, *pair),
                         lm.certificate[pair])

    def test_flatten_residual(self, case):
        fam, _ = case
        xi = fam.family
        n, m = xi.shape
        target = np.eye(n)[:, :m]
        dense = target @ np.linalg.pinv(xi)
        ref = float(np.max(np.abs(dense @ xi - target)))
        assert close(riesz_fischer_check(fam).residual, ref)

    def test_bounds_grams_and_constants(self, case):
        fam, q = case
        tri = fam.triplet
        z, xi = fam.dual, fam.family
        res = metric_operator_check(fam)
        for j in range(tri.levels + 1):
            zs = z.conj().T @ dense_scaling(q, tri.weights, -j)
            top = float(np.linalg.svd(zs, compute_uv=False)[0])
            assert close(res.level_constants[j], top)
            if j:
                assert close(bessel_bound(fam, j), top ** 2)
            x = dense_scaling(q, tri.weights, j) @ xi
            assert close(level_gram(fam, j), x.conj().T @ x)
        lower, upper = strictness_constants(tri, xi)
        s1 = np.linalg.svd(dense_scaling(q, tri.weights, 1) @ xi,
                           compute_uv=False)
        assert close(lower, s1[-1] ** 2)
        for k in range(tri.levels + 1):
            sk = np.linalg.svd(dense_scaling(q, tri.weights, k) @ xi,
                               compute_uv=False)
            assert close(upper[k], sk[0] ** 2)

    def test_square_transform_certificate(self):
        fam, q = graph_case(square=True)
        t = fam.dual.conj().T
        basis = make_riesz_basis(t, fam.triplet)
        assert close(basis.transform.certificate[(1, 0)],
                     dense_certificate(t, q, fam.triplet.weights, 1, 0))

    def test_fourier_frame_two_levels(self):
        rng = np.random.default_rng(5)
        w = 1.0 + rng.uniform(0.0, 3.0, 64)
        tri = WeightedTriplet.fourier(w, levels=2)
        x = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        q = dft_frame(64)
        for j in (-2, -1, 1, 2):
            assert close(tri.scale(j, x), dense_scaling(q, w, j) @ x)
            assert close(tri.scale(-j, tri.scale(j, x)), x)
        f = x[:, 0]
        assert tri.seminorm(f, 2) == pytest.approx(
            np.linalg.norm(dense_scaling(q, w, 2) @ f), rel=TOL)
        assert tri.dual_norm(f, 1) == pytest.approx(
            np.linalg.norm(dense_scaling(q, w, -1) @ f), rel=TOL)


# -- full reports with the dense reference patched in -------------------------

def _reference_scale(self, j, x):
    if not -self.levels <= j <= self.levels:
        raise LevelError(f"level {j} outside the ladder")
    if self.frame is None:
        q = None
    elif isinstance(self.frame, np.ndarray):
        q = self.frame
    else:  # the only applied frame: the inverse unitary DFT
        q = dft_frame(self.dim)
    return dense_scaling(q, self.weights, j) @ np.asarray(x, dtype=complex)


def _report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv + ["--no-timing"]) == 0
    return json.loads(buf.getvalue())


def _verdict_words(doc):
    return [v["verdict"] for s in doc["sections"] for v in s["verdicts"]]


def _assert_records_agree(thin, dense, path="report"):
    if isinstance(dense, dict):
        assert set(thin) == set(dense), path
        for key in dense:
            _assert_records_agree(thin[key], dense[key], f"{path}/{key}")
    elif isinstance(dense, list):
        assert len(thin) == len(dense), path
        for i, (a, b) in enumerate(zip(thin, dense)):
            _assert_records_agree(a, b, f"{path}[{i}]")
    elif isinstance(dense, float):
        assert abs(thin - dense) <= TOL * max(1.0, abs(dense)), path
    else:
        assert thin == dense, path


@pytest.mark.parametrize("argv", [
    "full-report --example number-op --dim 8 --levels 2 --seed 4",
    "full-report --example schwartz --dim 8 --seed 4",
    "full-report --example hermite --dim 6 --seed 4",
    "full-report --example sobolev --dim 6 --size 256 --seed 4",
])
def test_full_report_matches_dense_reference(argv, monkeypatch):
    thin = _report(argv.split())
    monkeypatch.setattr(WeightedTriplet, "scale", _reference_scale)
    dense = _report(argv.split())
    assert _verdict_words(thin) == _verdict_words(dense)
    _assert_records_agree(thin, dense)


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
