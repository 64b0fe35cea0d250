"""The definition-level references every differential test compares with.

The package computes each quantity through a fast path: `Diagonal`
closed forms, FFT and thin-frame scalings, thin-QR certificates,
prefix-sum and batched probes, the row-space sampler and Lanczos.  This
module writes each of them out from its definition instead: dense
scalings Q diag(w^j) Q^H, SVDs and eigensolves of dense products, and
per-sample loops over the same random draws.  Test modules import these
references and the model catalogues below; they define none of their
own, and none imports another test module.

`models()` draws the generated models (N <= 24, M <= N, 1-3 levels;
canonical, DFT or dense unitary frame; Diagonal, square or thin family;
weights from 1 to 1e6), and `CHECKS` holds one comparison per kernel,
each within 1e-12 relative to max(1, |reference|) unless the check says
why it takes another bound.
"""
import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import eval_hermite

from rieszlab import (LevelError, LineGrid, SequenceFamily, WeightedTriplet,
                      bessel_bound, bessel_bound_lanczos, bessel_factor,
                      build_pair, certificate_norm, demo_pair,
                      frame_operator, graph_norm_triplet, level_gram,
                      make_riesz_basis, metric_operator_check,
                      number_operator_model, pairing, random_unitary,
                      riesz_fischer_check, schauder_inequality_probe,
                      schwartz_hermite_model, sobolev_basis,
                      strictness_constants)
from rieszlab import sequences
from rieszlab.cli import DEFAULT_TOLERANCES
from rieszlab.sequences import (DOMINATION_FACTOR, RANK_RTOL,
                                dual_level_norm, partial_sum_residuals,
                                pseudo_inverse, singular_values)
from rieszlab.triplet import Diagonal

from conftest import well_conditioned_transform

TOL = 1e-12
#: The `equality` tolerance the `bessel` section hands to Lanczos.
EQ = DEFAULT_TOLERANCES["equality"]


def close(value, ref, tol=TOL):
    """|value - ref| <= tol max(1, |ref|), entry by entry against the
    largest entry of the reference."""
    value, ref = np.asarray(value), np.asarray(ref)
    scale = max(1.0, float(np.max(np.abs(ref))) if ref.size else 0.0)
    return float(np.max(np.abs(value - ref), initial=0.0)) <= tol * scale


# -- dense maps ----------------------------------------------------------------

def dft_frame(p):
    """Q = F^H with F the unitary DFT matrix, F x = fft(x, norm="ortho")."""
    return np.fft.fft(np.eye(p), axis=0).conj().T / np.sqrt(p)


def dense_scaling(tri, j):
    """Q diag(w^j) Q^H as a dense matrix, Q the triplet's frame."""
    w = tri.weights ** j
    if tri.frame is None:
        return np.diag(w).astype(complex)
    # The only frame held as a string is the inverse unitary DFT.
    q = dft_frame(tri.dim) if isinstance(tri.frame, str) else tri.frame
    return (q * w) @ q.conj().T


def dense_certificate(a, tri, from_level, to_level):
    prod = dense_scaling(tri, to_level) @ a @ dense_scaling(tri, -from_level)
    return float(np.linalg.svd(prod, compute_uv=False)[0])


def reference_scale(self, j, x):
    """`WeightedTriplet.scale` as a dense matrix product, to patch in."""
    if not -self.levels <= j <= self.levels:
        raise LevelError(f"level {j} outside the ladder")
    return dense_scaling(self, j) @ np.asarray(x, dtype=complex)


def dense_diag(d):
    return np.diag(np.asarray(d, dtype=float)).astype(complex)


def dense_top_eigenvalue(fam, j):
    """Top eigenvalue of S^H S, S = scale(-j) Z written out densely."""
    s = dense_scaling(fam.triplet, -j) @ np.asarray(fam.dual)
    return float(np.linalg.eigvalsh(s.conj().T @ s)[-1])


def commutator_norm(a):
    """Reference ||[A, A^H]||_2: the largest |eigenvalue| of the dense
    Hermitian commutator."""
    a = np.asarray(a, dtype=complex)
    c = a @ a.conj().T - a.conj().T @ a
    return float(np.max(np.abs(np.linalg.eigvalsh(c)), initial=0.0))


def matching_distance(pair):
    """The general eigensolver's reference: eig(H) sorted by real part
    against the sorted declared spectrum, worst distance in the plane."""
    ev = np.linalg.eigvals(pair.hamiltonian)
    ev = ev[np.argsort(ev.real)]
    return float(np.max(np.abs(ev - np.sort(pair.eigenvalues))))


def reference_hermite(n, x):
    """Physicists' Hermite polynomial from scipy, normalized to L2(R)."""
    norm = math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
    return eval_hermite(n, x) * np.exp(-0.5 * x * x) / norm


# -- the sampled Bessel sup -----------------------------------------------------

def chunk_columns(dim):
    """Points per chunk of `dim` coordinates, from the package's limits as
    they are when called."""
    return min(sequences._CHUNK_COLUMNS,
               max(1, sequences._CHUNK_ELEMENTS // dim))


def _sampled_sup(op, samples, seed, remainder=None):
    """Largest |op u|^2 / |u|^2 over complex Gaussian points u, in chunks,
    through four real products with the imaginary part of op included
    even when it is 0; a `remainder` k adds a chi-square with 2 k degrees
    of freedom to each |u|^2."""
    op_re = np.ascontiguousarray(op.real)
    op_im = np.ascontiguousarray(op.imag)
    dim = op.shape[1]
    rng = np.random.default_rng(seed)
    cols = chunk_columns(dim)
    best, left = 0.0, samples
    while left > 0:
        m = min(left, cols)
        u_re = rng.standard_normal((dim, m))
        u_im = rng.standard_normal((dim, m))
        out_re = op_re @ u_re - op_im @ u_im
        out_im = op_re @ u_im + op_im @ u_re
        num = np.sum(out_re ** 2 + out_im ** 2, axis=0)
        den = np.sum(u_re ** 2 + u_im ** 2, axis=0)
        if remainder is not None:
            den += 2.0 * rng.standard_gamma(remainder, m)
        best = max(best, float(np.max(num / den)))
        left -= m
    return best


def reference_sampled(fam, j, samples=10000, seed=0):
    """The per-level sampler on the full complex Gaussian stream of N
    coordinates."""
    op = fam.triplet.scale(-j, np.asarray(fam.dual)).conj().T
    return _sampled_sup(op, samples, seed)


def reference_row_space(fam, j, samples=10000, seed=0):
    """The per-level sampler in the row space: a point is c in C^r, r =
    min(M, N), in the reduced QR factor Q of the level's scaled dual
    scale(-j, Z), seen through scale(-j, Z)^H Q, and its remainder
    orthogonal to Q adds a chi-square with 2 (N - r) degrees of freedom to
    the squared norm."""
    s = fam.triplet.scale(-j, np.asarray(fam.dual))
    q = np.linalg.qr(s)[0]
    return _sampled_sup(s.conj().T @ q, samples, seed,
                        remainder=fam.dim - q.shape[1])


# -- per-sample loops -----------------------------------------------------------

def loop_probe(fam, p_level, trials, seed):
    """The probe's four array draws (real parts, imaginary parts, split
    points, extra lengths), then two matrix-vector sums and one seminorm
    per level and trial."""
    tri = fam.triplet
    rng = np.random.default_rng(seed)
    m = fam.size
    real = rng.standard_normal((trials, m))
    imag = rng.standard_normal((trials, m))
    splits = rng.integers(1, m + 1, size=trials)
    extras = rng.integers(0, m - splits + 1)
    worst = {q: 0.0 for q in range(tri.levels + 1)}
    for t in range(trials):
        c = real[t] + 1j * imag[t]
        n, extra = int(splits[t]), int(extras[t])
        u = np.asarray(fam.family)[:, :n] @ c[:n]
        v = np.asarray(fam.family)[:, :n + extra] @ c[:n + extra]
        pu = tri.seminorm(u, p_level)
        for q in worst:
            pv = tri.seminorm(v, q)
            if pv > 0.0:
                worst[q] = max(worst[q], pu / pv)
            elif pu > 0.0:
                worst[q] = np.inf
    q_level = next((q for q in worst if worst[q] <= DOMINATION_FACTOR), None)
    return q_level, worst, rng


def loop_positivity(fam, samples, seed):
    """Worst |<S f, f> - sum |a|^2| over f = Xi a, one sample at a time."""
    z, xi = np.asarray(fam.dual), np.asarray(fam.family)
    pinv = np.asarray(fam.pinv_rank[0])
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        a = rng.standard_normal(fam.size) + 1j * rng.standard_normal(fam.size)
        f = xi @ a
        worst = max(worst, abs(pairing(z @ (pinv @ f), f)
                               - float(np.sum(np.abs(a) ** 2))))
    return worst, rng


def loop_similarity(pair, count, seed):
    """Worst weak-similarity residual over unit pairs, one at a time."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        xi = rng.standard_normal(pair.dim) + 1j * rng.standard_normal(pair.dim)
        eta = rng.standard_normal(pair.dim) + 1j * rng.standard_normal(pair.dim)
        xi /= np.linalg.norm(xi)
        eta /= np.linalg.norm(eta)
        t = np.asarray(pair.transform)
        lhs = pairing(pair.hamiltonian @ xi, t.conj().T @ eta)
        rhs = pairing(t @ xi, pair.selfadjoint @ eta)
        worst = max(worst, abs(lhs - rhs))
    return worst, rng


def loop_residuals(fam, f):
    """||f - Xi_n Z_n^H f|| for n = 0..M from the leading n dense columns."""
    xi, z = np.asarray(fam.family), np.asarray(fam.dual)
    return [float(np.linalg.norm(f - xi[:, :n] @ (z[:, :n].conj().T @ f)))
            for n in range(fam.size + 1)]


# -- hand-picked models ---------------------------------------------------------

def graph_case(square):
    rng = np.random.default_rng(11)
    n = 24
    tri = graph_norm_triplet(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))
    if square:
        return make_riesz_basis(well_conditioned_transform(rng, n), tri).fam
    xi = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
    return riesz_fischer_check(SequenceFamily(xi, tri)).family


#: Families on a DFT or a dense graph-norm frame, thin and square.
THIN_CASES = {
    "sobolev-64": lambda: sobolev_basis(LineGrid(20.0, 64), 6),
    "sobolev-128": lambda: sobolev_basis(LineGrid(20.0, 128), 8),
    "graph-norm-thin": lambda: graph_case(square=False),
    "graph-norm-square": lambda: graph_case(square=True),
}


def graph_norm_family():
    """Dense complex frame with two levels, around a random transform."""
    rng = np.random.default_rng(5)
    n = 20
    frame = graph_norm_triplet(rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n))).frame
    tri = WeightedTriplet(n, np.linspace(1.0, 3.0, n), 2, frame)
    return make_riesz_basis(well_conditioned_transform(rng, n), tri).fam


def real_thin_family():
    """Real N = 40, M = 4 family on the canonical two-level triplet: every
    scaled dual, and so every row-space operator, is real."""
    rng = np.random.default_rng(8)
    n = 40
    xi = rng.standard_normal((n, 4))
    tri = WeightedTriplet(n, np.linspace(1.0, 3.0, n), 2)
    return SequenceFamily(xi, tri, dual=xi @ np.linalg.inv(xi.T @ xi))


def transform_family(n=64):
    """A dense transported basis, as a transform file gives it."""
    rng = np.random.default_rng(11)
    tri = WeightedTriplet(n, np.linspace(1.0, 4.0, n), 2)
    return make_riesz_basis(well_conditioned_transform(rng, n), tri).fam


#: One family of each kind a report builds, with a dual.
CASES = {
    "number-op-L2": lambda: number_operator_model(16, 2)[1].fam,
    "schwartz-L3": lambda: schwartz_hermite_model(12, 3)[1],
    "sobolev-P256": lambda: sobolev_basis(LineGrid(20.0, 256), 10),
    "graph-norm-L2": graph_norm_family,
    "real-thin-L2": real_thin_family,
    "transform-64": transform_family,
}

#: CASES and the two report-sized families of the Lanczos comparison.
FAMILIES = {
    **CASES,
    "number-op-N256-L2": lambda: number_operator_model(256, 2)[1].fam,
    "sobolev-P1024": lambda: sobolev_basis(LineGrid(20.0, 1024), 10),
}


def pairs():
    """The demo pair and a pair around a dense random transform."""
    rng = np.random.default_rng(3)
    dense = build_pair(np.linspace(-1.0, 1.0, 48), random_unitary(48, seed=4),
                       well_conditioned_transform(rng, 48))
    return {"demo-64": demo_pair(64), "dense-48": dense}


def framed_triplets(n, rng):
    """The three kinds of frame: canonical, unitary DFT and dense."""
    w = np.linspace(1.0, 3.0, n)
    frame = graph_norm_triplet(rng.standard_normal((n, n))).frame
    return {"canonical": WeightedTriplet(n, w, 2),
            "dft": WeightedTriplet.fourier(w, 2),
            "dense": WeightedTriplet(n, w, 2, frame)}


# -- generated models -----------------------------------------------------------

FRAMES = ("canonical", "dft", "dense")
KINDS = ("diagonal", "square", "thin")


@st.composite
def models(draw, frame, kind):
    """A family of `kind` with its dual on a triplet with a `frame`.  The
    sizes and weight range are drawn by hypothesis, the entries from a
    drawn numpy seed."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, n)) if kind == "thin" else n
    levels = draw(st.integers(1, 3))
    # log10 of the smallest and of the largest possible weight
    low = draw(st.integers(0, 6))
    high = draw(st.integers(low, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = 10.0 ** rng.uniform(low, high, n)
    tri = {"canonical": lambda: WeightedTriplet(n, w, levels),
           "dft": lambda: WeightedTriplet.fourier(w, levels),
           "dense": lambda: WeightedTriplet(
               n, w, levels, random_unitary(n, seed=int(rng.integers(99))))
           }[frame]()
    if kind == "diagonal":
        # Unsorted magnitudes in [0.1, 10] with both signs.
        d = 10.0 ** rng.uniform(-1.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
        return make_riesz_basis(Diagonal(d), tri).fam
    t = well_conditioned_transform(rng, n)
    if kind == "square":
        return make_riesz_basis(t, tri).fam
    # Leading columns of a well-conditioned map stay well-conditioned.
    return riesz_fischer_check(SequenceFamily(t[:, :m], tri)).family


def _probe_vector(fam):
    rng = np.random.default_rng(fam.dim)
    return rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)


def check_scale(fam):
    """scale(j) at every level against the dense Q diag(w^j) Q^H, its
    round trip, the dense `scale_matrix`, and a held Diagonal."""
    tri = fam.triplet
    x = np.asarray(fam.family)
    spread = float(np.max(tri.weights) / np.min(tri.weights))
    for j in range(-tri.levels, tri.levels + 1):
        ref = dense_scaling(tri, j)
        assert close(tri.scale(j, x), ref @ x)
        assert close(tri.scale_matrix(j), ref)
        # Roundoff in scale(j) x comes back multiplied by the condition
        # number spread^|j| of the scaling.
        assert close(tri.scale(-j, tri.scale(j, x)), x,
                     max(TOL, 1e-15 * spread ** abs(j)))
        if tri.frame is None and isinstance(fam.family, Diagonal):
            held = tri.scale(j, fam.family)
            assert isinstance(held, Diagonal)
            assert close(np.asarray(held), ref @ x)
    with pytest.raises(LevelError):
        tri.scale(tri.levels + 1, x)


def check_norms(fam):
    """seminorm and dual_norm, of the columns and of a lone vector."""
    tri = fam.triplet
    x = np.asarray(fam.family)
    f = _probe_vector(fam)
    for j in range(tri.levels + 1):
        ref = dense_scaling(tri, j)
        assert close(tri.seminorm(x, j), np.linalg.norm(ref @ x, axis=0))
        assert close(tri.seminorm(f, j), np.linalg.norm(ref @ f))
        if j:
            assert close(tri.dual_norm(f, j),
                         np.linalg.norm(dense_scaling(tri, -j) @ f))


def check_inverse(fam):
    """singular_values, pseudo_inverse and the flattening residual."""
    xi = np.asarray(fam.family)
    n, m = xi.shape
    s = np.linalg.svd(xi, compute_uv=False)
    assert close(singular_values(fam.family), s)
    pinv, rank = pseudo_inverse(fam.family)
    ref = np.linalg.pinv(xi, rtol=RANK_RTOL)
    assert rank == int(np.sum(s > RANK_RTOL * s[0]))
    assert close(np.asarray(pinv), ref)
    target = np.eye(n)[:, :m]
    assert close(riesz_fischer_check(fam).residual,
                 float(np.max(np.abs(target @ ref @ xi - target))))


def check_certificates(fam):
    """The four factor-pair maps and, for a square family, T = Z^H: each
    certificate against the SVD of the dense scaled product, and the
    square route of `certificate_norm` on the dense map."""
    tri = fam.triplet
    z, xi = np.asarray(fam.dual), np.asarray(fam.family)
    n, m = xi.shape
    pinv = np.linalg.pinv(xi)
    pad = np.zeros((n, n), dtype=complex)
    pad[:, :m] = z
    maps = [
        (frame_operator(fam), z @ z.conj().T, (1, -1)),
        (bessel_factor(fam), pad, (0, -1)),
        (riesz_fischer_check(fam).flatten, np.eye(n)[:, :m] @ pinv, (1, 0)),
        (metric_operator_check(fam).metric, z @ pinv, (1, -1)),
    ]
    for lm, dense, pair in maps:
        assert close(lm.certificate[pair],
                     dense_certificate(dense, tri, *pair))
        assert lm.shape == (n, n)
        assert close(lm.matrix, dense)
        assert close(certificate_norm(dense, tri, *pair),
                     lm.certificate[pair])
    if m == n:
        t = fam.dual.conj().T  # as held, so a Diagonal stays one
        basis = make_riesz_basis(t, tri)
        assert close(basis.transform.certificate[(1, 0)],
                     dense_certificate(z.conj().T, tri, 1, 0))


def check_bessel(fam):
    """dual_level_norm, the Bessel bound, the metric level constants and
    the Lanczos Ritz value against the dense scaled dual."""
    tri = fam.triplet
    z = np.asarray(fam.dual)
    constants = metric_operator_check(fam).level_constants
    for j in range(tri.levels + 1):
        zs = z.conj().T @ dense_scaling(tri, -j)
        top = float(np.linalg.svd(zs, compute_uv=False)[0])
        assert close(dual_level_norm(fam, j), top)
        assert close(constants[j], top)
        if not j:
            continue
        assert close(bessel_bound(fam, j), top ** 2)
        # Lanczos on the dual as held, and on the dual scaled to a bound
        # of twice the tolerance, where a stop absolute in the residual
        # would end on a Ritz value near a smaller eigenvalue.
        top_eig = dense_top_eigenvalue(fam, j)
        c = np.sqrt(2.0 * EQ) / top
        tiny = SequenceFamily(fam.family, tri, dual=c * z)
        for scaled, ref in ((fam, top_eig), (tiny, c * c * top_eig)):
            ritz, residual, steps = bessel_bound_lanczos(scaled, j, EQ, 0)
            assert abs(ritz - ref) <= residual + EQ * (1 + ref)
            assert 1 <= steps <= fam.size


def check_grams(fam):
    """level_gram and the strictness constants against dense SVDs."""
    tri = fam.triplet
    xi = np.asarray(fam.family)
    lower, upper = strictness_constants(tri, fam.family)
    for j in range(tri.levels + 1):
        x = dense_scaling(tri, j) @ xi
        assert close(level_gram(fam, j), x.conj().T @ x)
        s = np.linalg.svd(x, compute_uv=False)
        assert close(upper[j], s[0] ** 2)
        if j == 1:
            # An SVD resolves sigma_min only to roundoff in sigma_max.
            assert abs(lower - s[-1] ** 2) <= TOL * max(1.0, s[0] ** 2)


def check_partial_sums(fam):
    """The reconstruction ladder against the dense leading columns."""
    f = _probe_vector(fam)
    assert close(partial_sum_residuals(fam, f), loop_residuals(fam, f))


def check_probe(fam):
    """The batched domination probe against its per-trial loop."""
    top = fam.triplet.levels
    res = schauder_inequality_probe(fam, top, 20, seed=1)
    q_level, worst, _ = loop_probe(fam, top, 20, seed=1)
    assert res.q_level == q_level
    assert res.per_level.keys() == worst.keys()
    assert all(close(res.per_level[q], worst[q]) for q in worst)


def check_positivity(fam):
    """The batched metric positivity against its per-sample loop, on the
    dual moved by 1e-3 so that every sample leaves its own residual."""
    rng = np.random.default_rng(6)
    shift = rng.standard_normal(fam.dual.shape) \
        + 1j * rng.standard_normal(fam.dual.shape)
    off = SequenceFamily(fam.family, fam.triplet,
                         dual=np.asarray(fam.dual) + 1e-3 * shift)
    loop, _ = loop_positivity(off, 20, seed=2)
    assert close(metric_operator_check(off, samples=20, seed=2).positivity,
                 loop)


CHECKS = {
    "scale": check_scale,
    "norms": check_norms,
    "inverse": check_inverse,
    "certificates": check_certificates,
    "bessel": check_bessel,
    "grams": check_grams,
    "partial-sums": check_partial_sums,
    "probe": check_probe,
    "positivity": check_positivity,
}
