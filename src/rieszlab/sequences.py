"""Vector families, their duals, and the basis-diagnostic operators.

A family is an N x M matrix whose columns are the candidate basis
vectors; an optional dual matrix of the same shape carries the
biorthogonal partner sequence living on the dual side of the triplet.
All operators built here (analysis, synthesis, frame operator, factor
maps, partial sums) are finite matrices, and continuity across the
seminorm ladder is certified by largest singular values of weight-scaled
matrices.  Maps of rank at most M are kept as their thin N x M factors
and certified from them, so no N x N array is formed on the way.
Nothing is mutated: checks that recover a dual hand back an augmented
copy of the family.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (ContinuityError, DimensionError, LevelError,
                     MissingDualError, ValidationError)
from .triplet import CoefVector, WeightedTriplet, coords_of, pairing

#: Relative cutoff below the largest singular value under which singular
#: values count as zero (pseudo-inverses, rank decisions, injectivity).
RANK_RTOL = 1e-12

#: Biorthogonality tolerance: a larger residual makes `is_tainted` true
#: and fails `metric_operator_check`, without raising.
BIORTH_TOL = 1e-10

#: Declared domination factor: the partial-sum probe and the metric check
#: pick the smallest level whose worst ratio or constant stays below it.
DOMINATION_FACTOR = 2.0

#: Columns per `bessel_bound_sampled` chunk, fewer when a draw array would
#: pass _CHUNK_ELEMENTS float64 entries (64 MiB) on large grids.
_CHUNK_COLUMNS = 2048
_CHUNK_ELEMENTS = 2 ** 23


def _require_finite(from_level, to_level, *arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ContinuityError(
            f"non-finite values in the scaled operator between levels "
            f"{from_level} -> {to_level}")


def _real_diagonal(a):
    """The diagonal of a square array as a real vector, or None.

    None unless every off-diagonal entry and every imaginary part is
    exactly 0 and every diagonal entry is finite; the check costs O(N^2).
    Such a matrix has its singular values, pseudo-inverse and products in
    closed form, and the kernels below take them from `d` directly.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return None
    if np.iscomplexobj(a):
        if a.imag.any():
            return None
        a = a.real
    d = a.diagonal()
    if np.count_nonzero(a) != np.count_nonzero(d) or \
            not np.isfinite(d).all():
        return None
    return d.copy()


def singular_values(matrix):
    """Singular values of a matrix, largest first.

    A real diagonal matrix gives sorted |d| without LAPACK: the exact
    values, which LAPACK also returns bit for bit on the package's
    diagonal models (see `_real_diagonal`).
    """
    a = np.asarray(matrix)
    d = _real_diagonal(a)
    if d is not None:
        return np.sort(np.abs(d))[::-1]
    return np.linalg.svd(a, compute_uv=False)


def certificate_norm(matrix, triplet, from_level, to_level, right=None):
    """Largest singular value of scale(to) @ A @ scale(-from).

    This is the operator norm of the map A between the two levels;
    negative levels address the dual side, so e.g. (from=1, to=-1)
    certifies a map from the smooth space into the level-1 dual.

    Without `right`, A is the square `matrix` and is scaled on both
    sides.  With `right`, A = matrix @ right^H is a map of rank at most
    M given by two N x M factors B and C, and the certificate is
    sigma_max((S_to B)(S_-from C)^H).  For M < N that equals
    sigma_max(R_B R_C^H) with R_B, R_C the triangular factors of reduced
    QRs of the scaled factors, so only N x M and M x M arrays are formed;
    factors at least as wide as N are multiplied out instead, which is
    cheaper than the two QRs.
    """
    a = np.asarray(matrix, dtype=complex)
    # Overflow is reported by _require_finite, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        left = triplet.scale(to_level, a)
        if right is None:
            # A S = (S A^H)^H because every scaling is Hermitian.
            prod = triplet.scale(-from_level, left.conj().T).conj().T
        else:
            c = triplet.scale(-from_level, right)
            _require_finite(from_level, to_level, left, c)
            if c.shape[1] < c.shape[0]:
                prod = (np.linalg.qr(left, mode="r")
                        @ np.linalg.qr(c, mode="r").conj().T)
            else:
                prod = left @ c.conj().T
    _require_finite(from_level, to_level, prod)
    if not prod.size:
        return 0.0
    return float(singular_values(prod)[0])


@dataclass(frozen=True)
class LinearMap:
    """Map together with estimated operator norms between levels.

    A dense map is stored in `left`.  A map of rank at most M is stored
    as its thin factors, A = left @ right^H with both N x M, and the
    dense `matrix` is only formed when a caller reads it.  The
    certificate maps (from_level, to_level) pairs to the largest
    singular value of the correspondingly scaled map.
    """

    left: np.ndarray
    certificate: dict
    right: np.ndarray | None = None

    @cached_property
    def matrix(self):
        if self.right is None:
            return self.left
        return self.left @ self.right.conj().T

    @property
    def shape(self):
        if self.right is None:
            return self.left.shape
        return (self.left.shape[0], self.right.shape[0])


def make_linear_map(matrix, triplet, pairs=((0, 0),), right=None):
    """Wrap a map with continuity certificates for the given level pairs.

    The map is `matrix`, or matrix @ right^H when the factor `right`
    is given (see `certificate_norm`).
    """
    a = np.asarray(matrix, dtype=complex)
    c = None if right is None else np.asarray(right, dtype=complex)
    cert = {}
    for fr, to in pairs:
        value = certificate_norm(a, triplet, fr, to, right=c)
        if not np.isfinite(value):
            raise ContinuityError(
                f"operator norm overflow between levels {fr} -> {to}")
        cert[(fr, to)] = value
    return LinearMap(a, cert, c)


@dataclass(frozen=True)
class SequenceFamily:
    """Candidate basis columns with an optional dual family.

    family : ndarray, N x M columns xi_n (all nonzero)
    triplet : the weighted model the columns live in
    dual : ndarray or None, N x M columns zeta_n on the dual side

    Two results are memoised on the instance, so every check that needs
    them shares one SVD: `inverse`, the pair (Xi^+, rank) at RANK_RTOL,
    and the per-level `dual_level_norm` values.  `dataclasses.replace`
    builds a new instance, so a copy with another dual starts empty.
    """

    family: np.ndarray
    triplet: WeightedTriplet
    dual: np.ndarray | None = None
    _dual_norms: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        fam = np.asarray(self.family, dtype=complex)
        if fam.ndim != 2:
            raise DimensionError("family must be a 2-d array of columns")
        if fam.shape[0] != self.triplet.dim:
            raise DimensionError(
                f"family rows {fam.shape[0]} do not match model dimension "
                f"{self.triplet.dim}")
        if not fam.any(axis=0).all():
            raise ValidationError("family columns must be nonzero")
        dual = self.dual
        if dual is not None:
            dual = np.asarray(dual, dtype=complex)
            if dual.shape != fam.shape:
                raise DimensionError("dual must match the family's shape")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "dual", dual)

    @property
    def dim(self):
        return int(self.family.shape[0])

    @property
    def size(self):
        return int(self.family.shape[1])

    def require_dual(self):
        if self.dual is None:
            raise MissingDualError("this diagnostic needs the dual family")
        return self.dual

    @cached_property
    def inverse(self):
        """(Xi^+, rank) from `pseudo_inverse` at RANK_RTOL, taken on first
        read; the shared pseudo-inverse is read-only."""
        pinv, rank = pseudo_inverse(self.family)
        pinv.flags.writeable = False
        return pinv, rank


def _kept_inverse(s):
    """(1/s where |s| passes the cutoff and 0 elsewhere, kept count).

    Values at or below RANK_RTOL times the largest |s| count as zero.
    """
    top = np.max(np.abs(s)) if s.size else 0.0
    keep = np.abs(s) > (RANK_RTOL * top if top > 0 else np.inf)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return inv, int(np.sum(keep))


def pseudo_inverse(matrix):
    """(A^+, rank) of an N x M matrix from one thin SVD.

    Singular values at or below RANK_RTOL times the largest count as
    zero, so A^+ is the minimal-norm inverse; an injective A has rank M.
    A real diagonal A is inverted entry by entry under the same cutoff.
    """
    a = np.asarray(matrix, dtype=complex)
    d = _real_diagonal(a)
    if d is not None:
        inv, rank = _kept_inverse(d)
        return np.diag(inv).astype(complex), rank
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    inv, rank = _kept_inverse(s)
    return (vh.conj().T * inv) @ u.conj().T, rank


# -- biorthogonality ---------------------------------------------------------

def biorthogonality_residual(fam):
    """max over (n, k) of |<zeta_n, xi_k> - delta_nk|."""
    z = fam.require_dual()
    m = fam.size
    if m == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        gram = fam.family.conj().T @ z  # (k, n) entry equals <zeta_n, xi_k>
        res = float(np.max(np.abs(gram - np.eye(m))))
    if not np.isfinite(res):
        raise ValidationError(
            "non-finite biorthogonality residual: the family-dual pairings "
            "overflow")
    return res


def is_tainted(fam):
    """Whether the biorthogonality residual exceeds BIORTH_TOL.

    Tainted families stay usable: the flag is data, not an error.
    """
    if fam.dual is None:
        return False
    return biorthogonality_residual(fam) > BIORTH_TOL


# -- analysis / synthesis / frame -------------------------------------------

def analysis(fam, eta):
    """Coefficient map eta -> {conj(<zeta_k, eta>)}_k as a length-M array."""
    z = fam.require_dual()
    v = coords_of(eta)
    if v.shape[0] != fam.dim:
        raise DimensionError("analysis input does not match the model dimension")
    return z.conj().T @ v


def synthesis(fam, a):
    """sum_k a_k zeta_k, landing on the dual side."""
    z = fam.require_dual()
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    if a.shape[0] != fam.size:
        raise DimensionError("synthesis needs one coefficient per dual vector")
    return CoefVector(z @ a)


def frame_operator(fam):
    """Composition synthesis . analysis: eta -> sum_k conj(<zeta_k, eta>) zeta_k.

    The matrix is Z Z^H, a positive map from the smooth side into the
    dual; it is kept as the factor pair (Z, Z) and its (1, -1)
    continuity certificate is attached.
    """
    z = fam.require_dual()
    return make_linear_map(z, fam.triplet, pairs=((1, -1),), right=z)


# -- Bessel-type bounds ------------------------------------------------------

def dual_level_norm(fam, j):
    """sigma_max(scale(-j) Z), the norm of a -> sum_k a_k zeta_k from l2
    into level -j (level 0 is the Hilbert space), from the thin N x M
    array scale(-j) Z.  Its square is the level-j Bessel bound.  The
    value is memoised per family and level, so the Bessel bounds and the
    metric level constants share one SVD per level."""
    norms = fam._dual_norms
    if j not in norms:
        z = fam.require_dual()
        s = singular_values(fam.triplet.scale(-j, z))
        norms[j] = float(s[0]) if s.size else 0.0
    return norms[j]


def _check_level(fam, j):
    if not 1 <= j <= fam.triplet.levels:
        raise LevelError(f"Bessel level {j} outside [1, {fam.triplet.levels}]")


def bessel_bound(fam, j):
    """Supremum of sum_k |<zeta_k, eta>|^2 over the level-j unit ball.

    Computed exactly at truncation as the squared `dual_level_norm`, the
    largest singular value of Z^H scale(-j).  Finiteness of these
    per-level suprema across a dimension ladder is the model's Bessel-type
    verdict; bounded sets are represented by the seminorm-level balls
    throughout.  A square that overflows raises ContinuityError.
    """
    fam.require_dual()
    _check_level(fam, j)
    norm = dual_level_norm(fam, j)
    bound = norm * norm
    if not np.isfinite(bound):
        raise ContinuityError(f"the level-{j} Bessel bound overflows")
    return bound


def bessel_bound_lanczos(fam, j, tol, seed):
    """(ritz, residual, steps): the level-j Bessel bound attained by Lanczos.

    Runs Lanczos with full reorthogonalization on the M x M operator
    S^H S, S = scale(-j, Z), from one seeded complex start vector, and
    touches S only through products with S and S^H, so it shares no
    step with the SVD behind `bessel_bound`.  After step k, `ritz` is
    the top eigenvalue theta of the k x k tridiagonal and `residual` the
    bound beta_k |e_k^T y| on |S^H S x - theta x| for its Ritz vector x;
    an eigenvalue of S^H S lies within `residual` of `ritz`, and Ritz
    values never exceed the largest one.  The iteration stops once
    residual <= tol (1 + theta), on an invariant subspace (beta_k = 0)
    or at k = M.  A non-finite product raises ContinuityError.
    """
    z = fam.require_dual()
    _check_level(fam, j)
    m = fam.size
    if m == 0:
        return 0.0, 0.0, 0
    s = fam.triplet.scale(-j, z)
    s_h = s.conj().T
    real, imag = np.random.default_rng(seed).standard_normal((2, m))
    v = real + 1j * imag
    v /= np.linalg.norm(v)
    # Row k is the k-th Lanczos vector; rows past the current step are
    # never written.
    basis = np.empty((m, m), dtype=complex)
    alpha, beta = [], []
    for k in range(m):
        basis[k] = v
        # Overflow is reported below, not by numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            w = s_h @ (s @ v)
        if not np.isfinite(w).all():
            raise ContinuityError(
                f"non-finite values in the level-{j} Bessel products")
        alpha.append(np.vdot(v, w).real)
        done = basis[:k + 1]
        for _ in range(2):  # twice is enough for orthogonality
            w -= (done.conj() @ w) @ done
        beta.append(float(np.linalg.norm(w)))
        tri = (np.diag(alpha) + np.diag(beta[:-1], 1)
               + np.diag(beta[:-1], -1))
        theta, y = np.linalg.eigh(tri)
        ritz, residual = float(theta[-1]), beta[-1] * float(abs(y[-1, -1]))
        if residual <= tol * (1 + ritz) or beta[-1] == 0.0:
            break
        v = w / beta[-1]
    return ritz, residual, k + 1


def bessel_bound_sampled(fam, j, samples=10000, seed=0):
    """Brute-force companion of `bessel_bound` over random unit-ball points.

    The Rayleigh ratio |A u|^2 / |u|^2 of a circular Gaussian point u keeps
    its law under every unitary change of coordinates, so a point is drawn
    only in the coordinates A = scale(-j, Z)^H sees: c in C^r, r =
    min(M, N), in the orthonormal factor Q of the reduced QR of
    scale(-j, Z), and the squared norm of its remainder orthogonal to Q, a
    chi-square with 2 (N - r) degrees of freedom (0 when Q spans C^N).

    Never exceeds the singular value answer; for families whose scaled
    dual is an isometry every sample attains it.
    """
    z = fam.require_dual()
    _check_level(fam, j)
    s = fam.triplet.scale(-j, z)
    q = np.linalg.qr(s)[0]
    rank = q.shape[1]
    op = s.conj().T @ q
    op_re, op_im = np.ascontiguousarray(op.real), np.ascontiguousarray(op.imag)
    rng = np.random.default_rng(seed)
    best, left = 0.0, int(samples)
    cols = min(_CHUNK_COLUMNS, max(1, _CHUNK_ELEMENTS // max(rank, 1)))
    while left > 0:
        m = min(left, cols)
        u_re = rng.standard_normal((rank, m))
        u_im = rng.standard_normal((rank, m))
        num = _squared_images(op_re, op_im, u_re, u_im)
        den = np.sum(u_re ** 2 + u_im ** 2, axis=0)
        den += 2.0 * rng.standard_gamma(fam.dim - rank, m)
        best = max(best, float(np.max(num / den)))
        left -= m
    return best


def _squared_images(op_re, op_im, u_re, u_im):
    """Column sums of |op @ (u_re + i u_im)|^2, with op = op_re + i op_im,
    from real products and without complex copies of the draws."""
    out_re = op_re @ u_re - op_im @ u_im
    out_im = op_re @ u_im + op_im @ u_re
    # The images are this call's own: square and add them in place.
    np.square(out_re, out=out_re)
    np.square(out_im, out=out_im)
    out_re += out_im
    return np.sum(out_re, axis=0)


def bessel_factor(fam):
    """The map sending e_n to zeta_n (zero columns beyond the family size).

    Continuity from the Hilbert space into the level-1 dual is certified;
    its certificate squared reproduces the level-1 Bessel bound, the
    finite-size face of the factorization property.  The map Z E_M^H is
    kept as the factor pair (Z, E_M), E_M the first M canonical columns.
    """
    z = fam.require_dual()
    return make_linear_map(z, fam.triplet, pairs=((0, -1),),
                           right=np.eye(fam.dim, fam.size))


# -- Riesz-Fischer-type check ------------------------------------------------

@dataclass(frozen=True)
class RieszFischerResult:
    """Outcome of the flattening check S xi_n = e_n.

    ok : the family admits a continuous flattening at this truncation
    flatten : minimal-norm S = E_M Xi^+ (least-squares solution when
        rank-deficient), kept as the factor pair (E_M, (Xi^+)^H)
    residual : max |(S Xi - E)_{ij}| against the target columns e_1..e_M,
        which is max |Xi^+ Xi - I_M| because S Xi = E_M Xi^+ Xi
    rank : numerical rank of the family
    family : input family, with the recovered dual attached when ok
    note : provenance of the dual / reason for failure
    """

    ok: bool
    flatten: LinearMap
    residual: float
    rank: int
    family: SequenceFamily
    note: str = ""


def riesz_fischer_check(fam):
    """Look for a continuous map S sending each xi_n to e_n.

    At truncation such a map exists iff the family has full column rank;
    rank deficiency is a negative verdict, not an exception.  S is the
    minimal-norm choice built from the pseudo-inverse, the dual columns
    are zeta_k = S^H e_k, and biorthogonality of the recovered dual holds
    by construction.  Other duals exist whenever the family is not total;
    the result says so in its note.
    """
    xi = fam.family
    n, m = xi.shape
    pinv, rank = fam.inverse
    residual = float(np.max(np.abs(pinv @ xi - np.eye(m)))) if m else 0.0
    flatten = make_linear_map(np.eye(n, m), fam.triplet, pairs=((1, 0),),
                              right=pinv.conj().T)
    ok = rank == m
    if ok:
        out = fam if fam.dual is not None else replace(fam, dual=pinv.conj().T)
        note = ("minimal-norm dual recovered; other duals exist when the "
                "family is not total")
    else:
        out = fam
        note = "family is not linearly independent at this truncation"
    return RieszFischerResult(ok, flatten, residual, rank, out, note)


# -- dual-side analysis ------------------------------------------------------

@dataclass(frozen=True)
class DualAnalysisResult:
    """Pairings of a dual vector against the family.

    coefficients : {<phi, xi_k>}_k
    sq_sum : squared l2 mass of the coefficients (the domain-membership
        quantity whose ladder growth is diagnosed elsewhere)
    rank, surjective : column rank of the family; full rank makes the map
        onto the coefficient space at this truncation
    """

    coefficients: np.ndarray
    sq_sum: float
    rank: int
    surjective: bool


def dual_analysis(fam, phi):
    """Second coefficient map phi -> {<phi, xi_k>}_k with its l2 mass."""
    v = coords_of(phi)
    if v.shape[0] != fam.dim:
        raise DimensionError("dual-analysis input does not match the model")
    coeffs = fam.family.conj().T @ v
    rank = fam.inverse[1]
    return DualAnalysisResult(coeffs, float(np.sum(np.abs(coeffs) ** 2)),
                              rank, rank == fam.size)


# -- partial sums and weak expansions ---------------------------------------

def _order_input(fam, n, x):
    """The dual and the coordinates of x for an expansion of order n."""
    z = fam.require_dual()
    if not 0 <= n <= fam.size:
        raise DimensionError(f"expansion order {n} outside [0, {fam.size}]")
    v = coords_of(x)
    if v.shape[0] != fam.dim:
        raise DimensionError("expansion input does not match the model")
    return z, v


def partial_sum(fam, f, n):
    """S_n f = sum_{k<=n} conj(<zeta_k, f>) xi_k, a vector on the smooth side."""
    z, v = _order_input(fam, n, f)
    return CoefVector(fam.family[:, :n] @ (z[:, :n].conj().T @ v))


def partial_sum_adjoint(fam, psi, n):
    """Adjoint action sum_{k<=n} <psi, xi_k> zeta_k on the dual side."""
    z, p = _order_input(fam, n, psi)
    return CoefVector(z[:, :n] @ (fam.family[:, :n].conj().T @ p))


def weak_expansion_residual(fam, psi, f, n):
    """|<psi, f> - sum_{k<=n} <psi, xi_k> <zeta_k, f>|.

    The order-n defect of the weak expansion; it vanishes at n = M for an
    exactly biorthogonal full-rank square family.
    """
    z, v = _order_input(fam, n, f)
    p = coords_of(psi)
    a = fam.family[:, :n].conj().T @ p          # <psi, xi_k>
    b = np.conj(z[:, :n].conj().T @ v)          # <zeta_k, f>
    return float(abs(pairing(p, v) - np.sum(a * b)))


# -- partial-sum domination probe -------------------------------------------

@dataclass(frozen=True)
class SchauderProbeResult:
    """Smallest level dominating earlier partial sums, with the evidence.

    q_level is None when even the top level failed DOMINATION_FACTOR;
    per_level records the worst observed ratio for every candidate level.
    """

    q_level: int | None
    worst_ratio: float | None
    per_level: dict


def schauder_inequality_probe(fam, p_level, trials, seed):
    """Randomized partial-sum domination probe.

    Draws coefficient vectors and split points (n, n+m), each kind in one
    array call, and records, per candidate level q, the worst ratio
    p_{p_level}(shorter sum) / p_q(longer sum).  Reported is the smallest
    q whose worst ratio stays below DOMINATION_FACTOR.  The seed is
    mandatory so that reports reproduce bit for bit.
    """
    tri = fam.triplet
    if not 0 <= p_level <= tri.levels:
        raise LevelError(f"probe level {p_level} outside [0, {tri.levels}]")
    if fam.size == 0:
        raise ValidationError("cannot probe an empty family")
    rng = np.random.default_rng(seed)
    m, trials = fam.size, int(trials)
    c = rng.standard_normal((trials, m))
    c = c + 1j * rng.standard_normal((trials, m))
    n = rng.integers(1, m + 1, size=trials)
    extra = rng.integers(0, m - n + 1)
    # Trial t fills row t of the shorter (first n_t coefficients) and of
    # the longer (first n_t + extra_t) block.
    cols = np.arange(m)
    coeffs = np.concatenate([np.where(cols < n[:, None], c, 0.0),
                             np.where(cols < (n + extra)[:, None], c, 0.0)])
    sums = coeffs @ fam.family.T  # row t is the partial sum (Xi c)^T
    pu, pv_at_p = np.split(tri.seminorm(sums.T, p_level), 2)
    worst = {}
    for q in range(tri.levels + 1):
        pv = pv_at_p if q == p_level else tri.seminorm(sums[trials:].T, q)
        ratios = np.divide(pu, pv, out=np.where(pu > 0.0, np.inf, 0.0),
                           where=pv > 0.0)
        worst[q] = float(np.max(ratios, initial=0.0))
    level = next((q for q, r in worst.items() if r <= DOMINATION_FACTOR), None)
    return SchauderProbeResult(level, worst.get(level), worst)


def level_gram(fam, j):
    """Gram matrix of the family columns in the level-j inner product."""
    x = fam.triplet.scale(j, fam.family)
    return x.conj().T @ x
