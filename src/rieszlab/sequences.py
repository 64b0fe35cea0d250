"""Vector families, their duals, and the basis-diagnostic operators.

A family is an N x M matrix whose columns are the candidate basis
vectors; an optional dual matrix of the same shape carries the
biorthogonal partner sequence on the dual side of the triplet.  Maps
are held by the triplet's dtype rule (`triplet.held_array`): float64
when their data are real and the triplet keeps them real, complex128
otherwise, and their scalings, R factors, singular values and
pseudo-inverse follow.  Vectors are plain complex coordinate arrays:
expansions and partial sums return 1-D arrays, read on whichever side the
norm or pairing applied to them names.  Every operator built here is a
finite matrix, certified across the seminorm ladder by the largest
singular value of its weight-scaled form.  Each map is kept as its two
N x M factors, and a map that a model builder declares diagonal stays a
`Diagonal`, which multiplies itself in O(N) under `@` and `.conj().T`,
and which `max_deviation`, `singular_values` and `pseudo_inverse` take
in closed form; so no N x N array is formed on the way.
Nothing is mutated: checks that recover a dual return a new family.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ContinuityError, DimensionError, LevelError,
                     MissingDualError, ValidationError)
from .triplet import Diagonal, WeightedTriplet, coords_of, held_array, pairing

#: Relative cutoff below the largest singular value under which singular
#: values count as zero (pseudo-inverses, rank decisions, injectivity).
RANK_RTOL = 1e-12

#: Biorthogonality tolerance: a larger residual taints the report's
#: `biorthogonality` section and fails `metric_operator_check`, without
#: raising.
BIORTH_TOL = 1e-10

#: Declared domination factor: the partial-sum probe and the metric check
#: pick the smallest level whose worst ratio or constant stays below it.
DOMINATION_FACTOR = 2.0

#: Columns per `bessel_bound_sampled` chunk, fewer when a draw array would
#: pass _CHUNK_ELEMENTS float64 entries (64 MiB) on large grids.
_CHUNK_COLUMNS = 2048
_CHUNK_ELEMENTS = 2 ** 23


def _as_map(a, real=True):
    """A `Diagonal` as it is, anything else as `held_array(a, real)`: pass
    the triplet's `keeps_real` for a map that its scalings act on."""
    return a if isinstance(a, Diagonal) else held_array(a, real)


def _leading(a, n):
    """The first n columns of a map, all of them as held; a Diagonal gives
    its N x n block without forming the N x N matrix."""
    if isinstance(a, Diagonal) and n < a.shape[1]:
        block = np.zeros((a.shape[0], n))
        np.fill_diagonal(block, a.d[:n])
        return block
    return a if n == a.shape[1] else a[:, :n]


def max_deviation(a, b=None):
    """Largest entry of |a - b|, with b the identity when omitted; 0 for
    an empty map.  Either side may be a Diagonal."""
    if isinstance(a, Diagonal) and (b is None or isinstance(b, Diagonal)):
        gap = a.d - (1.0 if b is None else b.d)
    else:
        gap = np.asarray(a) - (np.eye(a.shape[0]) if b is None
                               else np.asarray(b))
    return float(np.max(np.abs(gap), initial=0.0))


def _require_finite(from_level, to_level, *arrays):
    if not all(np.isfinite(a.d if isinstance(a, Diagonal) else a).all()
               for a in arrays):
        raise ContinuityError(
            f"non-finite values in the scaled operator between levels "
            f"{from_level} -> {to_level}")


def singular_values(matrix):
    """Singular values of a matrix, largest first; a Diagonal gives its
    sorted |d|, which LAPACK also returns bit for bit on the dense matrices
    of the package's diagonal models."""
    if isinstance(matrix, Diagonal):
        return np.sort(np.abs(matrix.d))[::-1]
    return np.linalg.svd(np.asarray(matrix), compute_uv=False)


def _certified(prod, pair):
    """sigma_max of a scaled product, the certificate of the level `pair`;
    non-finite entries or norm raise ContinuityError."""
    _require_finite(*pair, prod)
    value = float(np.max(singular_values(prod), initial=0.0))
    if not np.isfinite(value):
        raise ContinuityError(
            f"operator norm overflow between levels {pair[0]} -> {pair[1]}")
    return value


@dataclass(frozen=True)
class LinearMap:
    """Map A = left @ right^H, held as its two N x M factors (arrays or
    Diagonals), with its certificate: (from_level, to_level) -> operator
    norm.  The dense `matrix` is only formed when a caller reads it.
    """

    left: np.ndarray | Diagonal
    certificate: dict
    right: np.ndarray | Diagonal

    @cached_property
    def matrix(self):
        return np.asarray(self.left @ self.right.conj().T)

    @property
    def shape(self):
        return (self.left.shape[0], self.right.shape[0])


def _family_map(fam, left, right, pair):
    """The map L R^H of two N x M maps the family holds, named as for
    `SequenceFamily.scaled`, with its `pair` certificate: sigma_max of
    (S_to L)(S_-from R)^H, or for M < N of the product of their memoised
    R factors, so that no N x N array is formed."""
    (fr, to), keys = pair, ((pair[1], left), (-pair[0], right))
    x, c = (fam.scaled(*key) for key in keys)
    _require_finite(fr, to, x, c)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = (fam.r_factor(*keys[0]) @ fam.r_factor(*keys[1]).conj().T
                if c.shape[1] < c.shape[0] else x @ c.conj().T)
    return LinearMap(fam.scaled(0, left), {pair: _certified(prod, pair)},
                     fam.scaled(0, right))


@dataclass(frozen=True)
class SequenceFamily:
    """Candidate basis columns with an optional dual family.

    family : N x M columns xi_n (all nonzero), an array or a Diagonal
    triplet : the weighted model the columns live in
    dual : None or N x M columns zeta_n on the dual side, likewise

    Both maps are held as declared, read-only; `np.asarray` gives the
    dense view.  Memoised read-only, so checks share each SVD, scaling and
    QR: `pinv_rank` (Xi^+, rank) at RANK_RTOL, and `scaled`, `r_factor`
    and `sigma` per held map and level; a copy made by
    `dataclasses.replace` keeps the maps and starts with empty memos.
    """

    family: np.ndarray | Diagonal
    triplet: WeightedTriplet
    dual: np.ndarray | Diagonal | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        real = self.triplet.keeps_real
        fam = _as_map(self.family, real)
        if len(fam.shape) != 2:
            raise DimensionError("family must be a 2-d array of columns")
        if fam.shape[0] != self.triplet.dim:
            raise DimensionError(
                f"family rows {fam.shape[0]} do not match model dimension "
                f"{self.triplet.dim}")
        nonzero = fam.d != 0 if isinstance(fam, Diagonal) else fam.any(axis=0)
        if not nonzero.all():
            raise ValidationError("family columns must be nonzero")
        dual = self.dual
        if dual is not None:
            dual = _as_map(dual, real)
            if dual.shape != fam.shape:
                raise DimensionError("dual must match the family's shape")
        object.__setattr__(self, "family", _read_only(fam))
        object.__setattr__(self, "dual", _read_only(dual))

    @property
    def dim(self):
        return int(self.family.shape[0])

    @property
    def size(self):
        return int(self.family.shape[1])

    @cached_property
    def pinv_rank(self):
        """(Xi^+, rank) from `pseudo_inverse` at RANK_RTOL, taken on first
        read; a shared array pseudo-inverse is read-only."""
        pinv, rank = pseudo_inverse(self.family)
        return _read_only(pinv), rank

    def _memoised(self, key, compute):
        """Memo entry `key`, computed on first read with overflow left to
        the callers' finite checks."""
        if key not in self._memo:
            with np.errstate(over="ignore", invalid="ignore"):
                self._memo[key] = _read_only(compute())
        return self._memo[key]

    def scaled(self, j, name="family"):
        """scale(j, X) of the held map X named `name`: "family" Xi, "dual"
        Z, "canonical" E_M (the first M canonical columns, a Diagonal when
        M = N) or "inverse" (Xi^+)^H; level 0 is X itself, not a copy."""
        def compute():
            if j:
                return self.triplet.scale(j, self.scaled(0, name))
            n, m = self.family.shape
            return {"family": lambda: self.family,
                    "dual": lambda: _dual_of(self),
                    "canonical": lambda: (Diagonal(np.ones(n)) if n == m
                                          else np.eye(n, m)),
                    "inverse": lambda: self.pinv_rank[0].conj().T}[name]()
        return self._memoised((j, name), compute)

    def r_factor(self, j, name="family"):
        """R factor of a reduced QR of `scaled(j, name)`, memoised."""
        return self._memoised(("R", j, name), lambda: np.linalg.qr(
            self.scaled(j, name), mode="r"))

    def sigma(self, j, name="family"):
        """Singular values of `scaled(j, name)`, largest first, memoised: for
        an array of at least twice as many rows as columns, those of its
        finite `r_factor`, bit for bit the M x M SVD gesdd takes there."""
        def compute():
            x = self.scaled(j, name)
            if isinstance(x, np.ndarray) and x.shape[0] >= 2 * x.shape[1]:
                r = self.r_factor(j, name)
                x = r if np.isfinite(r).all() else x
            return singular_values(x)
        return self._memoised(("sigma", j, name), compute)


def _read_only(a):
    """`a`, or a read-only view of a writable array: no memo may outlive
    a change to the map it was taken from."""
    if isinstance(a, np.ndarray) and a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


def _dual_of(fam):
    """The dual as held; MissingDualError when the family has none."""
    if fam.dual is None:
        raise MissingDualError("this diagnostic needs the dual family")
    return fam.dual


def _kept_inverse(s):
    """(1/s where |s| > RANK_RTOL max|s| and 0 elsewhere, kept count).  A
    reciprocal that overflows raises ContinuityError."""
    top = np.max(np.abs(s)) if s.size else 0.0
    keep = np.abs(s) > (RANK_RTOL * top if top > 0 else np.inf)
    inv = np.zeros_like(s)
    with np.errstate(over="ignore"):
        inv[keep] = 1.0 / s[keep]
    if not np.isfinite(inv).all():
        raise ContinuityError("the pseudo-inverse overflows: smallest kept "
                              f"singular value {np.min(np.abs(s[keep])):.3g}")
    return inv, int(np.sum(keep))


def pseudo_inverse(matrix):
    """(A^+, rank) of an N x M matrix from one thin SVD, with singular
    values at or below RANK_RTOL times the largest counted as zero; a
    Diagonal is inverted entry by entry into a Diagonal, and a real array
    gives a real A^+ (`held_array`)."""
    if isinstance(matrix, Diagonal):
        inv, rank = _kept_inverse(matrix.d)
        return Diagonal(inv), rank
    a = held_array(matrix)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    inv, rank = _kept_inverse(s)
    return (vh.conj().T * inv) @ u.conj().T, rank


# -- biorthogonality ---------------------------------------------------------

def biorthogonality_residual(fam):
    """max over (n, k) of |<zeta_n, xi_k> - delta_nk|."""
    z = _dual_of(fam)
    with np.errstate(over="ignore", invalid="ignore"):
        # The (k, n) entry of Xi^H Z equals <zeta_n, xi_k>.
        res = max_deviation(fam.family.conj().T @ z)
    if not np.isfinite(res):
        raise ValidationError(
            "non-finite biorthogonality residual: the family-dual pairings "
            "overflow")
    return res


# -- analysis / frame ---------------------------------------------------------

def analysis(fam, eta):
    """Coefficient map eta -> {conj(<zeta_k, eta>)}_k as a length-M array."""
    z = _dual_of(fam)
    v = coords_of(eta)
    if v.shape[0] != fam.dim:
        raise DimensionError("analysis input does not match the model dimension")
    return z.conj().T @ v


def frame_operator(fam):
    """Synthesis after analysis, eta -> sum_k conj(<zeta_k, eta>) zeta_k:
    the positive map Z Z^H, kept as the factor pair (Z, Z) with its
    (1, -1) certificate."""
    return _family_map(fam, "dual", "dual", (1, -1))


def dual_row_masses(fam):
    """sum_n |zeta_n[k]|^2 for each k, the quadratic form <S e_k, e_k> of
    the frame operator S = Z Z^H on the canonical directions."""
    z = _dual_of(fam)
    if isinstance(z, Diagonal):
        return z.d ** 2
    return np.sum(z.real ** 2 + z.imag ** 2, axis=1)


# -- Bessel-type bounds ------------------------------------------------------

def dual_level_norm(fam, j):
    """sigma_max(scale(-j) Z), the norm of a -> sum_k a_k zeta_k from l2
    into level -j; its square is the level-j Bessel bound.  Read from the
    family's `sigma`, for the Bessel bounds and metric level constants."""
    return float(np.max(fam.sigma(-j, "dual"), initial=0.0))


def _check_level(fam, j):
    if not 1 <= j <= fam.triplet.levels:
        raise LevelError(f"Bessel level {j} outside [1, {fam.triplet.levels}]")


def bessel_bound(fam, j):
    """Supremum of sum_k |<zeta_k, eta>|^2 over the level-j unit ball:
    the squared `dual_level_norm`, exact at truncation.  A square that
    overflows raises ContinuityError."""
    _dual_of(fam)
    _check_level(fam, j)
    norm = dual_level_norm(fam, j)
    bound = norm * norm
    if not np.isfinite(bound):
        raise ContinuityError(f"the level-{j} Bessel bound overflows")
    return bound


def _lanczos_top(apply, m, tol, seed, what, absolute=False):
    """(ritz, residual, steps) for the top eigenvalue of a positive
    semidefinite M x M operator A, seen only through `apply(v)` = A v, by
    Lanczos with full reorthogonalization from one seeded complex start
    vector.  After step k, `ritz` is the top eigenvalue theta of the k x k
    tridiagonal and `residual` the bound beta_k |e_k^T y| on
    |A x - theta x| for its Ritz vector x; an eigenvalue of A lies within
    `residual` of `ritz`, and Ritz values never exceed the largest one.
    The iteration stops once residual <= tol (min(theta, 1) + theta), on
    an invariant subspace (beta_k = 0) or at k = M.  That is tol (1 +
    theta) from theta = 1 up and relative below, so a Ritz value far
    below 1 is not taken for converged while it still lies near a smaller
    eigenvalue; `absolute` keeps tol (1 + theta) throughout.  A non-finite
    product raises ContinuityError naming `what`."""
    if m == 0:
        return 0.0, 0.0, 0
    real, imag = np.random.default_rng(seed).standard_normal((2, m))
    v = real + 1j * imag
    v /= np.linalg.norm(v)
    # Row k is the k-th Lanczos vector; the rows double when they run out,
    # so memory follows the steps taken (later rows are never read).
    basis = np.empty((min(m, 16), m), dtype=complex)
    alpha, beta = [], []
    for k in range(m):
        if k == basis.shape[0]:
            basis = np.concatenate([basis, np.empty_like(basis[:m - k])])
        basis[k] = v
        # Overflow is reported below, not by numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            w = apply(v)
        if not np.isfinite(w).all():
            raise ContinuityError(f"non-finite values in {what}")
        alpha.append(np.vdot(v, w).real)
        done = basis[:k + 1]
        for _ in range(2):  # twice is enough for orthogonality
            w -= (done.conj() @ w) @ done
        # beta from w times a power of two near 1 / max|w|, exact both
        # ways, so that the sum of squares cannot overflow.
        unit = 2.0 ** -np.frexp(np.max(np.abs(w)))[1]
        beta.append(float(np.linalg.norm(w * unit) / unit))
        tri = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
        theta, y = np.linalg.eigh(tri)
        ritz, residual = float(theta[-1]), beta[-1] * float(abs(y[-1, -1]))
        floor = 1.0 if absolute else min(ritz, 1.0)
        if residual <= tol * (floor + ritz) or beta[-1] == 0.0:
            break
        v = w / beta[-1]
    return ritz, residual, k + 1


def bessel_bound_lanczos(fam, j, tol, seed):
    """(ritz, residual, steps) of `_lanczos_top` on S^H S, S = scale(-j, Z):
    the level-j Bessel bound attained from products with S and S^H alone,
    so sharing no step with the SVD behind `bessel_bound`."""
    _check_level(fam, j)
    s = fam.scaled(-j, "dual")
    s_h = s.conj().T
    return _lanczos_top(lambda v: s_h @ (s @ v), fam.size,
                        tol, seed, f"the level-{j} Bessel products")


def bessel_bound_sampled(fam, j, samples=10000, seed=0):
    """Brute-force companion of `bessel_bound` over random unit-ball points.

    The Rayleigh ratio |A u|^2 / |u|^2 of a circular Gaussian point u keeps
    its law under unitary changes of coordinates, so a point is drawn only
    where A = scale(-j, Z)^H sees it: c in C^r, r = min(M, N), in the
    reduced QR factor Q of scale(-j, Z), plus the squared norm of its
    remainder orthogonal to Q, a chi-square with 2 (N - r) degrees of
    freedom.  Never exceeds the singular value answer.
    """
    _check_level(fam, j)
    s = np.asarray(fam.scaled(-j, "dual"))
    q = np.linalg.qr(s)[0]
    rank = q.shape[1]
    op = s.conj().T @ q
    op_re = np.ascontiguousarray(op.real)
    op_im = np.ascontiguousarray(op.imag) if np.iscomplexobj(op) else None
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
    from real products and without complex copies of the draws; a real op
    (op_im None) skips the two products with its zero imaginary part."""
    out_re, out_im = op_re @ u_re, op_re @ u_im
    if op_im is not None:
        out_re -= op_im @ u_im
        out_im += op_im @ u_re
    # The images are this call's own: square and add them in place.
    np.square(out_re, out=out_re)
    np.square(out_im, out=out_im)
    out_re += out_im
    return np.sum(out_re, axis=0)


def bessel_factor(fam):
    """The map Z E_M^H sending e_n to zeta_n, kept as the factor pair
    (Z, E_M), E_M the first M canonical columns.  Its (0, -1) certificate
    squared reproduces the level-1 Bessel bound (factorization)."""
    return _family_map(fam, "dual", "canonical", (0, -1))


# -- Riesz-Fischer-type check ------------------------------------------------

@dataclass(frozen=True)
class RieszFischerResult:
    """Outcome of the flattening check S xi_n = e_n.

    ok : the family admits a continuous flattening at this truncation
    flatten : minimal-norm S = E_M Xi^+, kept as the factors (E_M, (Xi^+)^H)
    residual : max |Xi^+ Xi - I_M|, the defect of S Xi = E_M Xi^+ Xi
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

    At truncation it exists iff the family has full column rank (a
    negative verdict otherwise, not an exception).  S is the minimal-norm
    E_M Xi^+, and the recovered dual zeta_k = S^H e_k is biorthogonal by
    construction; other duals exist when the family is not total.
    """
    xi = fam.family
    pinv, rank = fam.pinv_rank
    residual = max_deviation(pinv @ xi)
    flatten = _family_map(fam, "canonical", "inverse", (1, 0))
    ok = rank == fam.size
    if ok:
        out = fam if fam.dual is not None else \
            SequenceFamily(xi, fam.triplet, dual=flatten.right)
        note = ("minimal-norm dual recovered; other duals exist when the "
                "family is not total")
    else:
        out = fam
        note = "family is not linearly independent at this truncation"
    return RieszFischerResult(ok, flatten, residual, rank, out, note)


# -- dual-side analysis ------------------------------------------------------

@dataclass(frozen=True)
class DualAnalysisResult:
    """Pairings {<phi, xi_k>}_k of a dual vector against the family, their
    squared l2 mass, the family's column rank and whether it is full
    (the map is then onto the coefficient space)."""

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
    rank = fam.pinv_rank[1]
    return DualAnalysisResult(coeffs, float(np.sum(np.abs(coeffs) ** 2)),
                              rank, rank == fam.size)


# -- partial sums and weak expansions ---------------------------------------

def _order_input(fam, n, x):
    """The dual and the coordinates of x for an expansion of order n."""
    z = _dual_of(fam)
    if not 0 <= n <= fam.size:
        raise DimensionError(f"expansion order {n} outside [0, {fam.size}]")
    v = coords_of(x)
    if v.shape[0] != fam.dim:
        raise DimensionError("expansion input does not match the model")
    return z, v


def partial_sum(fam, f, n):
    """S_n f = sum_{k<=n} conj(<zeta_k, f>) xi_k, a vector on the smooth side."""
    z, v = _order_input(fam, n, f)
    return _leading(fam.family, n) @ (_leading(z, n).conj().T @ v)


def weak_expansion_residual(fam, psi, f, n):
    """|<psi, f> - sum_{k<=n} <psi, xi_k> <zeta_k, f>|, the order-n defect
    of the weak expansion (0 at n = M for a biorthogonal square family)."""
    z, v = _order_input(fam, n, f)
    p = coords_of(psi)
    a = _leading(fam.family, n).conj().T @ p  # <psi, xi_k>
    b = np.conj(_leading(z, n).conj().T @ v)  # <zeta_k, f>
    return float(abs(pairing(p, v) - np.sum(a * b)))


def partial_sum_residuals(fam, f):
    """||f - S_n f|| for n = 0..M, the reconstruction ladder.

    For a Diagonal family S_n f keeps the coordinates a_k xi_k, k < n, so
    the squared residual is a prefix sum of |f_k - a_k xi_k|^2 plus a
    suffix sum of |f_k|^2, both of nonnegative terms.
    """
    z, v = _order_input(fam, fam.size, f)
    a = z.conj().T @ v
    out = [float(np.linalg.norm(v))]
    if isinstance(fam.family, Diagonal):
        near = np.cumsum(np.abs(v - a * fam.family.d) ** 2)
        far = np.cumsum(np.abs(v[::-1]) ** 2)[::-1]
        return out + np.sqrt(near + np.append(far[1:], 0.0)).tolist()
    # Row n of the running sum of the a_k xi_k^T is (S_{n+1} f)^T.
    work = a[:, None] * fam.family.T
    np.cumsum(work, axis=0, out=work)
    np.subtract(v, work, out=work)
    return out + np.linalg.norm(work, axis=1).tolist()


# -- partial-sum domination probe -------------------------------------------

@dataclass(frozen=True)
class SchauderProbeResult:
    """Smallest level dominating earlier partial sums (None when even the
    top level fails DOMINATION_FACTOR), with each level's worst ratio."""

    q_level: int | None
    worst_ratio: float | None
    per_level: dict


def schauder_inequality_probe(fam, p_level, trials, seed):
    """Randomized partial-sum domination probe.

    Draws coefficient vectors and split points (n, n+m), each kind in one
    array call, and records per level q the worst ratio
    p_{p_level}(shorter sum) / p_q(longer sum).  The seed is mandatory so
    that reports reproduce bit for bit.
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
    x = fam.scaled(j)
    return np.asarray(x.conj().T @ x)
