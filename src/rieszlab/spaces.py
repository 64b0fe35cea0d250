"""Concrete models: Hermite functions on a line grid, a Sobolev-type
family built from them by the Sobolev triplet's own scalings, and two
coefficient-space models.

The grid is uniform on [-L, L) with a power-of-two point count, so the
discrete Fourier transform is exact on band-limited data and the weights
(1 + y^2)^{s/2} realize (I - d^2/dx^2)^{s/2} spectrally, in the triplet
and in `sobolev_multiplier`, its independent reference.
Quadrature on the grid is the rectangle rule, which is exponentially
accurate for smooth decaying functions; all accuracy claims are checked,
not assumed: `hermite_values` checks support, `hermite_grid` aliasing
and zero columns (doubling the grid while either fails) and
`sobolev_model` the round trip, and each raises when its check cannot
be met.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, SupportError, ValidationError
from .riesz import make_riesz_basis, strictness_report
from .sequences import SequenceFamily
from .triplet import Diagonal, WeightedTriplet

#: Spectral-mass fraction allowed in the top third of the frequency band.
ALIASING_TOL = 1e-10

#: Estimated basis-function mass outside the window that triggers a
#: support failure.
SUPPORT_TOL = 1e-12

#: Largest quadrature-norm defect of the multiplier round trip
#: phi_n -> xi_n -> phi_n accepted by the Sobolev construction.
CONSTRUCTION_TOL = 1e-10

_MAX_POINTS = 2 ** 16

#: Dimensions of the strictness and admissibility ladders.
DEFAULT_LADDER = (8, 16, 32, 64)


@dataclass(frozen=True)
class LineGrid:
    """Uniform grid of P points on [-L, L), P a power of two.

    Nodes are x_j = -L + j * 2L/P, so x = 0 is always a node and the
    right endpoint is excluded (the FFT's periodic convention).
    """

    half_width: float
    points: int

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValidationError("half width must be positive")
        if not np.isfinite(self.half_width):
            raise ValidationError("half width must be finite")
        p = int(self.points)
        if p < 2 or p & (p - 1):
            raise ValidationError("point count must be a power of two >= 2")
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "half_width", float(self.half_width))
        if not np.isfinite(self.spacing):
            raise ValidationError(
                f"half width {self.half_width:g} overflows the grid spacing")

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.points

    @property
    def nodes(self):
        return -self.half_width + self.spacing * np.arange(self.points)

    @property
    def angular_frequencies(self):
        """Angular frequencies in FFT order; the band edge is pi/spacing."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)


@dataclass(frozen=True)
class SampledFunction:
    """Grid samples of a function on the line."""

    grid: LineGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.points,):
            raise DimensionError("sample count does not match the grid")
        object.__setattr__(self, "values", vals)

    def norm(self):
        """Quadrature L2 norm on the grid."""
        return float(np.sqrt(self.grid.spacing) * np.linalg.norm(self.values))

    def inner(self, other):
        """Quadrature L2 inner product, linear in self."""
        if other.grid != self.grid:
            raise DimensionError("functions live on different grids")
        return complex(self.grid.spacing * np.vdot(other.values, self.values))


# -- Hermite functions -------------------------------------------------------

def default_half_width(count):
    """Window rule max(20, 2 sqrt(2M + 1)): twice the classical turning
    point of the highest requested function, with a generous floor."""
    return float(max(20.0, 2.0 * np.sqrt(2.0 * count + 1.0)))


def _support_residual(grid, column):
    # Mass near the window edge plus a Gaussian-tail extrapolation of the
    # boundary values in the band (the right endpoint is excluded, so on 2
    # points the last node is x = 0); grids cannot see beyond themselves,
    # so this proxy stands in for the mass genuinely outside [-L, L].
    band = np.abs(grid.nodes) >= 0.85 * grid.half_width
    tail = grid.spacing * float(np.sum(np.abs(column[band]) ** 2))
    edge = (abs(column[0]) ** 2 + band[-1] * abs(column[-1]) ** 2) \
        / (2.0 * max(grid.half_width, 1.0))
    return tail + float(edge)


def hermite_values(grid, count, support_tol=SUPPORT_TOL):
    """First `count` orthonormal Hermite functions, sampled as columns.

    Uses the normalized three-term recurrence
        phi_0 = pi^(-1/4) exp(-x^2/2),
        phi_1 = sqrt(2) x phi_0,
        phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1},
    which is stable in the function normalization (no factorial blow-up).
    Each column's window-support residual must stay below `support_tol`;
    a coarse grid may leave a column 0 on every node (see `hermite_grid`).
    """
    if count < 1:
        raise ValidationError("need at least one basis function")
    x = grid.nodes
    out = np.empty((grid.points, count))
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is exact
        out[:, 0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        out[:, 1] = np.sqrt(2.0) * x * out[:, 0]
    for n in range(1, count - 1):
        out[:, n + 1] = (np.sqrt(2.0 / (n + 1)) * x * out[:, n]
                         - np.sqrt(n / (n + 1.0)) * out[:, n - 1])
    for n in range(count):
        res = _support_residual(grid, out[:, n])
        if not res <= support_tol:
            raise SupportError(
                f"half width {grid.half_width:g} too small for basis "
                f"function {n} (window-support residual {res:.2e})")
    return out


def _refuse_zero_columns(grid, vals):
    """Raise SupportError when a sampled column is 0 on every node."""
    zero = np.flatnonzero(~vals.any(axis=0))
    if zero.size:
        raise SupportError(
            f"half width {grid.half_width:g} is too wide for {grid.points} "
            f"points: basis function {zero[0]} is 0 on every node (spacing "
            f"{grid.spacing:.3g})")


def hermite_gram(grid, count):
    """Quadrature Gram matrix of the first `count` Hermite functions."""
    vals = hermite_values(grid, count)
    return grid.spacing * (vals.T @ vals)


def aliasing_fraction(grid, values):
    """Fraction of squared spectral mass in the top third of the band, of
    a sample vector, or of each column of a P x K array from one FFT.

    Spectral operations are only trusted when this is tiny; the builders
    check it against the declared tolerance and double the grid if needed.
    """
    spec = np.fft.fft(np.asarray(values, dtype=complex), axis=0)
    high = np.abs(grid.angular_frequencies) >= (2.0 / 3.0) * np.pi / grid.spacing
    # A column is summed as a contiguous row, in the order of a lone vector.
    total, top = (np.sum(np.abs(s.T, order="C") ** 2, axis=-1)
                  for s in (spec, spec[high]))
    return top / np.where(total == 0.0, 1.0, total)  # top <= total


def hermite_grid(count, half_width=None, points=1024, support_tol=SUPPORT_TOL,
                 aliasing_tol=ALIASING_TOL):
    """(grid, columns, aliasing): a grid on which the first `count` Hermite
    functions are well resolved, their `hermite_values` columns on it, and
    the worst aliasing fraction among those columns.

    Starts from the default window rule and the requested point count,
    doubling the points (up to 2^16) while any basis column is 0 on every
    node or leaves more than `aliasing_tol` of its spectral mass in the
    top third of the band.  Support failures of `hermite_values`
    propagate without refinement.  Both function-space examples take
    their grid from here.
    """
    hw = default_half_width(count) if half_width is None else float(half_width)
    p = int(points)
    while True:
        grid = LineGrid(hw, p)
        vals = hermite_values(grid, count, support_tol)
        worst = float(np.max(aliasing_fraction(grid, vals)))
        if worst <= aliasing_tol and vals.any(axis=0).all():
            return grid, vals, worst
        if 2 * p > _MAX_POINTS:
            _refuse_zero_columns(grid, vals)
            raise SupportError(
                f"half width {hw:g} is too wide for {p} points: the aliasing "
                f"check keeps failing (worst fraction {worst:.2e})")
        p *= 2


# -- Sobolev multiplier and family ------------------------------------------

def sobolev_multiplier(grid, order, f):
    """Apply (I - d^2/dx^2)^(order/2) spectrally: multiply the transform
    by (1 + y^2)^(order/2).

    `f` is a sampled function, a length-P sample vector, or a P x K array
    of sample columns; columns share one FFT pair along axis 0.  A single
    function comes back as a SampledFunction, a column array as a P x K
    array.  Self-adjoint and positive for the quadrature inner product;
    order 0 is the identity and opposite orders invert each other exactly
    up to roundoff.
    """
    vals = f.values if isinstance(f, SampledFunction) else np.asarray(f, complex)
    if vals.ndim not in (1, 2) or vals.shape[0] != grid.points:
        raise DimensionError("sample count does not match the grid")
    mult = (1.0 + grid.angular_frequencies ** 2) ** (order / 2.0)
    if vals.ndim == 2:
        mult = mult[:, None]
    out = np.fft.ifft(mult * np.fft.fft(vals, axis=0), axis=0)
    return SampledFunction(grid, out) if out.ndim == 1 else out


def sobolev_triplet(grid):
    """Weighted triplet whose level-1 norm is ||(I - d^2/dx^2)^{1/2} f||:
    weights (1 + y^2)^{1/2} over the FFT frequencies in the DFT frame."""
    weights = np.sqrt(1.0 + grid.angular_frequencies ** 2)
    return WeightedTriplet.fourier(weights, 1)


def sobolev_basis(grid, count):
    """Family xi_n = (I - d^2/dx^2)^{-1/2} phi_n over the Sobolev triplet,
    with dual (I - d^2/dx^2)^{+1/2} phi_n, on the caller's grid; see
    `sobolev_model`.  A column 0 on every node is refused."""
    phis = hermite_values(grid, count)
    _refuse_zero_columns(grid, phis)
    return sobolev_model(grid, phis)[0]


def sobolev_model(grid, phis):
    """(family, round_trip): `sobolev_basis` from the Hermite columns
    `phis` on `grid`: xi_n = S_-1 and zeta_n = S_1 of sqrt(h) phi_n in the
    triplet, so biorthogonality is the Hermite quadrature Gram.  round_trip,
    the worst defect of S_1 xi_n against sqrt(h) phi_n, fills the level-1
    memo; a defect above CONSTRUCTION_TOL raises."""
    tri = sobolev_triplet(grid)
    src = np.sqrt(grid.spacing) * phis
    fam = SequenceFamily(tri.scale(-1, src), tri, dual=tri.scale(1, src))
    defects = np.linalg.norm(fam.scaled(1) - src, axis=0)
    failed = np.flatnonzero(~(defects <= CONSTRUCTION_TOL))
    if failed.size:
        n = int(failed[0])
        raise ValidationError(
            f"multiplier round trip failed for function {n} "
            f"(defect {defects[n]:.2e})")
    return fam, float(np.max(defects))


# -- coefficient-space models ------------------------------------------------

def number_operator_rule(levels):
    """Rule n -> number-operator basis (w_k = k, T = diag(1..n)) at
    `levels`, shared by the model and its strictness ladder."""
    def rule(n):
        w = np.arange(1, n + 1, dtype=float)
        tri = WeightedTriplet(n, w, levels)
        return make_riesz_basis(Diagonal(w), tri)

    return rule


def number_operator_model(dim, levels=1, ladder=DEFAULT_LADDER):
    """Diagonal model: weights w_k = k, transform T = diag(k), family
    xi_k = e_k / k and dual zeta_k = k e_k, all held as Diagonals.  The
    attached ladder verdict is strict at one level (all constants 1) and
    non-strict from two (the top-level constant grows like N^2)."""
    rule = number_operator_rule(levels)
    basis = rule(int(dim))
    report = strictness_report(rule, ladder)
    return basis.triplet, replace(basis, strict=report.verdict)


def schwartz_hermite_model(dim, levels=1):
    """Coefficient-space model of rapidly decreasing Hermite expansions:
    weights w_k = k, and the identity family, held as a Diagonal, is its
    own dual, so biorthogonality is exact and the level-1 Bessel bound 1."""
    w = np.arange(1, int(dim) + 1, dtype=float)
    tri = WeightedTriplet(int(dim), w, levels)
    ones = np.ones(int(dim))
    return tri, SequenceFamily(Diagonal(ones), tri, dual=Diagonal(ones))
