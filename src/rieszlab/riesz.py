"""Bases carried onto the canonical orthonormal basis by an injective map.

A continuous injective map T with T xi_n = e_n determines the family
xi_n = T^{-1} e_n, the dual zeta_n = T^H e_n, and the coefficient
seminorm (the l2 mass of the dual pairings, which equals ||T f||).  The
strict/non-strict dichotomy asks whether T^{-1} stays continuous back
from the Hilbert space; at truncation this becomes a growth question for
scaled singular values over a dimension ladder, and a strict verdict
collapses the whole ladder onto a single Hilbert triplet whose +1 inner
product is <T . , T .>.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InjectivityError, StateError, ValidationError
from .sequences import (BIORTH_TOL, DOMINATION_FACTOR, LinearMap,
                        SequenceFamily, _as_map, _dual_of, _family_map,
                        _require_finite, analysis, biorthogonality_residual,
                        dual_analysis, dual_level_norm, max_deviation,
                        pseudo_inverse)
from .trends import MIN_LADDER_POINTS, checked_ladder, fit_trend
from .triplet import Diagonal, WeightedTriplet, coords_of

#: Largest |<S f, f> - sum |a_k|^2| the metric check accepts.
POSITIVITY_TOL = 1e-8

#: Largest entry of the realized Gram defects a strict basis may leave.
GRAM_TOL = 1e-8

#: Random coefficient vectors the metric positivity check draws.
METRIC_SAMPLES = 50


@dataclass(frozen=True)
class RieszBasis:
    """A transported basis: the transform T as declared, a `Diagonal` or
    an ndarray held by the dtype rule of `triplet.held_array`, and the
    family xi_n = T^{-1} e_n with its dual zeta_n = T^H e_n; `triplet` is
    the family's.

    `strict` is a tri-state ladder verdict ("strict", "non-strict",
    "inconclusive"); fresh constructions start inconclusive because a
    single truncation cannot decide the dichotomy.
    """

    transform: np.ndarray | Diagonal
    fam: SequenceFamily
    strict: str = "inconclusive"

    def __post_init__(self):
        if self.strict not in ("strict", "non-strict", "inconclusive"):
            raise ValidationError(f"unknown strictness verdict {self.strict!r}")

    triplet = property(lambda self: self.fam.triplet)


def make_riesz_basis(transform, triplet):
    """Build the basis xi_n = T^{-1} e_n with dual zeta_n = T^H e_n.

    `transform` is a square injective map T in `triplet`'s dimension, an
    array-like or a `Diagonal`, which gives Diagonal family and dual; it
    is held as declared and rejected when its rank falls short.  The
    identities T Xi = I, Z = T^H and T^H T Xi = Z hold by construction up
    to the inversion's roundoff.  The basis carries no certificate of T:
    ||T||_{1->0} is the dual's level-1 norm, `dual_level_norm(basis.fam, 1)`.
    """
    a = _as_map(transform, triplet.keeps_real)
    if len(a.shape) != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("the transform must be square")
    if a.shape[0] != triplet.dim:
        raise DimensionError("transform size does not match the model dimension")
    xi, rank = pseudo_inverse(a)
    if rank < a.shape[1]:
        raise InjectivityError(
            f"transform is singular at this truncation (rank {rank} of "
            f"{a.shape[1]})")
    return RieszBasis(a, SequenceFamily(xi, triplet, dual=a.conj().T))


def adjoint_action(basis, g):
    """T^H g, which expands as sum_k g_k zeta_k over the dual family."""
    v = coords_of(g)
    if v.shape[0] != basis.triplet.dim:
        raise DimensionError("vector does not match the model dimension")
    return basis.transform.conj().T @ v


def transport_residuals(basis):
    """(|T Xi - I|, |Z - T^H|, |T^H T Xi - Z|), each the largest entry:
    the identities `make_riesz_basis` builds in, at their roundoff."""
    t, xi, z = basis.transform, basis.fam.family, _dual_of(basis.fam)
    return (max_deviation(t @ xi), max_deviation(z, t.conj().T),
            max_deviation(t.conj().T @ t @ xi, z))


def coefficient_seminorm(fam, f):
    """l2 mass of the dual pairings, (sum_k |<zeta_k, f>|^2)^{1/2}, which
    is ||T f|| for a transported basis."""
    return float(np.linalg.norm(analysis(fam, f)))


# -- metric operator --------------------------------------------------------

@dataclass(frozen=True)
class MetricCheckResult:
    """Joint check of the equivalent basis formulations through S xi_k = zeta_k.

    metric : S = Z Xi^+ with its (1, -1) certificate, kept as the factor
        pair (Z, (Xi^+)^H)
    positivity : worst |<S f, f> - sum |a_k|^2| over sampled f = Xi a
    p_zeta_level : smallest ladder level dominating the coefficient
        seminorm within DOMINATION_FACTOR (None if none does)
    level_constants : exact per-level domination constants (sup over all f)
    biorthogonality : residual of the family/dual pair
    verdict : "pass" when all three equivalent conditions check out
    """

    metric: LinearMap
    positivity: float
    p_zeta_level: int | None
    level_constants: dict
    biorthogonality: float
    verdict: str


def metric_operator_check(fam, seed=0, positivity_tol=POSITIVITY_TOL):
    """Build S with S xi_k = zeta_k and test the equivalent formulations.

    S is Z Xi^+ (a singular family is rejected).  The quadratic form
    <S f, f> must reproduce the squared coefficient mass of f = sum a_k
    xi_k, and some ladder level must dominate the coefficient seminorm;
    the level constants are exact scaled singular values, not samples.
    """
    z = _dual_of(fam)
    pinv, rank = fam.pinv_rank
    if rank == 0 or rank < fam.size:
        raise InjectivityError("family matrix is singular; S is not determined")
    metric = _family_map(fam, "dual", "inverse", (1, -1))

    # Row t holds re a and im a of sample t: the stream order of drawing
    # the samples one by one.
    draws = np.random.default_rng(seed).standard_normal(
        (METRIC_SAMPLES, 2, fam.size))
    a = draws[:, 0] + 1j * draws[:, 1]
    f = a @ fam.family.T
    form = np.sum(f.conj() * (f @ pinv.T @ z.T), axis=1)
    mass = np.sum(np.abs(a) ** 2, axis=1)
    worst = float(np.max(np.abs(form - mass), initial=0.0))

    constants = {j: dual_level_norm(fam, j)
                 for j in range(fam.triplet.levels + 1)}
    p_level = next((j for j in range(fam.triplet.levels + 1)
                    if constants[j] <= DOMINATION_FACTOR), None)

    bio = biorthogonality_residual(fam)
    ok = bio <= BIORTH_TOL and worst <= positivity_tol and p_level is not None
    return MetricCheckResult(metric, worst, p_level, constants, bio,
                             "pass" if ok else "fail")


# -- dual-range membership ---------------------------------------------------

@dataclass(frozen=True)
class RangeMembershipResult:
    """Ladder evidence for membership of a dual vector in T^H(H).

    sq_sums collects sum_k |<psi, xi_k>|^2 per ladder dimension;
    preimage_residuals checks ||T^H h - psi|| for the reconstructed
    preimage h (exact at truncation, so these stay at roundoff).  The
    in_range field is True/False/None for bounded/growing/straddling
    trends; a ladder shorter than MIN_LADDER_POINTS never decides it.
    """

    ladder: tuple
    sq_sums: tuple
    preimage_residuals: tuple
    slope: float | None
    trend: str
    in_range: bool | None


def range_membership(basis_rule, psi_rule, ladder):
    """Diagnose whether a dual-side vector lies in the adjoint's range.

    Parameters
    ----------
    basis_rule : callable N -> RieszBasis
        Per-dimension construction of the basis under study.
    psi_rule : callable N -> array_like
        Per-dimension coordinates of the probe vector.
    ladder : increasing dimensions to sample.
    """
    ladder = checked_ladder(ladder)
    sq_sums, defects = [], []
    for n in ladder:
        basis = basis_rule(n)
        psi = coords_of(psi_rule(n))
        res = dual_analysis(basis.fam, psi)
        h = res.coefficients  # preimage coordinates sum_k <psi, xi_k> e_k
        defect = float(np.linalg.norm(adjoint_action(basis, h) - psi))
        sq_sums.append(res.sq_sum)
        defects.append(defect)
    slope, trend = fit_trend(ladder, sq_sums)
    in_range = {"bounded": True, "growing": False}.get(trend)
    return RangeMembershipResult(ladder, tuple(sq_sums), tuple(defects),
                                 slope, trend, in_range)


# -- strictness -------------------------------------------------------------

def strictness_constants(fam):
    """Exact two-sided constants (lower, upper) of a family: lower is the
    squared smallest of `fam.sigma(1)`, the singular values of scale(1) @
    Xi, upper maps each level q to the squared largest of `fam.sigma(q)`.
    Overflow raises ContinuityError."""
    if fam.size > fam.dim:
        raise DimensionError("more columns than the dimension supports")
    squares = {}
    for q in range(fam.triplet.levels + 1):
        _require_finite(0, q, fam.scaled(q))
        with np.errstate(over="ignore", invalid="ignore"):
            squares[q] = fam.sigma(q) ** 2
        _require_finite(0, q, squares[q])
    lower = float(squares[1][-1]) if squares[1].size else 0.0
    upper = {q: float(s[0]) if s.size else 0.0 for q, s in squares.items()}
    return lower, upper


@dataclass(frozen=True)
class StrictnessReport:
    """Two-sided constants over a dimension ladder with the trend verdict.

    The verdict convention is declared, not proven: fitted log-log slopes
    classified by `trends.fit_trend`, which needs MIN_LADDER_POINTS ladder
    points; completeness beyond full column rank has no finite content, so
    the verdict speaks about trends only.
    """

    ladder: tuple
    lower: tuple
    upper: dict
    lower_slope: float | None
    upper_slopes: dict
    verdict: str
    note: str = ""


def strictness_report(basis_rule, ladder):
    """Fit growth trends of the two-sided constants across a ladder.

    Strict means the inverse lower constant and every level's upper
    constant stay bounded; any clearly growing trend is non-strict;
    straddling slopes or a window shorter than MIN_LADDER_POINTS stay
    inconclusive.  `basis_rule` returns a `RieszBasis` or a
    `SequenceFamily`, which covers families truncated by column count
    rather than rebuilt per dimension.
    """
    ladder = checked_ladder(ladder)
    lowers, uppers = [], {}
    for n in ladder:
        item = basis_rule(n)
        lo, up = strictness_constants(
            item.fam if isinstance(item, RieszBasis) else item)
        lowers.append(lo)
        for q, val in up.items():
            uppers.setdefault(q, []).append(val)
    upper = {q: tuple(v) for q, v in uppers.items()}
    if len(ladder) < 2:
        return StrictnessReport(ladder, tuple(lowers), upper, None, {},
                                "inconclusive",
                                "single truncation cannot exhibit a trend")
    inv_lower = [1.0 / max(v, 1e-300) for v in lowers]
    lower_slope, lower_class = fit_trend(ladder, inv_lower)
    fits = {q: fit_trend(ladder, v) for q, v in uppers.items()}
    upper_slopes = {q: slope for q, (slope, _) in fits.items()}
    classes = [lower_class, *(cls for _, cls in fits.values())]
    if "growing" in classes:
        verdict, note = "non-strict", "some constant grows along the ladder"
    elif all(c == "bounded" for c in classes):
        verdict, note = "strict", "all constants bounded along the ladder"
    elif len(ladder) < MIN_LADDER_POINTS:
        verdict, note = "inconclusive", (
            f"ladder shorter than the declared {MIN_LADDER_POINTS}-point "
            "window")
    else:
        verdict, note = "inconclusive", "a trend straddles the threshold band"
    return StrictnessReport(ladder, tuple(lowers), upper, lower_slope,
                            upper_slopes, verdict, note)


# -- Hilbert triplet realization --------------------------------------------

def _realized(basis):
    """(triplet, Gram defect, (+1, -1) Grams) of the collapse: the triplet
    whose level-1 seminorm is ||T f||, from T as held, and the Grams of
    family and dual that its own `scale` gives, (S_1 Xi)^H (S_1 Xi) and
    (S_-1 Z)^H (S_-1 Z), both the identity."""
    t = basis.transform
    if isinstance(t, Diagonal):  # |T| = diag(|d|): the canonical model
        tri = WeightedTriplet(t.shape[0], np.abs(t.d), 1, check_weights=False)
    else:
        _, s, vh = np.linalg.svd(t)
        tri = WeightedTriplet(t.shape[0], s, 1, vh.conj().T,
                              check_weights=False)
    grams = tuple(y.conj().T @ y for y in (tri.scale(1, basis.fam.family),
                                           tri.scale(-1, _dual_of(basis.fam))))
    return tri, max(map(max_deviation, grams)), grams


def realized_grams(basis):
    """(+1, -1) Gram matrices of family and dual in the realized triplet,
    under <T . , T .> and <|T|^{-1} . , |T|^{-1} .>: both the identity."""
    return tuple(np.asarray(g) for g in _realized(basis)[2])


def hilbert_triplet_realization(basis, gram_tol=GRAM_TOL):
    """Collapse a strict basis's ladder onto a single Hilbert triplet.

    The triplet's level-1 seminorm is ||T f||.  A `Diagonal` T = diag(d)
    realizes to the canonical triplet with weights |d|; any other T to
    its singular values (below 1 when sigma_min(T) < 1) in its
    right-singular-vector frame.  Only a strict basis may be realized, and
    the +-1 Gram identities are checked through the triplet's `scale`.
    """
    if basis.strict != "strict":
        raise StateError(
            f"realization needs a strict ladder verdict, have {basis.strict!r}")
    triplet, defect, _ = _realized(basis)
    if not defect <= gram_tol:
        raise ValidationError(
            f"realized Gram identities violated (defect {defect:.2e})")
    return triplet
