"""Log-log trend fitting for ladder diagnostics.

Statements about the untruncated model are reduced, at finite size, to
growth or decay trends of a quantity sampled over an increasing ladder
of dimensions.  The fitted slope of log(value) against log(N) is
compared against a declared threshold; slopes straddling the threshold
within a relative band are reported as inconclusive rather than forced
to a side.  `checked_ladder` is the one rule for what a ladder may be.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

#: Slope threshold and its relative straddle band (`classify_growth`), and
#: the shortest ladder a trend class may rest on (`fit_trend`).
GROWTH_THRESHOLD = 0.5
STRADDLE_BAND = 0.1
MIN_LADDER_POINTS = 4

_FLOOR = 1e-300


def checked_ladder(ladder):
    """The ladder as a tuple of plain ints: nonempty, strictly increasing,
    every rung an integer >= 1.  A qualifying tuple comes back as is."""
    try:
        rungs = tuple(ladder)
    except TypeError as exc:
        raise ValidationError("ladder must be a list of integers") from exc
    if not rungs or any(n is None for n in rungs):
        raise ValidationError("ladder needs positive dimensions")
    for n in rungs:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValidationError(f"ladder entry must be an integer, got {n!r}")
        if n < 1:
            raise ValidationError(f"ladder entry must be at least 1, got {n}")
    if any(b <= a for a, b in zip(rungs, rungs[1:])):
        raise ValidationError("ladder must be strictly increasing")
    if any(type(n) is not int for n in rungs):
        rungs = tuple(map(int, rungs))
    return rungs


def loglog_slope(ns, values):
    """Least-squares slope of log(values) against log(ns).

    Values are clipped away from zero so exact zeros (a fully converged
    residual, say) read as steep decay instead of raising.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.clip(np.abs(np.asarray(values, dtype=float)), _FLOOR, None)
    if ns.size != vals.size:
        raise ValueError("ladder and value arrays must have equal length")
    if ns.size < 2:
        raise ValueError("need at least two ladder points to fit a slope")
    return float(np.polyfit(np.log(ns), np.log(vals), 1)[0])


def classify_growth(slope):
    """Classify a fitted slope as 'bounded', 'growing' or 'inconclusive'."""
    lo = GROWTH_THRESHOLD * (1.0 - STRADDLE_BAND)
    hi = GROWTH_THRESHOLD * (1.0 + STRADDLE_BAND)
    if slope < lo:
        return "bounded"
    if slope > hi:
        return "growing"
    return "inconclusive"


def fit_trend(ladder, values):
    """(slope, class) along a ladder; one rung gives (None, "inconclusive"),
    and fewer than MIN_LADDER_POINTS rungs a slope classed "inconclusive"."""
    if len(ladder) < 2:
        return None, "inconclusive"
    slope = loglog_slope(ladder, values)
    short = len(ladder) < MIN_LADDER_POINTS
    return slope, "inconclusive" if short else classify_growth(slope)
