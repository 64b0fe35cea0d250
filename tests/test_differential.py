"""Every fast path against its definition, on generated models.

Each comparison of `reference.CHECKS` runs on the same derandomized
models from `reference.models`, for every frame and kind of family: a
real or complex family and its dual on a triplet of 1-3 levels with
weights from 1 to 1e6, N <= 24 and M <= N.  It runs again on the DFT
edge rows of `reference.EDGE_ROWS`: P = 1, 2, 7 and 8 with even weights,
and one weight off even.  A failure names the comparison in its
traceback and the drawn family in its hypothesis report.  An open-ended
search is a run with `derandomize=False`.
"""
import pytest
from hypothesis import given, settings, strategies as st

from reference import CHECKS, EDGE_ROWS, FRAMES, KINDS, keeps_real, models


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("frame", FRAMES)
@settings(max_examples=15)
@given(data=st.data())
def test_fast_path_matches_the_reference(frame, kind, data):
    fam = data.draw(models(frame, kind), label="family")
    for check in CHECKS.values():
        check(fam)


@pytest.mark.parametrize("row", sorted(EDGE_ROWS))
def test_dft_edge_rows_match_the_reference(row):
    fam = EDGE_ROWS[row]()
    assert fam.triplet.keeps_real is keeps_real(fam.triplet) \
        is row.startswith("even")
    for check in CHECKS.values():
        check(fam)
