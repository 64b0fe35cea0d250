"""Every fast path against its definition, on generated models.

Each comparison of `reference.CHECKS` runs on the same derandomized
models from `reference.models`, for every frame and kind of family: a
family and its dual on a triplet of 1-3 levels with weights from 1 to
1e6, N <= 24 and M <= N.  A failure names the comparison in its
traceback and the drawn family in its hypothesis report.  An open-ended
search is a run with `derandomize=False`.
"""
import pytest
from hypothesis import given, settings, strategies as st

from reference import CHECKS, FRAMES, KINDS, models


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("frame", FRAMES)
@settings(max_examples=15)
@given(data=st.data())
def test_fast_path_matches_the_reference(frame, kind, data):
    fam = data.draw(models(frame, kind), label="family")
    for check in CHECKS.values():
        check(fam)
