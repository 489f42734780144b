"""The bisection step's sign test decides as the compensated separability margin does."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stsdecay._accurate import prod_diff
from stsdecay.dynamics import _margin_is_negative

# Entries as the bisection forms them (b(t) - 1/2, rounded slightly
# negative near the vacuum), and at the ends of the double range.
ENTRIES = st.one_of(
    st.floats(-(2.0**-40), 0.0),
    st.floats(5e-324, 2.0**-1022),
    st.floats(1e-300, 1e-290),
    st.floats(1e290, 1.4e300),
    st.floats(0.0, 1e6),
)


def _in_range(x, y):
    """The precondition of the sign test: Dekker's split of x and y does not overflow."""
    return math.isfinite(134217729.0 * x) and math.isfinite(134217729.0 * y)


@settings(max_examples=1000)
@given(x=ENTRIES, y=ENTRIES, ulps=st.integers(-3, 3))
def test_sign_test_at_the_separability_threshold(x, y, ulps):
    # c^2 within a few ulps of x*y: the margin is rounding-size, and the
    # products' exact errors decide its sign.
    assume(_in_range(x, y))
    c = math.sqrt(abs(x * y))
    for _ in range(abs(ulps)):
        c = math.nextafter(c, math.inf if ulps > 0 else 0.0)
    assert _margin_is_negative(x, y, c) == (prod_diff(x, y, c, c) < 0.0)


@settings(max_examples=500)
@given(x=ENTRIES, y=ENTRIES, c=ENTRIES)
def test_sign_test_on_unrelated_entries(x, y, c):
    assume(_in_range(x, y))
    assert _margin_is_negative(x, y, c) == (prod_diff(x, y, c, c) < 0.0)
