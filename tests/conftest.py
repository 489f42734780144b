"""Session settings, and helpers that several test modules share.

Hypothesis draws the same examples on every run.
"""

from stsdecay._accurate import prod_diff
from stsdecay.core import _is_pure

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
    settings.load_profile("derandomized")


def bona_fide_margin(sf):
    """Signed margin ``(b_max + 1/2)*(b_min - 1/2) - c^2`` that StandardForm checks; >= 0 up to rounding when physical."""
    return prod_diff(max(sf.b1, sf.b2) + 0.5, min(sf.b1, sf.b2) - 0.5, sf.c, sf.c)


def pure(sf):
    """True when ``sf`` takes the pure branch of ``correlations._measures``: a squeezed vacuum up to rounding."""
    b1, b2, c = sf.b1, sf.b2, sf.c
    return _is_pure(b1, b2, c, prod_diff(b1, b2, c, c))
