"""Compensated floating-point primitives used by the closed-form spectra.

The separability and uncertainty margins of near-pure two-mode states are
tiny differences of products of large numbers (``b1*b2 - c**2`` with
``b ~ e^{2r}``), so evaluating them naively loses all significant digits
well before the squeeze parameter reaches 2.  The helpers here compute
``a*b - c*d`` and paired sums with an error term carried explicitly
(Dekker/Kahan style), which keeps those margins accurate to a few ulps of
the *result* instead of a few ulps of the operands.

The compensated helpers are written for ``float`` arguments, which they
get inside tight rejection-sampling and bisection loops where numpy
dispatch overhead dominates.  They use only correctly rounded ``+ - *``
in a fixed order, so on float64 numpy arrays they run elementwise and give
each element the bits its scalar call gives: ``_batch`` calls them that way.
"""

from __future__ import annotations

import math

# Splitter constant for Dekker's algorithm: 2**27 + 1 for binary64.
_SPLITTER = 134217729.0


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Return ``(s, e)`` with ``s = fl(a + b)`` and ``a + b = s + e`` exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def prod_diff(a: float, b: float, c: float, d: float) -> float:
    """Compute ``a*b - c*d`` with one compensated rounding.

    Relative accuracy is a few ulps of the exact difference even under
    heavy cancellation, whereas the naive expression is only accurate to
    ulps of the individual products.

    Dekker's split and two-product of each pair, then a two-sum of the
    two products, written out in one body: this is the hottest primitive
    (several calls per evolved row and per bisection step), and helper
    calls cost more than its arithmetic.
    """
    p1 = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    # The grouping keeps the error term symmetric under a <-> b swap, which
    # downstream code relies on for exact mode-exchange covariance.
    e1 = ((ah * bh - p1) + (ah * bl + al * bh)) + al * bl
    p2 = c * d
    t = _SPLITTER * c
    ch = t - (t - c)
    cl = c - ch
    t = _SPLITTER * d
    dh = t - (t - d)
    dl = d - dh
    e2 = ((ch * dh - p2) + (ch * dl + cl * dh)) + cl * dl
    # two_sum(p1, -p2); x - y is x + (-y) in IEEE arithmetic.
    s = p1 - p2
    bb = s - p1
    t = (p1 - (s - bb)) + (-p2 - bb)
    return s + (t + (e1 - e2))


def sum_sq_minus_4c2(b1: float, b2: float, c: float) -> float:
    """Compute ``(b1 + b2)**2 - 4*c**2`` without cancellation blow-up.

    The result is assembled as ``(s - 2c)*(s + 2c)`` on the exact sum
    ``s = b1 + b2`` so that the subtraction in the first factor happens
    between nearby numbers (Sterbenz-exact when within a factor of two),
    instead of between two huge squares.
    """
    s_hi, s_lo = two_sum(b1, b2)
    tc = 2.0 * c
    d = (s_hi - tc) + s_lo
    e = (s_hi + tc) + s_lo
    return d * e


def finite(*values: float) -> bool:
    """True when every argument is a finite float."""
    return all(map(math.isfinite, values))
