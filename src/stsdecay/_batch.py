"""The elementwise operations of the kernels on float64 arrays, and the numpy batch rows of the ``evolve`` table.

``_Arrays`` holds the names of ``core._Floats`` for float64 arrays, so one
kernel runs on floats and on stacks, and each element gets the bits of its
scalar call: the kernels use only IEEE operations that round once (``+ -
* /``, ``sqrt``, comparisons), which numpy rounds as Python does, and
libm's functions, mapped over the arrays (``_libm``), as numpy's ``exp``,
``log1p`` and the like differ from libm in the last bit on a few percent
of inputs.  Its ``branch`` raises ``_Fallback`` where any element takes a
branch or a refusal of its own; the caller then hands the whole stack to
the scalar kernel, whose special branches, error messages and partial
output they are.

``evolve_rows`` takes one writer chunk of times and returns its rows, the
same floats and spelled verdicts that ``_evolve_table.scalar_rows`` yields
one at a time, for ``cli._emit_rows`` to write, or None for a chunk that
is the scalar rows': one with a product (c = 0) or pure row, a row that
would be refused, or one that would print a non-finite number.

Importing this module imports numpy; ``cli`` does so only for the grids
where the batch pays for that import, and ``verification`` for its stacks.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator

import numpy as np

from .core import StandardForm, _bona_fide, _h_offset
from .correlations import _measures
from .dynamics import ReservoirConfig, _evolved_entries


class _Fallback(Exception):
    """Some element of a stack takes a branch or a refusal of its own."""


def _libm(f, *xs: np.ndarray) -> np.ndarray:
    """The float function ``f`` applied elementwise to the arrays ``xs``."""
    return np.fromiter(map(f, *(x.tolist() for x in xs)), float, len(xs[0]))


class _Arrays:
    """``core._Floats`` on float64 arrays; Python's ``max(a, b)`` is ``b`` where ``b > a``, else ``a``."""

    sqrt, isfinite, select, not_ = np.sqrt, np.isfinite, np.where, np.logical_not
    exp, expm1, hypot, cosh, sinh, h = (
        functools.partial(_libm, f) for f in (math.exp, math.expm1, math.hypot, math.cosh, math.sinh, _h_offset)
    )

    @staticmethod
    def branch(cond) -> bool:
        """False, or ``_Fallback`` raised where any element of ``cond`` is true."""
        if np.any(cond):
            raise _Fallback
        return False

    @staticmethod
    def max(a, b):
        return np.where(b > a, b, a)

    @staticmethod
    def min(a, b):
        return np.where(b < a, b, a)


def evolve_rows(
    sf0: StandardForm, res: ReservoirConfig, times: list[float], scale: Callable[[np.ndarray], np.ndarray]
) -> Iterator[tuple] | None:
    """Rows ``(t, b1, b2, c, ef, d1, d2, mi, separable)`` of one chunk, or None.

    ``scale`` converts the four measures to the table's units.  None
    leaves the whole chunk to the scalar rows: some row is a product or
    pure state, is refused there, or prints a non-finite number.
    """
    t = np.array(times, dtype=float)
    try:
        with np.errstate(all="ignore"):
            b1, b2, c = _evolved_entries(sf0, res, t, _Arrays)
            b1, b2 = _bona_fide(b1, b2, c, _Arrays)
            ef, d1, d2, mi, separable, _, _, _, _ = _measures(b1, b2, c, None, _Arrays)
            measures = [scale(value) for value in (ef, d1, d2, mi)]
    except _Fallback:
        return None
    if not np.isfinite(measures).all():
        return None
    return zip(*(x.tolist() for x in (t, b1, b2, c, *measures)), np.where(separable, "true", "false").tolist())
