"""The elementwise operations of the kernels on float64 arrays, and ``stack``, which runs a kernel on them.

``_Arrays`` holds the names of ``core._Floats`` for float64 arrays, so one
kernel runs on floats and on stacks, and each element gets the bits of its
scalar call: the kernels use only IEEE operations that round once (``+ -
* /``, ``sqrt``, comparisons), which numpy rounds as Python does, and
libm's functions, mapped over the arrays (``_libm``), as numpy's ``exp``,
``log1p`` and the like differ from libm in the last bit on a few percent
of inputs.  Its ``branch`` raises ``_Fallback`` where any element takes a
branch or a refusal of its own.

``stack`` holds the one fallback: it runs a kernel on the arrays, and hands
a stack that raised ``_Fallback``, or whose results hold a non-finite
number, whole to the scalar kernel, whose special branches, error messages
and partial output they are.  The batch rows of the ``evolve`` table (one
writer chunk of times, in ``_evolve_table.emit``) and the stacks of
``verification`` go through it.

Importing this module imports numpy; ``cli`` does so only for the grids
where the batch pays for that import, and ``verification`` for its stacks.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import _h_offset


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
    def double(bits):
        return np.asarray(bits, np.int64).view(np.float64)

    @staticmethod
    def max(a, b):
        return np.where(b > a, b, a)

    @staticmethod
    def min(a, b):
        return np.where(b < a, b, a)


def stack(kernel, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The elementwise ``kernel`` of each element of ``columns``, bit for bit, its results as columns.

    One call runs the kernel on the arrays, with ``_Arrays``.  A stack
    with an element that takes a branch or a refusal of its own, or whose
    float results hold a non-finite number, goes whole to the scalar
    kernel, one call per element: the special branches, and the error of
    the first refused element, are then its own (the scalar kernel may
    refuse what the arrays carry as NaN).
    """
    try:
        with np.errstate(all="ignore"):
            results = kernel(*columns, ops=_Arrays)
        if all(np.isfinite(x).all() for x in results if x.dtype.kind == "f"):
            return results
    except _Fallback:
        pass
    return tuple(np.array(column) for column in zip(*map(kernel, *(x.tolist() for x in columns))))
