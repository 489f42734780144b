"""numpy batch kernel for the rows of the ``evolve`` table, bit for bit the scalar rows.

``evolve_rows`` takes one writer chunk of times and returns its rows, the
same floats and spelled verdicts that ``_evolve_table.scalar_rows`` yields
one at a time, for ``cli._emit_rows`` to write.  It runs the scalar row
code on float64 arrays: that code uses only IEEE operations that round
once, so each element gets the bits of its scalar call.  ``math.exp`` and
libm's ``log1p`` (in ``_h``) are mapped over the arrays, as numpy's
``exp`` and ``log1p`` differ from libm in the last bit on a few percent of
inputs.  This module adds the masks for what the scalar rows refuse or
clamp, and runs only the general branch of the correlation kernel.  A
chunk with a product (c = 0) or pure row, or a row that would be refused
or print a non-finite number, is left whole to the scalar rows (``None``
is returned): the special branches, error messages and partial output
are theirs.

Importing this module imports numpy; ``cli`` does so only for the grids
where the batch pays for that import.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from ._accurate import prod_diff, sum_sq_minus_4c2
from .cli import _scale
from .core import _ABS_SLACK, StandardForm, _is_pure, _kappas, _separability_margin, _uncertainty
from .correlations import _NEG_CLAMP, _general
from .dynamics import ReservoirConfig, _evolved_entries


def _libm(f, *xs: np.ndarray) -> np.ndarray:
    """The float function ``f`` applied elementwise to the arrays ``xs``."""
    return np.fromiter(map(f, *(x.tolist() for x in xs)), float, len(xs[0]))


def _h(a: np.ndarray) -> np.ndarray:
    """``correlations._h_offset`` elementwise, bit for bit: 0 where ``a <= 0``, NaN kept.

    libm's ``log1p`` is mapped over ``a`` and ``1/a``; the product and sum
    are the array operations, which round as the scalar ones do.
    """
    positive = ~(a <= 0.0)
    a = np.where(positive, a, 1.0)
    return np.where(positive, _libm(math.log1p, a) + a * _libm(math.log1p, 1.0 / a), 0.0)


def _max(a, b) -> np.ndarray:
    """Python's ``max(a, b)`` elementwise: ``b`` where ``b > a``, else ``a``."""
    return np.where(b > a, b, a)


def _bona_fide(b1: np.ndarray, b2: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``core._bona_fide`` elementwise: the clamped ``(b1, b2)``, or None where it refuses some element.

    A non-finite entry makes the margin NaN, which is refused.
    """
    if (b1 < 0.5 - _ABS_SLACK).any() or (b2 < 0.5 - _ABS_SLACK).any():
        return None
    b1 = _max(b1, 0.5)
    b2 = _max(b2, 0.5)
    first = b1 >= b2
    margin, slack = _uncertainty(np.where(first, b1, b2), np.where(first, b2, b1), c, _max)
    return (b1, b2) if (margin >= -slack).all() else None


def evolve_rows(
    sf0: StandardForm, res: ReservoirConfig, times: list[float], units: str
) -> Iterator[tuple] | None:
    """Rows ``(t, b1, b2, c, ef, d1, d2, mi, separable)`` of one chunk, or None.

    None leaves the whole chunk to the scalar rows: some row is a product
    or pure state, is refused there, or prints a non-finite number.
    """
    with np.errstate(all="ignore"):
        columns = _columns(sf0, res, np.array(times, dtype=float), units)
    return None if columns is None else zip(*(x.tolist() for x in columns))


def _columns(sf0: StandardForm, res: ReservoirConfig, t: np.ndarray, units: str) -> tuple[np.ndarray, ...] | None:
    """The nine row columns, the verdict spelled, or None."""
    b1, b2, c = _evolved_entries(sf0, res, t, functools.partial(_libm, math.exp))
    clamped = _bona_fide(b1, b2, c)
    if clamped is None:
        return None
    b1, b2 = clamped

    # The general branch of correlations._measures; product and pure rows are the scalar rows'.
    u = prod_diff(b1, b2, c, c)
    if ((c == 0.0) | _is_pure(b1, b2, c, u)).any():
        return None
    separable = _separability_margin(b1, b2, c) >= 0.0
    delta = sum_sq_minus_4c2(b1, b2, c)
    kp, km = _kappas(b1, b2, u, delta, np.sqrt)
    ef, _, y_off, z_off, d1, d2, mi, _ = _general(b1, b2, c, u, delta, kp, km, separable, np.sqrt, _max, np.where, _h)
    refused = (delta <= 0.0) | (delta == math.inf) | (u <= 0.0) | (kp < 0.5) | (y_off < -1e-9) | (z_off < -1e-9)
    for value in (d1, d2, mi):
        refused |= ~(value >= -_NEG_CLAMP)  # NaN included
    if refused.any():
        return None
    d1, d2, mi = (np.where(value >= 0.0, value, 0.0) for value in (d1, d2, mi))
    ef, d1, d2, mi = (_scale(value, units) for value in (ef, d1, d2, mi))
    if not np.isfinite([ef, d1, d2, mi]).all():
        return None
    return t, b1, b2, c, ef, d1, d2, mi, np.where(separable, "true", "false")
