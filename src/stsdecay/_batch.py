"""numpy batch kernel for the rows of the ``evolve`` table, bit for bit the scalar rows.

``evolve_rows`` takes one writer chunk of times and returns its rows, the
same floats that ``cli._evolve_rows`` yields one at a time.  Only IEEE
operations that round once run on arrays: ``+ - * /``, ``sqrt``, ``abs``
and comparisons, and the compensated products and sums of ``_accurate``
are written out in the same order as there.  ``exp`` and ``log1p`` stay
on libm (``math``), since numpy's differ from it in the last bit on a few
percent of inputs.

Rows on a special branch of the correlation kernel (product c = 0, pure)
are computed by the scalar kernel.  A chunk in which any row would be
refused, or would print a non-finite number, is left to the scalar rows
(``None`` is returned), so error messages and partial output are those of
the scalar path.

Importing this module imports numpy; ``cli`` does so only for the grids
where the batch pays for that import.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ._accurate import _SPLITTER
from .core import _ABS_SLACK, _REL_SLACK, StandardForm
from .correlations import _NEG_CLAMP, _measures
from .dynamics import ReservoirConfig

_LN2 = math.log(2.0)


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f`` of ``math`` applied elementwise."""
    return np.fromiter(map(f, x.tolist()), float, len(x))


def _max(a, b) -> np.ndarray:
    """Python's ``max(a, b)`` elementwise: ``b`` where ``b > a``, else ``a``."""
    return np.where(b > a, b, a)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _prod_diff(a, b, c, d) -> np.ndarray:
    """``_accurate.prod_diff`` elementwise, in its order of operations."""
    p1 = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e1 = ((ah * bh - p1) + (ah * bl + al * bh)) + al * bl
    p2 = c * d
    ch, cl = _split(c)
    dh, dl = _split(d)
    e2 = ((ch * dh - p2) + (ch * dl + cl * dh)) + cl * dl
    s = p1 - p2
    bb = s - p1
    t = (p1 - (s - bb)) + (-p2 - bb)
    return s + (t + (e1 - e2))


def _sum_sq_minus_4c2(b1, b2, c) -> np.ndarray:
    """``_accurate.sum_sq_minus_4c2`` elementwise, in its order of operations."""
    s = b1 + b2
    bb = s - b1
    s_lo = (b1 - (s - bb)) + (b2 - bb)
    tc = 2.0 * c
    return ((s - tc) + s_lo) * ((s + tc) + s_lo)


def _h_offset(a: np.ndarray) -> np.ndarray:
    """``correlations._h_offset`` elementwise: 0 where ``a <= 0``."""
    zero = a <= 0.0
    a = np.where(zero, 1.0, a)  # keeps log1p(1/a) in its domain; masked below
    return np.where(zero, 0.0, _libm(math.log1p, a) + a * _libm(math.log1p, 1.0 / a))


def evolve_rows(
    sf0: StandardForm, res: ReservoirConfig, times: list[float], units: str
) -> Iterator[tuple] | None:
    """Rows ``(t, b1, b2, c, ef, d1, d2, mi, separable)`` of one chunk, or None.

    None means the scalar rows must answer this chunk: some row is refused
    there, or prints a number that is not finite.
    """
    with np.errstate(all="ignore"):
        arrays = _columns(sf0, res, np.array(times, dtype=float), units)
    if arrays is None:
        return None
    *arrays, special = arrays
    columns = [x.tolist() for x in arrays]
    b1s, b2s, cs = columns[1:4]
    for i in np.flatnonzero(special).tolist():
        row = _measures(b1s[i], b2s[i], cs[i])
        for k in range(4):
            columns[4 + k][i] = row[k] / _LN2 if units == "bits" else row[k]
        columns[8][i] = row[4]
    return zip(*columns)


def _columns(sf0: StandardForm, res: ReservoirConfig, t: np.ndarray, units: str) -> tuple[np.ndarray, ...] | None:
    """The nine row columns and the mask of special rows, or None."""
    # dynamics._evolved_entries
    w1 = _libm(math.exp, -res.gamma1 * t)
    w2 = _libm(math.exp, -res.gamma2 * t)
    b1 = sf0.b1 * w1 + (res.n_r1 + 0.5) * (1.0 - w1)
    b2 = sf0.b2 * w2 + (res.n_r2 + 0.5) * (1.0 - w2)
    c = sf0.c * _libm(math.exp, -0.5 * (res.gamma1 + res.gamma2) * t)

    # core._bona_fide
    if not (np.isfinite(b1).all() and np.isfinite(b2).all() and np.isfinite(c).all()):
        return None
    if (b1 < 0.5 - _ABS_SLACK).any() or (b2 < 0.5 - _ABS_SLACK).any():
        return None
    b1 = _max(b1, 0.5)
    b2 = _max(b2, 0.5)
    first = b1 >= b2
    hi, lo = np.where(first, b1, b2), np.where(first, b2, b1)
    slack = _max(_ABS_SLACK, _REL_SLACK * (hi * lo + c * c + 0.25))
    if (_prod_diff(hi + 0.5, lo - 0.5, c, c) < -slack).any():
        return None

    # correlations._measures, general branch; special rows are masked out
    # of every refusal and recomputed by the scalar kernel below.
    separable = _prod_diff(b1 - 0.5, b2 - 0.5, c, c) >= 0.0
    u = _prod_diff(b1, b2, c, c)
    pure = (abs(b1 - b2) <= _REL_SLACK * (b1 + b2)) & (abs(u - 0.25) <= _REL_SLACK * (b1 * b2 + c * c + 0.25))
    special = (c == 0.0) | pure
    general = ~special
    delta = _sum_sq_minus_4c2(b1, b2, c)
    kp = 0.5 * (np.sqrt(delta) + abs(b1 - b2))
    km = u / kp
    mp = (kp - 0.5) * (kp + 0.5)
    mm = _max((km - 0.5) * (km + 0.5), 0.0)
    # math.sqrt refuses a negative argument where numpy returns NaN.
    refused = (delta <= 0.0) | (u <= 0.0) | (~separable & (mp < 0.0))
    x_m = _max(((b1 + b2) * (u + 0.25) - 2.0 * c * (np.sqrt(mp) * np.sqrt(mm))) / delta, 0.5)
    x_m = np.where(separable, 0.5, x_m)
    y_off = _prod_diff(b1 - 0.5, b2 + 0.5, c, c) / (b2 + 0.5)
    z_off = _prod_diff(b2 - 0.5, b1 + 0.5, c, c) / (b1 + 0.5)
    refused |= (y_off < -1e-9) | (z_off < -1e-9)
    y_off = _max(y_off, 0.0)
    z_off = _max(z_off, 0.0)
    offsets = (b1 - 0.5, b2 - 0.5, kp - 0.5, km - 0.5, y_off, z_off, x_m - 0.5)
    h1, h2, hkp, hkm, hy, hz, ef = map(_h_offset, offsets)
    hk = hkp + hkm
    d1 = h2 - hk + hy
    d2 = h1 - hk + hz
    mi = h1 + h2 - hkp - hkm
    for value in (d1, d2, mi):
        refused |= ~(value >= -_NEG_CLAMP)  # NaN included
    if (refused & general).any():
        return None
    d1, d2, mi = (np.where(value >= 0.0, value, 0.0) for value in (d1, d2, mi))
    if units == "bits":
        ef, d1, d2, mi = ef / _LN2, d1 / _LN2, d2 / _LN2, mi / _LN2
    if not (np.isfinite(ef) & np.isfinite(d1) & np.isfinite(d2) & np.isfinite(mi) | special).all():
        return None
    return t, b1, b2, c, ef, d1, d2, mi, separable, special
