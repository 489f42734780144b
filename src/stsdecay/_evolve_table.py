"""The `evolve` table: its time grid a chunk at a time, and its rows.

``cli`` imports this module for ``evolve`` alone, so the other commands do
not compile it.  Rows come from the scalar kernel, ``scalar_rows``, or, on
the grids where that pays, from ``_batch.evolve_rows``, which runs the same
kernels on numpy arrays, so its rows are bit for bit the same;
``cli._emit_rows`` writes both.  A chunk with a product, pure, refused or
non-finite row goes whole to ``scalar_rows``, which alone runs those
branches; the batch answers every other chunk.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Iterator

from . import cli
from .core import StandardForm, _bona_fide
from .correlations import _measures
from .dynamics import ReservoirConfig, _evolved_entries

# Grids of at least this many points take the numpy batch rows.  Loading
# numpy and the batch module costs about 100 ms of CPU and a batch row
# saves about 10 us; measured as whole commands, the two paths break even
# near 10^4 rows.
BATCH_POINTS = 10_000


def grid_chunks(start: float, stop: float, num: int, log: bool) -> Iterator[list[float]]:
    """The time grid in lists of ``cli._CHUNK_ROWS`` points, made one at a time.

    The linear grid is ``cli._linear_chunks``.  The log grid is
    ``numpy.geomspace``, with numpy's own log10/power rather than libm's:
    they differ in the last bit on some points, and the grid is part of
    the output.  It is held as one float64 array, 8 bytes a point.
    """
    if not log:
        return cli._linear_chunks(start, stop, num)
    import numpy as np

    grid = np.geomspace(start, stop, num)
    size = cli._CHUNK_ROWS
    return (grid[lo : lo + size].tolist() for lo in range(0, num, size))


def scalar_rows(
    sf0: StandardForm, res: ReservoirConfig, times: Iterable[float], units: str
) -> Iterator[tuple[object, ...]]:
    """Rows ``(t, b1, b2, c, ef, d1, d2, mi, separable)``, one at a time: the scalar kernel.

    Each evolved triple goes through the StandardForm validator and then
    straight to the correlation kernel; no state object is built per row.
    The eight numbers are floats and the verdict is spelled, as
    ``cli._emit_rows`` takes them.
    """
    scale = cli._scale
    for t in times:
        b1, b2, c = _evolved_entries(sf0, res, t)
        b1, b2 = _bona_fide(b1, b2, c)
        ef, d1, d2, mi, separable, _, _, _, _ = _measures(b1, b2, c)
        verdict = "true" if separable else "false"
        yield t, b1, b2, c, scale(ef, units), scale(d1, units), scale(d2, units), scale(mi, units), verdict


def batch_kernel() -> object:
    """The ``_batch`` module, or None where numpy cannot be imported."""
    try:
        from . import _batch
    except ImportError:
        return None
    return _batch


def emit(
    write: Callable[[str], object],
    sf0: StandardForm,
    res: ReservoirConfig,
    chunks: Iterable[list[float]],
    units: str,
    fmt: str,
    batch: object = None,
) -> None:
    """Write the table over the time grid ``chunks``, a chunk at a time.

    ``batch`` is the ``_batch`` module, or None for the scalar rows alone.
    The scalar rows also answer, whole, every chunk the batch leaves them.
    """
    scale = functools.partial(cli._scale, units=units)

    def rows(times: list[float]) -> Iterable[tuple[object, ...]]:
        batch_rows = batch.evolve_rows(sf0, res, times, scale) if batch is not None else None
        return scalar_rows(sf0, res, times, units) if batch_rows is None else batch_rows

    cli._emit_rows(write, cli._EVOLVE_COLUMNS, fmt, 8, map(rows, chunks))
