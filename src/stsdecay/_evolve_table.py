"""The `evolve` table: its time grid a chunk at a time, and its rows.

``cli`` imports this module for ``evolve`` alone, so the other commands do
not compile it.  A row is one elementwise kernel of its time, whose cells
come from ``cli._state_cells``, as ``report``'s and ``sweep``'s do.  It
runs on floats, one row at a time, or, on the grids where that pays, on a
chunk's times at once through ``_batch.stack``, whose rows are bit for bit
the same; ``cli._emit_rows`` writes both.  A chunk with a product, pure,
refused or non-finite row goes whole to the scalar kernel, which alone
runs those branches; the batch answers every other chunk.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Iterator

from . import cli
from .core import StandardForm, _bona_fide, _Floats, _separability_margin
from .dynamics import ReservoirConfig, _evolved_entries

# Grids of at least this many points take the numpy batch rows.  Loading
# numpy and the batch module costs about 68 ms of CPU and a batch row
# saves about 6.7 us (14.6 against 7.9 us per row), so the two paths
# break even near 10^4 rows, as whole commands measure too.
BATCH_POINTS = 10_000


def grid_chunks(start: float, stop: float, num: int, log: bool) -> Iterator[list[float]]:
    """The time grid in lists of ``cli._CHUNK_ROWS`` points, made one at a time.

    The linear grid is ``cli._linear_chunks``.  The log grid is
    ``numpy.geomspace``, made the way it makes it, with numpy's own
    log10/power rather than libm's (they differ in the last bit on some
    points, and the grid is part of the output): 10 to the power of the
    linear grid of the exponents, then the first and last points set to
    ``start`` and ``stop``.
    """
    if not log:
        return cli._linear_chunks(start, stop, num)
    import numpy as np

    log_start, log_stop = float(np.log10(start)), float(np.log10(stop))

    def chunk(lo: int) -> list[float]:
        hi = lo + cli._CHUNK_ROWS
        grid = np.power(10.0, np.array(cli._linspace(log_start, log_stop, num, lo, hi))).tolist()
        if hi >= num:
            grid[-1] = stop
        if lo == 0:
            grid[0] = start
        return grid

    return map(chunk, range(0, num, cli._CHUNK_ROWS))


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

    A row is one elementwise kernel of its time: the evolved entries,
    checked as StandardForm checks them, and ``cli._state_cells`` of them.
    ``batch`` is the ``_batch`` module, which runs the kernel on a chunk's
    times at once (``_batch.stack``), or None for the scalar rows alone.
    """
    cells = cli._state_cells(["ef", "d1", "d2", "mutual_information", "separable"], units)

    def row(t, ops=_Floats):
        b1, b2, c = _evolved_entries(sf0, res, t, ops)
        b1, b2 = _bona_fide(b1, b2, c, ops)
        return (t, b1, b2, c) + cells(b1, b2, c, _separability_margin(b1, b2, c), ops)

    if batch is None:
        rows = functools.partial(map, row)
    else:
        import numpy as np

        def rows(times: list[float]) -> Iterable[tuple[object, ...]]:
            return zip(*(column.tolist() for column in batch.stack(row, np.array(times))))

    cli._emit_rows(write, cli._EVOLVE_COLUMNS, fmt, 8, map(rows, chunks))
