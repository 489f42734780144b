"""The ``evolve`` subcommand: the correlation time series of one state over a time grid."""

from __future__ import annotations

import functools
import itertools
import math

from .cli import (
    _CHUNK_ROWS,
    _SLICE_ROWS,
    _STATE_OUTPUTS,
    _CliError,
    _destination,
    _emit_rows,
    _grid,
    _linspace,
    _require_numpy,
    _reservoir_from_args,
    _state_cells,
    _state_from_args,
)
from .core import _bona_fide, _Floats, _separability_margin

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterable, Iterator

    from .cli import Args
    from .core import StandardForm
    from .dynamics import ReservoirConfig

# Grids of at least this many points take the numpy batch rows of `evolve`.
# Loading numpy and the batch module costs a child about 126 ms of CPU and a
# batch row saves about 11 us (25.5 against 14.5 us per row, written), so
# the two paths break even near 1.2*10^4 rows (README, "Command line").
_BATCH_POINTS = 10_000


def _log_grid(start: float, stop: float, num: int) -> Iterator[list[float]]:
    """``numpy.geomspace(start, stop, num)`` in lists of ``_CHUNK_ROWS`` points, made one at a time.

    Made the way numpy makes it, with numpy's own log10/power rather than
    libm's (they differ in the last bit on some points, and the grid is
    part of the output): 10 to the power of the linear grid of the
    exponents, then the first and last points set to ``start`` and ``stop``.
    """
    import numpy as np

    log_start, log_stop = float(np.log10(start)), float(np.log10(stop))

    def chunk(lo: int) -> list[float]:
        hi = lo + _CHUNK_ROWS
        grid = np.power(10.0, np.array(_linspace(log_start, log_stop, num, lo, hi))).tolist()
        if hi >= num:
            grid[-1] = stop
        if lo == 0:
            grid[0] = start
        return grid

    return map(chunk, range(0, num, _CHUNK_ROWS))


def _emit_evolve(
    write: Callable[[str], object],
    sf0: StandardForm,
    res: ReservoirConfig,
    chunks: Iterable[list[float]],
    units: str,
    fmt: str,
    batch: object = None,
) -> None:
    """Write the `evolve` table over the time grid ``chunks``, a chunk at a time.

    A row is one elementwise kernel of its time: the evolved entries,
    checked as StandardForm checks them, and ``_state_cells`` of them.  It
    runs on floats, one row at a time, or, where ``batch`` is the
    ``_batch`` module, on a chunk's times at once through ``_batch.stack``,
    whose rows are bit for bit the same.  A chunk with a product, pure,
    refused or non-finite row goes whole to the scalar kernel, which alone
    runs those branches; the batch answers every other chunk.

    A batch chunk is computed whole, so every refusal and every fallback
    to the scalar kernel comes before any of its text, and its float
    columns are tested for finiteness on the arrays.  A finite chunk
    reaches the writer as pieces of ``_SLICE_ROWS`` rows, each turned into
    Python rows (one ``tolist`` per column) only when the writer reaches
    it; a chunk with a non-finite float reaches it whole, to be refused as
    the scalar rows are.
    """
    from .dynamics import _evolved_entries

    names, cells = _state_cells(_STATE_OUTPUTS, units)

    def row(t, ops=_Floats):
        b1, b2, c = _evolved_entries(sf0, res, t, ops)
        b1, b2 = _bona_fide(b1, b2, c, ops)
        return (t, b1, b2, c) + cells(b1, b2, c, _separability_margin(b1, b2, c), ops)

    if batch is None:
        chunk_rows = map(functools.partial(map, row), chunks)
    else:
        import numpy as np

        def pieces(times: list[float]) -> Iterator[Iterable[tuple[object, ...]]]:
            """The rows of ``times``, computed and checked on arrays, in lazy pieces of ``_SLICE_ROWS`` rows.

            A chunk with a non-finite float is one piece, which the writer
            refuses before any of its text, as it refuses the scalar rows.
            """
            columns = batch.stack(row, np.array(times))
            finite = all(np.isfinite(column).all() for column in columns[:8])
            step = _SLICE_ROWS if finite else len(times)
            return (zip(*(column[lo : lo + step].tolist() for column in columns)) for lo in range(0, len(times), step))

        chunk_rows = itertools.chain.from_iterable(map(pieces, chunks))
    _emit_rows(write, ["t", "b1", "b2", "c", *names], fmt, 8, chunk_rows)


def command(args: Args) -> int:
    sf0 = _state_from_args(args)
    res = _reservoir_from_args(args)
    if res is None:
        raise _CliError("evolve needs a reservoir: bath flags or --identical/--single-bath")
    if not (math.isfinite(args.t_start) and math.isfinite(args.t_end)):
        raise _CliError("the time grid must be finite")
    if args.t_end <= args.t_start:
        raise _CliError(f"need --t-end > --t-start, got [{args.t_start!r}, {args.t_end!r}]")
    if args.points < 2:
        raise _CliError("need --points >= 2")
    if args.log_spacing and args.t_start <= 0.0:
        raise _CliError("--log-spacing needs --t-start > 0")
    # Every row runs correlations and dynamics.  They are imported before
    # numpy, so the scratch memory of compiling them is freed before
    # numpy's 12.6 MB are resident, rather than stacked on it: a lower
    # peak RSS.  (`_state_cells` takes `_measures` from the loaded module.)
    # So the refusal of `--log-spacing` without numpy loads them for nothing; with
    # `_require_numpy` first, the 3,000-point JSON log grid peaked at 28.35, not 28.25 MB.
    from .correlations import _measures  # noqa: F401
    from .dynamics import _check_time

    if args.log_spacing:
        _require_numpy("evolve --log-spacing")
    chunks = (_log_grid if args.log_spacing else _grid)(args.t_start, args.t_end, args.points)
    first = next(chunks)
    # The grid rises from its first time, so this checks every time on it.
    _check_time(first[0])
    batch = None
    if args.log_spacing or args.points >= _BATCH_POINTS:
        try:
            from . import _batch as batch
        except ImportError:
            pass
    with _destination(args.out) as write:
        _emit_evolve(write, sf0, res, itertools.chain([first], chunks), args.units, args.format, batch)
    return 0
