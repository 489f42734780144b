"""The ``report`` subcommand: the measures, kappas and verdict of one state at one time."""

from __future__ import annotations

from .cli import (
    _REPORT_OUTPUTS,
    _CliError,
    _destination,
    _emit_rows,
    _parse_outputs,
    _reservoir_from_args,
    _state_cells,
    _state_from_args,
)
from .core import _offsets

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .cli import Args


def command(args: Args) -> int:
    sf = _state_from_args(args)
    outputs = _parse_outputs(args.outputs, _REPORT_OUTPUTS)
    res = _reservoir_from_args(args)
    t = args.t
    if t != 0.0:
        if res is None:
            raise _CliError("--t > 0 needs a reservoir; add bath flags or use --t 0")
        from .dynamics import evolve

        sf = evolve(sf, res, t).sf
    b1, b2, c = sf.b1, sf.b2, sf.c
    columns, cells = _state_cells(outputs, args.units)
    row = (t, b1, b2, c, *cells(b1, b2, c, _offsets(b1, b2, c)[2]))
    floats = len(row) - ("separable" in outputs)
    with _destination(args.out) as write:
        _emit_rows(write, ["t", "b1", "b2", "c", *columns], args.format, floats, [[row]])
    return 0
