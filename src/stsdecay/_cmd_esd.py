"""The ``esd`` subcommand: the sudden-death time of one state, optionally beside the bisection oracle's."""

from __future__ import annotations

from .cli import _SPELL, _CliError, _cell, _destination, _emit_rows, _note, _reservoir_from_args, _state_from_args

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .cli import Args


def command(args: Args) -> int:
    sf = _state_from_args(args)
    res = _reservoir_from_args(args)
    if res is None:
        raise _CliError("esd needs a reservoir: bath flags or --identical/--single-bath")
    from .dynamics import ASYMPTOTIC_ONLY, esd_bisection, esd_time

    if args.verify:
        # SeparableInputError -> exit 3
        closed, oracle = esd_time(sf, res), esd_bisection(sf, res)
        columns = ["t_s_closed", "t_s_bisection", "abs_difference"]
        row = [ASYMPTOTIC_ONLY] * 3 if ASYMPTOTIC_ONLY in (closed, oracle) else [closed, oracle, abs(closed - oracle)]
    else:
        columns, row = ["t_s"], [esd_time(sf, res)]
    if row[0] is ASYMPTOTIC_ONLY:
        _note("no sudden death (zero-temperature bath)\n")
    cells = tuple(_cell("asymptotic-only" if value is ASYMPTOTIC_ONLY else value, _SPELL[args.format]) for value in row)
    with _destination(args.out) as write:
        _emit_rows(write, columns, args.format, 0, [[cells]])
    return 0
