"""The `sweep` table: its rows on bare entries.

``cli`` imports this module for ``sweep`` alone, and ``dynamics`` is
imported only for a sweep with a reservoir.  Each output of a row comes
from the kernel that its public function wraps: ``cli._state_cells``
(shared with ``report``) for the measures, the kappas and the separable
verdict, and ``dynamics._death_time`` for ts; the separability margin is
taken once per state.  No record is built per row, and ``cli._emit_rows``
writes the rows.  A state sweep (n1, n2 or r) forms the entries with the
arithmetic of ``standard_form_from_sts`` and runs the checks of StsParams
and StandardForm on them; a reservoir sweep (nr or gamma) runs the checks
of ReservoirConfig on the rates, and its state's cells are computed once.
So the values, the errors and their order are those of the records and
the public functions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from . import cli
from .core import StandardForm, _check_sts, _cosh_sinh, _separability_margin, _sts_entries

if TYPE_CHECKING:
    from .cli import Args
    from .dynamics import ReservoirConfig


def _state_points(args: Args, values: Iterable[float]) -> Iterator[tuple[float, float, float, float]]:
    """``(value, b1, b2, c)`` at each value of an n1, n2 or r sweep.

    The checks of StsParams, then ``standard_form_from_sts``, then the
    checks of StandardForm, whose phase and sign checks the parameters
    already pass (phi is finite, and r >= 0 gives c >= 0).  cosh r and
    sinh r are computed once while r is fixed.
    """
    param, n1, n2, r, phi = args.param, args.n1, args.n2, args.r, args.phi
    ch = sh = None
    for value in values:
        if param == "n1":
            n1 = value
        elif param == "n2":
            n2 = value
        else:
            r = value
        _check_sts(n1, n2, r, phi)
        if sh is None or param == "r":
            ch, sh = _cosh_sinh(r)
        yield (value, *_sts_entries(n1, n2, r, ch, sh))


def _bath_points(args: Args, values: Iterable[float]) -> Iterator[tuple[float, tuple[float, ...]]]:
    """``(value, (gamma1, n_r1, gamma2, n_r2))`` at each value of an nr or gamma sweep, checked as ReservoirConfig checks them."""
    from .dynamics import _check_reservoir

    gamma, n_r = args.gamma, args.nr
    for value in values:
        if args.param == "gamma":
            gamma = value
        else:
            n_r = value
        rates = (gamma, n_r, gamma, n_r) if args.identical else (gamma, n_r, 0.0, 0.0)
        _check_reservoir(*rates)
        yield value, rates


def emit(args: Args, outputs: list[str], sf0: StandardForm, res: ReservoirConfig | None) -> None:
    """Write the sweep table of ``args`` and ``outputs`` to ``args.out``, a chunk at a time.

    ``sf0`` and ``res`` are the state and the reservoir (None where none is
    configured) of the sweep's first value, which ``cli`` checked through
    the records.  A reservoir sweep (nr or gamma) takes its state's cells
    from ``sf0`` and its rates from ``args``; a state sweep (n1, n2 or r)
    takes its state from ``args`` and its reservoir from ``res``.  Every
    value of the sweep lies between its two ends, and what the checks
    accept along one parameter is an interval, so the last value is
    checked next: an invalid range fails before any output.
    """
    ts, state_cells = ("ts" in outputs), cli._state_cells(outputs, args.units)
    if ts:
        from .dynamics import ASYMPTOTIC_ONLY, _death_time

        dead, asymptotic = (cli._cell(marker, cli._SPELL[args.format]) for marker in ("separable", "asymptotic-only"))

        def death_cell(b1: float, b2: float, margin: float, rates: tuple[float, ...]) -> object:
            """The ts cell: a finite time, or the separable or asymptotic-only marker, spelled."""
            if margin >= 0.0:
                return dead
            t = _death_time(b1, b2, margin, rates)
            return asymptotic if t is ASYMPTOTIC_ONLY else t

    lo, hi, steps = args.min, args.max, args.steps
    state_sweep = args.param in ("n1", "n2", "r")
    list((_state_points if state_sweep else _bath_points)(args, cli._linspace(lo, hi, steps, steps - 1)))
    if state_sweep:
        rates = None if res is None else res._fields()

        def rows(values: list[float]) -> Iterator[tuple[object, ...]]:
            for value, b1, b2, c in _state_points(args, values):
                margin = _separability_margin(b1, b2, c)
                cells = state_cells(b1, b2, c, margin)
                yield (value, *cells, death_cell(b1, b2, margin, rates)) if ts else (value, *cells)

    else:
        b1, b2, c = sf0.b1, sf0.b2, sf0.c
        margin = _separability_margin(b1, b2, c)
        cells = state_cells(b1, b2, c, margin)

        def rows(values: list[float]) -> Iterator[tuple[object, ...]]:
            return (
                (value, *cells, death_cell(b1, b2, margin, rates)) if ts else (value, *cells)
                for value, rates in _bath_points(args, values)
            )

    columns = [args.param, *cli._columns(outputs)]
    floats = len(columns) - ("separable" in outputs) - ts
    with cli._destination(args.out) as write:
        cli._emit_rows(write, columns, args.format, floats, map(rows, cli._linear_chunks(lo, hi, steps)))
