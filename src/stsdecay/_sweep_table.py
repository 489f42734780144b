"""The `sweep` table: its rows on bare entries, and their one formatter.

``cli`` imports this module for ``sweep`` alone.  Each output of a row
comes from the kernel that its public function wraps:
``correlations._measures`` for the measures, ``core._spectrum`` for the
kappas, and ``dynamics._death_time`` for ts; the separability margin is
taken once per state.  No record is built per row.  A state sweep (n1, n2
or r) forms the entries with the arithmetic of ``standard_form_from_sts``
and runs the checks of StsParams and StandardForm on them; a reservoir
sweep (nr or gamma) runs the checks of ReservoirConfig on the rates, and
its state's cells are computed once.  So the values, the errors and their
order are those of the records and the public functions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
from typing import Iterable, Iterator

from . import cli
from .core import StandardForm, _bona_fide, _check_sts, _separability_margin, _spectrum, _sts_entries
from .correlations import _measures
from .dynamics import ASYMPTOTIC_ONLY, ReservoirConfig, _check_reservoir, _death_time


def _state_points(args: argparse.Namespace, values: Iterable[float]) -> Iterator[tuple[float, float, float, float]]:
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
            ch, sh = math.cosh(r), math.sinh(r)
        b1, b2, c = _sts_entries(n1, n2, ch, sh)
        b1, b2 = _bona_fide(b1, b2, c)
        yield value, b1, b2, c


def _bath_points(args: argparse.Namespace, values: Iterable[float]) -> Iterator[tuple[float, tuple[float, ...]]]:
    """``(value, (gamma1, n_r1, gamma2, n_r2))`` at each value of an nr or gamma sweep, checked as ReservoirConfig checks them."""
    gamma, n_r = args.gamma, args.nr
    for value in values:
        if args.param == "gamma":
            gamma = value
        else:
            n_r = value
        rates = (gamma, n_r, gamma, n_r) if args.identical else (gamma, n_r, 0.0, 0.0)
        _check_reservoir(*rates)
        yield value, rates


def emit(args: argparse.Namespace, outputs: list[str], sf0: StandardForm | None, res: ReservoirConfig | None) -> None:
    """Write the sweep table of ``args`` and ``outputs`` to ``args.out``, a chunk at a time.

    ``sf0`` is the fixed state of a reservoir sweep, None for a state
    sweep; ``res`` is the reservoir of a state sweep (None where none is
    configured), and a reservoir sweep takes its rates from ``args``.
    Every value of the sweep lies between its two ends, and what the
    checks accept along one parameter is an interval, so both ends are
    checked first: an invalid range fails before any output.
    """
    picks = [i for i, name in enumerate(cli._MEASURES) if name in outputs]
    kappas, separable, ts = ("kappas" in outputs), ("separable" in outputs), ("ts" in outputs)
    spell = str if args.format == "csv" else json.dumps
    dead, asymptotic = spell("separable"), spell("asymptotic-only")
    scale, units = cli._scale, args.units

    def state_cells(b1: float, b2: float, c: float, margin: float) -> tuple[object, ...]:
        """The measures, the kappas and the separable verdict that ``outputs`` selects."""
        cells: list[object] = []
        if picks:
            report = _measures(b1, b2, c, margin)
            cells += [scale(report[i], units) for i in picks]
        if kappas:
            cells += _spectrum(b1, b2, c)
        if separable:
            cells.append("true" if margin >= 0.0 else "false")
        return tuple(cells)

    def death_cell(b1: float, b2: float, c: float, margin: float, rates: tuple[float, ...]) -> object:
        """The ts cell: a finite time, or the separable or asymptotic-only marker, spelled."""
        if margin >= 0.0:
            return dead
        t = _death_time(b1, b2, c, margin, rates)
        return asymptotic if t is ASYMPTOTIC_ONLY else t

    lo, hi, steps = args.min, args.max, args.steps
    for end in (0, steps - 1):
        list((_state_points if sf0 is None else _bath_points)(args, cli._linspace(lo, hi, steps, end, end + 1)))
    values = itertools.chain.from_iterable(cli._linear_chunks(lo, hi, steps))
    if sf0 is None:
        rates = None if res is None else res._fields()

        def state_rows() -> Iterator[tuple[object, ...]]:
            for value, b1, b2, c in _state_points(args, values):
                margin = _separability_margin(b1, b2, c)
                cells = state_cells(b1, b2, c, margin)
                yield (value, *cells, death_cell(b1, b2, c, margin, rates)) if ts else (value, *cells)

        table = state_rows()
    else:
        # The first row checks the first end, which passed above; its state
        # cells are every row's.
        b1, b2, c = sf0.b1, sf0.b2, sf0.c
        margin = _separability_margin(b1, b2, c)
        cells = state_cells(b1, b2, c, margin)
        table = (
            (value, *cells, death_cell(b1, b2, c, margin, rates)) if ts else (value, *cells)
            for value, rates in _bath_points(args, values)
        )
    floats = 1 + len(picks) + 4 * kappas
    columns = [args.param, *cli._columns(outputs)]
    head, sep, tail, template = cli._frame(columns, args.format, ["%r"] * floats + ["%s"] * (len(columns) - floats))

    def chunk_lines() -> list[str]:
        """The next chunk of table lines: the ``cli._cell`` spelling, one finiteness test per row."""
        out = []
        for row in itertools.islice(table, cli._CHUNK_ROWS):
            if not math.isfinite(sum(row[:floats])):
                for value in row[:floats]:
                    cli._cell(value, str)
            out.append(template % row)
        return out

    with cli._destination(args.out) as write:
        cli._emit_lines(write, head, sep, tail, iter(chunk_lines, []))
