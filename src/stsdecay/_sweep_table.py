"""The `sweep` table: its rows on bare entries.

``cli`` imports this module for ``sweep`` alone, and ``dynamics`` is
imported only for a sweep with a reservoir.  A row is one function of its
swept value, ``row``, as an ``evolve`` row is one function of its time.
``point`` runs the construction checks at a value: a state sweep (n1, n2
or r) forms the entries with the arithmetic of ``standard_form_from_sts``
and runs the checks of StsParams and StandardForm on them; a reservoir
sweep (nr or gamma) runs the checks of ReservoirConfig on the rates.
``row`` then takes the separability margin once, and each output comes
from the kernel that its public function wraps: ``cli._state_cells``
(shared with ``report``) for the measures, the kappas and the separable
verdict, and ``dynamics._death_time`` for ts.  A reservoir sweep's state
is fixed, so its cells are computed once.  No record is built per row,
and ``cli._emit_rows`` writes the rows.  So the values, the errors and
their order are those of the records and the public functions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import cli
from .core import StandardForm, _check_sts, _cosh_sinh, _separability_margin, _sts_entries

if TYPE_CHECKING:
    from .cli import Args
    from .dynamics import ReservoirConfig


def emit(args: Args, outputs: list[str], sf0: StandardForm, res: ReservoirConfig | None) -> None:
    """Write the sweep table of ``args`` and ``outputs`` to ``args.out``, a chunk at a time.

    ``sf0`` and ``res`` are the state and the reservoir (None where none is
    configured) of the sweep's first value, which ``cli`` checked through
    the records.  A reservoir sweep (nr or gamma) takes its state's cells
    from ``sf0`` and its rates from ``args``; a state sweep (n1, n2 or r)
    takes its state from ``args`` and its reservoir from ``res``.  Every
    value of the sweep lies between its two ends, and what the checks
    accept along one parameter is an interval, so ``point`` of the last
    value runs next: an invalid range fails before any output.  A row's
    kernels run in its turn, after the chunks before it.
    """
    ts, state_cells = ("ts" in outputs), cli._state_cells(outputs, args.units)
    if ts:
        from .dynamics import ASYMPTOTIC_ONLY, _death_time

        dead, asymptotic = (cli._cell(marker, cli._SPELL[args.format]) for marker in ("separable", "asymptotic-only"))
    param, n1, n2, r, phi = args.param, args.n1, args.n2, args.r, args.phi
    if param in ("n1", "n2", "r"):
        rates = None if res is None else res._fields()
        # cosh r and sinh r, computed once while r is fixed.
        ch, sh = _cosh_sinh(r)

        def state(b1: float, b2: float, c: float) -> tuple[float, tuple[object, ...]]:
            """The separability margin of the entries, and their cells."""
            margin = _separability_margin(b1, b2, c)
            return margin, state_cells(b1, b2, c, margin)

        def point(value: float) -> tuple[float, float, float, tuple[float, ...] | None]:
            """The entries and the rates at ``value``, checked as StsParams, then StandardForm, check them.

            The entries are those of ``standard_form_from_sts``; StandardForm's
            phase and sign checks pass (phi is finite, and r >= 0 gives c >= 0).
            """
            x1, x2, s = (value, n2, r) if param == "n1" else (n1, value, r) if param == "n2" else (n1, n2, value)
            _check_sts(x1, x2, s, phi)
            return (*_sts_entries(x1, x2, s, *(_cosh_sinh(s) if param == "r" else (ch, sh))), rates)

    else:
        from .dynamics import _check_reservoir

        # The margin and the cells of the sweep's one state, computed once.
        b1, b2, c = sf0.b1, sf0.b2, sf0.c
        margin = _separability_margin(b1, b2, c)
        fixed = margin, state_cells(b1, b2, c, margin)
        state = lambda b1, b2, c: fixed  # noqa: E731

        def point(value: float) -> tuple[float, float, float, tuple[float, ...]]:
            """The entries and the rates ``(gamma1, n_r1, gamma2, n_r2)`` at ``value``, checked as ReservoirConfig checks them."""
            gamma, n_r = (value, args.nr) if param == "gamma" else (args.gamma, value)
            rates = (gamma, n_r, gamma, n_r) if args.identical else (gamma, n_r, 0.0, 0.0)
            _check_reservoir(*rates)
            return b1, b2, c, rates

    def row(value: float) -> tuple[object, ...]:
        """The row at ``value``: the value, the state's cells and, where selected, the ts cell, spelled."""
        b1, b2, c, rates = point(value)
        margin, cells = state(b1, b2, c)
        if not ts:
            return (value, *cells)
        t = dead if margin >= 0.0 else _death_time(b1, b2, margin, rates)
        return (value, *cells, asymptotic if t is ASYMPTOTIC_ONLY else t)

    lo, hi, steps = args.min, args.max, args.steps
    point(*cli._linspace(lo, hi, steps, steps - 1))
    columns = [param, *cli._columns(outputs)]
    floats = len(columns) - ("separable" in outputs) - ts
    rows = (map(row, chunk) for chunk in cli._linear_chunks(lo, hi, steps))
    with cli._destination(args.out) as write:
        cli._emit_rows(write, columns, args.format, floats, rows)
