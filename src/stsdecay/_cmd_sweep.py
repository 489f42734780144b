"""The ``sweep`` subcommand: per-state outputs and death times along a one-parameter sweep."""

from __future__ import annotations

from .cli import (
    _REPORT_OUTPUTS,
    _SPELL,
    _STATE_OUTPUTS,
    _SWEEP_OUTPUTS,
    _CliError,
    _cell,
    _destination,
    _emit_rows,
    _grid,
    _linspace,
    _parse_outputs,
    _reservoir_from_args,
    _state_cells,
    _state_from_args,
)
from .core import _separability_margin, _sts_entries

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .cli import Args


def command(args: Args) -> int:
    """Write the sweep table, a chunk at a time.

    A row is one function of its swept value, ``row``, as an ``evolve``
    row is one function of its time.  The records check the two ends of
    the range, and only they: the first value, then the last, each through
    ``_state_from_args`` (StsParams, then StandardForm) or
    ``_reservoir_from_args`` (ReservoirConfig), so an invalid range fails
    before any output, with the error the records raise and in their order.
    Every value lies between the two ends, and what the checks accept
    along one parameter is an interval, so every row passes them, and a
    row runs no construction check.  ``point`` only computes: the entries
    of a state sweep (n1, n2 or r) come from ``core._sts_entries``, the
    kernel of ``standard_form_from_sts``, and a reservoir sweep (nr or
    gamma) forms the rates.  ``row`` then takes the separability margin
    once, and each output comes from the kernel that its public function
    wraps: ``_state_cells`` (shared with ``report``) for the measures, the
    kappas and the separable verdict, and ``dynamics._death_time`` for ts.
    A reservoir sweep's state is fixed, so its cells are computed once.
    So the values are those of the records and the public functions.  A
    row's kernels run in its turn, and one that refuses its row ends the
    output after the chunks before it.
    """
    if args.steps < 1:
        raise _CliError("need --steps >= 1")
    if args.param in ("nr", "gamma") and not (args.identical or args.single_bath):
        raise _CliError(f"sweeping {args.param} needs a shorthand layout (--identical or --single-bath)")
    if args.param in ("n1", "n2", "r") and any(v is not None for v in (args.b1, args.b2, args.c)):
        raise _CliError(f"sweeping {args.param} needs the --n1/--n2/--r parametrization")
    # No row uses the swept flag's own value, which may be omitted: it is
    # set to the sweep's first value, so the records below check that value.
    setattr(args, args.param, args.min)
    res = _reservoir_from_args(args)
    if args.outputs is None:
        outputs = _STATE_OUTPUTS + (["ts"] if res is not None else [])
    else:
        outputs = _parse_outputs(args.outputs, _SWEEP_OUTPUTS if res is not None else _REPORT_OUTPUTS)
    sf0 = _state_from_args(args)
    ts = "ts" in outputs
    state_columns, state_cells = _state_cells(outputs, args.units)
    if ts:
        from .dynamics import ASYMPTOTIC_ONLY, _death_time

        dead, asymptotic = (_cell(marker, _SPELL[args.format]) for marker in ("separable", "asymptotic-only"))
    param, n1, n2, r = args.param, args.n1, args.n2, args.r
    if param in ("n1", "n2", "r"):
        rates = None if res is None else res._fields()

        def state(b1: float, b2: float, c: float) -> tuple[float, tuple[object, ...]]:
            """The separability margin of the entries, and their cells."""
            margin = _separability_margin(b1, b2, c)
            return margin, state_cells(b1, b2, c, margin)

        def point(value: float) -> tuple[float, float, float, tuple[float, ...] | None]:
            """The entries of ``standard_form_from_sts`` at ``value``, and the rates."""
            x1, x2, s = (value, n2, r) if param == "n1" else (n1, value, r) if param == "n2" else (n1, n2, value)
            return (*_sts_entries(x1, x2, s), rates)

    else:
        # The margin and the cells of the sweep's one state, computed once.
        b1, b2, c = sf0.b1, sf0.b2, sf0.c
        margin = _separability_margin(b1, b2, c)
        fixed = margin, state_cells(b1, b2, c, margin)
        state = lambda b1, b2, c: fixed  # noqa: E731

        def point(value: float) -> tuple[float, float, float, tuple[float, ...]]:
            """The entries and the rates ``(gamma1, n_r1, gamma2, n_r2)`` at ``value``."""
            gamma, n_r = (value, args.nr) if param == "gamma" else (args.gamma, value)
            return b1, b2, c, ((gamma, n_r, gamma, n_r) if args.identical else (gamma, n_r, 0.0, 0.0))

    def row(value: float) -> tuple[object, ...]:
        """The row at ``value``: the value, the state's cells and, where selected, the ts cell, spelled."""
        b1, b2, c, rates = point(value)
        margin, cells = state(b1, b2, c)
        if not ts:
            return (value, *cells)
        t = dead if margin >= 0.0 else _death_time(b1, b2, margin, rates)
        return (value, *cells, asymptotic if t is ASYMPTOTIC_ONLY else t)

    lo, hi, steps = args.min, args.max, args.steps
    # The records check the last value as they checked the first.
    setattr(args, param, _linspace(lo, hi, steps, steps - 1)[0])
    if param in ("nr", "gamma"):
        _reservoir_from_args(args)
    else:
        _state_from_args(args)
    columns = [param, *state_columns] + ["ts"] * ts
    floats = len(columns) - ("separable" in outputs) - ts
    rows = (map(row, chunk) for chunk in _grid(lo, hi, steps))
    with _destination(args.out) as write:
        _emit_rows(write, columns, args.format, floats, rows)
    return 0
