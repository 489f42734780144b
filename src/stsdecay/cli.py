"""Command-line front end: reports, time series, death times, sweeps, verify.

Output is CSV (default) or JSON.  Floats are printed in their shortest
round-trip representation, so identical configurations produce
byte-identical output — golden-file friendly.  All correlation values are
in nats unless ``--units bits`` is given, which rescales the displayed
ef/d1/d2/mutual-information values by 1/ln(2) and nothing else.

Death-time cells that have no finite value carry a marker string instead
of a number, in both formats: "asymptotic-only" (zero-temperature bath;
decay never finishes) or "separable" (sweep rows whose state has nothing
left to lose).  A non-finite number is never printed: the command exits 2
instead.  Tables are streamed in chunks; ``--out`` files appear only once
complete.

Exit codes: 0 success, 1 verification failure (or an oracle that cannot
run on this platform), 2 invalid input, 3 inapplicable request (death time
of an already-separable state).

Only ``verify`` and ``evolve --log-spacing`` import numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    StandardForm,
    StsParams,
    _bona_fide,
    is_separable,
    standard_form_from_sts,
    symplectic_spectrum,
)
from .correlations import _measures, correlation_report
from .dynamics import (
    AsymptoticOnly,
    ReservoirConfig,
    _check_time,
    _closed_form_esd_time,
    _evolved_entries,
    esd_bisection,
    esd_time,
    evolve,
)
from .errors import (
    InvalidParameterError,
    NonPhysicalStateError,
    OraclePrecisionError,
    SeparableInputError,
)

# Canonical column order for the selectable outputs.
_OUTPUT_COLUMNS = {
    "ef": ["ef"],
    "d1": ["d1"],
    "d2": ["d2"],
    "mutual_information": ["mutual_information"],
    "kappas": ["kappa_plus", "kappa_minus", "kappa_tilde_plus", "kappa_tilde_minus"],
    "separable": ["separable"],
    "ts": ["ts"],
}
_REPORT_OUTPUTS = ["ef", "d1", "d2", "mutual_information", "kappas", "separable"]
_SWEEP_OUTPUTS = _REPORT_OUTPUTS + ["ts"]

# Selectable outputs that are fields of the correlation report.
_MEASURES = ("ef", "d1", "d2", "mutual_information")

# Fixed column schemas of the `evolve` and `verify --format json` tables
# (documented in README).
_EVOLVE_COLUMNS = ["t", "b1", "b2", "c", "ef", "d1", "d2", "mutual_information", "separable"]
_VERIFY_COLUMNS = ["quantity", "closed_form", "oracle", "abs_err", "tol", "passed"]

# Tables are formatted and written this many rows at a time, so memory does
# not grow with the table; a command that fails within its first chunk
# writes nothing.
_CHUNK_ROWS = 1024

_LN2 = math.log(2.0)


class _CliError(Exception):
    """Invalid command-line input; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stsdecay",
        description=(
            "Quantum correlations of two-mode squeezed thermal states and "
            "their decay in local thermal reservoirs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, reservoir: bool = True) -> None:
        state = p.add_argument_group(
            "state", "either the physical parameters --n1/--n2/--r or the standard form --b1/--b2/--c"
        )
        state.add_argument("--n1", type=float, help="mean thermal photon number of mode 1")
        state.add_argument("--n2", type=float, help="mean thermal photon number of mode 2")
        state.add_argument("--r", type=float, help="squeeze parameter")
        state.add_argument("--b1", type=float, help="standard-form diagonal entry of mode 1")
        state.add_argument("--b2", type=float, help="standard-form diagonal entry of mode 2")
        state.add_argument("--c", type=float, help="standard-form cross-block magnitude")
        state.add_argument("--phi", type=float, default=0.0, help="phase (radians, default 0)")
        if reservoir:
            res = p.add_argument_group("reservoir")
            res.add_argument("--gamma1", type=float, help="damping rate of mode 1")
            res.add_argument("--nr1", type=float, help="reservoir occupancy seen by mode 1")
            res.add_argument("--gamma2", type=float, help="damping rate of mode 2")
            res.add_argument("--nr2", type=float, help="reservoir occupancy seen by mode 2")
            res.add_argument(
                "--identical", action="store_true", help="identical baths on both modes (uses --gamma/--nr)"
            )
            res.add_argument(
                "--single-bath", action="store_true", help="bath on mode 1 only (uses --gamma/--nr)"
            )
            res.add_argument("--gamma", type=float, default=1.0, help="shorthand damping rate (default 1)")
            res.add_argument("--nr", type=float, help="shorthand reservoir occupancy")
        out = p.add_argument_group("output")
        out.add_argument("--format", choices=["csv", "json"], default="csv")
        out.add_argument("--units", choices=["nats", "bits"], default="nats")
        out.add_argument("--out", help="write to this path instead of stdout")
        p.add_argument("--config", help="key=value file; command-line flags override it")

    p_report = sub.add_parser("report", help="all correlation measures of one state at one time")
    add_common(p_report)
    p_report.add_argument("--t", type=float, default=0.0, help="evolution time (default 0)")
    p_report.add_argument(
        "--outputs",
        default=",".join(_REPORT_OUTPUTS),
        help=f"comma-separated subset of {{{','.join(_REPORT_OUTPUTS)}}}",
    )

    p_evolve = sub.add_parser("evolve", help="correlation time series over a time grid")
    add_common(p_evolve)
    grid = p_evolve.add_argument_group("grid")
    grid.add_argument("--t-start", type=float, default=0.0)
    grid.add_argument("--t-end", type=float, required=True)
    grid.add_argument("--points", type=int, default=200)
    grid.add_argument("--log-spacing", action="store_true", help="logarithmic grid (needs --t-start > 0)")

    p_esd = sub.add_parser("esd", help="entanglement sudden-death time")
    add_common(p_esd)
    p_esd.add_argument(
        "--verify",
        action="store_true",
        help="also run the bisection oracle and print the difference",
    )

    p_sweep = sub.add_parser("sweep", help="scalar outputs along a one-parameter sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=["n1", "n2", "r", "nr", "gamma"])
    p_sweep.add_argument("--min", type=float, required=True)
    p_sweep.add_argument("--max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument(
        "--outputs",
        default=None,
        help=(
            f"comma-separated subset of {{{','.join(_SWEEP_OUTPUTS)}}}; defaults to the "
            "correlation measures, plus ts when a reservoir is configured"
        ),
    )

    p_verify = sub.add_parser("verify", help="closed forms vs independent numeric oracles")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--out", help="write to this path instead of stdout")
    p_verify.add_argument("--config", help="key=value file; command-line flags override it")

    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Splice flags from a --config key=value file in after the subcommand.

    User-supplied flags come later in argv, so they win (argparse keeps
    the last occurrence of a repeated option).
    """
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None or not argv:
        return argv
    extra: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise _CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
            flag = "--" + key.strip().replace("_", "-")
            value = value.strip()
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    extra.append(flag)
            else:
                extra.extend([flag, value])
    return [argv[0], *extra, *argv[1:]]


def _state_from_args(args: argparse.Namespace) -> StandardForm:
    sts_given = any(v is not None for v in (args.n1, args.n2, args.r))
    sf_given = any(v is not None for v in (args.b1, args.b2, args.c))
    if sts_given and sf_given:
        raise _CliError("give either --n1/--n2/--r or --b1/--b2/--c, not both")
    if sts_given:
        if None in (args.n1, args.n2, args.r):
            raise _CliError("the physical parametrization needs all of --n1, --n2, --r")
        return standard_form_from_sts(StsParams(args.n1, args.n2, args.r, args.phi))
    if sf_given:
        if None in (args.b1, args.b2, args.c):
            raise _CliError("the standard form needs all of --b1, --b2, --c")
        return StandardForm(args.b1, args.b2, args.c, args.phi)
    raise _CliError("no state given: use --n1/--n2/--r or --b1/--b2/--c")


def _reservoir_from_args(args: argparse.Namespace, *, nr_optional: bool = False) -> ReservoirConfig | None:
    explicit = any(v is not None for v in (args.gamma1, args.nr1, args.gamma2, args.nr2))
    if args.identical and args.single_bath:
        raise _CliError("--identical and --single-bath are mutually exclusive")
    shorthand = args.identical or args.single_bath
    if explicit and shorthand:
        raise _CliError("give either the explicit --gamma1/--nr1/--gamma2/--nr2 or a shorthand layout")
    if shorthand:
        n_r = args.nr
        if n_r is None:
            if not nr_optional:
                raise _CliError("the shorthand reservoir layouts need --nr")
            n_r = 0.0
        if args.identical:
            return ReservoirConfig.identical(args.gamma, n_r)
        return ReservoirConfig.single_bath(args.gamma, n_r)
    if explicit:
        return ReservoirConfig(
            args.gamma1 if args.gamma1 is not None else 0.0,
            args.nr1 if args.nr1 is not None else 0.0,
            args.gamma2 if args.gamma2 is not None else 0.0,
            args.nr2 if args.nr2 is not None else 0.0,
        )
    return None


def _parse_outputs(selection: str, allowed: list[str]) -> list[str]:
    chosen = [tok.strip() for tok in selection.split(",") if tok.strip()]
    bad = [tok for tok in chosen if tok not in allowed]
    if bad:
        raise _CliError(f"unknown outputs {bad!r}; pick from {allowed!r}")
    # Canonical order regardless of how the user listed them.
    return [name for name in allowed if name in chosen]


def _scale(value: float, units: str) -> float:
    return value / _LN2 if units == "bits" else value


def _state_cells(sf: StandardForm, outputs: list[str], units: str) -> list[object]:
    """Cells of the selected per-state outputs, in canonical order.

    The correlation report is computed only when a measure column is selected.
    """
    rep = correlation_report(sf) if any(name in _MEASURES for name in outputs) else None
    cells: list[object] = []
    for name in outputs:
        if name == "kappas":
            spec = symplectic_spectrum(sf)
            cells += (spec.kappa_plus, spec.kappa_minus, spec.kappa_tilde_plus, spec.kappa_tilde_minus)
        elif name == "separable":
            cells.append(rep.separable if rep is not None else is_separable(sf))
        else:
            cells.append(_scale(getattr(rep, name), units))
    return cells


def _columns(outputs: list[str]) -> list[str]:
    return [col for name in outputs for col in _OUTPUT_COLUMNS[name]]


def _evolve_rows(
    sf0: StandardForm, res: ReservoirConfig, grid: list[float], units: str
) -> Iterator[tuple[object, ...]]:
    """Rows of the `evolve` table.

    Each evolved triple goes through the StandardForm validator and then
    straight to the correlation kernel; no state object is built per row.
    """
    for t in grid:
        b1, b2, c = _evolved_entries(sf0, res, t)
        b1, b2 = _bona_fide(b1, b2, c)
        ef, d1, d2, mi, separable, _, _, _, _ = _measures(b1, b2, c)
        yield t, b1, b2, c, _scale(ef, units), _scale(d1, units), _scale(d2, units), _scale(mi, units), separable


def _cell(value: object, spell: Callable[[object], str]) -> str:
    """One table cell: shortest round-trip floats, true/false, else ``spell(value)``."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise _CliError(f"refusing to print the non-finite number {value!r}")
        return float.__repr__(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return spell(value)


@contextlib.contextmanager
def _destination(out: str | None) -> Iterator[Callable[[str], object]]:
    """A write function for stdout, or for the file ``out``.

    A regular file is written under a temporary name in its directory and
    renamed over ``out`` only once all of it is written, so a failed
    command leaves no new file and an existing one untouched.  Symlinks
    (/dev/stdout among them) and targets that are not regular files
    (devices, pipes) are written in place, as renaming would replace the
    link or the special file itself.
    """
    if out is None:
        yield sys.stdout.write
        return
    if os.path.islink(out) or (os.path.exists(out) and not os.path.isfile(out)):
        try:
            fh = open(out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise _CliError(f"cannot write {out}: {exc.strerror}") from exc
        with fh:
            yield fh.write
        return
    tmp = f"{out}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise _CliError(f"cannot write {out}: {exc.strerror}") from exc
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh.write
        if os.path.isfile(out):
            os.chmod(tmp, os.stat(out).st_mode & 0o7777)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_table(columns: list[str], rows: Iterable[Sequence[object]], fmt: str, out: str | None) -> None:
    """Write the table to stdout or ``out``; see ``_emit_table``."""
    with _destination(out) as write:
        _emit_table(write, columns, rows, fmt)


def _emit_table(
    write: Callable[[str], object], columns: list[str], rows: Iterable[Sequence[object]], fmt: str
) -> None:
    """Write the non-empty ``rows`` under ``columns`` as CSV or JSON, a chunk at a time.

    The bytes are those of ``csv.DictWriter(lineterminator="\\n")`` and of
    ``json.dumps(records, indent=2) + "\\n"`` on the same records: floats
    in shortest round-trip form, booleans as true/false.  A non-finite
    float is refused, since neither format has a valid spelling for it.
    """
    if fmt == "csv":
        head, sep, tail, spell = ",".join(columns) + "\n", "\n", "\n", str
        template = ",".join(["{}"] * len(columns))
    else:
        head, sep, tail, spell = "[\n", ",\n", "\n]\n", json.dumps
        template = "  {{\n" + ",\n".join(f"    {json.dumps(name)}: {{}}" for name in columns) + "\n  }}"
    fill = template.format
    lead, chunk = head, []
    for row in rows:
        chunk.append(fill(*[_cell(value, spell) for value in row]))
        if len(chunk) == _CHUNK_ROWS:
            write(lead + sep.join(chunk))
            lead, chunk = sep, []
    write((lead + sep.join(chunk) if chunk else "") + tail)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``numpy.linspace(start, stop, num).tolist()`` for ``num >= 1``, bit for bit.

    The same operations in the same order: ``i*step + start`` with
    ``step = (stop - start)/(num - 1)``, ``i/(num - 1)*delta + start`` when
    that step underflows to zero, and the last point set to ``stop``.
    """
    delta = stop - start
    div = num - 1
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0.0:
        grid = [float(i) / div * delta + start for i in range(num)]
    else:
        grid = [float(i) * step + start for i in range(num)]
    grid[-1] = stop
    return grid


def _death_time_cell(sf: StandardForm, res: ReservoirConfig) -> object:
    """Death time as a table cell: float, 'asymptotic-only', or 'separable'."""
    if is_separable(sf):
        return "separable"
    ts = esd_time(sf, res)
    return "asymptotic-only" if isinstance(ts, AsymptoticOnly) else ts


def _cmd_report(args: argparse.Namespace) -> int:
    sf = _state_from_args(args)
    outputs = _parse_outputs(args.outputs, _REPORT_OUTPUTS)
    res = _reservoir_from_args(args)
    t = args.t
    if t != 0.0:
        if res is None:
            raise _CliError("--t > 0 needs a reservoir; add bath flags or use --t 0")
        sf = evolve(sf, res, t).sf
    row = [t, sf.b1, sf.b2, sf.c, *_state_cells(sf, outputs, args.units)]
    _write_table(["t", "b1", "b2", "c", *_columns(outputs)], [row], args.format, args.out)
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
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
    if args.log_spacing:
        if args.t_start <= 0.0:
            raise _CliError("--log-spacing needs --t-start > 0")
        # numpy's own log10/power, not libm's: they differ in the last bit
        # on some points, and the grid is part of the output.
        import numpy as np

        grid = np.geomspace(args.t_start, args.t_end, args.points).tolist()
    else:
        grid = _linspace(args.t_start, args.t_end, args.points)
    # The grid rises from its first time, so this checks every time on it.
    _check_time(grid[0])
    _write_table(_EVOLVE_COLUMNS, _evolve_rows(sf0, res, grid, args.units), args.format, args.out)
    return 0


def _cmd_esd(args: argparse.Namespace) -> int:
    sf = _state_from_args(args)
    res = _reservoir_from_args(args)
    if res is None:
        raise _CliError("esd needs a reservoir: bath flags or --identical/--single-bath")
    if args.verify:
        closed = _closed_form_esd_time(sf, res)  # SeparableInputError -> exit 3
        if closed is None:
            raise _CliError(
                "no closed form exists for two baths that differ in rate or temperature; drop --verify"
            )
        oracle = esd_bisection(sf, res)
        if isinstance(closed, AsymptoticOnly) or isinstance(oracle, AsymptoticOnly):
            sys.stderr.write("no sudden death (zero-temperature bath)\n")
            row: list[object] = ["asymptotic-only"] * 3
        else:
            row = [closed, oracle, abs(closed - oracle)]
        _write_table(["t_s_closed", "t_s_bisection", "abs_difference"], [row], args.format, args.out)
        return 0
    ts = esd_time(sf, res)
    if isinstance(ts, AsymptoticOnly):
        sys.stderr.write("no sudden death (zero-temperature bath)\n")
        ts = "asymptotic-only"
    _write_table(["t_s"], [[ts]], args.format, args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise _CliError("need --steps >= 1")
    if args.param in ("nr", "gamma") and not (args.identical or args.single_bath):
        raise _CliError(f"sweeping {args.param} needs a shorthand layout (--identical or --single-bath)")
    sweeping_state = args.param in ("n1", "n2", "r")
    if sweeping_state:
        if any(v is not None for v in (args.b1, args.b2, args.c)):
            raise _CliError(f"sweeping {args.param} needs the --n1/--n2/--r parametrization")
        # The swept flag may be omitted; pin it so _state_from_args sees a full triple.
        if getattr(args, args.param) is None:
            setattr(args, args.param, args.min)
    res = _reservoir_from_args(args, nr_optional=(args.param == "nr"))
    allowed = _SWEEP_OUTPUTS if res is not None else _REPORT_OUTPUTS
    if args.outputs is None:
        outputs = ["ef", "d1", "d2", "mutual_information", "separable"] + (
            ["ts"] if res is not None else []
        )
    else:
        outputs = _parse_outputs(args.outputs, allowed)
    state_outputs = [o for o in outputs if o != "ts"]
    fixed_sf = None if sweeping_state else _state_from_args(args)

    def point(value: float) -> tuple[StandardForm, ReservoirConfig | None]:
        """The state and reservoir at one value of the swept parameter."""
        if sweeping_state:
            setattr(args, args.param, value)
            return _state_from_args(args), res
        gamma = value if args.param == "gamma" else args.gamma
        n_r = value if args.param == "nr" else args.nr
        layout = ReservoirConfig.identical if args.identical else ReservoirConfig.single_bath
        return fixed_sf, layout(gamma, n_r)

    values = _linspace(args.min, args.max, args.steps)
    # Every value lies between the two ends, and what the constructors
    # accept along one parameter is an interval, so a range accepted at
    # both ends is accepted throughout: an invalid range fails before any
    # output.
    point(values[0])
    point(values[-1])

    def rows() -> Iterator[list[object]]:
        for value in values:
            sf, res_v = point(value)
            row = [value, *_state_cells(sf, state_outputs, args.units)]
            if "ts" in outputs:
                row.append(_death_time_cell(sf, res_v))
            yield row

    _write_table([args.param, *_columns(outputs)], rows(), args.format, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # The destination is opened first, so an unwritable --out fails before
    # the battery's work rather than after it.
    with _destination(args.out) as write:
        from .verification import run_verification

        reports = run_verification(seed=args.seed)
        if args.format == "json":
            rows = [(r.quantity, r.closed_form, r.oracle, r.abs_err, r.tol, r.passed) for r in reports]
            _emit_table(write, _VERIFY_COLUMNS, rows, "json")
        else:
            lines = [
                f"{'PASS' if r.passed else 'FAIL'}  {r.quantity}: "
                f"closed={r.closed_form!r}  oracle={r.oracle!r}  "
                f"|err|={r.abs_err:.3e}  tol={r.tol:g}"
                for r in reports
            ]
            ok = sum(r.passed for r in reports)
            lines.append(f"{ok}/{len(reports)} checks passed")
            write("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        expanded = _expand_config(list(argv))
    except (OSError, _CliError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    args = _build_parser().parse_args(expanded)
    commands = {
        "report": _cmd_report,
        "evolve": _cmd_evolve,
        "esd": _cmd_esd,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        return commands[args.command](args)
    except SeparableInputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OraclePrecisionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (_CliError, InvalidParameterError, NonPhysicalStateError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
