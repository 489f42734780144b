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
instead.  Every table goes through one writer, ``_emit_rows``, a chunk at
a time; ``--out`` files appear only once complete.  ``report`` and
``sweep`` take their per-state cells from one function, ``_state_cells``.

Exit codes: 0 success, 1 verification failure (or a command that cannot run
on this platform: an oracle without extended precision, or ``verify`` and
``evolve --log-spacing`` where numpy cannot be imported), 2 invalid input,
3 inapplicable request (death time of an already-separable state).

Only ``verify``, ``evolve --log-spacing`` and ``evolve`` on a grid of at
least ``_evolve_table.BATCH_POINTS`` points import numpy; the last two
compute their rows in numpy batches (``_batch``) that are bit for bit the
scalar rows, which answer instead where numpy cannot be imported.  No
command imports what it does not run: ``dynamics`` only where a bath or a
death time is used, ``correlations`` only where a measure is printed, json
only for JSON output, and the parser gets the arguments of the named
subcommand alone.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .core import StandardForm, StsParams, _separability_margin, _spectrum, standard_form_from_sts
from .errors import (
    InvalidParameterError,
    NonPhysicalStateError,
    OraclePrecisionError,
    SeparableInputError,
)

if TYPE_CHECKING:
    from .dynamics import ReservoirConfig

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


def _json_string(value: object) -> str:
    """``json.dumps(value)``; json is imported for JSON output alone."""
    import json

    return json.dumps(value)


# How each format spells a string cell.
_SPELL = {"csv": str, "json": _json_string}

_LN2 = math.log(2.0)


class _CliError(Exception):
    """Invalid command-line input; maps to exit code 2."""


class _Unavailable(Exception):
    """A command that cannot run on this platform; maps to exit code 1."""


def _require_numpy(command: str) -> None:
    """Import numpy, or refuse ``command`` where it cannot be imported."""
    try:
        import numpy  # noqa: F401
    except ImportError as exc:
        raise _Unavailable(f"{command} needs numpy, which cannot be imported") from exc


def _common_args(p: argparse.ArgumentParser) -> None:
    """The state, reservoir and output flags of ``report``, ``evolve``, ``esd`` and ``sweep``."""
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


def _report_args(p: argparse.ArgumentParser) -> None:
    _common_args(p)
    p.add_argument("--t", type=float, default=0.0, help="evolution time (default 0)")
    p.add_argument(
        "--outputs",
        default=",".join(_REPORT_OUTPUTS),
        help=f"comma-separated subset of {{{','.join(_REPORT_OUTPUTS)}}}",
    )


def _evolve_args(p: argparse.ArgumentParser) -> None:
    _common_args(p)
    grid = p.add_argument_group("grid")
    grid.add_argument("--t-start", type=float, default=0.0)
    grid.add_argument("--t-end", type=float, required=True)
    grid.add_argument("--points", type=int, default=200)
    grid.add_argument("--log-spacing", action="store_true", help="logarithmic grid (needs --t-start > 0)")


def _esd_args(p: argparse.ArgumentParser) -> None:
    _common_args(p)
    p.add_argument(
        "--verify",
        action="store_true",
        help="also run the bisection oracle and print the difference",
    )


def _sweep_args(p: argparse.ArgumentParser) -> None:
    _common_args(p)
    p.add_argument("--param", required=True, choices=["n1", "n2", "r", "nr", "gamma"])
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--outputs",
        default=None,
        help=(
            f"comma-separated subset of {{{','.join(_SWEEP_OUTPUTS)}}}; defaults to the "
            "correlation measures, plus ts when a reservoir is configured"
        ),
    )


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.add_argument("--config", help="key=value file; command-line flags override it")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, with the arguments of the subcommand ``command`` alone, or of every one where None.

    Every subcommand is registered with its help line, so the top-level
    help and the "invalid choice" error are the same whatever ``command``
    is; argparse hands the rest of argv to the subcommand it names, whose
    parser is the one that needs its arguments.
    """
    parser = argparse.ArgumentParser(
        prog="stsdecay",
        description=(
            "Quantum correlations of two-mode squeezed thermal states and "
            "their decay in local thermal reservoirs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command is None or command == name:
            add_args(p)
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


def _reservoir_from_args(args: argparse.Namespace) -> ReservoirConfig | None:
    explicit = any(v is not None for v in (args.gamma1, args.nr1, args.gamma2, args.nr2))
    if args.identical and args.single_bath:
        raise _CliError("--identical and --single-bath are mutually exclusive")
    shorthand = args.identical or args.single_bath
    if explicit and shorthand:
        raise _CliError("give either the explicit --gamma1/--nr1/--gamma2/--nr2 or a shorthand layout")
    if not (explicit or shorthand):
        return None
    if shorthand and args.nr is None:
        raise _CliError("the shorthand reservoir layouts need --nr")
    from .dynamics import ReservoirConfig

    if args.identical:
        return ReservoirConfig.identical(args.gamma, args.nr)
    if args.single_bath:
        return ReservoirConfig.single_bath(args.gamma, args.nr)
    return ReservoirConfig(
        args.gamma1 if args.gamma1 is not None else 0.0,
        args.nr1 if args.nr1 is not None else 0.0,
        args.gamma2 if args.gamma2 is not None else 0.0,
        args.nr2 if args.nr2 is not None else 0.0,
    )


def _parse_outputs(selection: str, allowed: list[str]) -> list[str]:
    chosen = [tok.strip() for tok in selection.split(",") if tok.strip()]
    bad = [tok for tok in chosen if tok not in allowed]
    if bad:
        raise _CliError(f"unknown outputs {bad!r}; pick from {allowed!r}")
    # Canonical order regardless of how the user listed them.
    return [name for name in allowed if name in chosen]


def _scale(value: float, units: str) -> float:
    return value / _LN2 if units == "bits" else value


def _state_cells(outputs: list[str], units: str) -> Callable[[float, float, float, float], tuple[object, ...]]:
    """The function from entries ``(b1, b2, c)`` and their separability margin to the cells of ``outputs``.

    The cells are those of the per-state ``outputs``, in canonical order.
    Each comes from the kernel that its public function wraps, and only
    when selected: the measures (floats) from ``correlations._measures``,
    the kappas (floats) from ``core._spectrum``, and the separable
    verdict, spelled, from the sign of the margin.  So the values, the
    errors and their order are those of ``correlation_report``,
    ``symplectic_spectrum`` and ``is_separable``.  The correlation kernel
    is bound here, once per command, and imported only where a measure is
    selected.
    """
    measures = [i for i, name in enumerate(_MEASURES) if name in outputs]
    kappas, separable = "kappas" in outputs, "separable" in outputs
    if measures:
        from .correlations import _measures

    def cells(b1: float, b2: float, c: float, margin: float) -> tuple[object, ...]:
        row: list[object] = []
        if measures:
            report = _measures(b1, b2, c, margin)
            row += [_scale(report[i], units) for i in measures]
        if kappas:
            row += _spectrum(b1, b2, c)
        if separable:
            row.append("true" if margin >= 0.0 else "false")
        return tuple(row)

    return cells


def _columns(outputs: list[str]) -> list[str]:
    return [col for name in outputs for col in _OUTPUT_COLUMNS[name]]


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


def _emit_rows(
    write: Callable[[str], object],
    columns: list[str],
    fmt: str,
    floats: int,
    chunks: Iterable[Iterable[tuple[object, ...]]],
) -> None:
    """Write the non-empty ``chunks`` of rows under ``columns`` as CSV or JSON, a chunk at a time.

    The bytes are those of ``csv.DictWriter(lineterminator="\\n")`` and of
    ``json.dumps(records, indent=2) + "\\n"`` on the same records.  The
    first ``floats`` cells of a row are floats, printed in shortest
    round-trip form.  A row is tested for finiteness once, by their sum;
    only a row that fails that test is checked cell by cell, and a
    non-finite number is refused, since neither format has a valid
    spelling for it.  Every other cell arrives spelled for ``fmt``
    (``"true"``/``"false"``, markers through ``_cell``) or is a death time,
    finite by construction, and is printed as it is.

    A chunk is written once all its lines are made, so a command that fails
    within its first chunk writes nothing; it is let go before the next one
    is made, so memory holds one chunk.
    """
    slots = ["%r"] * floats + ["%s"] * (len(columns) - floats)
    if fmt == "csv":
        lead, sep, tail, template = ",".join(columns) + "\n", "\n", "\n", ",".join(slots)
    else:
        fields = ",\n".join(f"    {_json_string(name)}: {slot}" for name, slot in zip(columns, slots))
        lead, sep, tail, template = "[\n", ",\n", "\n]\n", "  {\n" + fields + "\n  }"
    for chunk in chunks:
        lines = []
        for row in chunk:
            if not math.isfinite(sum(row[:floats])):
                for value in row[:floats]:
                    _cell(value, str)
            lines.append(template % row)
        write(lead + sep.join(lines))
        lead = sep
        del chunk, lines
    write(tail)


def _linspace(start: float, stop: float, num: int, first: int = 0, end: int | None = None) -> list[float]:
    """``numpy.linspace(start, stop, num).tolist()[first:end]`` for ``num >= 1``, bit for bit.

    The same operations in the same order: ``i*step + start`` with
    ``step = (stop - start)/(num - 1)``, ``i/(num - 1)*delta + start`` when
    that step underflows to zero, and the last point set to ``stop``.
    Only the points asked for are made, so a long grid can be made a
    slice at a time.
    """
    delta = stop - start
    div = num - 1
    if div == 0:
        return [0.0 * delta + start][first:end]
    points = range(num)[first:end]
    step = delta / div
    if step == 0.0:
        grid = [float(i) / div * delta + start for i in points]
    else:
        grid = [float(i) * step + start for i in points]
    if points and points[-1] == div:
        grid[-1] = stop
    return grid


def _linear_chunks(start: float, stop: float, num: int) -> Iterator[list[float]]:
    """``_linspace(start, stop, num)`` in lists of ``_CHUNK_ROWS`` points, made one at a time."""
    return (_linspace(start, stop, num, lo, lo + _CHUNK_ROWS) for lo in range(0, num, _CHUNK_ROWS))


def _cmd_report(args: argparse.Namespace) -> int:
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
    row = (t, b1, b2, c, *_state_cells(outputs, args.units)(b1, b2, c, _separability_margin(b1, b2, c)))
    floats = len(row) - ("separable" in outputs)
    with _destination(args.out) as write:
        _emit_rows(write, ["t", "b1", "b2", "c", *_columns(outputs)], args.format, floats, [[row]])
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
    if args.log_spacing and args.t_start <= 0.0:
        raise _CliError("--log-spacing needs --t-start > 0")
    if args.log_spacing:
        _require_numpy("evolve --log-spacing")
    from . import _evolve_table as table
    from .dynamics import _check_time

    chunks = table.grid_chunks(args.t_start, args.t_end, args.points, args.log_spacing)
    first = next(chunks)
    # The grid rises from its first time, so this checks every time on it.
    _check_time(first[0])
    batch = table.batch_kernel() if args.log_spacing or args.points >= table.BATCH_POINTS else None
    with _destination(args.out) as write:
        table.emit(write, sf0, res, itertools.chain([first], chunks), args.units, args.format, batch)
    return 0


def _cmd_esd(args: argparse.Namespace) -> int:
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
        sys.stderr.write("no sudden death (zero-temperature bath)\n")
    cells = tuple(_cell("asymptotic-only" if value is ASYMPTOTIC_ONLY else value, _SPELL[args.format]) for value in row)
    with _destination(args.out) as write:
        _emit_rows(write, columns, args.format, 0, [[cells]])
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
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
    allowed = _SWEEP_OUTPUTS if res is not None else _REPORT_OUTPUTS
    if args.outputs is None:
        outputs = ["ef", "d1", "d2", "mutual_information", "separable"] + (
            ["ts"] if res is not None else []
        )
    else:
        outputs = _parse_outputs(args.outputs, allowed)
    sf0 = _state_from_args(args)
    from . import _sweep_table

    _sweep_table.emit(args, outputs, sf0, res)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # The destination is opened first, so an unwritable --out fails before
    # the battery's work rather than after it.
    with _destination(args.out) as write:
        _require_numpy("verify")
        from .verification import run_verification

        reports = run_verification(seed=args.seed)
        if args.format == "json":
            # _VERIFY_COLUMNS are the report's fields, in order.
            rows = [tuple(_cell(value, _json_string) for value in r._fields()) for r in reports]
            _emit_rows(write, _VERIFY_COLUMNS, "json", 0, [rows])
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


# Subcommand -> its help line, the function that adds its arguments, and the command.
_SUBCOMMANDS = {
    "report": ("all correlation measures of one state at one time", _report_args, _cmd_report),
    "evolve": ("correlation time series over a time grid", _evolve_args, _cmd_evolve),
    "esd": ("entanglement sudden-death time", _esd_args, _cmd_esd),
    "sweep": ("scalar outputs along a one-parameter sweep", _sweep_args, _cmd_sweep),
    "verify": ("closed forms vs independent numeric oracles", _verify_args, _cmd_verify),
}


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        expanded = _expand_config(list(argv))
    except (OSError, _CliError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    # argparse hands the rest of argv to the subcommand named by the first
    # token that is not a flag, or refuses that token if it names none.
    command = next((tok for tok in expanded if not tok.startswith("-")), "")
    args = _build_parser(command).parse_args(expanded)
    try:
        return _SUBCOMMANDS[args.command][2](args)
    except SeparableInputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (OraclePrecisionError, _Unavailable) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (_CliError, InvalidParameterError, NonPhysicalStateError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
