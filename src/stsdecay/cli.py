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
instead.  Every table goes through one writer, ``_emit_rows``: its rows
are made and checked a chunk at a time, and their text is written a slice
at a time; ``--out`` files appear only once complete.  A chunk of the
batch rows of ``evolve`` is computed and checked whole on arrays, and its
rows become Python objects only a slice at a time, as the writer reaches
them.  ``report``, ``sweep`` and ``evolve`` (its scalar and batch rows
alike) take their per-state cells from one function, ``_state_cells``.

Exit codes: 0 success, 1 verification failure (or a command that cannot run
on this platform: an oracle without extended precision, or ``verify`` and
``evolve --log-spacing`` where numpy cannot be imported), 2 invalid input
or an output that cannot be written (an ``--out`` path, or a stdout that
is full, a pipe without a reader, or closed), 3 inapplicable request
(death time of an already-separable state).

``run`` is the entry point of the ``stsdecay`` script and of ``python -m
stsdecay``: it runs ``main``, then the exit handlers, flushes the standard
streams and ends the process with ``os._exit``, skipping the interpreter's
teardown.  ``main`` returns its exit code, for callers in the same process.

Only ``verify``, ``evolve --log-spacing`` and ``evolve`` on a grid of at
least ``_BATCH_POINTS`` points import numpy; the last two compute their
rows in numpy batches (``_batch``) that are bit for bit the scalar rows,
which answer instead where numpy cannot be imported.  No command imports
what it does not run: ``dynamics`` only where a bath or a death time is
used, ``correlations`` only where a measure is printed, json only for JSON
output, and typing never.  argparse is not imported for a command line in
the plain form (the subcommand, then exact long flags and their values):
``_read_argv`` reads it from the option table that the parser is built
from.  The parser is built only for help, for a usage error, and for the
forms that argparse alone reads (an abbreviated flag, ``--flag=value``).
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import itertools
import math
import operator
import os
import sys
from types import SimpleNamespace

from .core import (
    StandardForm,
    StsParams,
    _bona_fide,
    _Floats,
    _separability_margin,
    _spectrum,
    _sts_entries,
    standard_form_from_sts,
)
from .errors import (
    InvalidParameterError,
    NonPhysicalStateError,
    OraclePrecisionError,
    SeparableInputError,
)

# Every annotation is a string (``from __future__ import annotations``), so
# the names they use are imported for a type checker alone, not at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from typing import Callable, Iterable, Iterator, Sequence

    from .dynamics import ReservoirConfig

    # The arguments of a command line, from `_read_argv` or from argparse.
    Args = SimpleNamespace | argparse.Namespace

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
# Selectable outputs that are fields of the correlation report.
_MEASURES = ("ef", "d1", "d2", "mutual_information")
_REPORT_OUTPUTS = [*_MEASURES, "kappas", "separable"]
_SWEEP_OUTPUTS = _REPORT_OUTPUTS + ["ts"]
# The per-state outputs of every `evolve` row, and of `sweep` by default.
_STATE_OUTPUTS = [*_MEASURES, "separable"]

# Fixed column schemas of the `evolve` and `verify --format json` tables
# (documented in README).
_EVOLVE_COLUMNS = ["t", "b1", "b2", "c", *_STATE_OUTPUTS]
_VERIFY_COLUMNS = ["quantity", "closed_form", "oracle", "abs_err", "tol", "passed"]

# Table rows are made and checked this many at a time, so memory does not
# grow with the table; a command that fails within its first chunk writes
# nothing.  A chunk of batch rows is made and checked on arrays.
_CHUNK_ROWS = 1024
# A checked chunk's text is formatted and written this many rows at a time,
# so the writer holds a slice's text, not a chunk's; a checked chunk of
# batch rows becomes Python rows this many at a time too.
_SLICE_ROWS = 128


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


# The options of each subcommand, one row each, in the order of its help:
# (flag, kind, default, choices, required, help, group).  The kind is the
# type of the value (float, int or str), or bool for a flag that takes no
# value and stores True; the dest is the flag without its dashes, with "_"
# for "-", as argparse derives it.  A row of group None belongs to the
# parser itself; the other groups are created, with their descriptions in
# _GROUPS, where their first row is.  Both `_read_argv` and `_build_parser`
# read these rows.
_GROUPS = {
    "state": "either the physical parameters --n1/--n2/--r or the standard form --b1/--b2/--c",
    "reservoir": None,
    "output": None,
    "grid": None,
}
_CONFIG_OPTION = ("--config", str, None, None, False, "key=value file; command-line flags override it", None)
_COMMON_OPTIONS = [
    ("--n1", float, None, None, False, "mean thermal photon number of mode 1", "state"),
    ("--n2", float, None, None, False, "mean thermal photon number of mode 2", "state"),
    ("--r", float, None, None, False, "squeeze parameter", "state"),
    ("--b1", float, None, None, False, "standard-form diagonal entry of mode 1", "state"),
    ("--b2", float, None, None, False, "standard-form diagonal entry of mode 2", "state"),
    ("--c", float, None, None, False, "standard-form cross-block magnitude", "state"),
    ("--phi", float, 0.0, None, False, "phase (radians, default 0)", "state"),
    ("--gamma1", float, None, None, False, "damping rate of mode 1", "reservoir"),
    ("--nr1", float, None, None, False, "reservoir occupancy seen by mode 1", "reservoir"),
    ("--gamma2", float, None, None, False, "damping rate of mode 2", "reservoir"),
    ("--nr2", float, None, None, False, "reservoir occupancy seen by mode 2", "reservoir"),
    ("--identical", bool, False, None, False, "identical baths on both modes (uses --gamma/--nr)", "reservoir"),
    ("--single-bath", bool, False, None, False, "bath on mode 1 only (uses --gamma/--nr)", "reservoir"),
    ("--gamma", float, 1.0, None, False, "shorthand damping rate (default 1)", "reservoir"),
    ("--nr", float, None, None, False, "shorthand reservoir occupancy", "reservoir"),
    ("--format", str, "csv", ("csv", "json"), False, None, "output"),
    ("--units", str, "nats", ("nats", "bits"), False, None, "output"),
    ("--out", str, None, None, False, "write to this path instead of stdout", "output"),
    _CONFIG_OPTION,
]
_REPORT_OPTIONS = [
    *_COMMON_OPTIONS,
    ("--t", float, 0.0, None, False, "evolution time (default 0)", None),
    (
        "--outputs", str, ",".join(_REPORT_OUTPUTS), None, False,
        f"comma-separated subset of {{{','.join(_REPORT_OUTPUTS)}}}",
        None,
    ),
]
_EVOLVE_OPTIONS = [
    *_COMMON_OPTIONS,
    ("--t-start", float, 0.0, None, False, None, "grid"),
    ("--t-end", float, None, None, True, None, "grid"),
    ("--points", int, 200, None, False, None, "grid"),
    ("--log-spacing", bool, False, None, False, "logarithmic grid (needs --t-start > 0)", "grid"),
]
_ESD_OPTIONS = [
    *_COMMON_OPTIONS,
    ("--verify", bool, False, None, False, "also run the bisection oracle and print the difference", None),
]
_SWEEP_OPTIONS = [
    *_COMMON_OPTIONS,
    ("--param", str, None, ("n1", "n2", "r", "nr", "gamma"), True, None, None),
    ("--min", float, None, None, True, None, None),
    ("--max", float, None, None, True, None, None),
    ("--steps", int, None, None, True, None, None),
    (
        "--outputs", str, None, None, False,
        f"comma-separated subset of {{{','.join(_SWEEP_OUTPUTS)}}}; defaults to the "
        "correlation measures, plus ts when a reservoir is configured",
        None,
    ),
]
_VERIFY_OPTIONS = [
    ("--seed", int, 0, None, False, None, None),
    ("--format", str, "text", ("text", "json"), False, None, None),
    ("--out", str, None, None, False, "write to this path instead of stdout", None),
    _CONFIG_OPTION,
]


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _negative_number(token: str) -> bool:
    """Whether argparse reads ``token``, which starts with "-", as a value rather than as a flag.

    The pattern is argparse's own for a parser none of whose options looks
    like a negative number, as is the case for every parser here.
    """
    import re

    return re.match(r"^-\d+$|^-\d*\.\d+$", token) is not None


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain command line, as argparse gives them, or None.

    ``argv`` is read as ``_build_parser().parse_args(argv)`` would read
    it, and the namespace holds the same values in the same order, but
    only in the plain form that every valid command line can take: the
    subcommand first, then the exact long flags of that subcommand, each
    followed by its value (none for a store-True flag).  A value that
    starts with "-" must be a negative number in argparse's sense.  None
    is returned for anything else (an abbreviated flag, ``--flag=value``,
    ``-h``, ``--``, a stray token, a missing required flag, a value that
    fails its conversion or its choices), so that argparse answers it,
    with its help or its usage error.
    """
    entry = _SUBCOMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    options = entry[1]
    rows = {row[0]: row for row in options}
    values: dict[str, object] = {"command": argv[0]}
    for flag, _, default, *_ in options:
        values[_dest(flag)] = default
    seen = set()
    i = 1
    while i < len(argv):
        row = rows.get(argv[i])
        if row is None:
            return None
        flag, kind, _, choices, *_ = row
        seen.add(flag)
        if kind is bool:
            values[_dest(flag)] = True
            i += 1
            continue
        if i + 1 == len(argv):
            return None
        token = argv[i + 1]
        if token.startswith("-") and not _negative_number(token):
            return None
        try:
            value = kind(token)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[_dest(flag)] = value
        i += 2
    if any(required and flag not in seen for flag, _, _, _, required, *_ in options):
        return None
    return SimpleNamespace(**values)


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built from the option table.

    argparse is imported here, so only a command line that needs the
    parser loads it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="stsdecay",
        description=(
            "Quantum correlations of two-mode squeezed thermal states and "
            "their decay in local thermal reservoirs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        groups: dict[str | None, argparse._ActionsContainer] = {None: p}
        for flag, kind, default, choices, required, help_text, group in options:
            if group not in groups:
                groups[group] = p.add_argument_group(group, _GROUPS[group])
            kwargs: dict[str, object] = {"help": help_text}
            if kind is bool:
                kwargs["action"] = "store_true"
            else:
                kwargs.update(default=default, choices=choices, required=required)
                if kind is not str:
                    kwargs["type"] = kind
            groups[group].add_argument(flag, **kwargs)
    return parser


# The longest --config file read, in characters: 1 Mi, a bound on memory
# far above any file of flags.
_CONFIG_CHARS = 1 << 20


def _expand_config(argv: list[str]) -> list[str]:
    """Splice flags from a --config key=value file in after the subcommand.

    User-supplied flags come later in argv, so they win (argparse keeps
    the last occurrence of a repeated option).  A file that cannot be
    opened or read, is not UTF-8 text, or is longer than ``_CONFIG_CHARS``
    characters, is a ``_CliError``; no more of it than that is read.
    """
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None or not argv:
        return argv
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(_CONFIG_CHARS + 1)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot read {path}: it is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    if len(text) > _CONFIG_CHARS:
        raise _CliError(f"cannot read {path}: it is longer than {_CONFIG_CHARS} characters")
    extra: list[str] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
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


def _state_from_args(args: Args) -> StandardForm:
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


def _reservoir_from_args(args: Args) -> ReservoirConfig | None:
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


def _state_cells(outputs: list[str], units: str) -> Callable[..., tuple[object, ...]]:
    """The function from entries ``(b1, b2, c)`` and their separability margin to the cells of ``outputs``; elementwise.

    The cells are those of the per-state ``outputs``, in canonical order.
    Each comes from the kernel that its public function wraps, and only
    when selected: the measures (floats, in ``units``) from
    ``correlations._measures``, the kappas (floats) from ``core._spectrum``,
    and the separable verdict, spelled, from the sign of the margin.  So
    the values, the errors and their order are those of
    ``correlation_report``, ``symplectic_spectrum`` and ``is_separable``.
    The correlation kernel is bound here, once per command, and imported
    only where a measure is selected.  The cells take the elementwise
    namespace ``ops`` of the kernels: ``core._Floats`` by default, or
    ``_batch._Arrays`` for a column of each cell.
    """
    picks = [i for i, name in enumerate(_MEASURES) if name in outputs]
    kappas, separable, bits = "kappas" in outputs, "separable" in outputs, units == "bits"
    if picks:
        from .correlations import _measures

        pick = operator.itemgetter(*picks) if len(picks) > 1 else lambda report: (report[picks[0]],)

    def cells(b1, b2, c, margin, ops=_Floats) -> tuple[object, ...]:
        row = pick(_measures(b1, b2, c, margin, ops)) if picks else ()
        if bits:
            row = tuple([value / _LN2 for value in row])
        if kappas:
            row += _spectrum(b1, b2, c, ops)
        if separable:
            row += (ops.select(margin >= 0.0, "true", "false"),)
        return row

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


def _stdout_failed(exc: OSError | None) -> _CliError:
    """The error for a stdout that cannot be written (``exc``) or is closed (None).

    What stdout still holds unwritten is let go: its file descriptor is
    pointed at the null device, so no later flush, by ``run`` or by the
    interpreter at exit, fails on it again and the error is printed once.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        pass
    else:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)
    return _CliError(f"cannot write stdout: {'it is closed' if exc is None else exc.strerror or exc}")


def _checked(write: Callable[[str], object], failed: Callable[[OSError], _CliError]) -> Callable[[str], None]:
    """``write``, with an OSError that it raises turned into the error ``failed(exc)``."""

    def checked(text: str) -> None:
        try:
            write(text)
        except OSError as exc:
            raise failed(exc) from exc

    return checked


@contextlib.contextmanager
def _destination(out: str | None) -> Iterator[Callable[[str], object]]:
    """A write function for stdout, or for the file ``out``.

    A closed stdout, or a write to stdout that fails, is a ``_CliError``
    (exit code 2), as is a file that cannot be opened, written or closed.

    A regular file is written under a temporary name in its directory and
    renamed over ``out`` only once all of it is written, so a failed
    command leaves no new file and an existing one untouched.  Symlinks
    (/dev/stdout among them) and targets that are not regular files
    (devices, pipes) are written in place, as renaming would replace the
    link or the special file itself.
    """
    if out is None:
        if sys.stdout is None:
            raise _stdout_failed(None)
        yield _checked(sys.stdout.write, _stdout_failed)
        return

    def failed(exc: OSError) -> _CliError:
        return _CliError(f"cannot write {out}: {exc.strerror}")

    in_place = os.path.islink(out) or (os.path.exists(out) and not os.path.isfile(out))
    tmp = f"{out}.{os.getpid()}.tmp"
    try:
        target = out if in_place else os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        fh = open(target, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise failed(exc) from exc
    try:
        try:
            yield _checked(fh.write, failed)
        finally:
            # Closing flushes the last bytes, so it can fail as a write does.
            try:
                fh.close()
            except OSError as exc:
                raise failed(exc) from exc
        if not in_place:
            if os.path.isfile(out):
                os.chmod(tmp, os.stat(out).st_mode & 0o7777)
            os.replace(tmp, out)
    except BaseException:
        if not in_place:
            os.unlink(tmp)
        raise


def _emit_rows(
    write: Callable[[str], object],
    columns: list[str],
    fmt: str,
    floats: int,
    chunks: Iterable[Iterable[tuple[object, ...]]],
) -> None:
    """Write the non-empty ``chunks`` of rows under ``columns`` as CSV or JSON.

    The bytes are those of ``csv.DictWriter(lineterminator="\\n")`` and of
    ``json.dumps(records, indent=2) + "\\n"`` on the same records.  The
    first ``floats`` cells of a row are floats, printed in shortest
    round-trip form.  A row is tested for finiteness once, by their sum;
    only a row that fails that test is checked cell by cell, and a
    non-finite number is refused, since neither format has a valid
    spelling for it.  Every other cell arrives spelled for ``fmt``
    (``"true"``/``"false"``, markers through ``_cell``) or is a death time,
    finite by construction, and is printed as it is.

    A chunk's rows are all made and checked before any of its text is
    written, so a command that fails within its first chunk writes nothing.
    Its text is then formatted and written ``_SLICE_ROWS`` rows at a time,
    and the chunk is let go before the next one is made, so memory holds
    one chunk's rows and one slice's text.  The batch rows of ``evolve``
    arrive already checked, their chunk whole on arrays, as chunks of one
    slice each, so memory holds a batch chunk's columns and one slice's
    rows and text.
    """
    slots = ["%r"] * floats + ["%s"] * (len(columns) - floats)
    if fmt == "csv":
        lead, sep, tail, template = ",".join(columns) + "\n", "\n", "\n", ",".join(slots)
    else:
        fields = ",\n".join(f"    {_json_string(name)}: {slot}" for name, slot in zip(columns, slots))
        lead, sep, tail, template = "[\n", ",\n", "\n]\n", "  {\n" + fields + "\n  }"
    for chunk in chunks:
        rows = list(chunk)
        del chunk
        for row in rows:
            if not math.isfinite(sum(row[:floats])):
                for value in row[:floats]:
                    _cell(value, str)
        for lo in range(0, len(rows), _SLICE_ROWS):
            write(lead + sep.join([template % row for row in rows[lo : lo + _SLICE_ROWS]]))
            lead = sep
        del rows
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


def _grid(start: float, stop: float, num: int, log: bool = False) -> Iterator[list[float]]:
    """The grid of ``num`` points from ``start`` to ``stop`` in lists of ``_CHUNK_ROWS`` points, made one at a time.

    The linear grid is ``_linspace``.  The log grid is ``numpy.geomspace``,
    made the way it makes it, with numpy's own log10/power rather than
    libm's (they differ in the last bit on some points, and the grid is
    part of the output): 10 to the power of the linear grid of the
    exponents, then the first and last points set to ``start`` and ``stop``.
    """
    if log:
        import numpy as np

        log_start, log_stop = float(np.log10(start)), float(np.log10(stop))

    def chunk(lo: int) -> list[float]:
        hi = lo + _CHUNK_ROWS
        if not log:
            return _linspace(start, stop, num, lo, hi)
        grid = np.power(10.0, np.array(_linspace(log_start, log_stop, num, lo, hi))).tolist()
        if hi >= num:
            grid[-1] = stop
        if lo == 0:
            grid[0] = start
        return grid

    return map(chunk, range(0, num, _CHUNK_ROWS))


# Grids of at least this many points take the numpy batch rows of `evolve`.
# Loading numpy and the batch module costs a child about 126 ms of CPU and a
# batch row saves about 11 us (25.5 against 14.5 us per row, written), so
# the two paths break even near 1.2*10^4 rows (README, "Command line").
_BATCH_POINTS = 10_000


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

    cells = _state_cells(_STATE_OUTPUTS, units)

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
    _emit_rows(write, _EVOLVE_COLUMNS, fmt, 8, chunk_rows)


def _cmd_report(args: Args) -> int:
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


def _cmd_evolve(args: Args) -> int:
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
    from .correlations import _measures  # noqa: F401
    from .dynamics import _check_time

    if args.log_spacing:
        _require_numpy("evolve --log-spacing")
    chunks = _grid(args.t_start, args.t_end, args.points, args.log_spacing)
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


def _cmd_esd(args: Args) -> int:
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


def _cmd_sweep(args: Args) -> int:
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
    ts, state_cells = ("ts" in outputs), _state_cells(outputs, args.units)
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
    columns = [param, *_columns(outputs)]
    floats = len(columns) - ("separable" in outputs) - ts
    rows = (map(row, chunk) for chunk in _grid(lo, hi, steps))
    with _destination(args.out) as write:
        _emit_rows(write, columns, args.format, floats, rows)
    return 0


def _cmd_verify(args: Args) -> int:
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


# Subcommand -> its help line, its options, and the command.
_SUBCOMMANDS = {
    "report": ("all correlation measures of one state at one time", _REPORT_OPTIONS, _cmd_report),
    "evolve": ("correlation time series over a time grid", _EVOLVE_OPTIONS, _cmd_evolve),
    "esd": ("entanglement sudden-death time", _ESD_OPTIONS, _cmd_esd),
    "sweep": ("scalar outputs along a one-parameter sweep", _SWEEP_OPTIONS, _cmd_sweep),
    "verify": ("closed forms vs independent numeric oracles", _VERIFY_OPTIONS, _cmd_verify),
}


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        expanded = _expand_config(list(argv))
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    args = _read_argv(expanded) or _build_parser().parse_args(expanded)
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


def run() -> None:
    """Run ``main`` on ``sys.argv`` and end the process with its exit code, skipping the interpreter's teardown.

    The entry point of the ``stsdecay`` script and of ``python -m
    stsdecay``.  Once the exit handlers have run and stdout and stderr are
    flushed, nothing is pending, and the teardown (a last garbage
    collection, then freeing every module and object, which costs more
    CPU than a ``report`` computes) would only delay the exit, so the
    process ends with ``os._exit``.  A stdout that fails its flush is
    reported as a failed write in ``main`` is, with exit code 2.  The
    interpreter exits as usual under ``python -i``, after an exception
    out of ``main`` (argparse's ``SystemExit`` among them), and where
    stderr cannot be flushed.  ``OPENBLAS_NUM_THREADS`` is 1 unless the
    environment sets it: numpy's OpenBLAS would start a pool of threads
    that the package's 4x4 ``@`` and ``eigvalsh`` are too small to use.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    if sys.flags.inspect:
        sys.exit(code)
    # The registered handlers, which the interpreter would run at exit; the
    # call also unregisters them, so none runs twice.
    atexit._run_exitfuncs()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            sys.stderr.write(f"error: {_stdout_failed(exc)}\n")
            code = 2
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            sys.exit(code)
    os._exit(code)
