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
alike) take their per-state cells, and those cells' columns, from one
function, ``_state_cells``.

Exit codes: 0 success, 1 verification failure (or a command that cannot run
on this platform: an oracle without extended precision, or ``verify`` and
``evolve --log-spacing`` where numpy cannot be imported), 2 invalid input
or an output that cannot be written (an ``--out`` path, or a stdout that
is full, a pipe without a reader, or closed), 3 inapplicable request
(death time of an already-separable state).  An error is one line,
``error: ...``, on stderr; where stderr cannot take it (closed, or
failing), the line is dropped and the exit code stands.

``run`` is the entry point of the ``stsdecay`` script and of ``python -m
stsdecay``: it runs ``main``, then the exit handlers, flushes the standard
streams and ends the process with ``os._exit``, skipping the interpreter's
teardown.  ``main`` returns its exit code, for callers in the same process.

No command compiles another command's code: each subcommand's handler,
and the code that only it uses, is the module ``_cmd_<subcommand>``,
which ``main`` imports for that subcommand alone.  This module holds the
option table, the reading of the command line, ``main``, ``run`` and the
helpers that two or more commands share.

Only ``verify``, ``evolve --log-spacing`` and ``evolve`` on a grid of at
least ``_cmd_evolve._BATCH_POINTS`` points import numpy; the last two
compute their rows in numpy batches (``_batch``) that are bit for bit the
scalar rows, which answer instead where numpy cannot be imported.  No
command imports what it does not run: ``dynamics`` only where a bath or a
death time is used, ``correlations`` only where a measure is printed,
json only for a string that JSON must escape (none that the commands
spell), and typing never.  argparse is not imported for a command line in
the plain form (the subcommand, then exact long flags and their values):
``_read_argv`` reads it from the option table that the parser is built
from.  The parser, ``_parser``, is imported and built only for help, for
a usage error, and for the forms that argparse alone reads (an
abbreviated flag, ``--flag=value``).
"""

from __future__ import annotations

import atexit
import codecs
import contextlib
import math
import operator
import os
import sys
from types import SimpleNamespace

from .core import StandardForm, StsParams, SymplecticSpectrum, _Floats, _spectrum, standard_form_from_sts
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

# Selectable outputs that are fields of the correlation report.
_MEASURES = ("ef", "d1", "d2", "mutual_information")
_REPORT_OUTPUTS = [*_MEASURES, "kappas", "separable"]
_SWEEP_OUTPUTS = _REPORT_OUTPUTS + ["ts"]
# The per-state outputs of every `evolve` row, and of `sweep` by default.
_STATE_OUTPUTS = [*_MEASURES, "separable"]

# Table rows are made and checked this many at a time, so memory does not
# grow with the table; a command that fails within its first chunk writes
# nothing.  A chunk of batch rows is made and checked on arrays.
_CHUNK_ROWS = 1024
# A checked chunk's text is formatted and written this many rows at a time,
# so the writer holds a slice's text, not a chunk's; a checked chunk of
# batch rows becomes Python rows this many at a time too.
_SLICE_ROWS = 128


def _json_string(value: object) -> str:
    """``json.dumps(value)``; json is imported only for a value that it must escape.

    A string of printable ASCII without ``"`` and ``\\`` is spelled as
    itself between quotes, as ``json.dumps`` spells it.  Every string that
    the commands spell (column names, markers, quantity names) is one.
    """
    if isinstance(value, str) and value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
        return '"' + value + '"'
    import json

    return json.dumps(value)


# How each format spells a string cell.
_SPELL = {"csv": str, "json": _json_string}

_LN2 = math.log(2.0)


class _CliError(Exception):
    """Invalid command-line input; maps to exit code 2."""


class _Unavailable(Exception):
    """A command that cannot run on this platform; maps to exit code 1."""


# The exit code of each error that ``main`` reports as one line on stderr.
_EXIT_CODES = {
    SeparableInputError: 3,
    OraclePrecisionError: 1,
    _Unavailable: 1,
    _CliError: 2,
    InvalidParameterError: 2,
    NonPhysicalStateError: 2,
}


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
# `_parser._GROUPS`, where their first row is.  Both `_read_argv` and
# `_parser._build_parser` read these rows.
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

# Subcommand -> its help line and its options.  The command itself is the
# function ``command`` of the module ``_cmd_<subcommand>``.
_SUBCOMMANDS = {
    "report": ("all correlation measures of one state at one time", _REPORT_OPTIONS),
    "evolve": ("correlation time series over a time grid", _EVOLVE_OPTIONS),
    "esd": ("entanglement sudden-death time", _ESD_OPTIONS),
    "sweep": ("scalar outputs along a one-parameter sweep", _SWEEP_OPTIONS),
    "verify": ("closed forms vs independent numeric oracles", _VERIFY_OPTIONS),
}


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

    ``argv`` is read as ``_parser._build_parser().parse_args(argv)`` would read
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


def _flag_value(token: str, flags: list[str]) -> bool:
    """Whether argparse reads ``token`` after a flag as its value; ``flags`` are the subcommand's, ``-h`` and ``--help`` among them."""
    if not token.startswith("-") or token == "-":
        return True
    # A token that starts a flag (by its name, for "--name=value"), or whose "-x" is one, is that flag.
    name = token.partition("=")[0] if token.startswith("--") else token
    if any(flag.startswith(name) or flag == token[:2] for flag in flags):
        return False
    return " " in token or _negative_number(token)


# The longest --config file read, in characters: 1 Mi, a bound on memory
# far above any file of flags.  At most 4 bytes a character, this many bytes
# hold one character more.
_CONFIG_CHARS = 1 << 20
_CONFIG_BYTES = 4 * _CONFIG_CHARS + 4


def _expand_config(argv: list[str]) -> list[str]:
    """Splice flags from a --config key=value file in after the subcommand.

    User-supplied flags come later in argv, so they win (argparse keeps
    the last occurrence of a repeated option).  The flag is read as
    argparse reads it: ``--config``, or a prefix of it that starts none of
    the subcommand's other flags, followed by ``=path`` or by a path (a
    ``_flag_value``); without one, ``argv`` is left for argparse to refuse.
    A file that cannot be opened or read, is not UTF-8 text, or is longer
    than ``_CONFIG_CHARS`` characters, is a ``_CliError``; no more is read.
    The bytes are decoded whole, so a decoding error names its offset in the
    file, and line ends are read as text mode reads them.  One leading
    byte-order mark (U+FEFF) is dropped.
    """
    flags = [row[0] for row in _SUBCOMMANDS[argv[0]][1]] + ["-h", "--help"] if argv and argv[0] in _SUBCOMMANDS else []
    path = None
    for i, tok in enumerate(argv):
        name, eq, value = tok.partition("=")
        if [flag for flag in flags if flag.startswith(name)] == ["--config"]:
            if not (eq or i + 1 < len(argv) and _flag_value(argv[i + 1], flags)):
                return argv
            path = value if eq else argv[i + 1]
    if path is None:
        return argv
    try:
        with open(path, "rb") as fh:
            data = fh.read(_CONFIG_BYTES)
        # Not final where the file may go on: a character cut short there is left out.
        text = codecs.utf_8_decode(data, None, len(data) < _CONFIG_BYTES)[0]
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot read {path}: it is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if len(text) > _CONFIG_CHARS:
        raise _CliError(f"cannot read {path}: it is longer than {_CONFIG_CHARS} characters")
    extra: list[str] = []
    for lineno, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
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


def _state_cells(outputs: list[str], units: str) -> tuple[list[str], Callable[..., tuple[object, ...]]]:
    """The columns of ``outputs``, and the function from entries ``(b1, b2, c)`` and their margin to its cells; elementwise.

    The columns are the picked measures, then the kappas
    (``SymplecticSpectrum.__match_args__``), then ``separable``: the order
    of the cells.  Each cell comes from the kernel that its public
    function wraps, and only when selected: the measures (floats, in
    ``units``) from ``correlations._measures``, the kappas (floats) from
    ``core._spectrum``, and the separable verdict, spelled, from the sign
    of the margin.  So the values, the errors and their order are those of
    ``correlation_report``, ``symplectic_spectrum`` and ``is_separable``.
    The correlation kernel is bound here, once per command, and imported
    only where a measure is selected.  The cells take the elementwise
    namespace ``ops`` of the kernels: ``core._Floats`` by default, or
    ``_batch._Arrays`` for a column of each cell.
    """
    picks = [i for i, name in enumerate(_MEASURES) if name in outputs]
    kappas, separable, bits = "kappas" in outputs, "separable" in outputs, units == "bits"
    columns = [_MEASURES[i] for i in picks] + [*SymplecticSpectrum.__match_args__] * kappas + ["separable"] * separable
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

    return columns, cells


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


@contextlib.contextmanager
def _destination(out: str | None) -> Iterator[Callable[[str], object]]:
    """The write function of stdout, or of the file ``out``; the body raises OSError only from it.

    A closed stdout, or a write to stdout that fails, is a ``_CliError``
    (exit code 2), as is a file that cannot be opened, written, closed,
    given its mode or renamed.

    A regular file is written under the name ``.stsdecay-<pid>.tmp`` in
    its directory, created anew, and renamed over ``out`` only once all of
    it is written, so a failed command leaves no new file and an existing
    one untouched.  Symlinks (/dev/stdout among them) and targets that are
    not regular files (devices, pipes) are written in place, as renaming
    would replace the link or the special file itself.
    """
    if out is None:
        if sys.stdout is None:
            raise _stdout_failed(None)
        try:
            yield sys.stdout.write
        except OSError as exc:
            raise _stdout_failed(exc) from exc
        return
    in_place = os.path.islink(out) or (os.path.exists(out) and not os.path.isfile(out))
    tmp = os.path.join(os.path.dirname(out), f".stsdecay-{os.getpid()}.tmp")
    made = False
    try:
        if not in_place:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            made = True
        # Closing flushes the last bytes, so it can fail as a write does.
        with open(out if in_place else fd, "w", encoding="utf-8", newline="") as fh:
            yield fh.write
        if made:
            if os.path.isfile(out):
                os.chmod(tmp, os.stat(out).st_mode & 0o7777)
            os.replace(tmp, out)
    except BaseException as exc:
        if made:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise _CliError(f"cannot write {out}: {exc.strerror}") from exc
        raise


def _emit_rows(
    write: Callable[[str], object],
    columns: Sequence[str],
    fmt: str,
    floats: int,
    chunks: Iterable[Iterable[tuple[object, ...]]],
) -> None:
    """Write the non-empty ``chunks`` of rows under ``columns`` as CSV or JSON.

    The bytes are those of ``csv.DictWriter(lineterminator="\\n")`` and of
    ``json.dumps(records, indent=2) + "\\n"`` on the same records.  Every
    cell prints through ``%s``, which spells a float as ``repr`` does.  A
    row is tested for finiteness once, by the sum of its first ``floats``
    cells, the floats; only a row that fails is checked cell by cell, and
    a non-finite number is refused, as neither format can spell it.  Every
    other cell arrives spelled for ``fmt`` (``"true"``/``"false"``, markers
    through ``_cell``) or is a death time, finite by construction.

    A chunk's rows are all made and checked before any of its text is
    written, so a command that fails within its first chunk writes nothing.
    Its text is then formatted and written ``_SLICE_ROWS`` rows at a time,
    and the chunk is let go before the next one is made, so memory holds
    one chunk's rows and one slice's text.  The batch rows of ``evolve``
    arrive already checked, their chunk whole on arrays, as chunks of one
    slice each, so memory holds a batch chunk's columns and one slice's
    rows and text.
    """
    if fmt == "csv":
        lead, sep, tail, template = ",".join(columns) + "\n", "\n", "\n", ",".join(["%s"] * len(columns))
    else:
        fields = ",\n".join(f"    {_json_string(name)}: %s" for name in columns)
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


def _grid(start: float, stop: float, num: int) -> Iterator[list[float]]:
    """The grid ``_linspace(start, stop, num)`` in lists of ``_CHUNK_ROWS`` points, made one at a time."""
    return (_linspace(start, stop, num, lo, lo + _CHUNK_ROWS) for lo in range(0, num, _CHUNK_ROWS))


def _note(line: str) -> None:
    """Write ``line`` to stderr where it can take it: a None or failing stderr drops it."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.write(line)


def _report(exc: Exception) -> int:
    """Write ``error: exc`` through ``_note``; return the code of ``exc``."""
    _note(f"error: {exc}\n")
    return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        expanded = _expand_config(list(argv))
        args = _read_argv(expanded)
        if args is None:
            from ._parser import _build_parser

            args = _build_parser().parse_args(expanded)
        # The module of this subcommand alone; ``__import__``, since -X importtime
        # does not list a module that ``importlib.import_module`` loads.
        return __import__(f"{__package__}._cmd_{args.command}", fromlist=["command"]).command(args)
    except tuple(_EXIT_CODES) as exc:
        return _report(exc)


def run() -> None:
    """Run ``main`` on ``sys.argv`` and end the process with its exit code, skipping the interpreter's teardown.

    The entry point of the ``stsdecay`` script and of ``python -m
    stsdecay``.  Once the exit handlers have run and stdout and stderr are
    flushed, nothing is pending, and the teardown (a last garbage
    collection, then freeing every module and object, which costs more
    CPU than a ``report`` computes) would only delay the exit, so the
    process ends with ``os._exit``.  A stdout that fails its flush is
    reported as a failed write in ``main`` is, with exit code 2; what a
    stderr that fails its flush holds is dropped, and the code stands.
    The interpreter exits as usual under ``python -i`` and after an
    exception out of ``main`` (argparse's ``SystemExit`` among them).
    ``OPENBLAS_NUM_THREADS`` is 1 unless the environment sets it: numpy's
    OpenBLAS would start a pool of threads that the package's 4x4 ``@``
    and ``eigvalsh`` are too small to use.
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
            code = _report(_stdout_failed(exc))
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.flush()
    os._exit(code)
