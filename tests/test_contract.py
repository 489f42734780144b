"""The contract of every table command, on drawn command lines.

Whole ``report``, ``evolve``, ``sweep`` and ``esd`` command lines are drawn
from the option table of ``cli`` in the plain form that ``cli._read_argv``
reads, as ``test_argv_property.py`` draws them, with values from an
adversarial pool (5e-324 to 1e308, 1/2 and its neighbours, r up to 355.58,
subnormal and huge occupancies) mixed with ordinary ones; the lines that
ROADMAP.md and CHANGES.md cite as defects or edges (``CITED``) run too, in
CSV and in JSON.  Each line runs through ``cli.main``, and:

* exit: the exit code is 0, 2 or 3;
* error line: on a nonzero exit, stderr is one ``error: `` line, and no
  exception (no traceback) leaves ``main``;
* table: on exit 0, stdout is a CSV or JSON table that parses, JSON's NaN
  and Infinity refused;
* columns: it has the command's documented columns, and no inf or NaN cell;
* rebuild: every row is rebuilt bit for bit through the public API: the
  records, ``evolve``, ``correlation_report``, ``symplectic_spectrum``,
  ``is_separable``, ``esd_time`` and ``esd_bisection``, on the grids of
  ``numpy.linspace`` and ``numpy.geomspace``;
* batch: ``_cmd_evolve._emit_evolve`` writes the same bytes, and refusal,
  from its scalar rows and from the numpy batch rows of ``_batch``.

``_MUTANTS`` holds faults that the contract catches: each is patched into
the program alone (``cli.main`` and the other row path of ``evolve``, not
the rebuild, which stays the reference), and the contract must fail on a
line that meets it.

Not asserted yet (ROADMAP item 10): that a refusal is true, that is, that
what its message says overflows or is below 0 does so when recomputed
exactly.  It fails on ``report --b1 2e300 --b2 3 --c 1`` until item 16 and
on ``report --n1 1 --n2 1 --r 10`` until item 3, and lands with them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import shlex
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
np = pytest.importorskip("numpy")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from stsdecay import ASYMPTOTIC_ONLY, ReservoirConfig, StandardForm, StsParams, _batch, _cmd_evolve, cli  # noqa: E402
from stsdecay import _cmd_report, _cmd_sweep, _parser, core, correlations, dynamics, verification  # noqa: E402
from stsdecay import correlation_report, esd_bisection, esd_time, evolve, is_separable  # noqa: E402
from stsdecay import standard_form_from_sts, symplectic_spectrum  # noqa: E402
from stsdecay.errors import NonPhysicalStateError, SeparableInputError  # noqa: E402
from conftest import pure  # noqa: E402

# The command lines cited as defects or edges; tests/compare_trees.py replays them too.
CITED = [
    # ROADMAP item 3: ef 38.71 and separable true at r = 19, and two refusals.
    "report --n1 1 --n2 1 --r 19",
    "report --n1 0 --n2 0 --r 19",
    "report --n1 1 --n2 1 --r 10",
    "report --n1 10 --n2 0.1 --r 9",
    # Item 16: margins of about 5e300 and 1e155 refused as overflows.
    "report --b1 2e300 --b2 3 --c 1",
    "report --b1 49478.128337921145 --b2 5569170.380517019 --c 524927.9636070088",
    "report --b1 1e155 --b2 1e155 --c 1",
    # Item 2: an evolved spectrum at 1/2.
    "report --n1 0 --n2 3.412388335000394 --r 0.5 --single-bath --gamma 2.7643546931262666 --nr 0 --t 2.8313070758651153",
    # Item 7, and the pure-state death time ln(1 + 1/n_r)/gamma, refused from r = 19 on.
    "esd --n1 10 --n2 0.1 --r 2 --gamma1 1 --gamma2 2 --nr1 1e-320 --nr2 1e-320",
    "esd --n1 0 --n2 0 --r 19 --single-bath --gamma 1 --nr 0.5",
    "esd --n1 0 --n2 0 --r 50 --single-bath --gamma 1 --nr 0.5",
    "esd --n1 0 --n2 0 --r 170 --single-bath --gamma 1 --nr 0.5",
    "esd --n1 1 --n2 1 --r 19 --identical --gamma 1 --nr 0.5",
    "esd --n1 10 --n2 0.1 --r 2 --identical --gamma 1 --nr 0.5 --verify",
    # Entries that overflow, and rows refused inside the grid.
    "evolve --n1 1e308 --n2 1 --r 1 --identical --nr 0.5 --t-end 1 --points 3",
    "evolve --n1 4 --n2 1.5 --r 9.7 --gamma2 0.9 --nr2 0.35 --t-end 11 --points 1023",
    "evolve --b1 2 --b2 2 --c 1 --single-bath --nr 1e160 --t-end 2e-6 --points 100",
    # A negative start whose grid step overflows, refused by its start on both row paths.
    "evolve --n1 1 --n2 1 --r 1 --identical --nr 0.5 --t-start=-1e308 --t-end 1e308 --points 5",
    "evolve --n1 1 --n2 1 --r 1 --identical --nr 0.5 --t-start=-1e308 --t-end 1e308 --points 20000",
    "sweep --n1 1 --n2 1 --param r --min 0 --max 800 --steps 5",
    "sweep --n1 4 --n2 1.5 --param r --min 5 --max 10 --steps 101",
]
# A line for each branch that the coverage assertion asks for, whatever examples hypothesis draws.
_BRANCH_LINES = [
    "evolve --b1 2 --b2 3 --c 0 --identical --nr 0.5 --t-end 5 --points 17",
    "evolve --n1 0 --n2 0 --r 1 --identical --nr 0.5 --t-end 5 --points 17",
    "evolve --n1 1 --n2 0.5 --r 1 --single-bath --nr 0 --t-end 3 --points 17",
    "evolve --n1 4 --n2 1.5 --r 9.7 --identical --nr 0.35 --t-end 11 --points 17",
    "sweep --n1 1 --n2 1 --identical --nr 0 --param r --min 0 --max 2 --steps 5 --outputs ts",
]
# The documented columns of each selectable output, in canonical order.
_MEASURES = ["ef", "d1", "d2", "mutual_information"]
_KAPPAS = ["kappa_plus", "kappa_minus", "kappa_tilde_plus", "kappa_tilde_minus"]
_OUTPUTS = {**{name: [name] for name in _MEASURES}, "kappas": _KAPPAS, "separable": ["separable"], "ts": ["ts"]}


def _pool(edges, lo, hi, zero=False):
    """A value of ``edges`` one time in five, 0 one more where ``zero``, else one uniform in [lo, hi].

    The uniform value comes from a drawn seed: hypothesis' own floats crowd
    at the ends of a range, where few command lines are valid.
    """

    def value(k):
        if k % 5 == 0:
            return edges[k // 5 % len(edges)]
        return 0.0 if zero and k % 5 == 1 else random.Random(k).uniform(lo, hi)

    return st.integers(0, 2**32 - 1).map(value)


_TINY = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300]
_HUGE = [1e15, 1e154, 1e300, 1e308, 1.7976931348623157e308]
_HALF = [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)]
_SMALL = [0.0, *_TINY, *_HALF, 1e300]
# The pool of each float flag, whose values are spelled by repr.  An
# occupancy of 0 is a zero-temperature bath, or a mode in its vacuum.  A
# negative value in exponent form would read as a flag.
_FLOATS = {
    **dict.fromkeys(["--n1", "--n2", "--nr", "--nr1", "--nr2"], _pool([*_TINY, *_HALF, *_HUGE], 0.0, 2.0, zero=True)),
    **dict.fromkeys(["--b1", "--b2"], _pool([*_HALF, 1e154, 2e300, 1.7976931348623157e308], 0.5, 5.0)),
    "--c": _pool([0.0, *_TINY, *_HALF, *_HUGE], 0.0, 2.0),
    "--r": _pool([0.0, *_TINY, 9.0, 19.0, 177.0, 177.5, 355.0, 355.58], 0.0, 3.0),
    "--phi": _pool([-math.pi, -1.0, math.pi], 0.0, 4.0),
    **dict.fromkeys(["--gamma", "--gamma1", "--gamma2"], _pool(_SMALL, 0.0, 3.0)),
    **dict.fromkeys(["--t", "--t-start"], _pool(_SMALL, 0.0, 1.0)),
    "--t-end": _pool(_SMALL[1:], 0.0, 10.0),
}
_INTS = {"--points": [17, 2, 3, 1025, 1], "--steps": [13, 1, 2, 100, 0]}
# The physical parametrization two times in three.
_STATES = [("--n1", "--n2", "--r")] * 2 + [("--b1", "--b2", "--c")]
_BATHS = [(), ("--identical", "--nr"), ("--identical", "--gamma", "--nr"), ("--single-bath", "--nr")]
_BATHS += [("--single-bath", "--gamma", "--nr"), ("--gamma1", "--nr1"), ("--gamma2", "--nr2"), ("--gamma1", "--nr1", "--gamma2", "--nr2")]
# The optional flags of each command, in groups that are each given half of the time.
_OPTIONAL = {
    "report": [("--t",), ("--outputs",)],
    "evolve": [("--t-start",), ("--points",), ("--t-start", "--log-spacing")],
    "esd": [("--verify",)],
    "sweep": [("--outputs",)],
}


@st.composite
def _argvs(draw, command):
    """A plain command line of ``command``; mostly valid, sometimes not."""
    table = {row[0]: row for row in cli._SUBCOMMANDS[command][1]}
    state, bath = draw(st.sampled_from(_STATES)), draw(st.sampled_from(_BATHS))
    param = draw(st.sampled_from(table["--param"][3])) if command == "sweep" else None
    if param is not None and draw(st.integers(0, 3)):
        # Mostly a sweep that its parametrization or layout admits.
        state, bath = (_STATES[0], bath) if param in ("n1", "n2", "r") else (state, draw(st.sampled_from(_BATHS[1:5])))
    groups = [*_OPTIONAL[command], ("--phi",), ("--format",), ("--units",)]
    flags = [*state, *bath, *(flag for group in groups if draw(st.booleans()) for flag in group)]
    flags += [row[0] for row in table.values() if row[4]]
    if not draw(st.integers(0, 7)):
        # A flag of the table at random: a repeat, a clash, or one more option.
        flags.append(draw(st.sampled_from(sorted(set(table) - {"--out", "--config"}))))
    argv = [command]
    for flag in flags:
        _, kind, _, choices, *_ = table[flag]
        argv.append(flag)
        if flag == "--param":
            argv.append(param)
        elif flag in ("--min", "--max"):
            argv.append(repr(draw(_FLOATS["--" + param])))
        elif flag == "--outputs":
            allowed = [name for name in _OUTPUTS if name != "ts" or command == "sweep"]
            argv.append(",".join(draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=3, unique=True))))
        elif choices:
            argv.append(draw(st.sampled_from(choices)))
        elif kind is int:
            argv.append(str(draw(st.sampled_from(_INTS[flag]))))
        elif kind is float:
            argv.append(repr(draw(_FLOATS[flag])))
    return argv


def _state(a):
    """The state record of the arguments ``a``."""
    if a["b1"] is None:
        return standard_form_from_sts(StsParams(a["n1"], a["n2"], a["r"], a["phi"]))
    return StandardForm(a["b1"], a["b2"], a["c"], a["phi"])


def _reservoir(a):
    """The reservoir record of the arguments ``a``, or None."""
    if a["identical"] or a["single_bath"]:
        return (ReservoirConfig.identical if a["identical"] else ReservoirConfig.single_bath)(a["gamma"], a["nr"])
    explicit = [a[key] for key in ("gamma1", "nr1", "gamma2", "nr2")]
    return None if explicit == [None] * 4 else ReservoirConfig(*(0.0 if v is None else v for v in explicit))


def _cells(sf, res, columns, units):
    """The cells of ``columns`` at the state ``sf``, each from the public function that answers it."""
    cells = []
    for column in columns:
        if column in _MEASURES:
            value = getattr(correlation_report(sf), column)
            cells.append(value / math.log(2.0) if units == "bits" else value)
        elif column in _KAPPAS:
            cells.append(getattr(symplectic_spectrum(sf), column))
        else:
            separable = is_separable(sf)
            cells.append(separable if column == "separable" else "separable" if separable else esd_time(sf, res))
    return cells


def _columns(a):
    """The documented columns of the table of the arguments ``a``."""
    command = a["command"]
    if command == "esd":
        return ["t_s_closed", "t_s_bisection", "abs_difference"] if a["verify"] else ["t_s"]
    if command != "evolve" and a["outputs"] is not None:
        names = [name for name in _OUTPUTS if name in a["outputs"].split(",")]
    else:
        names = [*_MEASURES, "separable"] + (["ts"] if command == "sweep" and _reservoir(a) is not None else [])
    lead = [a["param"]] if command == "sweep" else ["t", "b1", "b2", "c"]
    return lead + [column for name in names for column in _OUTPUTS[name]]


def _expected(a, columns):
    """The rows of the table of the arguments ``a``, through the public API."""
    command, units, res = a["command"], a["units"], _reservoir(a)
    if command == "esd" and not a["verify"]:
        return [[esd_time(_state(a), res)]]
    if command == "esd":
        closed, oracle = esd_time(_state(a), res), esd_bisection(_state(a), res)
        return [[ASYMPTOTIC_ONLY] * 3] if ASYMPTOTIC_ONLY in (closed, oracle) else [[closed, oracle, abs(closed - oracle)]]
    if command == "sweep":
        values = np.linspace(a["min"], a["max"], a["steps"]).tolist()
        ats = [{**a, a["param"]: value} for value in values]
        return [[value, *_cells(_state(at), _reservoir(at), columns[1:], units)] for value, at in zip(values, ats)]
    if command == "report":
        times = [a["t"]]
    else:
        times = (np.geomspace if a["log_spacing"] else np.linspace)(a["t_start"], a["t_end"], a["points"]).tolist()
    sf0 = _state(a)
    sfs = [sf0 if t == 0.0 and command == "report" else evolve(sf0, res, t).sf for t in times]
    return [[t, sf.b1, sf.b2, sf.c, *_cells(sf, res, columns[4:], units)] for t, sf in zip(times, sfs)]


def _spelled(value):
    """A cell as the CSV table spells it."""
    if value is ASYMPTOTIC_ONLY:
        return "asymptotic-only"
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def _table(out, fmt):
    """The header and the rows of a table, every cell spelled as in CSV."""
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert out.endswith("\n") and all(len(row) == len(header) for row in rows)
        return header, rows
    records = json.loads(out, parse_constant=_refuse)
    assert isinstance(records, list) and all(list(record) == list(records[0]) for record in records)
    assert all(type(value) in (float, bool, str) for record in records for value in record.values())
    return list(records[0]), [[_spelled(value) for value in record.values()] for record in records]


def _other_rows(call):
    """What ``_emit_evolve`` writes on the arguments of ``call`` from the row path that the call did not take.

    The output, and the error line of the refusal that ended it, or "".
    """
    _, sf0, res, chunks, units, fmt, batch = call
    out = io.StringIO()
    try:
        _cmd_evolve._emit_evolve(out.write, sf0, res, chunks, units, fmt, None if batch else _batch)
    except tuple(cli._EXIT_CODES) as exc:
        return out.getvalue(), f"error: {exc}\n"
    return out.getvalue(), ""


def _check(argv, seen, mutant=()):
    """Run ``argv`` through ``cli.main``, assert the contract, and add the branches that its rows took to ``seen``.

    The patches of ``mutant`` are in force while the program runs, and not
    while the rows are rebuilt through the public API.
    """
    args = cli._read_argv(argv)
    if args is None:
        # Only a cited line may take a spelling that argparse alone reads.
        assert any("=" in token for token in argv), argv
        args = _parser._build_parser().parse_args(argv)
    a, calls, emit = vars(args), [], _cmd_evolve._emit_evolve

    def recorded(write, sf0, res, chunks, *rest):
        calls.append((write, sf0, res, [list(chunk) for chunk in chunks], *rest))
        return emit(*calls[-1])

    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as program:
        for patch in mutant:
            program.enter_context(patch)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with mock.patch.object(_cmd_evolve, "_emit_evolve", recorded):
                code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        # exit; error line.
        assert code in (0, 2, 3), (code, err)
        assert not code or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")), err
        # batch: the other row path writes what main wrote, and refuses as it did.
        for call in calls:
            assert _other_rows(call) == (out, err if code else "")
            seen.update(["refused"] if code else [])
    if code:
        return
    if a["command"] == "sweep":
        # No row uses the swept flag's own value, which may be left out.
        a[a["param"]] = a["min"]
    # table; columns.
    columns = _columns(a)
    header, rows = _table(out, a["format"])
    assert header == columns
    for cell in (cell for row in rows for cell in row):
        with contextlib.suppress(ValueError):
            assert math.isfinite(float(cell)), cell
    # rebuild.
    expected = _expected(a, columns)
    assert rows == [[_spelled(value) for value in row] for row in expected]
    asymptotic = a["command"] == "esd" and expected[0][0] is ASYMPTOTIC_ONLY
    assert err == ("no sudden death (zero-temperature bath)\n" if asymptotic else "")
    if a["command"] == "evolve":
        verdicts, res = {row[-1] for row in rows}, _reservoir(a)
        seen.update(["crossing"] if verdicts == {"false", "true"} else [])
        seen.update(["zero temperature"] if res.n_r1 == res.n_r2 == 0.0 and "false" in verdicts else [])
        seen.update("product" for row in expected if row[3] == 0.0)
        seen.update("pure" for row in expected if pure(StandardForm(*row[1:4])))
    if a["command"] == "sweep" and "ts" in columns:
        seen.update(row[-1] for row in rows if row[-1] in ("separable", "asymptotic-only"))


# The branches that the rows of each command take over all its examples.
_BRANCHES = {
    "report": set(),
    "evolve": {"product", "pure", "crossing", "zero temperature", "refused"},
    "sweep": {"separable", "asymptotic-only"},
    "esd": set(),
}


@pytest.mark.parametrize("command", sorted(_BRANCHES))
def test_every_command_line_meets_the_contract(command):
    seen = set()

    @settings(max_examples=150)
    @given(_argvs(command))
    def check(argv):
        _check(argv, seen)

    for line in _BRANCH_LINES:
        if line.startswith(command + " "):
            check = example(shlex.split(line))(check)
    check()
    assert seen == _BRANCHES[command]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("line", CITED)
def test_every_cited_line_meets_the_contract(line, fmt):
    _check([*shlex.split(line), "--format", fmt], set())


def _float_cells(f, checked=True):
    """The stand-in for ``_emit_rows`` that writes ``f`` of each float cell, unchecked for finiteness unless ``checked``."""

    def stand_in(emit):
        def emit_mutant(write, columns, fmt, floats, chunks):
            rows = ([tuple(f(v) if i < floats else v for i, v in enumerate(row)) for row in chunk] for chunk in chunks)
            return emit(write, columns, fmt, floats if checked else 0, rows)

        return emit_mutant

    return stand_in


def _bare(kernel):
    """``kernel`` refusing with a bare ValueError, which ``main`` does not catch."""

    def bare(*args):
        try:
            return kernel(*args)
        except NonPhysicalStateError as exc:
            raise ValueError(*exc.args) from None

    return bare


def _nudged(stack):
    """``_batch.stack`` with its d2 column one ulp up."""

    def nudged(kernel, *columns):
        results = list(stack(kernel, *columns))
        results[6] = np.nextafter(results[6], np.inf)
        return tuple(results)

    return nudged


_NAN = _float_cells(lambda v: math.nan if v == 0.0 else v, checked=False)
_NATS = lambda f: lambda outputs, units: f(outputs, "nats")  # noqa: E731
_REVERSED = lambda f: lambda outputs, units: (lambda columns, cells: (columns[::-1], cells))(*f(outputs, units))  # noqa: E731
_SHORT = lambda f: lambda start, stop, num: f(start, stop, num - 1)  # noqa: E731
_INVERTED = lambda m: -m  # noqa: E731
# Every module of the package that binds ``core._offsets``: a mutant of it reaches every row.
_OFFSETS = (core, correlations, dynamics, verification, _cmd_report, _cmd_evolve, _cmd_sweep)


def _margin(g):
    """The stand-in for ``core._offsets`` whose margin m is ``g(m)``."""
    return lambda f: lambda *entries: (lambda a1, a2, m: (a1, a2, g(m)))(*f(*entries))


# ``dynamics._root`` handed b_i = a_i + 1/2, the entries, in place of the offsets.
_ENTRIES_TO_ROOT = lambda f: lambda a1, a2, neg, res: f(a1 + 0.5, a2 + 0.5, neg, res)  # noqa: E731
_REPORT = "report --n1 10 --n2 0.1 --r 2"
_EVOLVE = "evolve --n1 10 --n2 0.1 --r 2 --identical --nr 0.5 --t-end 2 --points 50"
_SWEEP = "sweep --n1 1 --n2 0.5 --r 1 --gamma1 1 --nr1 0.5 --param r --min 0 --max 2 --steps 9"
# Faults that the contract catches, each on a line that meets it: (module or class, or a tuple of them, name, the
# name's stand-in made from it, line).
_MUTANTS = {
    "nan cell in report": (_cmd_report, "_emit_rows", _NAN, "report --n1 0 --n2 0 --r 0"),
    "nan cell in evolve json": (_cmd_evolve, "_emit_rows", _NAN, _BRANCH_LINES[0] + " --format json"),
    "nan cell in sweep": (_cmd_sweep, "_emit_rows", _NAN, "sweep --n1 1 --n2 1 --param r --min 0 --max 2 --steps 5"),
    "bare ValueError": (correlations, "_measures", _bare, "report --n1 10 --n2 0.1 --r 9"),
    "refusal exits 0": (cli, "_EXIT_CODES", lambda codes: dict.fromkeys(codes, 0), "report --n1 10 --n2 0.1 --r 9"),
    "separable input exits 1": (cli, "_EXIT_CODES", lambda codes: {**codes, SeparableInputError: 1}, "esd --n1 0 --n2 0 --r 0 --identical --nr 0.5"),
    "two-line error": (_cmd_evolve, "_CliError", lambda error: lambda message: error(message + "\nsee --help"), "evolve --n1 1 --n2 1 --r 1 --t-end 1"),
    "batch d2 one ulp up": (_batch, "stack", _nudged, _EVOLVE),
    "batch h in two logarithms": (_batch._Arrays, "h", lambda h: lambda a: np.where(a > 0.0, (a + 1.0) * np.log(a + 1.0) - a * np.log(np.where(a > 0.0, a, 1.0)), 0.0), _EVOLVE),
    "json cells to 15 digits": (_cmd_report, "_emit_rows", _float_cells(lambda v: float("%.15g" % v)), _REPORT + " --format json"),
    "json header upper case": (cli, "_json_string", lambda spell: lambda value: spell(value.upper()), _REPORT + " --format json"),
    "report columns reversed": (_cmd_report, "_state_cells", _REVERSED, _REPORT),
    "report verdict inverted": (_OFFSETS, "_offsets", _margin(_INVERTED), _REPORT + " --outputs separable"),
    "report ignores units": (_cmd_report, "_state_cells", _NATS, _REPORT + " --units bits"),
    "evolve ignores units": (_cmd_evolve, "_state_cells", _NATS, _EVOLVE + " --units bits"),
    "sweep ignores units": (_cmd_sweep, "_state_cells", _NATS, _SWEEP + " --units bits"),
    "evolve entries swapped": (_cmd_evolve, "_bona_fide", lambda f: lambda *entries: f(*entries)[::-1], _EVOLVE),
    "sweep entries swapped": (_cmd_sweep, "_sts_entries", lambda f: lambda *x: (lambda b1, b2, c: (b2, b1, c))(*f(*x)), _SWEEP),
    "evolve always entangled": (_OFFSETS, "_offsets", _margin(lambda m: -abs(m)), _EVOLVE),
    "sweep verdict inverted": (_OFFSETS, "_offsets", _margin(_INVERTED), _SWEEP + " --outputs separable,ts"),
    "esd root given the entries": (dynamics, "_root", _ENTRIES_TO_ROOT, "esd --n1 0 --n2 0 --r 2 --single-bath --nr 0.5"),
    "sweep root given the entries": (dynamics, "_root", _ENTRIES_TO_ROOT, _SWEEP + " --outputs ts"),
    "evolve grid one point short": (_cmd_evolve, "_grid", _SHORT, _EVOLVE),
    "evolve log grid linear": (_cmd_evolve, "_log_grid", lambda f: _cmd_evolve._grid, _EVOLVE + " --t-start 0.01 --log-spacing"),
    "sweep grid one point short": (_cmd_sweep, "_grid", _SHORT, _SWEEP),
}


@pytest.mark.parametrize("mutant", _MUTANTS)
def test_the_contract_fails_on_each_mutant(mutant):
    modules, name, stand_in, line = _MUTANTS[mutant]
    _check(shlex.split(line), set())
    modules = modules if isinstance(modules, tuple) else (modules,)
    patches = [mock.patch.object(module, name, stand_in(getattr(module, name))) for module in modules]
    with pytest.raises((AssertionError, ValueError)):
        _check(shlex.split(line), set(), patches)
