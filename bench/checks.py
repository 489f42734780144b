"""Correctness checks of one ``stsdecay`` invocation's exit code and output.

Every check re-derives what it expects from the argv alone, through the
package's public API and its independent oracles:

* exit codes: 3 for a separable input to ``esd``, 0 otherwise;
* tables: the fixed column schema of each subcommand, valid JSON, and no
  ``inf``/``nan`` cell;
* ``evolve`` and ``report`` rows recompute bit for bit through ``evolve``
  and ``correlation_report`` (``evolve``: the time grid in full plus a
  seeded sample of rows);
* death-time cells: markers agree with ``is_separable`` and with
  zero-temperature layouts, and finite cells match ``esd_bisection``
  within 1e-9 (sweeps: a seeded sample of the finite cells);
* ``report`` kappas match the eigen-oracle within 1e-10;
* ``verify`` reports every check passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from stsdecay import (
    AsymptoticOnly,
    ReservoirConfig,
    StandardForm,
    StsParams,
    correlation_report,
    esd_bisection,
    evolve,
    full_cm,
    is_separable,
    ppt_spectrum_oracle,
    standard_form_from_sts,
    symplectic_spectrum,
    symplectic_spectrum_oracle,
)

# Rows of each `evolve` invocation recomputed bit for bit, and finite death
# times of each `sweep` invocation re-derived by bisection.
EVOLVE_SAMPLE = 64
SWEEP_SAMPLE = 64
TS_TOL = 1e-9
KAPPA_TOL = 1e-10

EVOLVE_COLUMNS = ["t", "b1", "b2", "c", "ef", "d1", "d2", "mutual_information", "separable"]
REPORT_OUTPUTS = ["ef", "d1", "d2", "mutual_information", "kappas", "separable"]
KAPPA_COLUMNS = ["kappa_plus", "kappa_minus", "kappa_tilde_plus", "kappa_tilde_minus"]
MEASURES = ("ef", "d1", "d2", "mutual_information")
VERIFY_KEYS = ["quantity", "closed_form", "oracle", "abs_err", "tol", "passed"]
SEPARABLE, ASYMPTOTIC = "separable", "asymptotic-only"

_FLAGS = {"identical", "single-bath", "log-spacing", "verify"}
_LN2 = math.log(2.0)


@dataclass
class Outcome:
    """What the checks found in one invocation's output."""

    rows: int = 0
    problems: list[str] = field(default_factory=list)
    measure_rows: int = 0  # rows that print a correlation measure
    finite_ts: int = 0  # finite death-time cells


def parse_argv(argv: list[str]) -> tuple[str, dict[str, object]]:
    """Subcommand and options of a generated argv (flags map to True)."""
    opts: dict[str, object] = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if key in _FLAGS:
            opts[key] = True
            i += 1
        else:
            opts[key] = argv[i + 1]
            i += 2
    return argv[0], opts


def _f(opts: dict, key: str, default: float | None = None) -> float | None:
    return float(opts[key]) if key in opts else default


def state_of(opts: dict) -> StandardForm:
    if "b1" in opts:
        return StandardForm(_f(opts, "b1"), _f(opts, "b2"), _f(opts, "c"))
    return standard_form_from_sts(StsParams(_f(opts, "n1"), _f(opts, "n2"), _f(opts, "r")))


def reservoir_of(opts: dict) -> ReservoirConfig | None:
    gamma, n_r = _f(opts, "gamma", 1.0), _f(opts, "nr", 0.0)
    if opts.get("identical"):
        return ReservoirConfig.identical(gamma, n_r)
    if opts.get("single-bath"):
        return ReservoirConfig.single_bath(gamma, n_r)
    if any(k in opts for k in ("gamma1", "nr1", "gamma2", "nr2")):
        return ReservoirConfig(_f(opts, "gamma1", 0.0), _f(opts, "nr1", 0.0), _f(opts, "gamma2", 0.0), _f(opts, "nr2", 0.0))
    return None


def cell(value: object) -> str:
    """A value as the CLI prints it in a CSV cell (JSON cells are parsed to this form)."""
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, (float, str)):
        return value if isinstance(value, str) else repr(value)
    raise TypeError(f"unexpected cell value {value!r}")


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite JSON number {name}")


def parse_table(text: str, fmt: str) -> tuple[list[str], list[list[str]]]:
    """Column names and rows of cells, each cell as its CSV text.

    Raises ValueError for malformed output, ragged rows and non-finite numbers.
    """
    if fmt == "json":
        records = json.loads(text, parse_constant=_reject_constant)
        if not isinstance(records, list) or not records or not all(isinstance(r, dict) for r in records):
            raise ValueError("JSON output is not a non-empty list of objects")
        columns = list(records[0])
        if any(list(r) != columns for r in records):
            raise ValueError("JSON rows have differing keys")
        rows = [[cell(r[k]) for k in columns] for r in records]
    else:
        if not text.endswith("\n"):
            raise ValueError("CSV output does not end with a newline")
        lines = list(csv.reader(io.StringIO(text)))
        columns, rows = lines[0], lines[1:]
        if any(len(r) != len(columns) for r in rows):
            raise ValueError("ragged CSV rows")
    for row in rows:
        for value in row:
            try:
                number = float(value)
            except ValueError:
                continue
            if not math.isfinite(number):
                raise ValueError(f"non-finite cell {value!r}")
    return columns, rows


def _scale(value: float, units: str) -> float:
    return value / _LN2 if units == "bits" else value


def _state_row(sf: StandardForm, outputs: list[str], units: str) -> list[str]:
    """Cells of b1, b2, c and the selected per-state outputs, recomputed."""
    rep = correlation_report(sf)
    row = [sf.b1, sf.b2, sf.c]
    for name in outputs:
        if name in MEASURES:
            row.append(_scale(getattr(rep, name), units))
        elif name == "kappas":
            spec = symplectic_spectrum(sf)
            row += [spec.kappa_plus, spec.kappa_minus, spec.kappa_tilde_plus, spec.kappa_tilde_minus]
        else:
            row.append(is_separable(sf))
    return [cell(v) for v in row]


def _noisy(res: ReservoirConfig) -> bool:
    return (res.gamma1 > 0.0 and res.n_r1 > 0.0) or (res.gamma2 > 0.0 and res.n_r2 > 0.0)


def _death_time_problem(value: str, sf: StandardForm, res: ReservoirConfig, exact: bool) -> str | None:
    """Why a death-time cell is wrong, or None; ``exact`` also runs bisection."""
    if is_separable(sf):
        expected = SEPARABLE
    elif not _noisy(res):
        expected = ASYMPTOTIC
    else:
        try:
            ts = float(value)
        except ValueError:
            return f"death time {value!r} where a finite time is due"
        if exact:
            oracle = esd_bisection(sf, res)
            if isinstance(oracle, AsymptoticOnly) or not abs(ts - oracle) <= TS_TOL:
                return f"death time {value} differs from bisection {oracle!r}"
        return None
    return None if value == expected else f"death time {value!r} where {expected!r} is due"


class Checker:
    """Checks invocations; the seeded ``rng`` picks the sampled rows."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def check(self, argv: list[str], code: int, out: bytes) -> Outcome:
        outcome = Outcome()
        command, opts = parse_argv(argv)
        try:
            text = out.decode("utf-8")
            if command == "verify":
                self._verify(opts, code, text, outcome)
            elif command == "esd" and is_separable(state_of(opts)):
                if code != 3 or text:
                    outcome.problems.append(f"separable input: exit {code} and {len(text)} output bytes, want exit 3 and none")
            elif code != 0:
                outcome.problems.append(f"exit code {code}, want 0")
            else:
                columns, rows = parse_table(text, str(opts.get("format", "csv")))
                outcome.rows = len(rows)
                getattr(self, "_" + command)(opts, columns, rows, outcome)
        except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
            outcome.problems.append(f"output rejected: {exc!r}")
        return outcome

    def _sample(self, n: int, k: int) -> list[int]:
        return sorted({0, n - 1, *self.rng.sample(range(n), min(n, k))})

    def _evolve(self, opts: dict, columns: list[str], rows: list[list[str]], outcome: Outcome) -> None:
        if columns != EVOLVE_COLUMNS:
            outcome.problems.append(f"evolve columns {columns!r}")
            return
        t0, t1, points = _f(opts, "t-start", 0.0), _f(opts, "t-end"), int(opts["points"])
        grid = np.geomspace(t0, t1, points) if opts.get("log-spacing") else np.linspace(t0, t1, points)
        if [row[0] for row in rows] != [cell(float(t)) for t in grid]:
            outcome.problems.append("evolve time grid differs from the requested grid")
            return
        outcome.measure_rows = len(rows)
        sf0, res, units = state_of(opts), reservoir_of(opts), str(opts.get("units", "nats"))
        for i in self._sample(len(rows), EVOLVE_SAMPLE):
            t = float(rows[i][0])
            expected = [rows[i][0], *_state_row(evolve(sf0, res, t).sf, EVOLVE_COLUMNS[4:], units)]
            if rows[i] != expected:
                outcome.problems.append(f"evolve row {i} is {rows[i]!r}, recomputed {expected!r}")

    def _report(self, opts: dict, columns: list[str], rows: list[list[str]], outcome: Outcome) -> None:
        chosen = str(opts.get("outputs", ",".join(REPORT_OUTPUTS))).split(",")
        outputs = [name for name in REPORT_OUTPUTS if name in chosen]
        want = ["t", "b1", "b2", "c"] + [col for name in outputs for col in (KAPPA_COLUMNS if name == "kappas" else [name])]
        if columns != want or len(rows) != 1:
            outcome.problems.append(f"report columns {columns!r} with {len(rows)} rows")
            return
        outcome.measure_rows = int(any(name in MEASURES for name in outputs))
        t = _f(opts, "t", 0.0)
        sf = state_of(opts)
        if t != 0.0:
            sf = evolve(sf, reservoir_of(opts), t).sf
        expected = [cell(t), *_state_row(sf, outputs, str(opts.get("units", "nats")))]
        if rows[0] != expected:
            outcome.problems.append(f"report row {rows[0]!r}, recomputed {expected!r}")
        if "kappas" in outputs:
            printed = [float(rows[0][columns.index(col)]) for col in KAPPA_COLUMNS]
            v = full_cm(sf)
            oracle = [*symplectic_spectrum_oracle(v), *ppt_spectrum_oracle(v)]
            if any(not abs(p - o) <= KAPPA_TOL for p, o in zip(printed, oracle)):
                outcome.problems.append(f"report kappas {printed!r} differ from the eigen-oracle {oracle!r}")

    def _esd(self, opts: dict, columns: list[str], rows: list[list[str]], outcome: Outcome) -> None:
        sf, res = state_of(opts), reservoir_of(opts)
        want = ["t_s_closed", "t_s_bisection", "abs_difference"] if opts.get("verify") else ["t_s"]
        if columns != want or len(rows) != 1:
            outcome.problems.append(f"esd columns {columns!r} with {len(rows)} rows")
            return
        row = rows[0]
        for value in row[:2]:
            problem = _death_time_problem(value, sf, res, exact=True)
            if problem:
                outcome.problems.append(f"esd {problem}")
        outcome.finite_ts = int(row[0] != ASYMPTOTIC)
        if opts.get("verify"):
            difference = cell(abs(float(row[0]) - float(row[1]))) if outcome.finite_ts else ASYMPTOTIC
            if row[2] != difference:
                outcome.problems.append(f"esd --verify difference {row[2]!r}, want {difference!r}")

    def _sweep(self, opts: dict, columns: list[str], rows: list[list[str]], outcome: Outcome) -> None:
        param = str(opts["param"])
        if columns != [param, "ts"] or len(rows) != int(opts["steps"]):
            outcome.problems.append(f"sweep columns {columns!r} with {len(rows)} rows")
            return
        values = np.linspace(float(opts["min"]), float(opts["max"]), int(opts["steps"]))
        if [row[0] for row in rows] != [cell(float(v)) for v in values]:
            outcome.problems.append(f"sweep {param} column differs from the requested range")
            return
        finite = [i for i, row in enumerate(rows) if row[1] not in (SEPARABLE, ASYMPTOTIC)]
        outcome.finite_ts = len(finite)
        exact = set(self.rng.sample(finite, min(len(finite), SWEEP_SAMPLE)))
        state_opts, res = dict(opts), reservoir_of(opts)
        for i, row in enumerate(rows):
            value = float(row[0])
            if param in ("n1", "n2", "r"):
                state_opts[param] = row[0]
            else:
                gamma = value if param == "gamma" else _f(opts, "gamma", 1.0)
                n_r = value if param == "nr" else _f(opts, "nr", 0.0)
                res = ReservoirConfig.identical(gamma, n_r) if opts.get("identical") else ReservoirConfig.single_bath(gamma, n_r)
            problem = _death_time_problem(row[1], state_of(state_opts), res, exact=i in exact)
            if problem:
                outcome.problems.append(f"sweep row {i}: {problem}")

    def _verify(self, opts: dict, code: int, text: str, outcome: Outcome) -> None:
        if opts.get("format") == "json":
            reports = json.loads(text, parse_constant=_reject_constant)
            if not reports or any(list(r) != VERIFY_KEYS for r in reports):
                outcome.problems.append("verify JSON records do not have the fixed keys")
                return
            passed = all(r["passed"] is True for r in reports)
        else:
            lines = text.splitlines()
            reports = lines[:-1]
            passed = bool(reports) and all(line.startswith("PASS  ") for line in reports)
            passed = passed and lines[-1] == f"{len(reports)}/{len(reports)} checks passed"
        outcome.rows = len(reports)
        if code != 0 or not passed:
            outcome.problems.append(f"verify: exit {code}, not every check passed")
