"""Every `sweep` row recomputes bit for bit through the public API.

The rows are computed on bare entries, without the records; here each one
is rebuilt from its printed swept value through ``standard_form_from_sts``,
``correlation_report``, ``symplectic_spectrum``, ``is_separable`` and
``esd_time``, over every swept parameter, the five bath layouts and no
reservoir, the default, full and ts-only outputs, both formats and both
units.
"""

import json
import math
import random

from stsdecay import (
    AsymptoticOnly,
    ReservoirConfig,
    StsParams,
    cli,
    correlation_report,
    esd_time,
    is_separable,
    standard_form_from_sts,
    symplectic_spectrum,
)
from stsdecay.errors import NonPhysicalStateError

_MEASURES = ("ef", "d1", "d2", "mutual_information")
_KAPPAS = ("kappa_plus", "kappa_minus", "kappa_tilde_plus", "kappa_tilde_minus")
_ALL = "ef,d1,d2,mutual_information,kappas,separable"


def _num(rng, lo, hi):
    return repr(rng.uniform(lo, hi))


def _layouts(rng):
    """The bath flags and reservoir of the five layouts, and of no reservoir."""
    g1, g2, n1, n2 = (_num(rng, 0.3, 2.0) for _ in range(4))
    return {
        "identical": (["--identical", "--gamma", g1, "--nr", n1], ReservoirConfig.identical(float(g1), float(n1))),
        "single1": (["--single-bath", "--gamma", g1, "--nr", n1], ReservoirConfig.single_bath(float(g1), float(n1))),
        "single2": (["--gamma2", g2, "--nr2", n2], ReservoirConfig(0.0, 0.0, float(g2), float(n2))),
        "equal_rates": (
            ["--gamma1", g1, "--nr1", n1, "--gamma2", g1, "--nr2", n2],
            ReservoirConfig(float(g1), float(n1), float(g1), float(n2)),
        ),
        "unequal_rates": (
            ["--gamma1", g1, "--nr1", n1, "--gamma2", g2, "--nr2", n2],
            ReservoirConfig(float(g1), float(n1), float(g2), float(n2)),
        ),
        "none": ([], None),
    }


def _cases():
    """(argv, outputs, state_at, reservoir_at): the sweeps and how to rebuild a row's state and reservoir."""
    rng = random.Random(20261018)
    for param in ("n1", "n2", "r"):
        for name, (bath, res) in _layouts(rng).items():
            fixed = {"n1": _num(rng, 0.0, 2.0), "n2": _num(rng, 0.0, 2.0), "r": _num(rng, 0.2, 1.5)}
            del fixed[param]
            lo, hi = ("0", _num(rng, 1.5, 3.0)) if param == "r" else ("0", _num(rng, 2.0, 8.0))
            argv = ["sweep", *(t for kv in fixed.items() for t in ("--" + kv[0], kv[1]))]
            argv += [*bath, "--param", param, "--min", lo, "--max", hi, "--steps", "13"]

            def state_at(value, fixed=fixed, param=param):
                p = {k: float(v) for k, v in fixed.items()}
                p[param] = value
                return standard_form_from_sts(StsParams(p["n1"], p["n2"], p["r"]))

            for outputs in (None, _ALL + ",ts", "ts") if res else (None, _ALL):
                yield argv, outputs, state_at, (lambda value, res=res: res)
    for param in ("nr", "gamma"):
        for shorthand, layout in (("--identical", ReservoirConfig.identical), ("--single-bath", ReservoirConfig.single_bath)):
            n1, n2, r, gamma, n_r = (rng.uniform(0.0, 2.0) for _ in range(5))
            sf = standard_form_from_sts(StsParams(n1, n2, r + 0.3))
            argv = ["sweep", "--n1", repr(n1), "--n2", repr(n2), "--r", repr(r + 0.3), shorthand]
            if param == "nr":
                argv += ["--gamma", repr(gamma + 0.2), "--param", "nr", "--min", "0", "--max", _num(rng, 0.5, 3.0)]

                def res_at(value, layout=layout, gamma=gamma + 0.2):
                    return layout(gamma, value)
            else:
                argv += ["--nr", repr(n_r), "--param", "gamma", "--min", _num(rng, 0.2, 0.5), "--max", _num(rng, 1.0, 4.0)]

                def res_at(value, layout=layout, n_r=n_r):
                    return layout(value, n_r)

            argv += ["--steps", "13"]
            for outputs in (None, _ALL + ",ts", "ts"):
                yield argv, outputs, (lambda value, sf=sf: sf), res_at


def _expected(sf, res, columns, units):
    """The row's cells after the swept value, spelled as CSV cells, through the public API."""
    cells = []
    report = correlation_report(sf) if any(c in _MEASURES for c in columns) else None
    spectrum = symplectic_spectrum(sf) if "kappa_plus" in columns else None
    for column in columns:
        if column in _MEASURES:
            value = getattr(report, column)
            cells.append(repr(value / math.log(2.0) if units == "bits" else value))
        elif column in _KAPPAS:
            cells.append(repr(getattr(spectrum, column)))
        elif column == "separable":
            cells.append("true" if is_separable(sf) else "false")
        elif is_separable(sf):
            cells.append("separable")
        else:
            ts = esd_time(sf, res)
            cells.append("asymptotic-only" if isinstance(ts, AsymptoticOnly) else repr(ts))
    return cells


def _table(out, fmt):
    """Header and rows of a CSV or JSON table, every cell spelled as in CSV."""
    if fmt == "csv":
        lines = out.splitlines()
        return lines[0].split(","), [line.split(",") for line in lines[1:]]
    records = json.loads(out)

    def spelled(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return value if isinstance(value, str) else repr(value)

    return list(records[0]), [[spelled(v) for v in record.values()] for record in records]


def _check_rows(columns, rows, state_at, res_at, units):
    for row in rows:
        value = float(row[0])
        assert row[0] == repr(value)
        assert row[1:] == _expected(state_at(value), res_at(value), columns[1:], units), (columns, row)


def test_every_sweep_row_recomputes_through_the_public_api(capsys):
    seen = set()
    for argv, outputs, state_at, res_at in _cases():
        for fmt in ("csv", "json"):
            for units in ("nats", "bits"):
                full = [*argv, *(["--outputs", outputs] if outputs else []), "--format", fmt, "--units", units]
                assert cli.main(full) == 0, full
                out = capsys.readouterr().out
                columns, rows = _table(out, fmt)
                assert columns[0] == full[full.index("--param") + 1] and len(rows) == 13
                _check_rows(columns, rows, state_at, res_at, units)
                seen.update(cell for row in rows for cell in row[1:] if not cell[0].isdigit())
    # The markers and both verdicts occur.
    assert {"separable", "asymptotic-only", "true", "false"} <= seen


def test_row_refused_mid_sweep_ends_after_the_chunks_before_it(capsys, monkeypatch):
    # The correlation kernel refuses this state from r = 9.55 on, where its
    # rounded entries lose (b1+b2)^2 - 4c^2; the rows before it are written
    # a whole chunk at a time.
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 16)
    argv = ["sweep", "--n1", "4", "--n2", "1.5", "--param", "r", "--min", "5", "--max", "10", "--steps", "101"]
    values = cli._linspace(5.0, 10.0, 101)
    for k, r in enumerate(values):
        try:
            correlation_report(standard_form_from_sts(StsParams(4.0, 1.5, r)))
        except NonPhysicalStateError as exc:
            first, message = k, str(exc)
            break
    assert first == 91
    for outputs in ([], ["--outputs", "ts,ef", "--identical", "--nr", "0.3"]):
        code, out = cli.main([*argv, *outputs]), capsys.readouterr()
        assert code == 2 and out.err == f"error: {message}\n"
        columns, rows = _table(out.out, "csv")
        assert len(rows) == first // 16 * 16
        res = ReservoirConfig.identical(1.0, 0.3) if outputs else None
        _check_rows(columns, rows, lambda r: standard_form_from_sts(StsParams(4.0, 1.5, r)), lambda r: res, "nats")

