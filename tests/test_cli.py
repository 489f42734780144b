"""End-to-end command-line behaviour, exit codes, and output formats."""

import contextlib
import csv
import io
import json
import math
import os
import re
import sys
import tracemalloc

import pytest

from stsdecay import (
    InvalidParameterError,
    ReservoirConfig,
    StsParams,
    esd_bisection,
    esd_time_identical_baths,
    standard_form_from_sts,
)
from stsdecay import cli, correlations


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(csv_text):
    return list(csv.DictReader(io.StringIO(csv_text)))


def test_report_vacuum_is_all_zeros(capsys):
    code, out, err = run(capsys, "report", "--n1", "0", "--n2", "0", "--r", "0")
    assert code == 0 and err == ""
    (row,) = rows_of(out)
    assert row["ef"] == "0.0" and row["d1"] == "0.0" and row["d2"] == "0.0"
    assert row["mutual_information"] == "0.0"
    assert row["separable"] == "true"
    assert row["kappa_plus"] == "0.5" and row["kappa_tilde_minus"] == "0.5"


def test_report_pure_state_measures_coincide(capsys):
    code, out, _ = run(capsys, "report", "--n1", "0", "--n2", "0", "--r", "1.0")
    assert code == 0
    (row,) = rows_of(out)
    # Bitwise-equal floats print identically in shortest round-trip form.
    assert row["ef"] == row["d1"] == row["d2"]
    assert row["separable"] == "false"


def test_report_at_later_time_requires_reservoir(capsys):
    code, _, err = run(capsys, "report", "--n1", "1", "--n2", "1", "--r", "1", "--t", "0.5")
    assert code == 2
    assert err.startswith("error:")
    code, out, _ = run(
        capsys,
        "report", "--n1", "1", "--n2", "1", "--r", "1", "--t", "0.5",
        "--identical", "--nr", "0.5",
    )
    assert code == 0
    (row,) = rows_of(out)
    assert float(row["t"]) == 0.5


def test_report_rejects_mixed_parametrizations(capsys):
    code, _, err = run(
        capsys, "report", "--n1", "1", "--n2", "1", "--r", "1", "--b1", "1.0"
    )
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, "report", "--n1", "1")
    assert code == 2
    code, _, err = run(capsys, "report")
    assert code == 2 and "no state" in err


def test_report_selected_outputs_in_canonical_order(capsys):
    code, out, _ = run(
        capsys,
        "report", "--n1", "1", "--n2", "1", "--r", "1",
        "--outputs", "separable,ef",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "t,b1,b2,c,ef,separable"
    code, _, err = run(
        capsys, "report", "--n1", "1", "--n2", "1", "--r", "1", "--outputs", "bogus"
    )
    assert code == 2 and "bogus" in err


def test_evolve_grid_validation(capsys):
    base = ("evolve", "--n1", "1", "--n2", "1", "--r", "1", "--identical", "--nr", "0.5")
    assert run(capsys, *base, "--t-end", "0")[0] == 2
    assert run(capsys, *base, "--t-start", "2", "--t-end", "1")[0] == 2
    assert run(capsys, *base, "--t-end", "1", "--points", "1")[0] == 2
    assert run(capsys, *base, "--t-end", "1", "--log-spacing")[0] == 2  # t_start = 0
    code, out, _ = run(
        capsys, *base, "--t-start", "0.01", "--t-end", "1", "--log-spacing", "--points", "5"
    )
    assert code == 0
    ts = [float(r["t"]) for r in rows_of(out)]
    assert ts[0] == pytest.approx(0.01) and ts[-1] == pytest.approx(1.0)
    ratios = [b / a for a, b in zip(ts, ts[1:])]
    assert max(ratios) - min(ratios) < 1e-9


def test_evolve_requires_reservoir(capsys):
    code, _, err = run(capsys, "evolve", "--n1", "1", "--n2", "1", "--r", "1", "--t-end", "1")
    assert code == 2 and "reservoir" in err


def test_esd_plain_and_verified(capsys):
    args = ("esd", "--n1", "10", "--n2", "0.1", "--r", "2", "--identical", "--nr", "0.5")
    code, out, err = run(capsys, *args)
    assert code == 0 and err == ""
    (row,) = rows_of(out)
    expected = esd_time_identical_baths(
        standard_form_from_sts(StsParams(10.0, 0.1, 2.0)), 1.0, 0.5
    )
    assert float(row["t_s"]) == expected
    code, out, _ = run(capsys, *args, "--verify")
    assert code == 0
    (row,) = rows_of(out)
    assert set(row) == {"t_s_closed", "t_s_bisection", "abs_difference"}
    assert float(row["abs_difference"]) < 1e-9


def test_esd_zero_temperature_prints_marker(capsys):
    code, out, err = run(
        capsys, "esd", "--n1", "10", "--n2", "0.1", "--r", "2", "--identical", "--nr", "0"
    )
    assert code == 0
    assert "zero-temperature" in err
    (row,) = rows_of(out)
    assert row["t_s"] == "asymptotic-only"


_SEPARABLE = "error: input is already separable: no finite disentanglement time to compute\n"
# The five bath layouts: identical, single bath on mode 1, single bath on
# mode 2, equal rates at unequal temperatures, unequal rates.
_LAYOUTS = [
    ["--identical", "--nr", "0.5"],
    ["--single-bath", "--nr", "0.5"],
    ["--gamma2", "0.7", "--nr2", "0.6"],
    ["--gamma1", "1.0", "--nr1", "0.2", "--gamma2", "1.0", "--nr2", "0.9"],
    ["--gamma1", "0.8", "--nr1", "0.4", "--gamma2", "1.1", "--nr2", "0.2"],
]


def test_esd_separable_input_is_exit_3(capsys):
    # One message for every layout, and for --verify where it applies.
    for bath in _LAYOUTS:
        code, out, err = run(capsys, "esd", "--b1", "1.5", "--b2", "1.5", "--c", "0", *bath)
        assert (code, out, err) == (3, "", _SEPARABLE), bath
        assert run(capsys, "esd", "--b1", "1.5", "--b2", "1.5", "--c", "0", *bath, "--verify") == (3, "", _SEPARABLE)


def _verified(capsys, *argv):
    """The one row of ``esd --verify``, after checking that its root agrees with the bisection oracle."""
    code, out, err = run(capsys, "esd", *argv, "--verify")
    assert (code, err) == (0, "")
    (row,) = rows_of(out)
    assert float(row["abs_difference"]) <= 1e-9
    return row


def test_esd_general_two_bath_verify_agrees_with_bisection(capsys):
    argv = ("--n1", "10", "--n2", "0.1", "--r", "2", "--gamma1", "1.0", "--nr1", "0.5", "--gamma2", "0.3", "--nr2", "0.7")
    code, out, _ = run(capsys, "esd", *argv)
    assert code == 0
    (row,) = rows_of(out)
    assert 0.0 < float(row["t_s"]) < 10.0
    # --verify prints the same time beside the oracle's.
    assert _verified(capsys, *argv)["t_s_closed"] == row["t_s"]


def test_esd_bath_on_mode_two_swaps_roles(capsys):
    # A bath on mode 2 of (b1, b2) must match a bath on mode 1 of (b2, b1).
    code, out_m2, _ = run(
        capsys,
        "esd", "--n1", "10", "--n2", "7", "--r", "2", "--gamma2", "1.0", "--nr2", "0.5",
    )
    assert code == 0
    code, out_m1_swapped, _ = run(
        capsys,
        "esd", "--n1", "7", "--n2", "10", "--r", "2", "--gamma1", "1.0", "--nr1", "0.5",
    )
    assert code == 0
    assert out_m2 == out_m1_swapped


def test_sweep_reservoir_occupancy(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--param", "nr", "--min", "0", "--max", "1.2", "--steps", "5",
        "--n1", "10", "--n2", "0.1", "--r", "2", "--identical",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert [row["nr"] for row in rows] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.2])
    assert rows[0]["ts"] == "asymptotic-only"
    finite_ts = [row["ts"] for row in rows[1:]]
    assert all(isinstance(v, float) for v in finite_ts)
    assert all(b < a for a, b in zip(finite_ts, finite_ts[1:]))  # hotter kills faster
    # The state itself does not change along this sweep.
    assert len({row["ef"] for row in rows}) == 1


def test_sweep_squeezing_with_pure_states(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--param", "r", "--min", "0.5", "--max", "2.0", "--steps", "4",
        "--n1", "0", "--n2", "0", "--single-bath", "--nr", "0.5",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    # Pure inputs: the single-bath death time is squeezing-independent.
    for row in rows:
        assert row["ts"] == pytest.approx(math.log(3.0), rel=1e-12)
    efs = [row["ef"] for row in rows]
    assert all(b > a for a, b in zip(efs, efs[1:]))


def test_sweep_validation(capsys):
    # Sweeping a state parameter requires the physical parametrization.
    code, _, err = run(
        capsys,
        "sweep", "--param", "r", "--min", "0", "--max", "1", "--steps", "3",
        "--b1", "2", "--b2", "2", "--c", "1",
    )
    assert code == 2
    # Sweeping a reservoir parameter requires a shorthand layout.
    code, _, err = run(
        capsys,
        "sweep", "--param", "nr", "--min", "0", "--max", "1", "--steps", "3",
        "--n1", "1", "--n2", "1", "--r", "1", "--gamma1", "1.0", "--nr1", "0.5",
    )
    assert code == 2 and "shorthand" in err
    assert run(
        capsys,
        "sweep", "--param", "r", "--min", "0", "--max", "1", "--steps", "0",
        "--n1", "1", "--n2", "1", "--r", "1",
    )[0] == 2


@pytest.mark.parametrize(
    "sweep, flag",
    [
        (["--n2", "0.1", "--r", "2", "--identical", "--nr", "0.5", "--param", "n1", "--min", "0", "--max", "5"], ["--n1", "-1"]),
        (["--n1", "10", "--n2", "0.1", "--r", "2", "--identical", "--param", "nr", "--min", "0", "--max", "1.2"], ["--nr", "-1"]),
        (["--n1", "10", "--n2", "0.1", "--r", "2", "--single-bath", "--param", "nr", "--min", "0", "--max", "1.2"], ["--nr", "nan"]),
        (["--b1", "3.2", "--b2", "1.4", "--c", "1.7", "--single-bath", "--nr", "0.5", "--param", "gamma", "--min", "0.25", "--max", "3"], ["--gamma", "-1"]),
    ],
    ids=["n1", "nr", "nr_nan", "gamma"],
)
def test_sweep_ignores_the_swept_flags_own_value(capsys, sweep, flag):
    # No row uses the swept flag's own value, so an invalid one is no error.
    expected = run(capsys, "sweep", *sweep, "--steps", "6")
    assert expected[0] == 0
    assert run(capsys, "sweep", *flag, *sweep, "--steps", "6") == expected


def test_sweep_pins_missing_swept_flag(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--param", "n1", "--min", "0", "--max", "5", "--steps", "6",
        "--n2", "0.1", "--r", "2", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["n1"] for row in rows] == pytest.approx([0, 1, 2, 3, 4, 5])
    assert "ts" not in rows[0]  # no reservoir configured


def test_config_file_with_command_line_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# baseline scenario\n"
        "n1 = 10\n"
        "n2 = 0.1\n"
        "r = 2\n"
        "identical = true\n"
        "nr = 0.5\n"
        "format = json\n"
    )
    code, out, _ = run(capsys, "esd", "--config", str(cfg))
    assert code == 0
    baseline = json.loads(out)[0]["t_s"]
    assert baseline == pytest.approx(0.67214294975904892, abs=1e-12)
    code, out, _ = run(capsys, "esd", "--config", str(cfg), "--nr", "1.0")
    assert code == 0
    assert json.loads(out)[0]["t_s"] < baseline
    # Malformed lines are a usage error, not a crash.
    bad = tmp_path / "bad.cfg"
    bad.write_text("n1 10\n")
    assert run(capsys, "esd", "--config", str(bad))[0] == 2
    assert run(capsys, "esd", "--config", str(tmp_path / "missing.cfg"))[0] == 2


def test_config_given_with_equals_reads_the_same_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n1 = 1\nn2 = 0.5\nr = 1\n")
    assert run(capsys, "report", f"--config={cfg}") == run(capsys, "report", "--config", str(cfg))


# The flags of a config file for each command, and the spellings that
# argparse reads as --config: a prefix that starts no other flag of the
# command, with the path after it or after "=".
_CONFIG_FLAGS = {
    "report": "n1 = 10\nn2 = 0.1\nr = 2\nformat = json\n",
    "esd": "n1 = 10\nn2 = 0.1\nr = 2\nidentical = true\nnr = 0.5\n",
    "verify": "seed = 3\nformat = json\n",
}


@pytest.mark.parametrize(
    "line",
    [
        "report --co {}",
        "report --conf {}",
        "report --confi {}",
        "report --conf={}",
        "report --n1 2 --n2 1 --r 1 --confi {}",
        "esd --con={} --nr 1",
        "verify --c {}",
        "verify --co={}",
    ],
)
def test_an_abbreviated_config_reads_the_file(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_CONFIG_FLAGS[line.split()[0]])
    got = run(capsys, *(tok.format(cfg) for tok in line.split()))
    assert got[0] == 0
    assert got == run(capsys, *(tok.format(cfg) for tok in re.sub(r"--c\w*[ =]\{\}", "--config {}", line).split()))


def test_a_config_file_with_a_byte_order_mark_reads_as_without_it(capsys, tmp_path):
    flags = _CONFIG_FLAGS["report"].encode()
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(flags)
    marked.write_bytes(b"\xef\xbb\xbf" + flags)
    got = run(capsys, "report", "--config", str(marked))
    assert got[0] == 0
    assert got == run(capsys, "report", "--config", str(plain))


@pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_a_config_file_reads_its_line_ends_as_text_mode_does(capsys, tmp_path, end):
    flags = _CONFIG_FLAGS["report"].encode()
    plain, other = tmp_path / "plain.cfg", tmp_path / "other.cfg"
    plain.write_bytes(flags)
    other.write_bytes(flags.replace(b"\n", end))
    got = run(capsys, "report", "--config", str(other))
    assert got[0] == 0
    assert got == run(capsys, "report", "--config", str(plain))


@pytest.mark.parametrize(
    "token", ["--t", "--ti", "--t=1", "--n1=a b", "-", "- x", "-1", "-1e5", "-.5", "--", "-- x", "-x", "a", "-h x"]
)
def test_the_token_after_config_is_its_path_exactly_where_argparse_reads_one(monkeypatch, capsys, token):
    from stsdecay._parser import _build_parser

    def opened(path, *args, **kwargs):
        paths.append(path)
        raise FileNotFoundError(2, "No such file or directory")

    monkeypatch.setattr(cli, "open", opened, raising=False)
    for flag in ("--config", "--conf"):
        argv = ["report", "--n1", "1", "--n2", "1", "--r", "1", flag, token]
        try:
            want = [_build_parser().parse_args(argv).config]
        except SystemExit:
            want = []
            assert capsys.readouterr().err.endswith("argument --config: expected one argument\n")
        paths = []
        with pytest.raises(cli._CliError) if want else contextlib.nullcontext():
            assert cli._expand_config(argv) == argv
        assert paths == want, flag


@pytest.mark.parametrize(
    "name, reason",
    [
        ("missing.cfg", "No such file or directory"),
        ("", "Is a directory"),
        ("latin1.cfg", "it is not UTF-8 text (invalid start byte at byte 3)"),
        # The offset is within the file, not within the last block read of it.
        ("cut.cfg", "it is not UTF-8 text (unexpected end of data at byte 19)"),
    ],
    ids=["missing", "directory", "not_utf8", "cut_short"],
)
def test_a_config_file_that_cannot_be_read_is_one_error_line(capsys, tmp_path, name, reason):
    (tmp_path / "latin1.cfg").write_bytes(b"n1=\xff\n")
    (tmp_path / "cut.cfg").write_bytes(b"n1 = 1\nn2 = 1\nr = 1\xc3")
    path = str(tmp_path / name)
    assert run(capsys, "report", "--n1", "1", "--n2", "1", "--r", "1", "--config", path) == (
        2, "", f"error: cannot read {path}: {reason}\n"
    )


def test_a_config_file_over_the_bound_is_one_error_line(capsys, tmp_path):
    # A file of exactly the bound is read: flags, then comment lines.
    flags = "n1 = 1\nn2 = 1\nr = 1\n"
    at_bound = tmp_path / "at_bound.cfg"
    at_bound.write_text(flags + "#" * (cli._CONFIG_CHARS - len(flags) - 1) + "\n")
    assert run(capsys, "report", "--config", str(at_bound)) == run(capsys, "report", "--n1", "1", "--n2", "1", "--r", "1")
    over = tmp_path / "over.cfg"
    over.write_text(flags + "#" * (cli._CONFIG_CHARS - len(flags)) + "\n")
    assert run(capsys, "report", "--config", str(over)) == (
        2, "", f"error: cannot read {over}: it is longer than {cli._CONFIG_CHARS} characters\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_an_endless_config_file_is_one_error_line(capsys):
    tracemalloc.start()
    try:
        got = run(capsys, "report", "--n1", "1", "--n2", "1", "--r", "1", "--config", "/dev/zero")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (2, "", f"error: cannot read /dev/zero: it is longer than {cli._CONFIG_CHARS} characters\n")
    assert peak < 16 * cli._CONFIG_CHARS


_STS = ("--n1", "10", "--n2", "0.1", "--r", "2")
_BATH = ("--identical", "--gamma", "1", "--nr", "0.5")


@pytest.mark.parametrize(
    "args",
    [
        ("report", *_STS, "--format", "json"),
        # Scalar rows in three chunks, each written in slices.
        ("evolve", *_STS, *_BATH, "--t-end", "3", "--points", "3000", "--format", "json"),
        # The batch rows of the log grid.
        ("evolve", *_STS, *_BATH, "--t-start", "1e-3", "--t-end", "3", "--points", "3000", "--log-spacing"),
        ("sweep", *_STS, *_BATH, "--param", "gamma", "--min", "0.1", "--max", "2", "--steps", "2500"),
    ],
    ids=["report", "evolve_json", "evolve_log", "sweep"],
)
def test_output_file_matches_stdout(capsys, tmp_path, args):
    code, out, _ = run(capsys, *args)
    assert code == 0
    target = tmp_path / "table.out"
    code, silent, _ = run(capsys, *args, "--out", str(target))
    assert code == 0 and silent == ""
    assert target.read_bytes() == out.encode()


def test_verify_command_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "9/9 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])
    code, out, _ = run(capsys, "verify", "--seed", "7", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 9
    assert all(r["passed"] for r in reports)
    assert all(r["abs_err"] <= r["tol"] for r in reports)


def _dictwriter_text(columns, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("true" if v is True else "false" if v is False else v) for k, v in zip(columns, row)})
    return buf.getvalue()


def _emitted(columns, fmt, floats, rows, chunk=3):
    """What ``cli._emit_rows`` writes of ``rows``, spelled as the commands spell them, in chunks of ``chunk``."""
    out = io.StringIO()
    spelled = [(*row[:floats], *(cli._cell(value, cli._SPELL[fmt]) for value in row[floats:])) for row in rows]
    cli._emit_rows(out.write, columns, fmt, floats, (spelled[i : i + chunk] for i in range(0, len(rows), chunk)))
    return out.getvalue()


@pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 6, 7])
def test_streaming_writer_matches_csv_and_json_modules(n_rows):
    # Chunks of 3 rows put row counts on both sides of chunk boundaries.
    # The first two cells are floats, the others spelled cells (floats too,
    # as esd and verify give them).
    floats = [0.0, -0.0, 1.0, 0.1, -2.5e-320, 1.7976931348623157e308, 6.02e23, 1 / 3]
    pool = [*floats, True, False, "asymptotic-only", "separable"]
    columns = ["t", "b1", "flag", "ts"]
    rows = [
        (*(floats[(7 * i + 3 * j) % len(floats)] for j in range(2)), *(pool[(7 * i + 3 * j) % len(pool)] for j in (2, 3)))
        for i in range(n_rows)
    ]
    for n_floats in (0, 2):
        assert _emitted(columns, "csv", n_floats, rows) == _dictwriter_text(columns, rows)
        want = json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
        assert _emitted(columns, "json", n_floats, rows) == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_streaming_writer_refuses_non_finite_numbers(fmt, bad):
    # A float cell is refused by the writer, a spelled one by _cell; either
    # way the chunk is not written.
    written = []
    with pytest.raises(cli._CliError, match="non-finite"):
        cli._emit_rows(written.append, ["t", "x"], fmt, 2, [[(0.0, 1.0), (1.0, bad)]])
    assert written == []
    with pytest.raises(cli._CliError, match="non-finite"):
        _emitted(["t", "x"], fmt, 0, [(0.0, 1.0), (1.0, bad)])


def test_every_string_the_commands_spell_is_json_dumps_without_json(monkeypatch):
    from stsdecay import OracleReport, run_verification

    strings = {
        *cli._state_cells(cli._REPORT_OUTPUTS, "nats")[0],
        *("t", "b1", "b2", "c", "ts"),
        *OracleReport.__match_args__,
        *("t_s", "t_s_closed", "t_s_bisection", "abs_difference"),
        *("n1", "n2", "r", "nr", "gamma"),
        *("separable", "asymptotic-only"),
        *(report.quantity for report in run_verification(seed=0)),
        # Every printable ASCII character that JSON does not escape.
        "".join(chr(i) for i in range(0x20, 0x7F) if chr(i) not in '"\\'),
        "",
    }
    want = {string: json.dumps(string) for string in strings}
    monkeypatch.setitem(sys.modules, "json", None)
    assert {string: cli._json_string(string) for string in strings} == want


def test_json_string_is_json_dumps_on_any_text():
    pytest.importorskip("hypothesis")
    from hypothesis import given, strategies as st

    @given(st.text() | st.text(st.characters(min_codepoint=0x1F, max_codepoint=0x80)))
    def spelled_as_json_dumps(string):
        assert cli._json_string(string) == json.dumps(string)

    spelled_as_json_dumps()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_overflowing_death_time_is_refused(capsys, fmt):
    code, out, err = run(
        capsys, "esd", *("--n1", "10", "--n2", "0.1", "--r", "2"),
        "--identical", "--gamma", "1e-310", "--nr", "0.5", "--format", fmt,
    )
    assert code == 2 and out == ""
    assert "death time overflows a double" in err
    code, out, err = run(
        capsys, "sweep", *("--n1", "10", "--n2", "0.1", "--r", "2"), "--identical", "--nr", "0.5",
        "--param", "gamma", "--min", "1e-310", "--max", "1", "--steps", "3", "--format", fmt,
    )
    assert code == 2 and out == ""
    assert "death time overflows a double" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["report", "--b1", "1e155", "--b2", "1e155", "--c", "1"], "(b_max+1/2)(b_min-1/2) - c^2 overflows a double"),
        (["esd", "--b1", "1e200", "--b2", "1e200", "--c", "1e201", "--identical", "--nr", "0.5"], "(b_max+1/2)(b_min-1/2) - c^2 overflows a double"),
        (["report", "--b1", "1.4e154", "--b2", "2", "--c", "1"], "(b1+b2)^2 - 4c^2 overflows a double"),
    ],
    ids=["report_margin", "esd_margin", "report_discriminant"],
)
def test_entries_that_overflow_a_double_are_refused_as_such(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith(f"error: {message} for b1=")


_TOO_SQUEEZED = "squeeze parameter r={!r} is too large: sinh(r)*cosh(r) overflows a double"


@pytest.mark.parametrize("r", ["356", "710", "711", "1000"])
@pytest.mark.parametrize(
    "command",
    [
        ["report"],
        ["esd", "--identical", "--nr", "0.5"],
        ["evolve", "--single-bath", "--nr", "0.5", "--t-end", "1", "--points", "3"],
        ["sweep", "--param", "n2", "--min", "0", "--max", "1", "--steps", "3"],
    ],
    ids=["report", "esd", "evolve", "sweep_n2"],
)
def test_squeeze_parameter_whose_entries_overflow_is_refused_by_name(capsys, command, r):
    # From r near 355.6 no occupancies give finite entries: cosh r overflows
    # beyond 710.5, and before that sinh(r)*cosh(r) does.
    code, out, err = run(capsys, *command, "--n1", "1", "--n2", "1", "--r", r)
    assert (code, out, err) == (2, "", f"error: {_TOO_SQUEEZED.format(float(r))}\n")


@pytest.mark.parametrize(
    "command",
    [
        ["report", "--n1", "1e308", "--n2", "1", "--r", "1"],
        ["esd", "--n1", "1e308", "--n2", "1", "--r", "1", "--identical", "--nr", "0.5"],
        ["evolve", "--n1", "1e308", "--n2", "1", "--r", "1", "--single-bath", "--nr", "0.5", "--t-end", "1", "--points", "3"],
        ["sweep", "--n2", "1", "--r", "1", "--param", "n1", "--min", "0", "--max", "1e308", "--steps", "3"],
    ],
    ids=["report", "esd", "evolve", "sweep_n1"],
)
def test_occupancies_whose_entries_overflow_are_refused_by_name(capsys, command):
    code, out, err = run(capsys, *command)
    message = "error: n1=1e+308, n2=1.0, r=1.0 give covariance entries that overflow a double\n"
    assert (code, out, err) == (2, "", message)


def test_r_sweep_into_overflowing_entries_is_refused_before_output(capsys):
    code, out, err = run(capsys, "sweep", "--n1", "1", "--n2", "1", "--param", "r", "--min", "0", "--max", "800", "--steps", "5")
    assert (code, out, err) == (2, "", f"error: {_TOO_SQUEEZED.format(800.0)}\n")
    # Just below the edge the entries are finite, and the uncertainty check
    # refuses them as before.
    code, out, err = run(capsys, "report", "--n1", "1", "--n2", "1", "--r", "355")
    assert (code, out) == (2, "") and err.startswith("error: (b_max+1/2)(b_min-1/2) - c^2 overflows a double for b1=")


def test_entries_physical_only_within_rounding_are_refused_as_such(capsys):
    # At r = 9.7 the rounded entries of this mixed state lose the invariants:
    # the construction's relative slack admits them, the spectrum does not.
    argv = ("evolve", "--n1", "4", "--n2", "1.5", "--r", "9.7", "--gamma2", "0.9", "--nr2", "0.35", "--t-end", "11")
    message = (
        "error: (b1+b2)^2 - 4c^2 = -103.15883042494715 <= 0: "
        "the double-precision entries satisfy the uncertainty inequality only within rounding\n"
    )
    assert run(capsys, *argv) == (2, "", message)


def test_kappa_plus_below_one_half_is_refused_as_such(capsys):
    # The construction slack admits these entries, but no measure of them exists.
    code, out, err = run(capsys, "report", "--b1", "0.5", "--b2", "0.5", "--c", "1e-7")
    assert (code, out) == (2, "")
    assert err == "error: kappa_plus = 0.49999999999998995 < 1/2: not a physical two-mode state\n"


def test_uncertainty_slack_stays_finite_where_its_terms_are(capsys):
    # b1*b2 + c^2 passes the largest double here while each product is
    # finite; the relative slack must not become inf and admit the state.
    message = (
        "error: uncertainty inequality violated: (b_max+1/2)(b_min-1/2) - c^2 = -4.400000000000001e+307 < 0 "
        "for b1=1e+154, b2=1e+154, c=1.2e+154\n"
    )
    entries = ("--b1", "1e154", "--b2", "1e154", "--c", "1.2e154")
    assert run(capsys, "esd", *entries, "--identical", "--nr", "0.5") == (2, "", message)
    assert run(capsys, "report", *entries) == (2, "", message)


@pytest.mark.parametrize("scale", ["1e153", "1e154"])
def test_purity_slack_stays_finite_where_its_terms_are(capsys, scale):
    # The same ratios of entries at two scales: mixed, not pure, at both.
    b, c = float(scale), 0.9 * float(scale)
    code, out, err = run(capsys, "report", "--b1", repr(b), "--b2", repr(b), "--c", repr(c), "--outputs", "ef,d1,d2,mutual_information")
    assert (code, err) == (0, "")
    (row,) = rows_of(out)
    assert [row[k] for k in ("ef", "d1", "d2", "mutual_information")] == ["0.0", "0.0", "0.0", "1.6607312068216515"]


@pytest.mark.parametrize(
    "entries, bath, free",
    [
        (("--b1", "1", "--b2", "0.5"), ("--single-bath", "--gamma", "1", "--nr", "0.5"), "b2"),
        (("--b1", "1", "--b2", "0.5"), ("--gamma1", "1", "--nr1", "0.5"), "b2"),
        (("--b1", "0.5", "--b2", "1"), ("--gamma2", "1", "--nr2", "0.5"), "b1"),
    ],
    ids=["single_bath", "mode1", "mode2"],
)
def test_degenerate_single_bath_names_the_free_mode(capsys, entries, bath, free):
    code, out, err = run(capsys, "esd", *entries, "--c", "1e-7", *bath)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {free} = 1/2 with residual entanglement: degenerate denominator "
        "in the single-bath disentanglement time\n"
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_death_time_near_the_largest_double_is_finite(capsys, fmt):
    code, out, err = run(
        capsys, "esd", *("--n1", "10", "--n2", "0.1", "--r", "2"),
        *("--gamma1", "1e-308", "--nr1", "0.5", "--gamma2", "1e-310", "--nr2", "0.5"),
        "--format", fmt,
    )
    assert code == 0 and err == ""
    assert "inf" not in out.lower()
    # 60-digit mpmath of the same entries: 1.0896289723633786516e+308.
    assert "1.0896289723633784e+308" in out


def test_death_time_with_a_subnormal_occupancy_is_finite(capsys):
    # ktp_off * n_r underflows to 0 here, so the time must not come from dividing by it.
    code, out, err = run(capsys, "esd", "--n1", "0", "--n2", "0", "--r", "0.01", "--identical", "--nr", "5e-324")
    assert code == 0 and err == ""
    assert math.isfinite(float(rows_of(out)[0]["t_s"]))


@pytest.mark.parametrize(
    "nr, closed_form", [("1e-17", "38.40834027832669"), ("1e-20", "45.31609555730883"), ("1e-320", "736.0916345884018")]
)
def test_occupancy_lost_in_n_r_plus_one_half_is_answered_by_bisection(capsys, nr, closed_form):
    # n_r + 1/2 == 1/2 in double precision, but the oracle evolves the
    # offsets b_i - 1/2 with n_r*expm1(-gamma t) kept apart, so it answers
    # within 4 ulp of esd_time.  The two baths' root is the time of 60-digit
    # mpmath of the same entries (19.535414756097342774 and
    # 22.989292397085244575).  At 1e-320 the terms underflow before the
    # crossing: the two baths' root and the oracle are refused by name.
    state = ("--n1", "10", "--n2", "0.1", "--r", "2")
    two_baths = ("esd", *state, "--gamma1", "1", "--nr1", nr, "--gamma2", "2", "--nr2", nr)
    identical = ("esd", *state, "--gamma1", "1", "--nr1", nr, "--gamma2", "1", "--nr2", nr)
    two_bath_time = {"1e-17": "19.535414756097342", "1e-20": "22.989292397085244"}.get(nr)
    assert run(capsys, *identical) == (0, f"t_s\n{closed_form}\n", "")
    if two_bath_time is None:
        underflow = (
            "error: the terms of the evolved separability margin underflow a double before it crosses 0 "
            f"(reservoir occupancies {float(nr)!r} and {float(nr)!r})\n"
        )
        for argv in (two_baths, (*two_baths, "--verify"), (*identical, "--verify")):
            assert run(capsys, *argv) == (2, "", underflow)
        return
    assert run(capsys, *two_baths) == (0, f"t_s\n{two_bath_time}\n", "")
    for argv in (two_baths, identical):
        code, out, err = run(capsys, *argv, "--verify")
        (row,) = rows_of(out)
        closed, oracle = float(row["t_s_closed"]), float(row["t_s_bisection"])
        assert (code, err) == (0, "") and abs(closed - oracle) <= 4.0 * math.ulp(closed)


def test_crossing_below_the_time_resolution_is_refused(capsys):
    # The bisection oracle refuses at 1e70 and 1e100: its crossing lies where
    # exp(-2 t) is within 4 ulps of 1.  The root of the margin's four-term
    # sum is the time of 120-digit mpmath of the same entries
    # (9.5057133268650197906e-71, 9.5057133268650203289e-101, and
    # 9.5057133268507735222e-13 at 1e12, which the oracle answers too).
    unresolved = "error: the separability crossing lies below the time resolution of the evolved entries\n"
    argv = ("esd", "--n1", "1", "--n2", "1", "--r", "2", "--gamma1", "1", "--gamma2", "2", "--nr2", "0.5")
    assert run(capsys, *argv, "--nr1", "1e12") == (0, "t_s\n9.505713326850772e-13\n", "")
    code, out, err = run(capsys, *argv, "--nr1", "1e12", "--verify")
    (row,) = rows_of(out)
    assert (code, err) == (0, "") and float(row["abs_difference"]) <= 1e-11 * 9.505713326850772e-13
    for nr1, t_s in (("1e100", "9.50571332686502e-101"), ("1e70", "9.50571332686502e-71")):
        assert run(capsys, *argv, "--nr1", nr1) == (0, f"t_s\n{t_s}\n", "")
        assert run(capsys, *argv, "--nr1", nr1, "--verify") == (2, "", unresolved)
        with pytest.raises(InvalidParameterError, match="below the time resolution"):
            esd_bisection(standard_form_from_sts(StsParams(1.0, 1.0, 2.0)), ReservoirConfig(1.0, float(nr1), 2.0, 0.5))


_RATES_REFUSED = "damping rates and reservoir occupancies must be >= 0, got "


# Each swept parameter's far end is invalid; it is checked before any output.
@pytest.mark.parametrize(
    "sweep, message",
    [
        (("--n2", "1", "--r", "1", "--param", "n1"), "thermal occupancies must be >= 0, got n1=-1.0, n2=1.0"),
        (("--n1", "1", "--r", "1", "--param", "n2"), "thermal occupancies must be >= 0, got n1=1.0, n2=-1.0"),
        (("--n1", "1", "--n2", "1", "--param", "r"), "squeeze parameter must be >= 0, got r=-1.0"),
        (
            ("--n1", "1", "--n2", "1", "--r", "1", "--identical", "--gamma", "1", "--param", "nr"),
            _RATES_REFUSED + "gamma1=1.0, n_r1=-1.0, gamma2=1.0, n_r2=-1.0",
        ),
        (
            ("--n1", "1", "--n2", "1", "--r", "1", "--identical", "--nr", "0.5", "--param", "gamma"),
            _RATES_REFUSED + "gamma1=-1.0, n_r1=0.5, gamma2=-1.0, n_r2=0.5",
        ),
    ],
    ids=["n1", "n2", "r", "nr", "gamma"],
)
def test_failed_sweep_writes_nothing(capsys, tmp_path, sweep, message):
    args = ("sweep", *sweep, "--min", "1", "--max", "-1", "--steps", "5")
    code, out, err = run(capsys, *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    target = tmp_path / "f.csv"
    code, _, _ = run(capsys, *args, "--out", str(target))
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_failure_after_first_chunk(capsys, monkeypatch, tmp_path):
    # The last row's death time overflows.  To stdout, rows of the chunks
    # already written stay written (README, "Output"); a file target is
    # left as it was.
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
    args = (
        "sweep", "--n1", "10", "--n2", "0.1", "--r", "2", "--identical", "--nr", "0.5",
        "--param", "gamma", "--min", "1", "--max", "1e-310", "--steps", "5",
    )
    code, out, err = run(capsys, *args)
    assert code == 2 and "overflows" in err
    assert out.splitlines()[0] == "gamma,ef,d1,d2,mutual_information,separable,ts"
    assert len(out.splitlines()) == 5
    target = tmp_path / "sweep.csv"
    target.write_text("previous\n")
    code, _, _ = run(capsys, *args, "--out", str(target))
    assert code == 2
    assert target.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


class _FirstChunk(Exception):
    """Raised by the standard output at its first write: a table's header and first slice of rows."""


class _StopAfterFirstChunk:
    def write(self, text):
        raise _FirstChunk(text)


def test_first_chunk_of_a_million_step_sweep_is_small(monkeypatch):
    # The swept values are made a chunk at a time, not as one list of
    # 10^6 floats (32 MB) before the first row; the first write holds the
    # header and the first slice of that chunk's rows.
    argv = ["sweep", "--n1", "1", "--n2", "0.5", "--param", "r", "--min", "0.1", "--max", "2", "--steps", "1000000"]
    monkeypatch.setattr(sys, "stdout", _StopAfterFirstChunk())
    tracemalloc.start()
    try:
        with pytest.raises(_FirstChunk) as first:
            cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    header, *rows = first.value.args[0].split("\n")
    assert header == "r,ef,d1,d2,mutual_information,separable"
    assert len(rows) == cli._SLICE_ROWS and rows[0].startswith("0.1,")
    assert peak < 1_000_000


def test_writer_holds_one_slice_of_text():
    # One chunk of evolve-shaped JSON rows: the writer's own memory is a
    # slice's text, not the chunk's, and no write carries more than a slice.
    rows = [
        (i / 1024, 1 + 1 / 3, 2 + 1 / 7, 0.1 + i / 9e3, 1 / 11, 1 / 13, 1 / 17, 1 / 19, "false")
        for i in range(cli._CHUNK_ROWS)
    ]
    counts = []

    def write(text):
        counts.append(text.count('"t":'))
        text.encode()

    schema = ["t", "b1", "b2", "c", "ef", "d1", "d2", "mutual_information", "separable"]
    tracemalloc.start()
    try:
        cli._emit_rows(write, schema, "json", 8, [rows])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(counts) == cli._CHUNK_ROWS and max(counts) <= cli._SLICE_ROWS
    assert peak < 256 * 1024


def test_evolve_rejects_negative_start_before_output(capsys):
    code, out, err = run(
        capsys, "evolve", "--n1", "1", "--n2", "1", "--r", "1", "--identical", "--nr", "0.5",
        "--t-start", "-1", "--t-end", "1",
    )
    assert code == 2 and out == "" and "evolution time" in err


def test_esd_verify_answers_two_baths_that_differ(capsys):
    # Equal rates at unequal temperatures, unequal rates, and a hot bath beside a cold one.
    for bath in (
        ("--gamma1", "1.0", "--nr1", "0.2", "--gamma2", "1.0", "--nr2", "0.9"),
        ("--gamma1", "0.8", "--nr1", "0.4", "--gamma2", "1.1", "--nr2", "0.2"),
        ("--gamma1", "0.8", "--nr1", "0.4", "--gamma2", "3.0", "--nr2", "0"),
    ):
        _verified(capsys, "--n1", "10", "--n2", "0.1", "--r", "2", *bath)


def test_report_is_computed_only_for_measure_columns(capsys, monkeypatch):
    def refuse(*entries):
        raise AssertionError("correlation kernel computed for no printed column")

    # The commands bind the correlation kernel from its module, once each.
    monkeypatch.setattr(correlations, "_measures", refuse)
    code, out, _ = run(
        capsys, "sweep", "--n1", "1", "--n2", "1", "--param", "r", "--min", "0", "--max", "2",
        "--steps", "4", "--identical", "--nr", "0.5", "--outputs", "ts",
    )
    assert code == 0 and len(out.splitlines()) == 5
    code, out, _ = run(capsys, "report", "--n1", "1", "--n2", "1", "--r", "1", "--outputs", "kappas,separable")
    assert code == 0 and out.splitlines()[0] == "t,b1,b2,c,kappa_plus,kappa_minus,kappa_tilde_plus,kappa_tilde_minus,separable"


def test_output_through_a_symlink_writes_the_linked_file(capsys, tmp_path):
    # Symlinks are written through in place (as /dev/stdout must be), not
    # replaced by a renamed file.
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    code, _, _ = run(capsys, "report", "--n1", "1", "--n2", "1", "--r", "1", "--out", str(link))
    assert code == 0
    assert link.is_symlink()
    assert real.read_text().startswith("t,b1,b2,c,")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_out_over_an_existing_file_replaces_its_bytes_and_keeps_its_mode(capsys, tmp_path):
    argv = ("report", "--n1", "1", "--n2", "1", "--r", "1")
    target = tmp_path / "table.csv"
    target.write_text("previous\n")
    target.chmod(0o640)
    _, out, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text() == out
    assert target.stat().st_mode & 0o7777 == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_out_with_the_longest_file_name_writes_that_file(capsys, tmp_path):
    # The temporary file's name does not grow with the target's.
    name = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".csv")) + ".csv"
    argv = ("report", "--n1", "1", "--n2", "1", "--r", "1")
    _, out, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--out", str(tmp_path / name)) == (0, "", "")
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_text() == out


@pytest.mark.parametrize(
    "argv, code, err",
    [
        ("report --b1 2 --b2 2", 2, "the standard form needs all of --b1, --b2, --c"),
        (
            "report --n1 1 --n2 1 --r 1 --identical --single-bath --nr 0.5",
            2,
            "--identical and --single-bath are mutually exclusive",
        ),
        (
            "report --n1 1 --n2 1 --r 1 --gamma1 1 --identical --nr 0.5",
            2,
            "give either the explicit --gamma1/--nr1/--gamma2/--nr2 or a shorthand layout",
        ),
        ("evolve --n1 1 --n2 1 --r 1 --identical --nr 0.5 --t-end inf", 2, "the time grid must be finite"),
        ("report --b1 2 --b2 2 --c 1 --phi inf", 2, "StandardForm fields must be finite numbers"),
        # The time is refused as the time, with bath flags or without.
        *(
            (f"report --n1 1 --n2 1 --r 1{bath} --t {t}", 2, f"evolution time must be finite and >= 0, got {float(t)!r}")
            for bath in ("", " --identical --nr 0.5")
            for t in ("-1", "nan", "inf")
        ),
        ("report --n1 1 --n2 1 --r 1 --t 1", 2, "--t > 0 needs a reservoir; add bath flags or use --t 0"),
        ("report --n1 1 --n2 1 --r 1 --identical", 2, "the shorthand reservoir layouts need --nr"),
        # The grid's step overflows to inf; the start is refused before the grid is made.
        *(
            (
                f"evolve --n1 1 --n2 1 --r 1 --identical --nr 0.5 --t-start=-1e308 --t-end 1e308 --points {points}",
                2,
                "evolution time must be finite and >= 0, got -1e+308",
            )
            for points in (5, 20000)
        ),
    ],
    ids=[
        "partial_standard_form", "two_shorthand_layouts", "explicit_and_shorthand", "infinite_grid", "infinite_phase",
        *(f"{bath}_time_{name}" for bath in ("no_bath", "bath") for name in ("negative", "nan", "inf")),
        "time_without_bath", "shorthand_without_nr",
        "overflowing_grid_scalar_rows", "overflowing_grid_batch_rows",
    ],
)
def test_a_refused_line_prints_one_error_line(capsys, argv, code, err):
    assert run(capsys, *argv.split()) == (code, "", f"error: {err}\n")


def test_out_naming_a_directory_is_exit_2(capsys, tmp_path):
    # The in-place branch of --out (not a regular file) refuses a directory
    # as the temporary-file branch refuses an unwritable path.
    for argv in (("report", "--n1", "1", "--n2", "1", "--r", "1"), ("verify",)):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_opens_out_before_the_battery(capsys, monkeypatch, tmp_path):
    from stsdecay import verification

    calls = []
    monkeypatch.setattr(verification, "run_verification", lambda **kw: calls.append(kw) or [])
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", "--format", fmt, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"
    assert calls == []


def test_each_state_takes_its_offsets_once(capsys, monkeypatch):
    # The row's source takes (a1, a2, m) from core._offsets once per state,
    # and once per chunk on arrays: a report, an esd, a scalar evolve row, a
    # batch evolve chunk and a state sweep row each call it once, and a
    # reservoir sweep, whose state is fixed, once in all.
    from stsdecay import _batch, _cmd_evolve, _cmd_report, _cmd_sweep, core, dynamics, verification  # noqa: F401

    calls = []

    def counted(*entries):
        calls.append(entries)
        return offsets(*entries)

    offsets = core._offsets
    for module in list(sys.modules.values()):
        if module.__name__.startswith("stsdecay") and getattr(module, "_offsets", None) is offsets:
            monkeypatch.setattr(module, "_offsets", counted)
    state = ["--n1", "1", "--n2", "0.5", "--r", "1"]
    bath = ["--single-bath", "--nr", "0.2"]
    grid = ["evolve", *state, *bath, "--t-end", "3", "--points"]
    sweep = ["sweep", *state, "--identical", "--nr", "0.2", "--min", "0.5", "--max", "2", "--steps", "40"]
    points = _cmd_evolve._BATCH_POINTS
    for argv, want in (
        (["report", *state], 1),
        (["report", *state, *bath, "--t", "0.5"], 1),
        (["esd", *state, *bath], 1),
        ([*grid, "50"], 50),
        ([*grid, str(points)], -(-points // cli._CHUNK_ROWS)),
        ([*sweep, "--param", "r"], 40),
        ([*sweep, "--param", "r", "--outputs", "ts"], 40),
        ([*sweep, "--param", "nr"], 1),
    ):
        calls.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert len(calls) == want, argv
