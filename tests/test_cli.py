"""End-to-end command-line behaviour, exit codes, and output formats."""

import csv
import io
import json
import math

import pytest

from stsdecay import (
    StandardForm,
    StsParams,
    correlation_report,
    esd_time_identical_baths,
    standard_form_from_sts,
)
from stsdecay import cli


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


def test_units_bits_rescales_only_the_entropic_measures(capsys):
    args = ("report", "--n1", "10", "--n2", "0.1", "--r", "2")
    _, out_nats, _ = run(capsys, *args)
    _, out_bits, _ = run(capsys, *args, "--units", "bits")
    (nats,) = rows_of(out_nats)
    (bits,) = rows_of(out_bits)
    for key in ("ef", "d1", "d2", "mutual_information"):
        assert float(nats[key]) / float(bits[key]) == pytest.approx(math.log(2.0), rel=1e-14)
    for key in ("kappa_plus", "kappa_minus", "kappa_tilde_plus", "kappa_tilde_minus", "b1"):
        assert nats[key] == bits[key]


def test_evolve_has_fixed_schema_and_row_count(capsys):
    code, out, _ = run(
        capsys,
        "evolve", "--n1", "10", "--n2", "0.1", "--r", "2",
        "--identical", "--nr", "0.5", "--t-end", "2", "--points", "50",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,b1,b2,c,ef,d1,d2,mutual_information,separable"
    assert len(lines) == 51
    rows = rows_of(out)
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[-1]["t"]) == 2.0
    # Entanglement dies strictly inside this window (t_s ~ 0.672).
    assert rows[0]["separable"] == "false"
    assert rows[-1]["separable"] == "true"
    assert float(rows[-1]["ef"]) == 0.0


def test_evolve_csv_rows_recompute_exactly(capsys):
    _, out, _ = run(
        capsys,
        "evolve", "--n1", "3", "--n2", "1", "--r", "1.5",
        "--gamma1", "0.8", "--nr1", "0.4", "--gamma2", "1.1", "--nr2", "0.2",
        "--t-end", "3", "--points", "40",
    )
    for row in rows_of(out):
        sf = StandardForm(float(row["b1"]), float(row["b2"]), float(row["c"]))
        rep = correlation_report(sf)
        # Shortest round-trip floats reconstruct the state bit-for-bit, so
        # the measures recompute bit-for-bit as well.
        assert float(row["ef"]) == rep.ef
        assert float(row["d1"]) == rep.d1
        assert float(row["d2"]) == rep.d2
        assert float(row["mutual_information"]) == rep.mutual_information
        assert (row["separable"] == "true") == rep.separable


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


def test_esd_separable_input_is_exit_3(capsys):
    code, _, err = run(
        capsys, "esd", "--b1", "1.5", "--b2", "1.5", "--c", "0", "--identical", "--nr", "0.5"
    )
    assert code == 3 and "separable" in err


def test_esd_general_two_bath_uses_bisection(capsys):
    code, out, _ = run(
        capsys,
        "esd", "--n1", "10", "--n2", "0.1", "--r", "2",
        "--gamma1", "1.0", "--nr1", "0.5", "--gamma2", "0.3", "--nr2", "0.7",
    )
    assert code == 0
    (row,) = rows_of(out)
    assert 0.0 < float(row["t_s"]) < 10.0
    # --verify has no closed form to compare against here.
    code, _, err = run(
        capsys,
        "esd", "--n1", "10", "--n2", "0.1", "--r", "2",
        "--gamma1", "1.0", "--nr1", "0.5", "--gamma2", "0.3", "--nr2", "0.7",
        "--verify",
    )
    assert code == 2 and "closed form" in err


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


def test_output_file_matches_stdout(capsys, tmp_path):
    args = (
        "report", "--n1", "10", "--n2", "0.1", "--r", "2", "--format", "json"
    )
    _, out, _ = run(capsys, *args)
    target = tmp_path / "report.json"
    code, silent, _ = run(capsys, *args, "--out", str(target))
    assert code == 0 and silent == ""
    assert target.read_text() == out


def test_json_rows_reparse_to_identical_floats(capsys):
    args = (
        "report", "--n1", "10", "--n2", "0.1", "--r", "2", "--format", "json"
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    (row,) = json.loads(first)
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    rep = correlation_report(sf)
    assert row["ef"] == rep.ef
    assert row["b1"] == sf.b1


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


@pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 6, 7])
def test_streaming_writer_matches_csv_and_json_modules(capsys, monkeypatch, n_rows):
    # A chunk of 3 rows puts row counts on both sides of chunk boundaries.
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    pool = [0.0, -0.0, 1.0, 0.1, -2.5e-320, 1.7976931348623157e308, 6.02e23, 1 / 3, True, False,
            "asymptotic-only", "separable"]
    columns = ["t", "b1", "flag", "ts"]
    rows = [[pool[(7 * i + 3 * j) % len(pool)] for j in range(len(columns))] for i in range(n_rows)]
    cli._write_table(columns, rows, "csv", None)
    assert capsys.readouterr().out == _dictwriter_text(columns, rows)
    cli._write_table(columns, iter(rows), "json", None)
    assert capsys.readouterr().out == json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_streaming_writer_refuses_non_finite_numbers(capsys, fmt, bad):
    with pytest.raises(cli._CliError, match="non-finite"):
        cli._write_table(["t", "x"], [[0.0, 1.0], [1.0, bad]], fmt, None)
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_death_time_near_the_largest_double_is_finite(capsys, fmt):
    code, out, err = run(
        capsys, "esd", *("--n1", "10", "--n2", "0.1", "--r", "2"),
        *("--gamma1", "1e-308", "--nr1", "0.5", "--gamma2", "1e-310", "--nr2", "0.5"),
        "--format", fmt,
    )
    assert code == 0 and err == ""
    assert "inf" not in out.lower()
    assert "1.0896289723634319e+308" in out


def test_death_time_with_a_subnormal_occupancy_is_finite(capsys):
    # ktp_off * n_r underflows to 0 here, so the time must not come from dividing by it.
    code, out, err = run(capsys, "esd", "--n1", "0", "--n2", "0", "--r", "0.01", "--identical", "--nr", "5e-324")
    assert code == 0 and err == ""
    assert math.isfinite(float(rows_of(out)[0]["t_s"]))


def test_failed_sweep_writes_nothing(capsys, tmp_path):
    args = ("sweep", "--n1", "1", "--n2", "1", "--param", "r", "--min", "1", "--max", "-1", "--steps", "5")
    code, out, err = run(capsys, *args)
    assert code == 2 and out == "" and "squeeze" in err
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


def test_evolve_rejects_negative_start_before_output(capsys):
    code, out, err = run(
        capsys, "evolve", "--n1", "1", "--n2", "1", "--r", "1", "--identical", "--nr", "0.5",
        "--t-start", "-1", "--t-end", "1",
    )
    assert code == 2 and out == "" and "evolution time" in err


def test_esd_verify_refusal_names_rate_or_temperature(capsys):
    code, out, err = run(
        capsys, "esd", "--n1", "10", "--n2", "0.1", "--r", "2",
        "--gamma1", "1.0", "--nr1", "0.2", "--gamma2", "1.0", "--nr2", "0.9", "--verify",
    )
    assert code == 2 and out == ""
    assert "differ in rate or temperature" in err


def test_report_is_computed_only_for_measure_columns(capsys, monkeypatch):
    def refuse(sf):
        raise AssertionError("correlation_report computed for no printed column")

    monkeypatch.setattr(cli, "correlation_report", refuse)
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
