"""Tests of the benchmark itself: generator, output checks and tracing.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import parse_table  # noqa: E402
from stsdecay import cli, verification  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, rounds, verify_probes  # noqa: E402


def _run_cli(argv: list[str]) -> tuple[int, bytes]:
    _, [(code, out)] = run.replay(cli.main, [argv])
    return code, out


def _tally() -> run.Tally:
    return run.Tally("test", 0)


def test_generator_is_deterministic_for_a_seed():
    for workload in WORKLOADS:
        first = list(islice(rounds(workload, 7), 3))
        assert first == list(islice(rounds(workload, 7), 3))
        assert first != list(islice(rounds(workload, 8), 3))
        assert all(isinstance(tok, str) for rnd in first for argv in rnd for tok in argv)
        # Every round has the same composition; the seed draws only numbers.
        assert len({len(rnd) for rnd in first}) == 1
        assert verify_probes(workload, 7) == verify_probes(workload, 7)


def test_generated_rounds_pass_the_checks():
    tally = _tally()
    for workload in ("deathtimes", "queries"):
        for argv in next(rounds(workload, 3))[:4]:
            if workload == "deathtimes":
                argv = argv[: argv.index("--steps") + 1] + ["50", "--outputs", "ts"]
            tally.check(argv, *_run_cli(argv))
    assert (tally.attempted, tally.failed) == (8, 0), tally.problems


def test_one_digit_corruption_of_an_evolve_row_is_counted():
    argv = ["evolve", "--n1", "1", "--n2", "0.5", "--r", "1", "--identical", "--nr", "0.3", "--t-end", "3", "--points", "20"]
    code, out = _run_cli(argv)
    lines = out.decode().splitlines(keepends=True)
    cells = lines[7].split(",")
    ef = cells[4]
    cells[4] = ef[:-1] + str((int(ef[-1]) + 1) % 10)
    corrupted = "".join(lines[:7] + [",".join(cells)] + lines[8:]).encode()
    tally = _tally()
    tally.check(argv, code, out)
    tally.check(argv, code, corrupted)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "evolve row 6" in tally.problems[0]


def test_ts_cell_off_by_1e_6_is_counted():
    for layout in (["--identical", "--nr", "0.4"], ["--gamma1", "1", "--nr1", "0.2", "--gamma2", "2", "--nr2", "0.5"]):
        argv = ["sweep", "--n1", "1", "--n2", "1", "--param", "r", "--min", "0", "--max", "2", *layout, "--steps", "20", "--outputs", "ts"]
        code, out = _run_cli(argv)
        columns, rows = parse_table(out.decode(), "csv")
        assert rows[0][1] == "separable"
        rows[-1][1] = repr(float(rows[-1][1]) + 1e-6)
        shifted = "\n".join(",".join(r) for r in [columns, *rows]) + "\n"
        tally = _tally()
        tally.check(argv, code, out)
        tally.check(argv, code, shifted.encode())
        assert (tally.attempted, tally.failed) == (2, 1)
        assert "differs from bisection" in tally.problems[0]


def test_evolve_row_costs_8_prod_diff_and_3_sum_sq():
    argv = ["evolve", "--n1", "10", "--n2", "0.1", "--r", "2", "--identical", "--nr", "0.5", "--t-end", "5", "--points", "50"]
    tracer = Tracer()
    tracer.install()
    try:
        _, [(code, _)] = run.replay(tracer.spanned("cli.main", cli.main), [argv], tracer)
    finally:
        tracer.uninstall()
    assert code == 0
    # 8 per row, plus one for validating the initial state.
    assert tracer.counts["accurate.prod_diff"] == 8 * 50 + 1
    assert tracer.counts["accurate.sum_sq_minus_4c2"] == 3 * 50
    summary = tracer.summary()
    assert summary.calls("correlations.correlation_report") == summary.calls("dynamics.evolve") == 50
    assert summary.self_s("cli.main") > 0.0


def test_a_missing_public_name_drops_its_metric(monkeypatch):
    monkeypatch.delattr(verification, "sample_entangled_sts")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert not tracer.summary().has("verification.sample_entangled_sts")
    assert tracer.summary().has("verification.esd_bisection")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def test_traced_and_untraced_runs_give_identical_output_digests():
    digests = []
    for trace in ("0", "1"):
        proc = _bench("--workload", "queries", "--seed", "5", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        header, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        assert result["correct"] and result["failed"] == 0
        digests.append(header["header"]["digest_round0"])
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "series", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
