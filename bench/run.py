"""Benchmark of the ``stsdecay`` command-line tool, one workload per run.

    python3 bench/run.py --workload {series,deathtimes,queries} --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the package is used from ``src/``.

With ``--trace 0`` the run is a closed loop with one client: it runs
``python -m stsdecay ...`` subprocesses one after another, each measured
for CPU time (user + system) and peak RSS through ``os.wait4``.  It runs
the whole rounds of the workload that S seconds buy (see ``workloads.py``).
Spread among them it times several fresh ``python -c "import stsdecay"``
(set-up time) and a few ``verify`` batteries.  Every output is checked
outside the timed region (``checks.py``).

The benchmark is meant for small shared hosts, whose speed drifts by up to
a factor of two within a minute as neighbours load them.  So every time it
reports is host-speed scaled: right before each child the driver times a
fixed pure-Python reference loop, and a child's CPU seconds are multiplied
by ``REFERENCE_NOMINAL_S`` over the median of the nearest five reference
samples.  A time thus reads as seconds on a host that runs the reference
loop in its nominal time.  The driver pins itself, and so its children, to
one CPU, so that the reference loop and the child share a core and the
load on it.  The header gives the raw CPU and wall-clock figures and the
speed factors beside them.  Children run with one BLAS thread: the
program's linear algebra is 4x4, and idle BLAS threads spinning on shared
cores only add noise.

With ``--trace 1`` the run replays the workload's first round in-process
through ``stsdecay.cli.main``, once plain and once with every layer traced
(``tracing.py``), and reports per-layer metrics; import times come from
``python -X importtime``.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` (invocations whose exit code or output check failed) and
``metrics``.  The line before it is a header with the environment, the
stdout digest of the first round, and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import random
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 11
IMPORT_REPEATS = 5
INVOCATION_TIMEOUT_S = 60.0
# Stop starting rounds after this long, so a run ends well inside 180 s.
RUN_DEADLINE_S = 120.0
# Host-speed reference: iterations of a pure-Python float loop, and its
# median CPU seconds on the 2-core Xeon host the benchmark was written on.
# The loop's time tracks the program's own under host load more closely
# than integer, numpy or string-formatting loops did.
REFERENCE_ITERATIONS = 100_000
REFERENCE_NOMINAL_S = 0.024
# Reference samples whose median scales one child: its own and two on each side.
REFERENCE_WINDOW = 5


def reference_s() -> float:
    """CPU seconds of one pass of the host-speed reference loop."""
    t0 = time.process_time()
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        acc += math.sqrt(i + 0.5) * 1.0001 - math.log1p(i)
    return time.process_time() - t0


@dataclass
class Invocation:
    argv: list[str]
    index: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    code: int
    out_path: Path
    err_path: Path
    # CPU seconds scaled to the nominal host speed; set by Spawner.scale.
    cost_s: float = float("nan")

    @property
    def out(self) -> bytes:
        return self.out_path.read_bytes()

    @property
    def err(self) -> bytes:
        return self.err_path.read_bytes()


class Spawner:
    """Runs ``python <args>`` children one at a time, each one's stdout and stderr to its own files.

    A child's ``ru_maxrss`` also counts the peak RSS of the process that
    spawned it, up to its exec.  So while it spawns timed children, the
    benchmark keeps its own memory small: it imports neither numpy nor the
    package and holds no outputs in memory.

    Before each child it takes a reference sample (``reference_s``); after
    the last, ``scale`` takes one more and sets each child's ``cost_s``.
    """

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **threads)
        self.spawned = 0
        self.references: list[float] = []
        reference_s()  # warm-up

    def run(self, args: list[str]) -> Invocation:
        index = self.spawned
        self.spawned += 1
        self.references.append(reference_s())
        out_path, err_path = self.workdir / f"{self.spawned:05d}.out", self.workdir / f"{self.spawned:05d}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env, file_actions=actions)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        cpu = usage.ru_utime + usage.ru_stime
        return Invocation(args, index, wall, cpu, usage.ru_maxrss, os.waitstatus_to_exitcode(status), out_path, err_path)

    def scale(self, invocations: list[Invocation]) -> list[float]:
        """Set each invocation's ``cost_s``; returns every child's speed factor, in spawn order."""
        self.references.append(reference_s())
        half = REFERENCE_WINDOW // 2
        factors = [
            REFERENCE_NOMINAL_S / statistics.median(self.references[max(0, i - half) : i + half + 1])
            for i in range(self.spawned)
        ]
        for inv in invocations:
            inv.cost_s = inv.cpu_s * factors[inv.index]
        return factors

    def stsdecay(self, argv: list[str]) -> Invocation:
        inv = self.run(["-m", "stsdecay", *argv])
        inv.argv = argv
        return inv


class Tally:
    """Checks invocations and counts the failed ones."""

    def __init__(self, workload: str, seed: int) -> None:
        from checks import Checker

        self.checker = Checker(random.Random(f"check/{workload}/{seed}"))
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def check(self, argv: list[str], code: int, out: bytes, err: bytes = b""):
        outcome = self.checker.check(argv, code, out)
        self.count(outcome.problems, argv, err)
        return outcome

    def count(self, problems: list[str], argv: list[str], err: bytes = b"") -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            detail = f"{' '.join(argv)}: {'; '.join(problems[:3])}"
            if err:
                detail += f" [stderr: {err.decode('utf-8', 'replace').strip()[-300:]}]"
            self.problems.append(detail)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it: (value, percentile).

    That is the 11th largest sample; with fewer than 11 samples, the largest.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _spread(n: int, k: int) -> list[int]:
    """Positions of k probes spread evenly among n invocations."""
    return [int((j + 0.5) * n / k) for j in range(k)]


def untraced_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, Tally]:
    from workloads import rounds, rounds_per_run, verify_probes

    started = time.perf_counter()
    scheduled = [
        (i, argv) for i, argvs in enumerate(islice(rounds(workload, seed), rounds_per_run(workload, seconds))) for argv in argvs
    ]
    # Set-up and verify probes are spread over the window, so that their
    # medians sample the whole run rather than one stretch of host load.
    probes_before: dict[int, list[list[str] | None]] = {}
    for pos in _spread(len(scheduled), SETUP_REPEATS):
        probes_before.setdefault(pos, []).append(None)
    vprobes = verify_probes(workload, seed)
    for pos, argv in zip(_spread(len(scheduled), len(vprobes)), vprobes):
        probes_before.setdefault(pos, []).append(argv)

    setup: list[Invocation] = []
    probes: list[Invocation] = []
    window: list[Invocation] = []
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        spawner = Spawner(Path(tmp))
        # Warm-up: fills the bytecode and file caches, which users have warm.
        spawner.run(["-c", "import stsdecay"])
        for pos, (_, argv) in enumerate(scheduled):
            if time.perf_counter() - started > RUN_DEADLINE_S:
                break
            for probe in probes_before.get(pos, []):
                if probe is None:
                    setup.append(spawner.run(["-c", "import stsdecay"]))
                else:
                    probes.append(spawner.stsdecay(probe))
            window.append(spawner.stsdecay(argv))

        factors = spawner.scale(setup + probes + window)

        # Outside the timed region: check every output, digest the first round.
        tally = Tally(workload, seed)
        for inv in setup:
            tally.count([] if inv.code == 0 else [f"exit code {inv.code}"], inv.argv, inv.err)
        rows = 0
        digest = hashlib.sha256()
        for inv, (round_index, _) in zip(window, scheduled):
            out = inv.out
            rows += tally.check(inv.argv, inv.code, out, inv.err).rows
            if round_index == 0:
                digest.update(out)
        for inv in probes:
            tally.check(inv.argv, inv.code, inv.out, inv.err)

    costs = [inv.cost_s for inv in window]
    if workload == "queries":
        latencies = [inv.cost_s for inv in window if inv.argv[0] in ("report", "esd")]
    else:
        latencies = costs
    tail_s, tail_pct = tail(latencies)
    verify_costs = [inv.cost_s for inv in window + probes if inv.argv[0] == "verify"]
    metrics = {
        "setup_s": _metric(statistics.median(inv.cost_s for inv in setup), "s"),
        "rows_per_s": _metric(rows / sum(costs), "1/s"),
        "peak_rss_mb": _metric(max(inv.rss_kb for inv in window) / 1024.0, "MB"),
        "query_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "query_tail_ms": _metric(tail_s * 1e3, "ms"),
        "verify_s": _metric(statistics.median(verify_costs), "s"),
    }
    details = {
        "rounds": len({i for i, _ in scheduled[: len(window)]}),
        "window_invocations": len(window),
        "window_scaled_s": sum(costs),
        "window_cpu_s": sum(inv.cpu_s for inv in window),
        "window_wall_s": sum(inv.wall_s for inv in window),
        "wall_rows_per_s": rows / sum(inv.wall_s for inv in window),
        "speed_factor": {"median": statistics.median(factors), "min": min(factors), "max": max(factors)},
        "rows": rows,
        "query_tail": {"percentile": tail_pct, "samples": len(latencies)},
        "setup_samples": len(setup),
        "verify_samples": len(verify_costs),
        "digest_round0": digest.hexdigest(),
    }
    return metrics, details, tally


def replay(main, argvs: list[list[str]], tracer=None) -> tuple[float, list[tuple[int, bytes]]]:
    """Run each argv through ``main`` in-process: (wall seconds, [(exit code, stdout)])."""
    outputs = []
    t0 = time.perf_counter()
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.invocation = i
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash of the program is a failed invocation
                traceback.print_exc(file=err)
                code = -1
        outputs.append((code, out.getvalue().encode("utf-8")))
    return time.perf_counter() - t0, outputs


def import_times_ms(spawner: Spawner) -> tuple[float, float]:
    """Median cumulative import time of stsdecay and of numpy, from -X importtime."""
    spawner.run(["-c", "import stsdecay"])
    totals, numpys = [], []
    for _ in range(IMPORT_REPEATS):
        inv = spawner.run(["-X", "importtime", "-c", "import stsdecay"])
        cumulative = {}
        for line in inv.err.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].strip()
                cumulative[name] = max(cumulative.get(name, 0), int(parts[1]))
        totals.append(cumulative.get("stsdecay", 0) / 1e3)
        numpys.append(cumulative.get("numpy", 0) / 1e3)
    return statistics.median(totals), statistics.median(numpys)


def traced_run(workload: str, seed: int) -> tuple[dict, dict, Tally]:
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        import_ms, numpy_ms = import_times_ms(Spawner(Path(tmp)))

    from stsdecay import cli
    from tracing import Tracer
    from workloads import rounds

    tally = Tally(workload, seed)
    argvs = next(rounds(workload, seed))
    plain_wall, plain = replay(cli.main, argvs)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced = replay(tracer.spanned("cli.main", cli.main), argvs, tracer)
    finally:
        tracer.uninstall()
    rows = measure_rows = finite_ts = 0
    for argv, (code, out) in zip(argvs, traced):
        outcome = tally.check(argv, code, out)
        rows, measure_rows, finite_ts = rows + outcome.rows, measure_rows + outcome.measure_rows, finite_ts + outcome.finite_ts
    digests = [hashlib.sha256(b"".join(out for _, out in outs)).hexdigest() for outs in (plain, traced)]
    tally.count([] if digests[0] == digests[1] else ["traced output differs from untraced output"], ["<replay>"])
    tracer.save(SPANS_DIR / f"spans-{workload}.npz")

    s = tracer.summary()
    m = {
        "import.total_ms": _metric(import_ms, "ms"),
        "import.numpy_ms": _metric(numpy_ms, "ms"),
        "cli.main.calls": _metric(s.calls("cli.main"), "count"),
        "cli.self_us_per_row": _metric(s.self_s("cli.main") * 1e6 / rows, "us/row"),
        "cli.out_bytes": _metric(sum(len(out) for _, out in traced), "bytes"),
    }
    for name in (
        "core.StandardForm",
        "core.symplectic_spectrum",
        "core.separability_margin",
        "core.is_separable",
        "correlations.correlation_report",
        "correlations.discords",
        "correlations.mutual_information",
        "dynamics.evolve",
        "accurate.prod_diff",
        "accurate.sum_sq_minus_4c2",
    ):
        if s.has(name):
            m[f"{name}.calls_per_row"] = _metric(s.calls(name) / rows, "calls/row")
    for name in (
        "core.StandardForm",
        "correlations.correlation_report",
        "dynamics.evolve",
        "dynamics.esd_time_identical_baths",
        "dynamics.esd_time_single_bath",
        "verification.esd_bisection",
    ):
        if s.has(name):
            m[f"{name}.us_per_call"] = _metric(s.us_per_call(name), "us")
    for name in (
        "dynamics.esd_time_identical_baths",
        "dynamics.esd_time_single_bath",
        "verification.esd_bisection",
        "verification.ppt_spectrum_oracle",
    ):
        if s.has(name):
            m[f"{name}.calls"] = _metric(s.calls(name), "count")
    for name in ("verification.symplectic_spectrum_oracle", "verification.run_verification"):
        if s.has(name):
            m[f"{name}.self_s"] = _metric(s.self_s(name), "s")
    if s.has("correlations.correlation_report"):
        reports = s.calls("correlations.correlation_report")
        m["correlations.report_use_ratio"] = _metric(measure_rows / reports if reports else 0.0, "ratio")
    closed_forms = ("dynamics.esd_time_identical_baths", "dynamics.esd_time_single_bath")
    if all(s.has(name) for name in closed_forms):
        closed = sum(s.calls_under(name, "cli.main", tracer.float_results) for name in closed_forms)
        m["dynamics.closed_form_share"] = _metric(closed / finite_ts if finite_ts else 0.0, "ratio")
    if s.has("verification.sample_entangled_sts") and s.has("core.separability_margin"):
        draws = s.calls_under("core.separability_margin", "verification.sample_entangled_sts")
        accepted = s.calls("verification.sample_entangled_sts")
        m["verification.sample_entangled_sts.accept_ratio"] = _metric(accepted / draws if draws else 0.0, "ratio")
    m["trace.overhead_frac"] = _metric(traced_wall / plain_wall - 1.0, "ratio")
    details = {
        "replayed_invocations": len(argvs),
        "rows": rows,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.start),
        "spans_file": str((SPANS_DIR / f"spans-{workload}.npz").relative_to(ROOT)),
        "digest_round0": digests[1],
    }
    return m, details, tally


def _git_rev() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_rev": _git_rev(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["series", "deathtimes", "queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "stsdecay" / "__init__.py").is_file():
        sys.stderr.write(f"error: no stsdecay package under {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        metrics, details, tally = traced_run(args.workload, args.seed)
    else:
        metrics, details, tally = untraced_run(args.workload, args.seed, args.seconds)
    header = {
        "environment": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **details,
        "error_rate": tally.failed / tally.attempted,
        "problems": tally.problems[:20],
    }
    for problem in tally.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps({"header": header}))
    print(
        json.dumps(
            {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
