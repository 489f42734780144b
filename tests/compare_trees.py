"""Replay one corpus of command lines on two source trees; print each invocation whose output differs.

    python tests/compare_trees.py PARENT CHANGE

PARENT and CHANGE are copies of the repository (``git archive`` of two
commits, say); every invocation runs ``python -m stsdecay`` with
``PYTHONPATH`` set to the tree's own ``src``.  The corpus is taken from the
checkout this script sits in:

* the argv of every case of ``tests/test_golden.py``;
* the first round of each workload of ``bench/workloads.py``, at seeds 1
  and 2;
* ``verify --seed k`` for every k below ``workloads.VERIFY_SEEDS``;
* the command lines of ``tests/usage_golden.json`` (help, usage errors,
  abbreviated flags and ``--flag=value``), which argparse answers;
* the edge command lines of ``edges()``.

An invocation differs when its stdout, its stderr or its exit code does.
Each one that differs is printed with what differs; the last line counts
the invocations.  Exit status 0 when none differs, 1 when one does, 2 for
a tree without a ``src/stsdecay`` package.  Outputs are compared by
sha256, so no table is held whole; two invocations run at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)


def edges() -> list[list[str]]:
    """Command lines at the edges of the construction checks.

    Sweeps of each parameter whose ends sit at zero, the subnormals, near
    the largest double, where the uncertainty margin of the entries
    overflows (r near 177.5) and where sinh(r)*cosh(r) does (r near
    355.6); entries whose relative slacks, summed before scaling, would
    pass the largest double; ``report``/``esd`` at r = 176, 177.5 and
    355; valid command lines in the spellings that argparse alone reads
    (abbreviated flags, ``--flag=value``); refusals that no other line
    reaches (a partial standard form, two bath layouts at once, an
    infinite grid or phase); and the lines that ``test_contract.CITED``
    cites as defects or edges, a negative ``--t-start`` whose grid step
    overflows among them.
    """
    from test_contract import CITED
    fixed = {"n1": "0.5", "n2": "0.25", "r": "1", "gamma": "1", "nr": "0.5"}
    ends = [("0", "5e-324"), ("1e-310", "1e300"), ("0", "1e308"), ("177", "178.5"), ("355.5", "355.7"), ("178.5", "0")]
    argvs = [
        ["sweep", *(t for k, v in fixed.items() if k != param for t in ("--" + k, v)), "--identical"]
        + ["--param", param, "--min", lo, "--max", hi, "--steps", "40", "--outputs", "ts"]
        for param in fixed
        for lo, hi in ends
    ]
    bath = ["--identical", "--nr", "0.5"]
    argvs += [
        ["esd", "--b1", "1e154", "--b2", "1e154", "--c", "1.2e154", *bath],
        ["report", "--b1", "1e154", "--b2", "1e154", "--c", "1.2e154"],
        ["report", "--b1", "1e154", "--b2", "1e154", "--c", "9e153"],
        ["report", "--b1", "1e153", "--b2", "1e153", "--c", "9e152"],
    ]
    for r in ("176", "177.5", "355"):
        argvs += [["report", "--n1", "1", "--n2", "1", "--r", r], ["esd", "--n1", "1", "--n2", "1", "--r", r, *bath]]
    argvs += [
        ["report", "--n1=1", "--n2", "1", "--r", "1", "--ident", "--nr", "0.5", "--t", "1", "--format=json"],
        ["esd", "--n1", "10", "--n2", "0.1", "--r=2", "--single", "--nr", "0.5", "--verif"],
        ["evolve", "--n1", "1", "--n2", "0.5", "--r", "1", "--single-bath", "--nr", "0.2", "--t-end=3", "--poi", "9"],
        ["sweep", "--param=r", "--min", "0", "--max", "2", "--steps", "5", "--n1", "1", "--n2", "0.5", "--ident", "--nr", "0.2"],
        ["verify", "--se", "3", "--format=json"],
    ]
    argvs += [
        ["report", "--b1", "2", "--b2", "2"],
        ["report", "--n1", "1", "--n2", "1", "--r", "1", "--identical", "--single-bath", "--nr", "0.5"],
        ["report", "--n1", "1", "--n2", "1", "--r", "1", "--gamma1", "1", "--identical", "--nr", "0.5"],
        ["evolve", "--n1", "1", "--n2", "1", "--r", "1", "--identical", "--nr", "0.5", "--t-end", "inf"],
        ["report", "--b1", "2", "--b2", "2", "--c", "1", "--phi", "inf"],
    ]
    return argvs + [shlex.split(line) for line in CITED]


def corpus() -> list[list[str]]:
    """The argv lists to replay, in a fixed order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    import test_argv
    import test_golden
    import workloads

    argvs = [list(argv) for _, argv in sorted(test_golden._cases().items())]
    argvs += [list(argv) for argv in test_argv._CASES]
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            argvs += next(workloads.rounds(workload, seed))
    argvs += [["verify", "--seed", str(k)] for k in range(workloads.VERIFY_SEEDS)]
    return argvs + edges()


def outcome(tree: Path, argv: list[str], cwd: str) -> tuple[str, str, int]:
    """The sha256 of stdout, stderr as text, and the exit code of ``argv`` run on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    digest = hashlib.sha256()
    with subprocess.Popen(
        [sys.executable, "-m", "stsdecay", *argv], cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        # stderr is at most a few lines; stdout is read a block at a time.
        for block in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(block)
        err = proc.stderr.read().decode(errors="replace")
    return digest.hexdigest(), err, proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "stsdecay" / "__init__.py").is_file():
            sys.stderr.write(f"error: no stsdecay package under {tree / 'src'}\n")
            return 2
    argvs = corpus()
    with tempfile.TemporaryDirectory() as cwd, ThreadPoolExecutor(2) as pool:
        results = pool.map(lambda argv: [outcome(tree, argv, cwd) for tree in trees], argvs)
        differing = 0
        for argv, (before, after) in zip(argvs, results):
            what = [name for name, x, y in zip(("stdout", "stderr", "exit code"), before, after) if x != y]
            if what:
                differing += 1
                print(f"differs ({', '.join(what)}): stsdecay {shlex.join(argv)}")
                if "stderr" in what or "exit code" in what:
                    print(f"  parent: exit {before[2]}, stderr {before[1]!r}\n  change: exit {after[2]}, stderr {after[1]!r}")
    print(f"{differing} of {len(argvs)} invocations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
