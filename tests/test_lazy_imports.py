"""numpy is loaded only by the commands that use it, and the package namespace stays whole."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stsdecay
from stsdecay import cli, dynamics, verification

_SRC = str(Path(stsdecay.__file__).resolve().parents[1])

# Runs each argv through cli.main in one interpreter and reports, per argv,
# the exit code and whether numpy was imported by then.
_PROBE = """
import contextlib, io, json, sys
import stsdecay
results = [["import stsdecay", 0, "numpy" in sys.modules]]
from stsdecay import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    results.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(results))
"""

_STATE = ["--n1", "1", "--n2", "0.5", "--r", "1"]


def _probe(*argvs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_commands_do_not_load_numpy():
    results = _probe(
        ["report", *_STATE],
        ["esd", *_STATE, "--identical", "--nr", "0.3"],
        ["esd", *_STATE, "--identical", "--nr", "0.3", "--verify"],
        ["esd", *_STATE, "--gamma1", "1", "--nr1", "0.3", "--gamma2", "2", "--nr2", "0.1"],
        ["sweep", *_STATE, "--param", "r", "--min", "0", "--max", "2", "--steps", "7", "--identical", "--nr", "0.2"],
        ["evolve", *_STATE, "--single-bath", "--nr", "0.2", "--t-end", "3", "--points", "9", "--format", "json"],
    )
    assert [(name, code, loaded) for name, code, loaded in results if code != 0 or loaded] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["evolve", *_STATE, "--identical", "--nr", "0.2", "--t-start", "0.1", "--t-end", "3", "--log-spacing"],
    ],
    ids=["verify", "evolve_log_spacing"],
)
def test_oracle_and_log_grid_load_numpy(argv):
    (_, _, imported), (_, code, loaded) = _probe(argv)
    assert imported is False and code == 0 and loaded is True


_LINSPACE_CASES = [
    (0.0, 1.0, 1),
    (0.0, 1.0, 2),
    (3.5, 3.5, 1),
    (3.5, 3.5, 2),
    (3.5, 3.5, 9),
    (-0.0, 0.0, 3),
    (0.0, -0.0, 3),
    (-0.0, -0.0, 4),
    (-0.0, 1.0, 5),
    (-3.0, -1.0, 6),
    (2.0, -7.5, 11),
    (1.0, 0.0, 1),
    (-0.0, 1.0, 1),
    (-1.7976931348623157e308, 1.7976931348623157e308, 1),
    (0.0, 5e-324, 3),
    (0.0, 5e-324, 2),
    (5e-324, -5e-324, 7),
    (1e-310, 1.00000000001e-310, 13),
    (2.2250738585072014e-308, 2.225073858507202e-308, 9),
    (0.0, 1.7976931348623157e308, 5),
    (-1e308, 1e308, 4),
    (1.7976931348623157e308, -1.7976931348623157e308, 3),
    (1e308, 1.7976931348623157e308, 6),
    (0.1, 0.3, 3),
    (1e-9, 1e9, 1001),
]


def _random_cases(n, seed=20260418):
    rng = random.Random(seed)
    for _ in range(n):
        a = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320, 308)
        b = a if rng.random() < 0.1 else rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320, 308)
        yield a, b, rng.choice([1, 2, 3, 7, 64, 200])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_linspace_matches_numpy_bit_for_bit():
    for start, stop, num in [*_LINSPACE_CASES, *_random_cases(2000)]:
        want = [repr(x) for x in np.linspace(start, stop, num).tolist()]
        got = [repr(x) for x in cli._linspace(start, stop, num)]
        assert got == want, (start, stop, num)


def test_package_namespace_is_whole():
    namespace = {}
    exec("from stsdecay import *", namespace)
    assert set(stsdecay.__all__) <= set(namespace)
    assert set(stsdecay.__all__) <= set(dir(stsdecay))
    for name in stsdecay.__all__:
        assert getattr(stsdecay, name) is namespace[name]
    for name in stsdecay._LAZY:
        assert getattr(stsdecay, name) is getattr(verification, name)
    assert stsdecay.esd_bisection is verification.esd_bisection is dynamics.esd_bisection
    with pytest.raises(AttributeError, match="no_such_name"):
        stsdecay.no_such_name
