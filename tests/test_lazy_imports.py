"""numpy and the dataclasses machinery are loaded only where used, and the package namespace stays whole."""

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
# the exit code and which of numpy, dataclasses and inspect were imported
# by then.
_PROBE = """
import contextlib, io, json, sys
def loaded():
    return [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
import stsdecay
results = [["import stsdecay", 0, loaded()]]
from stsdecay import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    results.append([" ".join(argv), code, loaded()])
print(json.dumps(results))
"""

_STATE = ["--n1", "1", "--n2", "0.5", "--r", "1"]


def _python(source, *args):
    """The JSON that ``source`` prints, run in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", source, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _probe(*argvs):
    return _python(_PROBE, json.dumps(argvs))


# Calls every public function of the closed-form modules once, and reports
# the names without a call below and those after whose call numpy was loaded.
_CLOSED_FORMS_PROBE = """
import json, sys
from stsdecay import core, correlations, dynamics
sts = core.StsParams(1.0, 0.5, 1.0)
sf = core.standard_form_from_sts(sts)
res = dynamics.ReservoirConfig(1.0, 0.3, 2.0, 0.1)
args = {
    "standard_form_from_sts": (sts,),
    "symplectic_spectrum": (sf,),
    "separability_margin": (sf,),
    "uncertainty_margin": (sf,),
    "is_separable": (sf,),
    "is_pure": (sf,),
    "entropic_h": (1.5,),
    "entanglement_of_formation": (sf,),
    "discords": (sf,),
    "mutual_information": (sf,),
    "correlation_report": (sf,),
    "evolve": (sf, res, 0.5),
    "evolve_identical_baths": (sf, 1.0, 0.3, 0.5),
    "esd_time_identical_baths": (sf, 1.0, 0.3),
    "esd_time_single_bath": (sf, 1.0, 0.3),
    "esd_bisection": (sf, res),
    "esd_time": (sf, res),
    "steady_state": (res, sf),
}
uncalled, numpy_after = [], []
for module in (core, correlations, dynamics):
    for name in module.__all__:
        fn = getattr(module, name)
        if not callable(fn) or isinstance(fn, type):
            continue
        if name not in args:
            uncalled.append(name)
            continue
        fn(*args[name])
        if "numpy" in sys.modules:
            numpy_after.append(name)
print(json.dumps([uncalled, numpy_after]))
"""


def test_closed_form_modules_load_no_numpy():
    assert _python(_CLOSED_FORMS_PROBE) == [[], []]


def test_closed_form_commands_do_not_load_numpy():
    results = _probe(
        ["report", *_STATE],
        ["esd", *_STATE, "--identical", "--nr", "0.3"],
        ["esd", *_STATE, "--identical", "--nr", "0.3", "--verify"],
        ["esd", *_STATE, "--gamma1", "1", "--nr1", "0.3", "--gamma2", "2", "--nr2", "0.1"],
        ["sweep", *_STATE, "--param", "r", "--min", "0", "--max", "2", "--steps", "7", "--identical", "--nr", "0.2"],
        ["evolve", *_STATE, "--single-bath", "--nr", "0.2", "--t-end", "3", "--points", "9", "--format", "json"],
    )
    assert [(name, code, loaded) for name, code, loaded in results if code != 0 or "numpy" in loaded] == []


def test_commands_load_no_dataclasses_or_inspect():
    results = _probe(
        ["report", *_STATE],
        ["report", *_STATE, "--identical", "--nr", "0.3", "--t", "0.5", "--outputs", "ef,kappas"],
        ["esd", *_STATE, "--identical", "--nr", "0.3", "--verify"],
        ["esd", *_STATE, "--gamma1", "1", "--nr1", "0.3", "--gamma2", "2", "--nr2", "0.1"],
        ["sweep", *_STATE, "--param", "gamma", "--min", "0.5", "--max", "2", "--steps", "7", "--identical", "--nr", "0.2"],
        ["evolve", *_STATE, "--single-bath", "--nr", "0.2", "--t-end", "3", "--points", "9"],
        ["esd", *_STATE, "--identical", "--nr", "0.3", "--format", "json"],
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
    assert "numpy" not in imported and code == 0 and "numpy" in loaded


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


# The package's public names before they were collected from each module's
# ``__all__``; the collected namespace must hold exactly these.
_PUBLIC_NAMES = {
    "ASYMPTOTIC_ONLY",
    "AsymptoticOnly",
    "CorrelationReport",
    "EvolvedState",
    "InvalidParameterError",
    "NonPhysicalStateError",
    "OraclePrecisionError",
    "OracleReport",
    "ReservoirConfig",
    "SeparableInputError",
    "StandardForm",
    "StsParams",
    "SymplecticSpectrum",
    "__version__",
    "characteristic_function",
    "correlation_report",
    "count_margin_crossings",
    "discords",
    "entanglement_of_formation",
    "entropic_h",
    "esd_bisection",
    "esd_time",
    "esd_time_identical_baths",
    "esd_time_single_bath",
    "evolve",
    "evolve_identical_baths",
    "full_cm",
    "gaussian_cf",
    "is_pure",
    "is_separable",
    "mutual_information",
    "ppt_spectrum_oracle",
    "run_verification",
    "sample_entangled_sts",
    "sample_standard_form",
    "sample_sts",
    "separability_margin",
    "standard_form_from_sts",
    "steady_state",
    "symplectic_spectrum",
    "symplectic_spectrum_oracle",
    "uncertainty_margin",
}


def test_package_namespace_is_whole():
    assert stsdecay._LAZY == set(verification.__all__) - set(dynamics.__all__)
    assert len(stsdecay.__all__) == len(set(stsdecay.__all__))
    assert set(stsdecay.__all__) == _PUBLIC_NAMES
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
