"""numpy, json, argparse, the dataclasses machinery and each submodule are loaded only where used, and the package namespace stays whole.

numpy is used by the oracle, the log grid of `evolve`, and the batch rows of
long `evolve` grids, which give the bytes of the scalar rows without it.
``import stsdecay`` loads no submodule, and each command loads only the
modules that it runs.  argparse (with gettext and locale) is loaded only
for help, usage errors and the spellings that only it reads, and then
builds only the subparser needed.
"""

import ast
import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stsdecay
from stsdecay import _evolve_table, cli, dynamics, verification

_SRC = str(Path(stsdecay.__file__).resolve().parents[1])

# Runs each argv through cli.main in one interpreter and reports, per argv,
# the exit code (argparse's for help and usage errors) and which of numpy,
# dataclasses, inspect, argparse, gettext and locale were imported by then
# that the interpreter's start-up had not imported.
_PROBE = """
import contextlib, io, json, sys
started = set(sys.modules)
def loaded():
    names = ("numpy", "dataclasses", "inspect", "argparse", "gettext", "locale")
    return [m for m in names if m in sys.modules and m not in started]
import stsdecay
results = [["import stsdecay", 0, loaded()]]
from stsdecay import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
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


def test_valid_commands_load_no_argument_parser():
    results = _probe(
        ["report", *_STATE],
        ["report", *_STATE, "--identical", "--nr", "0.3", "--t", "-0", "--format", "json", "--units", "bits"],
        ["esd", *_STATE, "--identical", "--nr", "0.3", "--verify"],
        ["evolve", *_STATE, "--single-bath", "--nr", "0.2", "--t-end", "3", "--points", "9"],
        ["sweep", *_STATE, "--param", "r", "--min", "0", "--max", "2", "--steps", "7", "--identical", "--nr", "0.2"],
        ["verify", "--seed", "1", "--format", "json"],
    )
    parser = {"argparse", "gettext", "locale"}
    assert [(name, code, parser & set(loaded)) for name, code, loaded in results] == [
        (name, 0, set()) for name, _, _ in results
    ]


@pytest.mark.parametrize(
    "argv, code",
    [(["report", "--help"], 0), (["report", *_STATE, "--ident", "--nr", "0.3"], 0), (["esd", "--nr", "x"], 2)],
    ids=["help", "abbreviation", "usage_error"],
)
def test_help_abbreviations_and_usage_errors_load_argparse(argv, code):
    (_, _, imported), (_, exited, loaded) = _probe(argv)
    assert "argparse" not in imported and exited == code and "argparse" in loaded


# Runs one step in a fresh interpreter and prints, as a Python literal, the
# package's submodules and which of numpy and json are loaded by then.  The
# probe imports only sys, so what it reports beyond start-up the step loaded.
_LOADED_PROBE = """
import sys
{}
print(sorted(m for m in sys.modules if m.startswith("stsdecay.") or m in ("numpy", "json")))
"""
# The command line: argv after the source, refused unless it exits 0.
_MAIN = "from stsdecay import cli\nif cli.main(sys.argv[1:]): sys.exit('nonzero exit code')"


@functools.lru_cache(maxsize=None)
def _loaded(step, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE.format(step), *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def _added(step, *argv):
    """The modules of the probe that ``step`` loads beyond those of the interpreter's start-up."""
    return _loaded(step, *argv) - _loaded("pass")


def test_import_stsdecay_loads_no_submodule():
    assert _added("import stsdecay") == set()


def test_the_oracle_module_loads_neither_the_command_line_nor_the_evolve_table():
    added = _added("import stsdecay.verification")
    assert "numpy" in added
    assert not {"stsdecay.cli", "stsdecay._evolve_table"} & added


def test_csv_esd_loads_neither_correlations_nor_json():
    added = _added(_MAIN, "esd", *_STATE, "--identical", "--nr", "0.3")
    assert "stsdecay.dynamics" in added
    assert not {"stsdecay.correlations", "json"} & added


def test_report_without_a_bath_loads_no_dynamics():
    added = _added(_MAIN, "report", *_STATE)
    assert "stsdecay.correlations" in added and "stsdecay.dynamics" not in added
    assert "stsdecay.dynamics" not in _added(_MAIN, "report", *_STATE, "--t", "0", "--format", "json")


@pytest.mark.parametrize(
    "step",
    ["from stsdecay import cli", "import stsdecay\ntry:\n    stsdecay.no_such_name\nexcept AttributeError:\n    pass"],
    ids=["cli", "unknown_name"],
)
def test_cli_and_an_unknown_name_load_no_numpy(step):
    assert "numpy" not in _added(step)


# What each command line must print alike from the parser that `main` builds
# for its subcommand and from the parser with every subcommand populated:
# help, an unknown flag and a missing required flag (for the commands that
# have none, a flag without its value), at the top level and per subcommand.
_REQUIRED = {
    "report": [],
    "evolve": ["--t-end", "1"],
    "esd": [],
    "sweep": ["--param", "r", "--min", "0", "--max", "1", "--steps", "2"],
    "verify": [],
}
_PARSER_CASES = [
    ["--help"],
    ["--no-such-flag"],
    [],
    ["no-such-command"],
    ["--no-such-flag", "report"],
    *([command, "--help"] for command in _REQUIRED),
    *([command, *required, "--no-such-flag"] for command, required in _REQUIRED.items()),
    *([command, *required[:-2]] if required else [command, "--format"] for command, required in _REQUIRED.items()),
]


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-argv")
def test_the_subcommand_parser_prints_the_bytes_of_the_full_parser(argv, capsys):
    def printed(parse):
        with pytest.raises(SystemExit) as exited:
            parse(argv)
        return exited.value.code, *capsys.readouterr()

    assert printed(cli.main) == printed(cli._build_parser().parse_args)


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


_EVOLVE = ["evolve", *_STATE, "--single-bath", "--nr", "0.2", "--t-end", "3", "--format", "json", "--points"]


def test_evolve_loads_numpy_from_the_batch_threshold_on():
    n = _evolve_table.BATCH_POINTS
    _, below, at = _probe([*_EVOLVE, str(n - 1)], [*_EVOLVE, str(n)])
    assert below[1:] == [0, []]
    assert at[1] == 0 and "numpy" in at[2]


# Runs one argv through cli.main, with numpy importable or not, and prints
# the exit code, whether numpy was loaded, and the sha256 of stdout.
_BYTES_PROBE = """
import contextlib, hashlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from stsdecay import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(json.loads(sys.argv[2]))
loaded = sys.modules.get("numpy") is not None
print(json.dumps([code, loaded, hashlib.sha256(out.getvalue().encode()).hexdigest()]))
"""


def test_evolve_without_numpy_writes_the_same_bytes():
    argv = json.dumps([*_EVOLVE, str(_evolve_table.BATCH_POINTS)])
    code, loaded, digest = _python(_BYTES_PROBE, "blocked", argv)
    assert (code, loaded) == (0, False)
    assert _python(_BYTES_PROBE, "importable", argv) == [0, True, digest]


# Makes numpy unimportable for the source that follows.
_BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "
# The command line with numpy blocked: argv after the source, exit code of cli.main.
_BLOCKED_MAIN = _BLOCK_NUMPY + "from stsdecay import cli; sys.exit(cli.main(sys.argv[1:]))"


@pytest.mark.parametrize(
    "argv, command",
    [
        (["verify"], "verify"),
        (["evolve", *_STATE, "--identical", "--nr", "0.2", "--t-start", "0.1", "--t-end", "3", "--log-spacing"], "evolve --log-spacing"),
    ],
    ids=["verify", "evolve_log_spacing"],
)
def test_commands_that_need_numpy_say_so_in_one_line_without_it(argv, command, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_MAIN, *argv, "--out", str(out)], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {command} needs numpy, which cannot be imported\n"
    assert list(tmp_path.iterdir()) == []


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
