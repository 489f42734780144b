"""Each command loads only the modules that it runs, and the package namespace stays whole.

``_MANIFEST`` is the executable form of README's promise: for each step
(a command line run through ``cli.main``, or a Python statement), its exit
code and the exact set of modules that it loads, of the package's own and
of the watched ones (numpy, numpy.random, hashlib, secrets, json, re,
argparse, gettext, locale, typing, dataclasses, inspect).  ``import
stsdecay`` loads no submodule; only ``verify``, ``evolve --log-spacing``
and ``evolve`` on a grid of at least ``_cmd_evolve._BATCH_POINTS`` points
load numpy, and none of them numpy.random, hashlib or secrets (``verify``
draws from ``random.Random``); and argparse, with
gettext, locale and the parser module ``_parser``, is loaded only for
help, usage errors and the spellings that only argparse reads.  One probe
runs every step under ``python -S``, so that no site hook can load a
module first and hide the step's load of it.
"""

import ast
import hashlib
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stsdecay
from stsdecay import _cmd_evolve, _parser, cli, dynamics, verification

# The modules that a step loads only where its manifest names them, besides
# the package's own.
_WATCHED = {
    "numpy", "numpy.random", "hashlib", "secrets", "json", "re", "argparse", "gettext", "locale", "typing",
    "dataclasses", "inspect",
}
# Makes numpy unimportable for the source that follows.
_BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "

# Runs each step of STEPS in a child forked from one interpreter that has
# imported only os and sys (io is loaded at start-up).  A step is
# (prelude, argv, statement): the prelude executed (_BLOCK_NUMPY or
# nothing), then argv run through cli.main, or else the statement.  Each
# child writes, as a Python literal, its exit code (for an exception out
# of the step, its type and message), the sha256 of its stdout, its
# stderr, and the modules added to sys.modules since start-up (not a
# blocked numpy, which is None there), in the order their imports began;
# a child that fails writes None.  The probe's own imports are among those
# added, so the step "pass" shows that they load no watched module.
_PROBE = """
import sys
started = set(sys.modules)
import io, os

def run(prelude, argv, statement, report):
    exec(prelude, {})
    sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        if argv is None:
            exec(statement, {})
        else:
            from stsdecay import cli
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = f"{type(exc).__name__}: {exc}"
    added = [name for name, module in sys.modules.items() if name not in started and module is not None]
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    import hashlib
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    with open(report, "wb") as fh:
        fh.write(repr((code, digest, err.getvalue(), added)).encode())

results = []
for step in STEPS:
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        status = 1
        try:
            run(*step, write)
            status = 0
        except BaseException:
            import traceback
            traceback.print_exc(file=sys.__stderr__)
        finally:
            os._exit(status)
    os.close(write)
    with open(read, "rb") as fh:
        report = fh.read()
    results.append(report if os.waitpid(pid, 0)[1] == 0 else b"None")
sys.stdout.buffer.write(b"[" + b",".join(results) + b"]")
"""

# A step's text: "stsdecay ..." is a command line, anything else a Python
# statement; after this prefix, either runs with numpy blocked.
_NO_NUMPY = "without numpy: "

_STATE = "--n1 1 --n2 0.5 --r 1"
# What ``from stsdecay import cli`` loads, and what the parser adds to it.
_CLI = "cli core _accurate errors"
_PARSER = "_parser argparse gettext locale re"
_GRID = f"stsdecay evolve {_STATE} --single-bath --nr 0.2 --t-end 3 --format json"
_BATCH = f"{_GRID} --points {_cmd_evolve._BATCH_POINTS}"
_LOG = f"{_GRID} --t-start 0.0003 --points 3000 --log-spacing"

# A valid command line of each subcommand, a flag and value of it for the
# spellings that argparse alone reads, and the modules it runs beyond
# those of _CLI.
_COMMANDS = {
    "report": (f"stsdecay report {_STATE}", ("--phi", "0"), "_cmd_report correlations"),
    "evolve": (
        f"stsdecay evolve {_STATE} --single-bath --nr 0.2 --t-end 3 --points 9",
        ("--phi", "0"),
        "_cmd_evolve correlations dynamics",
    ),
    "esd": (f"stsdecay esd {_STATE} --identical --nr 0.3", ("--phi", "0"), "_cmd_esd dynamics"),
    "sweep": (
        f"stsdecay sweep {_STATE} --param r --min 0 --max 2 --steps 7 --identical --nr 0.2",
        ("--phi", "0"),
        "_cmd_sweep correlations dynamics",
    ),
    "verify": ("stsdecay verify --seed 1", ("--seed", "1"), "_cmd_verify dynamics verification _batch numpy"),
}

# Step -> its exit code and the package's submodules and watched modules
# that it loads, by name, without the "stsdecay." of a submodule.  "numpy"
# stands for numpy and the watched modules that ``import numpy`` loads.
_MANIFEST = {
    "pass": (0, ""),
    "import stsdecay": (0, ""),
    # An unknown name is searched for in every closed-form module.
    "import stsdecay\ntry:\n    stsdecay.no_such_name\nexcept AttributeError:\n    pass": (
        0, "core _accurate errors correlations dynamics"),
    "from stsdecay import cli": (0, _CLI),
    # A submodule as an attribute of the package loads that module alone.
    "import stsdecay\nstsdecay.core": (0, "core _accurate errors"),
    "import stsdecay\nstsdecay.cli": (0, _CLI),
    "import stsdecay.verification": (0, "verification core _accurate errors dynamics _batch numpy"),
    **{line: (0, f"{_CLI} {modules}") for line, _, modules in _COMMANDS.values()},
    # Help, a usage error and the spellings that argparse alone reads load the parser.
    **{f"stsdecay {command} --help": (0, f"{_CLI} {_PARSER}") for command in _COMMANDS},
    **{f"{line} --no-such-flag": (2, f"{_CLI} {_PARSER}") for line, _, _ in _COMMANDS.values()},
    **{f"{line} {flag[:-1]} {value}": (0, f"{_CLI} {_PARSER} {modules}") for line, (flag, value), modules in
       _COMMANDS.values()},
    **{f"{line} {flag}={value}": (0, f"{_CLI} {_PARSER} {modules}") for line, (flag, value), modules in
       _COMMANDS.values()},
    f"stsdecay report {_STATE} --t 0 --format json": (0, f"{_CLI} _cmd_report correlations"),
    # A value that starts with "-" is matched against argparse's pattern of a negative number.
    f"stsdecay report {_STATE} --identical --nr 0.3 --t -0 --format json --units bits": (
        0, f"{_CLI} _cmd_report correlations dynamics re"),
    f"stsdecay report {_STATE} --identical --nr 0.3 --t 0.5 --outputs ef,kappas": (
        0, f"{_CLI} _cmd_report correlations dynamics"),
    f"stsdecay esd {_STATE} --identical --nr 0.3 --verify --format json": (0, f"{_CLI} _cmd_esd dynamics"),
    f"stsdecay esd {_STATE} --gamma1 1 --nr1 0.3 --gamma2 2 --nr2 0.1": (0, f"{_CLI} _cmd_esd dynamics"),
    f"stsdecay sweep {_STATE} --param gamma --min 0.5 --max 2 --steps 5 --identical --nr 0.2 --outputs ts": (
        0, f"{_CLI} _cmd_sweep dynamics"),
    "stsdecay verify --seed 1 --format json": (0, f"{_CLI} _cmd_verify dynamics verification _batch numpy"),
    f"{_GRID} --points {_cmd_evolve._BATCH_POINTS - 1}": (0, f"{_CLI} _cmd_evolve correlations dynamics"),
    _BATCH: (0, f"{_CLI} _cmd_evolve correlations dynamics _batch numpy"),
    _LOG: (0, f"{_CLI} _cmd_evolve correlations dynamics _batch numpy"),
    # Where numpy cannot be imported, the scalar rows answer a long grid.
    _NO_NUMPY + _BATCH: (0, f"{_CLI} _cmd_evolve correlations dynamics"),
    f"{_NO_NUMPY}{_LOG} --out needs-numpy.out": (1, f"{_CLI} _cmd_evolve correlations dynamics"),
    f"{_NO_NUMPY}stsdecay verify --out needs-numpy.out": (1, f"{_CLI} _cmd_verify"),
}

# Calls every public function of the closed-form modules once, and exits
# with the names without a call below and those after whose call numpy
# was loaded, if there are any.
_CLOSED_FORMS = """
import sys
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
if uncalled or numpy_after:
    sys.exit(f"uncalled: {uncalled}, numpy after: {numpy_after}")
"""
_STEPS = [*_MANIFEST, _CLOSED_FORMS, "import numpy"]


def _step(text):
    """(prelude, argv, statement) of a step's text."""
    prelude = _BLOCK_NUMPY if text.startswith(_NO_NUMPY) else ""
    text = text.removeprefix(_NO_NUMPY)
    return prelude, shlex.split(text)[1:] if text.startswith("stsdecay ") else None, text


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    """Step -> (exit code, sha256 of stdout, stderr, added modules), and the directory the steps ran in."""
    cwd = tmp_path_factory.mktemp("probe")
    path = [str(Path(stsdecay.__file__).resolve().parents[1]), str(Path(np.__file__).resolve().parents[1])]
    source = f"STEPS = {[_step(text) for text in _STEPS]!r}\n{_PROBE}"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", source],
        capture_output=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    results = ast.literal_eval(proc.stdout.decode())
    assert None not in results, proc.stderr.decode()
    return dict(zip(_STEPS, results)), cwd


def _loads(added):
    """The package's submodules, by their short names, and the watched modules in ``added``."""
    return {name.removeprefix("stsdecay.") for name in added if name.startswith("stsdecay.") or name in _WATCHED}


@pytest.mark.parametrize("step", _MANIFEST)
def test_each_step_loads_exactly_its_manifest(step, probed):
    results, _ = probed
    code, modules = _MANIFEST[step]
    want = set(modules.split())
    if "numpy" in want:
        want |= _loads(results["import numpy"][3])
    assert (results[step][0], _loads(results[step][3])) == (code, want)


def test_closed_form_modules_load_no_numpy(probed):
    results, _ = probed
    code, _, _, added = results[_CLOSED_FORMS]
    assert code == 0 and "numpy" not in added


@pytest.mark.parametrize("step", [_LOG, _BATCH], ids=["log_spacing", "batch_threshold"])
def test_batch_evolve_compiles_its_modules_before_numpy(step, probed):
    # Every evolve row runs dynamics and correlations; imported before
    # numpy, their compile-time scratch memory is freed before numpy's
    # arrays are resident, which lowers the command's peak RSS.
    results, _ = probed
    added = results[step][3]
    assert added.index("stsdecay.dynamics") < added.index("numpy")
    assert added.index("stsdecay.correlations") < added.index("numpy")


def test_evolve_without_numpy_writes_the_same_bytes(probed):
    results, _ = probed
    code, digest, err, _ = results[_BATCH]
    assert (code, err) == (0, "")
    assert results[_NO_NUMPY + _BATCH][:3] == (0, digest, "")


@pytest.mark.parametrize(
    "step, command",
    [(f"{_NO_NUMPY}{_LOG} --out needs-numpy.out", "evolve --log-spacing"),
     (f"{_NO_NUMPY}stsdecay verify --out needs-numpy.out", "verify")],
    ids=["evolve_log_spacing", "verify"],
)
def test_commands_that_need_numpy_say_so_in_one_line_without_it(step, command, probed):
    results, cwd = probed
    empty = hashlib.sha256(b"").hexdigest()
    assert results[step][:3] == (1, empty, f"error: {command} needs numpy, which cannot be imported\n")
    assert list(cwd.iterdir()) == []


# What each command line must print alike through `main` and from the
# parser: help, an unknown flag and a missing required flag (for the
# commands that have none, a flag without its value), at the top level and
# per subcommand.
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

    assert printed(cli.main) == printed(_parser._build_parser().parse_args)


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
