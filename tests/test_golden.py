"""Golden gate: CLI output bytes and API values frozen from a known-good build.

Two parts:

* every subcommand's stdout, in CSV and JSON, is compared byte for byte
  with a file under ``tests/golden/``;
* the ``repr`` of ``correlation_report``, ``entanglement_of_formation``,
  ``discords`` and ``mutual_information`` over a seeded adversarial state
  set is hashed and compared with a frozen sha256.

Both were captured before the per-row paths of ``evolve`` and ``sweep``
were fused, so any refactor of those paths must reproduce them exactly.
Regenerate the golden files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py --regenerate

which also prints the API digest to put into ``API_DIGEST``.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from pathlib import Path

import pytest

from stsdecay import (
    ReservoirConfig,
    StandardForm,
    StsParams,
    cli,
    correlation_report,
    discords,
    entanglement_of_formation,
    evolve,
    is_pure,
    mutual_information,
    standard_form_from_sts,
)

GOLDEN = Path(__file__).with_name("golden")

_STATE = ("--n1", "10", "--n2", "0.1", "--r", "2")
_FORM = ("--b1", "3.2", "--b2", "1.4", "--c", "1.7")
# The five bath layouts: identical, single bath on mode 1, single bath on
# mode 2, equal rates at unequal temperatures, unequal rates.
_LAYOUTS = {
    "identical": ("--identical", "--gamma", "0.9", "--nr", "0.4"),
    "single1": ("--single-bath", "--gamma", "1.2", "--nr", "0.3"),
    "single2": ("--gamma2", "0.7", "--nr2", "0.6"),
    "equal_rates": ("--gamma1", "1.0", "--nr1", "0.2", "--gamma2", "1.0", "--nr2", "0.9"),
    "unequal_rates": ("--gamma1", "0.8", "--nr1", "0.4", "--gamma2", "1.1", "--nr2", "0.2"),
}
_JSON = ("--format", "json")
_BITS = ("--units", "bits")


def _cases() -> dict[str, tuple[str, ...]]:
    cases: dict[str, tuple[str, ...]] = {
        # evolve: nats and bits, linear and log grids, pure/general/standard-form inputs.
        "evolve_identical_linear": ("evolve", *_STATE, "--identical", "--nr", "0.5", "--t-end", "2", "--points", "50"),
        "evolve_identical_linear_bits_json": (
            "evolve", *_STATE, "--identical", "--nr", "0.5", "--t-end", "2", "--points", "50", *_BITS, *_JSON,
        ),
        "evolve_form_log": (
            "evolve", *_FORM, *_LAYOUTS["unequal_rates"], "--t-start", "0.001", "--t-end", "5",
            "--points", "60", "--log-spacing", *_BITS,
        ),
        "evolve_form_log_json": (
            "evolve", *_FORM, *_LAYOUTS["unequal_rates"], "--t-start", "0.001", "--t-end", "5",
            "--points", "60", "--log-spacing", *_JSON,
        ),
        "evolve_pure_zero_temperature": (
            "evolve", "--n1", "0", "--n2", "0", "--r", "1.3", "--single-bath", "--nr", "0", "--t-end", "6", "--points", "40",
        ),
        "evolve_pure_hot_json": (
            "evolve", "--n1", "0", "--n2", "0", "--r", "0.7", *_LAYOUTS["single2"], "--t-end", "4", "--points", "40", *_JSON,
        ),
        "evolve_vacuum_product": (
            "evolve", "--b1", "0.5", "--b2", "0.5", "--c", "0", "--identical", "--nr", "0", "--t-end", "1", "--points", "5",
        ),
        "evolve_thermal_product_json": (
            "evolve", "--b1", "2.5", "--b2", "0.75", "--c", "0", *_LAYOUTS["equal_rates"], "--t-end", "3", "--points", "7", *_JSON,
        ),
        # report: all outputs, subsets, later times, bits, JSON.
        "report_default": ("report", *_STATE),
        "report_default_json": ("report", *_STATE, *_JSON),
        "report_vacuum": ("report", "--n1", "0", "--n2", "0", "--r", "0"),
        "report_pure_bits_json": ("report", "--n1", "0", "--n2", "0", "--r", "1.5", *_BITS, *_JSON),
        "report_form_later_time": ("report", *_FORM, "--t", "0.3", *_LAYOUTS["equal_rates"]),
        "report_subset_ef_kappas": ("report", *_STATE, "--outputs", "kappas,ef", *_BITS),
        "report_subset_kappas_separable_json": ("report", *_STATE, "--outputs", "kappas,separable", *_JSON),
        "report_subset_discords_mi": ("report", *_FORM, "--outputs", "mutual_information,d2,d1"),
        "report_subset_separable": ("report", *_STATE, "--t", "1.5", *_LAYOUTS["identical"], "--outputs", "separable"),
        # esd: every layout, markers, and the bisection cross-check.
        "esd_zero_temperature": ("esd", *_STATE, "--identical", "--nr", "0"),
        "esd_verify_zero_temperature_json": ("esd", *_STATE, "--single-bath", "--nr", "0", "--verify", *_JSON),
        # verify: two batteries, text and JSON.
        "verify_seed0": ("verify", "--seed", "0"),
        "verify_seed0_json": ("verify", "--seed", "0", "--format", "json"),
        "verify_seed7": ("verify", "--seed", "7"),
        "verify_seed7_json": ("verify", "--seed", "7", "--format", "json"),
    }
    for layout, bath in _LAYOUTS.items():
        cases[f"esd_{layout}"] = ("esd", *_STATE, *bath)
        cases[f"esd_{layout}_json"] = ("esd", *_FORM, *bath, *_JSON)
    for layout in ("identical", "single1", "single2"):
        cases[f"esd_verify_{layout}"] = ("esd", *_STATE, *_LAYOUTS[layout], "--verify")
        cases[f"esd_verify_{layout}_json"] = ("esd", *_FORM, *_LAYOUTS[layout], "--verify", *_JSON)
    # sweep: every state parameter over every layout; r from 0 starts with
    # separable rows.
    for layout, bath in _LAYOUTS.items():
        cases[f"sweep_r_{layout}"] = (
            "sweep", "--n1", "1.5", "--n2", "0.8", "--param", "r", "--min", "0", "--max", "1.5", "--steps", "16", *bath,
        )
        cases[f"sweep_n1_{layout}_json"] = (
            "sweep", "--n2", "0.2", "--r", "0.9", "--param", "n1", "--min", "0", "--max", "8", "--steps", "9", *bath, *_JSON,
        )
        cases[f"sweep_n2_{layout}_ts"] = (
            "sweep", "--n1", "0.1", "--r", "0.6", "--param", "n2", "--min", "0", "--max", "5", "--steps", "11",
            *bath, "--outputs", "ts",
        )
    # Occupancy and rate sweeps need a shorthand layout; nr from 0 starts
    # with an asymptotic-only row.
    for shorthand in ("--identical", "--single-bath"):
        name = shorthand.lstrip("-").replace("-", "_")
        cases[f"sweep_nr_{name}"] = ("sweep", *_STATE, shorthand, "--param", "nr", "--min", "0", "--max", "1.2", "--steps", "7")
        cases[f"sweep_nr_{name}_json"] = (
            "sweep", *_STATE, shorthand, "--param", "nr", "--min", "0", "--max", "1.2", "--steps", "7", *_BITS, *_JSON,
        )
        cases[f"sweep_gamma_{name}"] = (
            "sweep", *_FORM, shorthand, "--nr", "0.5", "--param", "gamma", "--min", "0.25", "--max", "3", "--steps", "6",
            "--outputs", "ts,kappas,ef",
        )
        cases[f"sweep_gamma_{name}_json"] = (
            "sweep", *_FORM, shorthand, "--nr", "0.5", "--param", "gamma", "--min", "0.25", "--max", "3", "--steps", "6",
            "--outputs", "separable,ts", *_JSON,
        )
    cases["sweep_r_zero_temperature_json"] = (
        "sweep", "--n1", "1", "--n2", "0.5", "--param", "r", "--min", "0", "--max", "2", "--steps", "9",
        "--identical", "--nr", "0", *_JSON,
    )
    cases["sweep_r_no_reservoir_all_outputs"] = (
        "sweep", "--n1", "0", "--n2", "0", "--param", "r", "--min", "0", "--max", "3", "--steps", "7",
        "--outputs", "ef,d1,d2,mutual_information,kappas,separable",
    )
    return cases


CASES = _cases()


def _suffix(argv: tuple[str, ...]) -> str:
    if argv[0] == "verify":
        return ".json" if "json" in argv else ".txt"
    return ".json" if "json" in argv else ".csv"


def _run(argv: tuple[str, ...], capsys) -> str:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"{' '.join(argv)} exited {code}"
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    argv = CASES[name]
    expected = (GOLDEN / (name + _suffix(argv))).read_text(encoding="utf-8")
    assert _run(argv, capsys) == expected


def test_every_golden_file_has_a_case():
    stems = {path.stem for path in GOLDEN.iterdir()}
    assert stems == set(CASES)


# -- API values ---------------------------------------------------------------

_RTOL = 64.0 * sys.float_info.epsilon


def _adversarial_states() -> list[StandardForm]:
    """Seeded states at the numerically delicate places of the closed forms."""
    rng = random.Random(20141201)
    states: list[StandardForm] = []

    def add(b1: float, b2: float, c: float) -> None:
        try:
            states.append(StandardForm(b1, b2, c))
        except ValueError:
            pass

    # c = 0: product states, the vacuum included.
    add(0.5, 0.5, 0.0)
    for _ in range(200):
        add(0.5 + rng.expovariate(0.5), 0.5 + rng.expovariate(2.0), 0.0)
    # Squeezed vacua perturbed across the is_pure relative tolerance, on
    # both sides, in b2 and in c.
    for _ in range(150):
        r = rng.uniform(0.05, 9.0)
        b, c = 0.5 * math.cosh(2.0 * r), 0.5 * math.sinh(2.0 * r)
        for k in (0.0, 0.5, 0.9, 0.99, 1.01, 1.1, 1.9, 1.99, 2.01, 2.1, 4.0):
            add(b, b * (1.0 + k * _RTOL), c)
            add(b, b, c * (1.0 - k * _RTOL))
    # Separability margin within ~1e-14 of zero, on both sides.
    for _ in range(400):
        b1, b2 = 0.5 + rng.uniform(1e-3, 30.0), 0.5 + rng.uniform(1e-3, 30.0)
        c0 = math.sqrt((b1 - 0.5) * (b2 - 0.5))
        c = c0 * (1.0 + rng.uniform(-1e-14, 1e-14))
        add(b1, b2, c)
        add(b1, b2, math.nextafter(c0, 0.0))
        add(b1, b2, math.nextafter(c0, math.inf))
    # Strong asymmetry between the modes.
    for _ in range(400):
        big, small = 10.0 ** rng.uniform(2.0, 12.0), 0.5 + 10.0 ** rng.uniform(-12.0, 0.0)
        c = rng.uniform(0.0, 1.0) * math.sqrt((big + 0.5) * (small - 0.5))
        add(big, small, c)
        add(small, big, c)
    # Random squeezed thermal states and their evolved images.
    for _ in range(300):
        sf = standard_form_from_sts(StsParams(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), rng.uniform(0.0, 3.0)))
        states.append(sf)
        res = ReservoirConfig(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        states.append(evolve(sf, res, rng.expovariate(1.0)).sf)
    return states


def _outcome(fn, sf: StandardForm) -> str:
    try:
        return repr(fn(sf))
    except ValueError as exc:
        return type(exc).__name__


def _api_digest(states: list[StandardForm]) -> str:
    h = hashlib.sha256()
    for sf in states:
        for fn in (correlation_report, entanglement_of_formation, discords, mutual_information):
            h.update(_outcome(fn, sf).encode())
            h.update(b"\n")
    return h.hexdigest()


# Frozen from the closed forms as they stood before the fused kernel.
API_DIGEST = "f30cac25f2ac4d54a13370e9dca7a0cf91627384f433c65343fce3aeff4440e4"


def test_adversarial_set_straddles_the_thresholds():
    states = _adversarial_states()
    pure = [is_pure(sf) for sf in states]
    assert any(pure) and not all(pure)
    assert any(sf.c == 0.0 for sf in states)


def test_api_values_match_frozen_digest():
    assert _api_digest(_adversarial_states()) == API_DIGEST


def _regenerate() -> None:
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        (GOLDEN / (name + _suffix(argv))).write_text(buf.getvalue(), encoding="utf-8")
    print(_api_digest(_adversarial_states()))


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    _regenerate()
