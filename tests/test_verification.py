"""The oracle layer itself: eigen-spectra, bisection, samplers, battery."""

import math

import numpy as np
import pytest

from stsdecay import (
    ASYMPTOTIC_ONLY,
    InvalidParameterError,
    NonPhysicalStateError,
    OraclePrecisionError,
    ReservoirConfig,
    SeparableInputError,
    StandardForm,
    StsParams,
    esd_time_identical_baths,
    full_cm,
    separability_margin,
    standard_form_from_sts,
    symplectic_spectrum,
    uncertainty_margin,
)
from stsdecay import cli
from stsdecay.verification import (
    OracleReport,
    count_margin_crossings,
    esd_bisection,
    ppt_spectrum_oracle,
    run_verification,
    sample_entangled_sts,
    sample_standard_form,
    sample_sts,
    symplectic_spectrum_oracle,
)


def test_oracle_vacuum_and_thermal_product():
    assert symplectic_spectrum_oracle(0.5 * np.eye(4)) == pytest.approx((0.5, 0.5), abs=1e-12)
    v = np.diag([3.5, 3.5, 1.25, 1.25])
    assert symplectic_spectrum_oracle(v) == pytest.approx((3.5, 1.25), abs=1e-12)
    # A product state is invariant under partial transposition.
    assert ppt_spectrum_oracle(v) == pytest.approx((3.5, 1.25), abs=1e-12)


def test_oracle_agrees_with_occupancy_identity():
    v = full_cm(standard_form_from_sts(StsParams(10.0, 0.1, 2.0)))
    assert symplectic_spectrum_oracle(v) == pytest.approx((10.5, 0.6), abs=1e-10)


def test_oracle_ppt_of_pure_state():
    sf = standard_form_from_sts(StsParams(0.0, 0.0, 1.0))
    ktp, ktm = ppt_spectrum_oracle(full_cm(sf))
    assert ktp == pytest.approx(sf.b1 + sf.c, abs=1e-10)
    assert ktm == pytest.approx(sf.b1 - sf.c, abs=1e-10)


def test_oracle_rejects_bad_matrices():
    with pytest.raises(NonPhysicalStateError):
        symplectic_spectrum_oracle(np.diag([1.0, 1.0, 1.0, -0.5]))
    with pytest.raises(InvalidParameterError):
        symplectic_spectrum_oracle(np.eye(3))
    # With a zero pairing tolerance the unavoidable eigensolver noise in
    # the doubly degenerate moduli must be flagged.
    v = full_cm(standard_form_from_sts(StsParams(10.0, 0.1, 2.0)))
    with pytest.raises(NonPhysicalStateError):
        symplectic_spectrum_oracle(v, pair_tol=0.0)


def test_oracle_runs_in_extended_precision_here():
    assert np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant
    kp, km = symplectic_spectrum_oracle(full_cm(standard_form_from_sts(StsParams(3.0, 1.0, 2.5))))
    assert kp == pytest.approx(3.5, abs=1e-10) and km == pytest.approx(1.5, abs=1e-10)


def test_oracle_refuses_a_plain_double_longdouble(monkeypatch, capsys):
    # Where longdouble is binary64 (Windows, macOS on arm64) the Cholesky
    # factor would silently lose the precision the oracle's budget needs.
    monkeypatch.setattr(np, "longdouble", np.float64)
    with pytest.raises(OraclePrecisionError, match="extended precision"):
        symplectic_spectrum_oracle(full_cm(StandardForm(1.5, 1.5, 0.5)))
    assert cli.main(["verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "extended precision" in captured.err


def test_closed_forms_are_phase_invariant_against_oracle():
    # The closed forms never look at the phase; the oracle sees the fully
    # rotated covariance matrix.  Rotation scrambles the entries, so the
    # tolerance is looser than in the phi = 0 comparison.
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(300):
        if rng.random() < 0.5:
            sf = sample_standard_form(rng)
        else:
            sf = standard_form_from_sts(sample_sts(rng))
        spec = symplectic_spectrum(sf)
        v = full_cm(sf)
        okp, okm = symplectic_spectrum_oracle(v)
        otp, otm = ppt_spectrum_oracle(v)
        worst = max(
            worst,
            abs(spec.kappa_plus - okp),
            abs(spec.kappa_minus - okm),
            abs(spec.kappa_tilde_plus - otp),
            abs(spec.kappa_tilde_minus - otm),
        )
    assert worst < 1e-9


def test_bisection_agrees_with_closed_form():
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    ts = esd_time_identical_baths(sf, 1.0, 0.5)
    tb = esd_bisection(sf, ReservoirConfig.identical(1.0, 0.5))
    assert isinstance(tb, float)
    assert abs(ts - tb) < 1e-9


def test_bisection_markers_and_errors():
    entangled = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    assert esd_bisection(entangled, ReservoirConfig.identical(1.0, 0.0)) is ASYMPTOTIC_ONLY
    assert esd_bisection(entangled, ReservoirConfig.single_bath(1.0, 0.0)) is ASYMPTOTIC_ONLY
    assert esd_bisection(entangled, ReservoirConfig(0.0, 0.0, 0.0, 0.0)) is ASYMPTOTIC_ONLY
    # Noise on an undamped mode is never injected, so it does not count.
    assert esd_bisection(entangled, ReservoirConfig(0.0, 1.5, 1.0, 0.0)) is ASYMPTOTIC_ONLY
    with pytest.raises(SeparableInputError):
        esd_bisection(StandardForm(1.5, 1.5, 0.0), ReservoirConfig.identical(1.0, 0.5))


def test_margin_crossing_counts():
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    ts = esd_time_identical_baths(sf, 1.0, 0.5)
    assert count_margin_crossings(sf, ReservoirConfig.identical(1.0, 0.5), 4.0 * ts) == 1
    assert count_margin_crossings(sf, ReservoirConfig.identical(1.0, 0.0), 10.0) == 0


def test_samplers_produce_valid_states():
    rng = np.random.default_rng(73)
    for _ in range(200):
        p = sample_sts(rng, n_max=4.0, r_max=2.0)
        assert 0.0 <= p.n1 <= 4.0 and 0.0 <= p.n2 <= 4.0
        assert 0.0 <= p.r <= 2.0
        assert -math.pi < p.phi <= math.pi
        sf = sample_entangled_sts(rng)
        assert separability_margin(sf) < 0.0
        sf = sample_standard_form(rng, b_max=6.0)
        assert 0.5 <= sf.b1 <= 6.0 and 0.5 <= sf.b2 <= 6.0
        assert sf.c >= 0.0
        assert uncertainty_margin(sf) >= 0.0
    assert sample_sts(rng, with_phase=False).phi == 0.0


def test_oracle_report_compare():
    rep = OracleReport.compare("thing", 1.0, 1.0 + 5e-11, 1e-10)
    assert rep.passed
    assert rep.abs_err == pytest.approx(5e-11)
    assert not OracleReport.compare("thing", 1.0, 1.0 + 2e-10, 1e-10).passed


def test_run_verification_battery_passes_and_is_deterministic():
    reports = run_verification(seed=3, spectrum_samples=300, esd_samples=40, cf_samples=40)
    assert len(reports) == 9
    assert all(r.passed for r in reports)
    names = [r.quantity for r in reports]
    assert len(set(names)) == 9
    again = run_verification(seed=3, spectrum_samples=300, esd_samples=40, cf_samples=40)
    assert again == reports
