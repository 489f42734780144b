"""Dissipative evolution, sudden-death times, and characteristic functions."""

import cmath
import math

import numpy as np
import pytest

from stsdecay import (
    ASYMPTOTIC_ONLY,
    InvalidParameterError,
    NonPhysicalStateError,
    ReservoirConfig,
    SeparableInputError,
    StandardForm,
    StsParams,
    characteristic_function,
    entanglement_of_formation,
    esd_bisection,
    esd_time,
    esd_time_identical_baths,
    esd_time_single_bath,
    evolve,
    evolve_identical_baths,
    gaussian_cf,
    separability_margin,
    standard_form_from_sts,
    steady_state,
    uncertainty_margin,
)
from stsdecay.dynamics import _margin_at
from stsdecay.verification import sample_entangled_sts, sample_sts

# Frozen 40-digit references: disentanglement time of the (10, 0.1, r=2)
# state in identical baths with gamma = 1, n_r = 0.5; and of the
# (10, 7, r=2) state with a single such bath on mode 1.
TS_IDENTICAL_REF = 0.67214294975904892
TS_SINGLE_REF = 0.86215870773413677


def test_reservoir_config_validation():
    with pytest.raises(InvalidParameterError):
        ReservoirConfig(-1.0, 0.5, 1.0, 0.5)
    with pytest.raises(InvalidParameterError):
        ReservoirConfig(1.0, -0.5, 1.0, 0.5)
    with pytest.raises(InvalidParameterError):
        ReservoirConfig(1.0, 0.5, math.nan, 0.5)
    # The identity channel is a valid (if inert) configuration.
    ReservoirConfig(0.0, 0.0, 0.0, 0.0)
    res = ReservoirConfig.identical(2.0, 0.3)
    assert (res.gamma1, res.n_r1, res.gamma2, res.n_r2) == (2.0, 0.3, 2.0, 0.3)
    res = ReservoirConfig.single_bath(2.0, 0.3)
    assert (res.gamma1, res.n_r1, res.gamma2, res.n_r2) == (2.0, 0.3, 0.0, 0.0)


def test_evolve_at_time_zero_is_identity():
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0, 0.7))
    ev = evolve(sf, ReservoirConfig.identical(1.0, 0.5), 0.0)
    assert ev.t == 0.0
    assert ev.sf == sf


def test_evolve_rejects_bad_times():
    sf = StandardForm(1.0, 1.0, 0.0)
    res = ReservoirConfig.identical(1.0, 0.5)
    with pytest.raises(InvalidParameterError):
        evolve(sf, res, -1e-9)
    with pytest.raises(InvalidParameterError):
        evolve(sf, res, math.inf)


def test_single_bath_leaves_free_mode_untouched():
    sf = standard_form_from_sts(StsParams(3.0, 1.0, 1.5, 0.4))
    res = ReservoirConfig.single_bath(0.8, 0.6)
    for t in (0.1, 1.0, 5.0, 40.0):
        out = evolve(sf, res, t).sf
        assert out.b2 == sf.b2
        assert out.c == sf.c * math.exp(-0.5 * (0.8 + 0.0) * t)
        assert out.phi == sf.phi


def test_identical_baths_preserve_symmetry_bitwise():
    sf = standard_form_from_sts(StsParams(2.0, 2.0, 1.2))
    assert sf.b1 == sf.b2
    for t in (0.3, 1.7, 12.0):
        out = evolve_identical_baths(sf, 1.3, 0.7, t).sf
        assert out.b1 == out.b2


def test_zero_temperature_half_life_is_exact():
    # gamma = 1 and t = ln 2 make the decay weight exactly 1/2.
    sf = standard_form_from_sts(StsParams(0.0, 0.0, 2.0))
    out = evolve_identical_baths(sf, 1.0, 0.0, math.log(2.0)).sf
    assert out.b1 == sf.b1 * 0.5 + 0.5 * (1.0 - 0.5)
    assert out.b2 == sf.b2 * 0.5 + 0.5 * (1.0 - 0.5)
    assert out.c == sf.c * 0.5


def test_long_time_limit_reaches_steady_state():
    sf = standard_form_from_sts(StsParams(5.0, 2.0, 1.8, 1.1))
    for res in (
        ReservoirConfig(0.7, 0.4, 1.9, 1.1),
        ReservoirConfig.identical(1.0, 0.5),
        ReservoirConfig.single_bath(1.2, 0.9),
    ):
        t = 700.0 / min(g for g in (res.gamma1, res.gamma2) if g > 0.0)
        out = evolve(sf, res, t).sf
        target = steady_state(res, sf)
        assert out.b1 == pytest.approx(target.b1, abs=1e-12)
        assert out.b2 == pytest.approx(target.b2, abs=1e-12)
        assert abs(out.c - target.c) <= 1e-12


def test_steady_state_layouts():
    sf = standard_form_from_sts(StsParams(4.0, 0.2, 1.0, 0.3))
    both = steady_state(ReservoirConfig(1.0, 0.25, 2.0, 1.5), sf)
    assert (both.b1, both.b2, both.c) == (0.75, 2.0, 0.0)
    assert both.phi == sf.phi
    single = steady_state(ReservoirConfig.single_bath(1.0, 0.25), sf)
    assert single.b1 == 0.75
    assert single.b2 == sf.b2
    assert single.c == 0.0
    with pytest.raises(InvalidParameterError):
        steady_state(ReservoirConfig(0.0, 0.0, 0.0, 0.0), sf)


def test_esd_identical_matches_ppt_eigenvalue_form():
    # b1 = b2 = 0.65, c = 0.35: kt_plus = 1, kt_minus = 0.3 up to rounding.
    sf = StandardForm(0.65, 0.65, 0.35)
    ts = esd_time_identical_baths(sf, 1.0, 0.5)
    assert ts == pytest.approx(math.log1p(0.2 / 0.5), rel=1e-13)
    assert esd_time_identical_baths(sf, 2.0, 0.5) == pytest.approx(0.5 * ts, rel=1e-13)


def test_esd_identical_frozen_reference():
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    ts = esd_time_identical_baths(sf, 1.0, 0.5)
    assert ts == pytest.approx(TS_IDENTICAL_REF, abs=1e-12)
    # The state evolved to t_s sits on the separability boundary.
    out = evolve_identical_baths(sf, 1.0, 0.5, ts).sf
    assert abs(separability_margin(out)) < 1e-9


def test_esd_identical_near_boundary_input():
    # Barely entangled: margin ~ -1e-10, so t_s is tiny but positive.
    c = math.sqrt(0.15 * 0.15 + 1e-10)
    sf = StandardForm(0.65, 0.65, c)
    ts = esd_time_identical_baths(sf, 1.0, 0.5)
    assert 0.0 < ts < 1e-8
    out = evolve_identical_baths(sf, 1.0, 0.5, ts).sf
    assert abs(separability_margin(out)) < 1e-12


def test_esd_single_bath_pure_input_is_squeezing_independent():
    for r in (0.4, 1.3, 2.0):
        sf = standard_form_from_sts(StsParams(0.0, 0.0, r))
        ts = esd_time_single_bath(sf, 1.0, 0.5)
        assert ts == pytest.approx(math.log(3.0), rel=1e-12)
    sf = standard_form_from_sts(StsParams(0.0, 0.0, 2.0))
    assert esd_time_single_bath(sf, 1.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)


def test_esd_single_bath_frozen_reference():
    sf = standard_form_from_sts(StsParams(10.0, 7.0, 2.0))
    ts = esd_time_single_bath(sf, 1.0, 0.5)
    assert ts == pytest.approx(TS_SINGLE_REF, abs=1e-12)
    out = evolve(sf, ReservoirConfig.single_bath(1.0, 0.5), ts).sf
    assert abs(separability_margin(out)) < 1e-9


def test_esd_zero_temperature_returns_marker():
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    assert esd_time_identical_baths(sf, 1.0, 0.0) is ASYMPTOTIC_ONLY
    assert esd_time_single_bath(sf, 1.0, 0.0) is ASYMPTOTIC_ONLY
    assert repr(ASYMPTOTIC_ONLY) == "ASYMPTOTIC_ONLY"
    with pytest.raises(TypeError):
        ASYMPTOTIC_ONLY + 1.0  # arithmetic must fail loudly


def test_death_times_that_overflow_a_double_are_refused():
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    overflow = "death time overflows a double"
    with pytest.raises(InvalidParameterError, match=overflow):
        esd_time_identical_baths(sf, 1e-310, 0.5)
    with pytest.raises(InvalidParameterError, match=overflow):
        esd_time_single_bath(sf, 1e-310, 0.5)
    # With a subnormal occupancy only the ratio inside the logarithm
    # overflows, not the time (50-digit mpmath: 736.09163458840182...).
    assert esd_time_identical_baths(sf, 1.0, 1e-320) == 736.0916345884018
    for res in (
        ReservoirConfig.identical(1e-310, 0.5),
        ReservoirConfig.single_bath(1e-310, 0.5),
        ReservoirConfig(0.0, 0.0, 1e-310, 0.5),
        ReservoirConfig(1e-310, 0.5, 2e-310, 0.5),
    ):
        for death_time in (esd_bisection, esd_time):
            with pytest.raises(InvalidParameterError, match=overflow):
                death_time(sf, res)
    # A tiny rate on one mode leaves the time set by the other bath finite,
    # although the bisection's first bracket overflows.
    both = esd_time(sf, ReservoirConfig(1.0, 0.5, 1e-310, 0.5))
    assert both == pytest.approx(esd_time_single_bath(sf, 1.0, 0.5), abs=1e-9)
    assert math.isfinite(esd_time_identical_baths(sf, 1e-300, 0.5))
    # A death time just below the largest double: the bisection's bracket
    # reaches the cap, and its midpoint must not overflow on the way.
    near_cap = ReservoirConfig(1e-308, 0.5, 1e-310, 0.5)
    for death_time in (esd_bisection, esd_time):
        t = death_time(sf, near_cap)
        assert math.isfinite(t) and t > 1e308
        assert _margin_at(sf, near_cap, t * (1.0 + 1e-12)) >= 0.0
        assert _margin_at(sf, near_cap, t * (1.0 - 1e-12)) < 0.0
    # Halve the rates and the same crossing lies beyond it.
    for death_time in (esd_bisection, esd_time):
        with pytest.raises(InvalidParameterError, match=overflow):
            death_time(sf, ReservoirConfig(5e-309, 0.5, 5e-311, 0.5))


def test_death_times_whose_ratio_overflows_are_accurate():
    # -margin / (den * n_r) overflows, or den * n_r underflows to 0, for a
    # subnormal n_r; the closed forms then take the logarithm term by term.
    mpmath = pytest.importorskip("mpmath")
    for p in (StsParams(10.0, 0.1, 2.0), StsParams(0.3, 5.0, 1.5), StsParams(0.0, 0.0, 6.0), StsParams(0.0, 0.0, 0.01)):
        sf = standard_form_from_sts(p)
        with mpmath.workdps(50):
            b1, b2, c = (mpmath.mpf(x) for x in (sf.b1, sf.b2, sf.c))
            neg_margin = c * c - (b1 - 0.5) * (b2 - 0.5)
            ktp_off = 0.5 * ((b1 - 0.5) + (b2 - 0.5) + mpmath.sqrt((b1 - b2) ** 2 + 4 * c * c))
            for n_r in (5e-324, 1e-320):
                for gamma in (0.37, 1.0, 3.0):
                    for ts, den in (
                        (esd_time_identical_baths(sf, gamma, n_r), ktp_off),
                        (esd_time_single_bath(sf, gamma, n_r), b2 - 0.5),
                        (esd_time(sf, ReservoirConfig(0.0, 0.0, gamma, n_r)), b1 - 0.5),
                    ):
                        exact = mpmath.log1p(neg_margin / (den * n_r)) / gamma
                        assert abs(ts - exact) <= 2.0 * math.ulp(ts), (p, n_r, gamma)


def test_esd_rejects_separable_and_bad_rates():
    thermal = StandardForm(1.5, 1.5, 0.0)
    with pytest.raises(SeparableInputError):
        esd_time_identical_baths(thermal, 1.0, 0.5)
    with pytest.raises(SeparableInputError):
        esd_time_single_bath(thermal, 1.0, 0.5)
    entangled = standard_form_from_sts(StsParams(0.0, 0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        esd_time_identical_baths(entangled, 0.0, 0.5)
    with pytest.raises(InvalidParameterError):
        esd_time_single_bath(entangled, 1.0, -0.1)


def test_esd_time_picks_the_route_for_the_layout():
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    swapped = StandardForm(sf.b2, sf.b1, sf.c, sf.phi)
    assert esd_time(sf, ReservoirConfig.identical(1.3, 0.5)) == esd_time_identical_baths(sf, 1.3, 0.5)
    assert esd_time(sf, ReservoirConfig.single_bath(1.3, 0.5)) == esd_time_single_bath(sf, 1.3, 0.5)
    # A bath on mode 2 only is the single-bath formula with the modes relabeled.
    on_mode2 = esd_time(sf, ReservoirConfig(0.0, 0.0, 1.3, 0.5))
    assert on_mode2 == esd_time_single_bath(swapped, 1.3, 0.5) != esd_time_single_bath(sf, 1.3, 0.5)
    for res in (ReservoirConfig(1.0, 0.5, 2.0, 0.5), ReservoirConfig(1.0, 0.5, 1.0, 0.2)):
        assert esd_time(sf, res) == esd_bisection(sf, res)
    assert esd_time(sf, ReservoirConfig(1.0, 0.0, 2.0, 0.0)) is ASYMPTOTIC_ONLY
    with pytest.raises(InvalidParameterError, match="no active bath"):
        esd_time(sf, ReservoirConfig(0.0, 0.5, 0.0, 0.5))
    with pytest.raises(SeparableInputError):
        esd_time(StandardForm(1.5, 1.5, 0.0), ReservoirConfig(1.0, 0.5, 2.0, 0.5))


def test_esd_single_bath_degenerate_denominator():
    # b2 exactly at the vacuum floor with a whisker of entanglement left:
    # construction tolerates it, the death-time division must not.
    sf = StandardForm(1.0, 0.5, 1e-7)
    assert separability_margin(sf) < 0.0
    with pytest.raises(NonPhysicalStateError):
        esd_time_single_bath(sf, 1.0, 0.5)


def test_characteristic_function_normalization_and_bound():
    sf = standard_form_from_sts(StsParams(2.0, 0.5, 1.2, 0.6))
    res = ReservoirConfig(0.8, 0.4, 1.1, 0.2)
    assert characteristic_function(sf, res, 0.7, 0.0, 0.0) == 1.0
    rng = np.random.default_rng(47)
    for _ in range(200):
        l1 = complex(rng.normal(), rng.normal())
        l2 = complex(rng.normal(), rng.normal())
        t = float(rng.uniform(0.0, 5.0))
        chi = characteristic_function(sf, res, t, l1, l2)
        assert abs(chi) <= 1.0 + 1e-15


def test_characteristic_function_vacuum_gaussian():
    vac = StandardForm(0.5, 0.5, 0.0)
    l1, l2 = 0.3 + 0.4j, -0.2 + 0.1j
    chi = gaussian_cf(vac, l1, l2)
    assert chi == pytest.approx(
        cmath.exp(-0.5 * (abs(l1) ** 2 + abs(l2) ** 2)), rel=1e-14
    )


def test_characteristic_function_matches_evolved_state():
    rng = np.random.default_rng(53)
    sf = standard_form_from_sts(StsParams(3.0, 1.0, 1.5, 0.9))
    res = ReservoirConfig(0.9, 0.7, 0.5, 0.2)
    worst = 0.0
    for _ in range(100):
        l1 = complex(rng.normal(), rng.normal())
        l2 = complex(rng.normal(), rng.normal())
        t = float(rng.uniform(0.0, 6.0))
        direct = characteristic_function(sf, res, t, l1, l2)
        via_state = gaussian_cf(evolve(sf, res, t).sf, l1, l2)
        worst = max(worst, abs(direct - via_state))
    assert worst < 1e-10


def test_characteristic_function_long_time_thermal_product():
    sf = standard_form_from_sts(StsParams(3.0, 1.0, 1.5))
    res = ReservoirConfig(1.0, 0.4, 2.0, 0.8)
    l1, l2 = 0.5 - 0.2j, 0.1 + 0.3j
    chi = characteristic_function(sf, res, 500.0, l1, l2)
    expected = math.exp(-(0.9 * abs(l1) ** 2 + 1.3 * abs(l2) ** 2))
    assert chi == pytest.approx(expected, rel=1e-12)


def test_evolution_is_a_semigroup():
    rng = np.random.default_rng(59)
    for _ in range(500):
        sf = standard_form_from_sts(sample_sts(rng, n_max=10.0, r_max=2.0))
        res = ReservoirConfig(
            float(rng.uniform(0.2, 2.0)),
            float(rng.uniform(0.0, 1.5)),
            float(rng.uniform(0.2, 2.0)),
            float(rng.uniform(0.0, 1.5)),
        )
        t1 = float(rng.uniform(0.0, 4.0))
        t2 = float(rng.uniform(0.0, 4.0))
        two_step = evolve(evolve(sf, res, t1).sf, res, t2).sf
        one_step = evolve(sf, res, t1 + t2).sf
        assert two_step.b1 == pytest.approx(one_step.b1, abs=1e-12)
        assert two_step.b2 == pytest.approx(one_step.b2, abs=1e-12)
        assert two_step.c == pytest.approx(one_step.c, abs=1e-12)


def test_evolution_preserves_physicality():
    rng = np.random.default_rng(61)
    for _ in range(500):
        sf = standard_form_from_sts(sample_sts(rng, n_max=10.0, r_max=2.0))
        res = ReservoirConfig(
            float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(0.0, 1.5)),
            float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(0.0, 1.5)),
        )
        out = evolve(sf, res, float(rng.uniform(0.0, 10.0))).sf
        assert uncertainty_margin(out) >= -1e-12


def test_entanglement_never_increases_along_trajectory():
    sf = sample_entangled_sts(np.random.default_rng(67))
    res = ReservoirConfig(1.0, 0.6, 0.4, 0.1)
    previous = math.inf
    for t in np.linspace(0.0, 8.0, 1000):
        ef, _ = entanglement_of_formation(evolve(sf, res, float(t)).sf)
        assert ef <= previous + 1e-12
        previous = ef
