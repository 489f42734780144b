"""Dissipative evolution, sudden-death times, and characteristic functions."""

import cmath
import collections
import math
import random
import sys

import numpy as np
import pytest
from conftest import bona_fide_margin

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
    gaussian_cf,
    separability_margin,
    standard_form_from_sts,
)
from stsdecay import core, dynamics, verification
from stsdecay.dynamics import _bisection_answer, _margin_at
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
        out = evolve(sf, ReservoirConfig.identical(1.3, 0.7), t).sf
        assert out.b1 == out.b2


def test_zero_temperature_half_life_is_exact():
    # gamma = 1 and t = ln 2 make the decay weight exactly 1/2.
    sf = standard_form_from_sts(StsParams(0.0, 0.0, 2.0))
    out = evolve(sf, ReservoirConfig.identical(1.0, 0.0), math.log(2.0)).sf
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
        # A damped mode relaxes to its bath's thermal state, a free one keeps its variance, and c decays to 0.
        assert out.b1 == pytest.approx(res.n_r1 + 0.5 if res.gamma1 > 0.0 else sf.b1, abs=1e-12)
        assert out.b2 == pytest.approx(res.n_r2 + 0.5 if res.gamma2 > 0.0 else sf.b2, abs=1e-12)
        assert abs(out.c) <= 1e-12


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
    out = evolve(sf, ReservoirConfig.identical(1.0, 0.5), ts).sf
    assert abs(separability_margin(out)) < 1e-9


def test_esd_identical_near_boundary_input():
    # Barely entangled: margin ~ -1e-10, so t_s is tiny but positive.
    c = math.sqrt(0.15 * 0.15 + 1e-10)
    sf = StandardForm(0.65, 0.65, c)
    ts = esd_time_identical_baths(sf, 1.0, 0.5)
    assert 0.0 < ts < 1e-8
    out = evolve(sf, ReservoirConfig.identical(1.0, 0.5), ts).sf
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
    # A tiny rate on one mode leaves the time set by the other bath finite.
    both = esd_time(sf, ReservoirConfig(1.0, 0.5, 1e-310, 0.5))
    assert both == pytest.approx(esd_time_single_bath(sf, 1.0, 0.5), abs=1e-9)
    assert math.isfinite(esd_time_identical_baths(sf, 1e-300, 0.5))
    # A death time just below the largest double: the bisection's last
    # steps lie beside the pattern of +inf.
    near_cap = ReservoirConfig(1e-308, 0.5, 1e-310, 0.5)
    for death_time in (esd_bisection, esd_time):
        t = death_time(sf, near_cap)
        assert math.isfinite(t) and t > 1e308
        fields, (a1, a2, _) = near_cap._fields(), core._offsets(sf.b1, sf.b2, sf.c)
        assert _margin_at(a1, a2, sf.c, fields, t * (1.0 + 1e-12)) >= 0.0
        assert _margin_at(a1, a2, sf.c, fields, t * (1.0 - 1e-12)) < 0.0
    # Halve the rates and the same crossing lies beyond it.
    for death_time in (esd_bisection, esd_time):
        with pytest.raises(InvalidParameterError, match=overflow):
            death_time(sf, ReservoirConfig(5e-309, 0.5, 5e-311, 0.5))
    # A time below the smallest normal double is refused too, not printed as 0.0.
    for res in (ReservoirConfig.identical(1e200, 1e200), ReservoirConfig(1e200, 1e200, 1.0, 0.0)):
        with pytest.raises(InvalidParameterError, match="^death time underflows a double"):
            esd_time(sf, res)


@pytest.mark.parametrize(
    "a1, a2, neg, res",
    [(1e308, 1e308, 1.0, (1.0, 1.0, 1.0, 1.0)), (1e300, 1e-3, 1e307, (1.0, 0.3, 1.5, 0.3))],
    ids=["closed_form_denominator", "newton_slope"],
)
def test_the_root_refuses_terms_that_overflow_a_double(a1, a2, neg, res):
    # Offsets near the largest double: the closed form's denominator is
    # inf; at unequal rates, the first Newton step's S + t*dS/dt is.
    message = f"^the terms of the evolved separability margin overflow a double \\(reservoir occupancies {res[1]!r} and {res[3]!r}\\)$"
    with pytest.raises(InvalidParameterError, match=message):
        dynamics._root(a1, a2, neg, res)


def test_death_times_whose_ratio_overflows_are_accurate():
    # A subnormal n_r: the root scales the occupancies into the normal
    # range, and where E* = -margin / (den * n_r) overflows, the time comes
    # from log E*.  For the larger n_r, den * n_r is subnormal but E* finite.
    mpmath = pytest.importorskip("mpmath")
    for p in (StsParams(10.0, 0.1, 2.0), StsParams(0.3, 5.0, 1.5), StsParams(0.0, 0.0, 6.0), StsParams(0.0, 0.0, 0.01)):
        sf = standard_form_from_sts(p)
        with mpmath.workdps(50):
            b1, b2, c = (mpmath.mpf(x) for x in (sf.b1, sf.b2, sf.c))
            neg_margin = c * c - (b1 - 0.5) * (b2 - 0.5)
            ktp_off = 0.5 * ((b1 - 0.5) + (b2 - 0.5) + mpmath.sqrt((b1 - b2) ** 2 + 4 * c * c))
            for n_r in (5e-324, 1e-320, 1e-315, 1e-310, 3e-309, 2e-308):
                for gamma in (0.37, 1.0, 3.0):
                    for ts, den in (
                        (esd_time_identical_baths(sf, gamma, n_r), ktp_off),
                        (esd_time_single_bath(sf, gamma, n_r), b2 - 0.5),
                        (esd_time(sf, ReservoirConfig(0.0, 0.0, gamma, n_r)), b1 - 0.5),
                    ):
                        exact = mpmath.log1p(neg_margin / (den * n_r)) / gamma
                        assert abs(ts - exact) <= 2.0 * math.ulp(ts), (p, n_r, gamma)


_SEPARABLE = "^input is already separable: no finite disentanglement time to compute$"


def test_esd_rejects_separable_and_bad_rates():
    thermal = StandardForm(1.5, 1.5, 0.0)
    # One message for every layout and route.
    for death_time in (esd_time_identical_baths, esd_time_single_bath):
        with pytest.raises(SeparableInputError, match=_SEPARABLE):
            death_time(thermal, 1.0, 0.5)
    for res in (ReservoirConfig(1.0, 0.5, 2.0, 0.1), ReservoirConfig(0.0, 0.0, 1.0, 0.5), ReservoirConfig.identical(1.0, 0.0)):
        for death_time in (esd_time, esd_bisection):
            with pytest.raises(SeparableInputError, match=_SEPARABLE):
                death_time(thermal, res)
    entangled = standard_form_from_sts(StsParams(0.0, 0.0, 1.0))
    for death_time in (esd_time_identical_baths, esd_time_single_bath):
        # A zero rate is a reservoir with no active bath, before the separable check.
        for sf in (entangled, thermal):
            with pytest.raises(InvalidParameterError, match="no active bath"):
                death_time(sf, 0.0, 0.5)
        # A negative or NaN rate or occupancy is refused by ReservoirConfig.
        for gamma, n_r in ((-1.0, 0.5), (1.0, -0.1)):
            with pytest.raises(InvalidParameterError, match="must be >= 0"):
                death_time(entangled, gamma, n_r)
        for gamma, n_r in ((math.nan, 0.5), (1.0, math.nan)):
            with pytest.raises(InvalidParameterError, match="^ReservoirConfig fields must be finite numbers$"):
                death_time(entangled, gamma, n_r)


def test_esd_time_picks_the_route_for_the_layout():
    rng = np.random.default_rng(1312)
    states = [standard_form_from_sts(StsParams(10.0, 0.1, 2.0))]
    states += [sample_entangled_sts(rng, n_max=10.0, r_max=4.0) for _ in range(40)]
    for sf in states:
        gamma, n_r = rng.uniform(0.2, 3.0), rng.uniform(0.05, 2.0)
        swapped = StandardForm(sf.b2, sf.b1, sf.c, sf.phi)
        assert esd_time(sf, ReservoirConfig.identical(gamma, n_r)) == esd_time_identical_baths(sf, gamma, n_r)
        assert esd_time(sf, ReservoirConfig.single_bath(gamma, n_r)) == esd_time_single_bath(sf, gamma, n_r)
        # A bath on mode 2 only is the single-bath formula with the modes relabeled.
        on_mode2 = esd_time(sf, ReservoirConfig(0.0, 0.0, gamma, n_r))
        assert on_mode2 == esd_time_single_bath(swapped, gamma, n_r) != esd_time_single_bath(sf, gamma, n_r)
    sf = states[0]
    for res in (ReservoirConfig(1.0, 0.5, 2.0, 0.5), ReservoirConfig(1.0, 0.5, 1.0, 0.2)):
        assert abs(esd_time(sf, res) - esd_bisection(sf, res)) <= 1e-9
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
        assert bona_fide_margin(out) >= -1e-12


def test_entanglement_never_increases_along_trajectory():
    sf = sample_entangled_sts(np.random.default_rng(67))
    res = ReservoirConfig(1.0, 0.6, 0.4, 0.1)
    previous = math.inf
    for t in np.linspace(0.0, 8.0, 1000):
        ef, _ = entanglement_of_formation(evolve(sf, res, float(t)).sf)
        assert ef <= previous + 1e-12
        previous = ef


def _bisection_cases(rng):
    """Seeded (state, reservoir) pairs that cover every kind of bisection step."""

    def entangled_state():
        if rng.random() < 0.25:  # barely entangled: margin near -1e-14
            b1, b2 = rng.uniform(0.6, 6.0), rng.uniform(0.6, 6.0)
            pp = (b1 - 0.5) * (b2 - 0.5)
            return StandardForm(b1, b2, math.sqrt(pp + rng.uniform(0.2e-14, 5e-14)))
        n1, n2 = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
        r_min = math.asinh(math.sqrt(n1 * n2 / (n1 + n2 + 1.0)))
        return standard_form_from_sts(StsParams(n1, n2, r_min + rng.uniform(1e-6, 3.0)))

    def occupancy():
        return rng.choice((0.0, rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0), 10.0 ** rng.uniform(-323.5, -300.0)))

    for k in range(2400):
        sf = entangled_state()
        gamma = 10.0 ** rng.uniform(-1.0, 1.0)
        layout = k % 6
        if layout == 0:  # equal rates, unequal occupancies
            res = ReservoirConfig(gamma, occupancy(), gamma, occupancy())
        elif layout == 1:  # rate ratios up to 1e3
            res = ReservoirConfig(gamma, occupancy(), gamma * 10.0 ** rng.uniform(-3.0, 3.0), occupancy())
        elif layout == 2:  # a cold bath beside a hot one
            hot, cold = (rng.uniform(0.05, 3.0), 0.0)[:: rng.choice((1, -1))]
            res = ReservoirConfig(gamma, hot, gamma * rng.uniform(0.2, 5.0), cold)
        elif layout == 3:  # one bath, on either mode
            n_r = occupancy() or 0.5
            res = ReservoirConfig(gamma, n_r, 0.0, 0.0) if k % 12 == 3 else ReservoirConfig(0.0, 0.0, gamma, n_r)
        elif layout == 4:  # death times near the largest double, or beyond it
            tiny = 10.0 ** rng.uniform(-309.0, -307.5)
            res = ReservoirConfig(tiny, 0.5, tiny * rng.uniform(0.005, 1.0), rng.uniform(0.1, 1.0))
        elif k % 60 == 5:  # a huge occupancy: crossings at tiny times
            res = ReservoirConfig(gamma, 1e300, gamma * rng.uniform(0.5, 2.0), occupancy())
        else:  # entries past 2**996, near the largest whose Dekker split stays finite
            b1, b2 = rng.uniform(2.0**996, 1.3e300), 0.5 + 2.0 ** rng.uniform(-45.0, -30.0)
            c = math.sqrt((b1 - 0.5) * (b2 - 0.5))
            for _ in range(rng.randrange(1, 6)):
                c = math.nextafter(c, math.inf)
            sf = StandardForm(b1, b2, c)
            res = ReservoirConfig(rng.choice((0.0, gamma * 1e-3)), occupancy(), gamma, rng.uniform(0.1, 2.0))
        yield sf, res


_CAUSES = (
    "death time overflows a double",
    "death time underflows a double",
    "the terms of the evolved separability margin underflow",
    "the separability crossing lies below the time resolution",
)


def _case_outcomes(death_time):
    """Counts of the outcomes of ``death_time`` on the adversarial cases; any other outcome fails."""
    kinds = collections.Counter()
    for sf, res in _bisection_cases(random.Random(20141202)):
        try:
            t = death_time(sf, res)
        except InvalidParameterError as exc:
            (cause,) = (cause for cause in _CAUSES if str(exc).startswith(cause))
            kinds[cause] += 1
            continue
        if t is ASYMPTOTIC_ONLY:
            kinds["ASYMPTOTIC_ONLY"] += 1
        else:
            assert type(t) is float and 0.0 < t < math.inf, (sf, res)
            kinds["time"] += 1
    return kinds


def test_esd_time_answers_every_bisection_case_or_names_the_cause():
    # The oracle's adversarial cases through the production routes: rates
    # near 1e-309, n_r = 1e300, subnormal n_r, entries past 2**996.  Each
    # gives a finite time, the marker, or an error that names its cause:
    # beyond the largest double (tiny rates), below the smallest normal one
    # (n_r = 1e300 beside a margin near -1e-14), and two (near) subnormal
    # occupancies at unequal rates, whose terms underflow before the
    # crossing.  Two such baths at equal rates (10 cases), and one pair at
    # unequal rates whose E* is finite, get times that
    # test_death_times_of_every_layout_are_within_4_ulp_of_the_mpmath_root checks.
    assert _case_outcomes(esd_time) == {
        "time": 2193, "ASYMPTOTIC_ONLY": 52, _CAUSES[0]: 128, _CAUSES[1]: 10, _CAUSES[2]: 17,
    }


def test_bisection_answers_every_case_or_names_the_cause():
    # The oracle refuses every case that esd_time refuses, and more: small
    # occupancies, whose margin's products fall to 2**-969 before it
    # crosses 0; and crossings below the time resolution of the entries:
    # a huge occupancy (40), and the entries past 2**996, whose margin is
    # at most 1/b1 of their products, so that they cross within a few ulps
    # of exp.
    assert _case_outcomes(esd_bisection) == {
        "time": 1577, "ASYMPTOTIC_ONLY": 52,
        _CAUSES[0]: 128, _CAUSES[1]: 10, _CAUSES[2]: 239, _CAUSES[3]: 394,
    }


def _columns(cases):
    """The entries and the reservoir of ``(state, reservoir)`` cases, as the arrays of ``verification._bisection_stack``."""
    b1, b2, c, *res = (np.array(x) for x in zip(*((sf.b1, sf.b2, sf.c, *res._fields()) for sf, res in cases)))
    return b1, b2, c, res


def _answer_or_error(death_time, *args):
    try:
        return death_time(*args)
    except (InvalidParameterError, SeparableInputError) as exc:
        return exc


def test_the_stacked_bisection_answers_each_case_as_esd_bisection(monkeypatch):
    # One array pass over the adversarial cases: each case's time (the same
    # bits), marker or error (the same type and message) is esd_bisection's.
    monkeypatch.setattr(verification, "_bisection_answer", lambda *case: _answer_or_error(_bisection_answer, *case))
    cases = list(_bisection_cases(random.Random(20141202)))
    stacked = verification._bisection_stack(*_columns(cases))
    for (sf, res), got in zip(cases, stacked, strict=True):
        want = _answer_or_error(esd_bisection, sf, res)
        assert (type(got), repr(got)) == (type(want), repr(want)), (sf, res)


def test_a_stack_with_refused_cases_raises_the_first_refusal():
    entangled = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    good = (entangled, ReservoirConfig(1.0, 0.5, 2.0, 0.1))
    refused = [
        (StandardForm(1.5, 1.5, 0.0), ReservoirConfig.identical(1.0, 0.5)),  # separable
        (entangled, ReservoirConfig(0.0, 0.0, 0.0, 0.0)),  # no active bath
        (entangled, ReservoirConfig.single_bath(1e-310, 0.5)),  # beyond the largest double
        (entangled, ReservoirConfig.identical(1.0, 1e300)),  # below the time resolution
        (entangled, ReservoirConfig(1.0, 1e-320, 2.0, 1e-320)),  # terms underflow
    ]
    for first, second in zip(refused, refused[1:] + refused[:1]):
        exc = _answer_or_error(esd_bisection, *first)
        with pytest.raises(type(exc)) as raised:
            verification._bisection_stack(*_columns([good, first, good, second]))
        assert str(raised.value) == str(exc)


def _root_within(sf, res, t, ulps, mpmath):
    """True where the evolved margin of the exact entries changes sign within ``ulps`` ulps of ``t``."""
    u_min = min(g for g in (res.gamma1, res.gamma2) if g > 0.0) * t
    u_max = max(res.gamma1, res.gamma2) * t
    # Digits to resolve 1 - exp(-gamma t) at the smallest rate and exp(-gamma t) at the largest.
    dps = 40 + max(0, math.ceil(-math.log10(u_min))) + math.ceil(u_max / 2.3)
    with mpmath.workdps(dps):
        b1, b2, c, g1, n1, g2, n2 = map(mpmath.mpf, (sf.b1, sf.b2, sf.c, *res._fields()))

        def margin(t):
            x1, x2 = mpmath.exp(-g1 * t), mpmath.exp(-g2 * t)
            a1 = b1 * x1 + (n1 + 0.5) * (1 - x1) - 0.5
            a2 = b2 * x2 + (n2 + 0.5) * (1 - x2) - 0.5
            return a1 * a2 - c * c * x1 * x2

        step = ulps * math.ulp(t)
        return margin(mpmath.mpf(t) - step) < 0 < margin(mpmath.mpf(t) + step)


def _entangled_sts(rng):
    n1, n2 = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
    r_min = math.asinh(math.sqrt(n1 * n2 / (n1 + n2 + 1.0)))
    return standard_form_from_sts(StsParams(n1, n2, r_min + rng.uniform(1e-3, 3.0)))


def _every_layout_cases():
    """Two hot baths that differ, with occupancies from 1e-20 to 1e100; then the layouts of the paper's forms and subnormal occupancies."""
    found = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    cases = [(found, ReservoirConfig(1.0, n_r, 2.0, n_r)) for n_r in (1e-10, 1e-15, 1e-17, 1e-20)]
    found = standard_form_from_sts(StsParams(1.0, 1.0, 2.0))
    cases += [(found, ReservoirConfig(1.0, n_r, 2.0, 0.5)) for n_r in (1e12, 1e70, 1e100)]
    # A cold bath beside a hot one, at rates 150 apart.
    cases.append((
        StandardForm(11.804320460145583, 10.844802922081705, 10.90577630953345),
        ReservoirConfig(0.28163196758243125, 0.0, 0.0018503515403449295, 0.06414402660262296),
    ))
    rng = random.Random(1412)
    for k in range(120):
        sf = _entangled_sts(rng)
        gamma = 10.0 ** rng.uniform(-1.0, 1.0)
        ratio = 1.0 if k % 2 else 10.0 ** rng.uniform(-3.0, 3.0)
        n_r = (10.0 ** rng.uniform(-20.0, 100.0), 10.0 ** rng.uniform(-20.0, 2.0))[:: rng.choice((1, -1))]
        cases.append((sf, ReservoirConfig(gamma, n_r[0], gamma * ratio, n_r[1])))
    # Identical baths, one hot bath on either mode, a cold bath beside a hot one on either mode.
    rng = random.Random(1414)
    for k in range(100):
        sf = _entangled_sts(rng)
        gamma, n_r = 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-10.0, 10.0)
        other = gamma * 10.0 ** rng.uniform(-2.0, 2.0)
        layouts = (
            ReservoirConfig.identical(gamma, n_r),
            ReservoirConfig.single_bath(gamma, n_r),
            ReservoirConfig(0.0, 0.0, gamma, n_r),
            ReservoirConfig(gamma, n_r, other, 0.0),
            ReservoirConfig(other, 0.0, gamma, n_r),
        )
        cases.append((sf, layouts[k % 5]))
    # Subnormal occupancies: equal rates at 1e-320 and 2e-320 (60-digit
    # mpmath: 735.67551189502212880...), identical baths at 1e-320, and the
    # adversarial cases of two such hot baths at equal rates, then one pair
    # at unequal rates whose E* is finite: refused while E* was taken on the
    # unscaled occupancies.
    found = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    cases += [(found, ReservoirConfig(1.0, 1e-320, 1.0, 2e-320)), (found, ReservoirConfig.identical(1.0, 1e-320))]
    cases += [
        (sf, res) for sf, res in _bisection_cases(random.Random(20141202))
        if res.gamma1 == res.gamma2 > 0.0 and 0.0 < min(res.n_r1, res.n_r2) and max(res.n_r1, res.n_r2) < sys.float_info.min
    ]
    cases.append((
        StandardForm(3.954670424477392, 5.121826499860192, 3.995858770794196),
        ReservoirConfig(3.149657219665234, 3.8507394713e-314, 1.751992708351839, 2.449876986e-314),
    ))
    # Entries past 2**996 beside a huge occupancy: a*n_r overflows a double
    # (the time is 1.02e-221), or E* is subnormal while the time is not; and
    # a pure state's E* = 1/n_r, subnormal, at a subnormal rate (time 100).
    cases.append((standard_form_from_sts(StsParams(0.0, 0.0, 1.0)), ReservoirConfig.single_bath(1e-310, 1e308)))
    cases.append((
        StandardForm(8.818220518090299e299, 0.500000000963707, 2.9151639521740596e145),
        ReservoirConfig(0.0, 0.0, 1.2926618856571521e-05, 1.5509180457167434e202),
    ))
    cases.append((
        StandardForm(1.0819733731729026e300, 0.5000270238219722, 5.407315028297768e147),
        ReservoirConfig(0.0, 0.0, 0.00013483948109285117, 8.328149736460352e291),
    ))
    return cases


def test_death_times_of_every_layout_are_within_4_ulp_of_the_mpmath_root():
    mpmath = pytest.importorskip("mpmath")
    smallest = math.inf
    for sf, res in _every_layout_cases():
        t = esd_time(sf, res)
        smallest = min(smallest, t)
        assert _root_within(sf, res, t, 4, mpmath), (sf, res, t)
    assert smallest < 1e-12


def test_bisection_times_are_within_1e_11_of_the_mpmath_root(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    cases = _every_layout_cases()
    # With them, the identical and single baths of the verify battery of
    # seed 0, which it bisects in one stack.
    stack = verification._bisection_stack

    def record(b1, b2, c, res):
        for case in zip(b1.tolist(), b2.tolist(), c.tolist(), *(x.tolist() for x in res)):
            cases.append((StandardForm(*case[:3]), ReservoirConfig(*case[3:])))
        return stack(b1, b2, c, res)

    monkeypatch.setattr(verification, "_bisection_stack", record)
    verification.run_verification(seed=0)
    answered = 0
    for sf, res in cases:
        try:
            t = esd_bisection(sf, res)
        except InvalidParameterError:
            continue
        answered += 1
        # 1e-11 * 2**52 ulps of t are at most 1e-11 of t.
        assert _root_within(sf, res, t, 1e-11 * 2.0**52, mpmath), (sf, res, t)
    assert answered == 34 + 99 + 400


def test_a_cold_bath_beside_a_hot_one_keeps_the_single_bath_time():
    # The cold bath scales the margin by exp(-gamma t) without moving its root.
    rng = random.Random(1413)
    for _ in range(300):
        sf = _entangled_sts(rng)
        swapped = StandardForm(sf.b2, sf.b1, sf.c, sf.phi)
        gamma, n_r = 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-20.0, 20.0)
        cold = rng.choice((1e-310, 1e300, gamma, gamma * 10.0 ** rng.uniform(-3.0, 3.0)))
        assert esd_time(sf, ReservoirConfig(gamma, n_r, cold, 0.0)) == esd_time_single_bath(sf, gamma, n_r)
        assert esd_time(sf, ReservoirConfig(cold, 0.0, gamma, n_r)) == esd_time_single_bath(swapped, gamma, n_r)
