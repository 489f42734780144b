"""State types, parametrization, and closed-form symplectic spectra."""

import math
import random

import numpy as np
import pytest
from conftest import bona_fide_margin, pure

from stsdecay import (
    InvalidParameterError,
    NonPhysicalStateError,
    StandardForm,
    StsParams,
    correlation_report,
    full_cm,
    is_separable,
    separability_margin,
    standard_form_from_sts,
    symplectic_spectrum,
)
from stsdecay._accurate import prod_diff, two_sum
from stsdecay.verification import sample_standard_form, sample_sts

# Extended-precision reference values (frozen from a 40-digit computation).
B1_REF = 156.5106922398915  # (n1=10, n2=0.1, r=2)
B2_REF = 146.6106922398915
C_REF = 151.45904044405903
B1_ASYM_REF = 247.27409552414838  # (n1=10, n2=7, r=2)
B2_ASYM_REF = 244.27409552414838
C_ASYM_REF = 245.60925477414977


def _raw_standard_form(b1, b2, c, phi=0.0):
    """Bypass validation — for exercising defensive error paths only."""
    sf = object.__new__(StandardForm)
    object.__setattr__(sf, "b1", b1)
    object.__setattr__(sf, "b2", b2)
    object.__setattr__(sf, "c", c)
    object.__setattr__(sf, "phi", phi)
    return sf


def test_sts_params_rejects_bad_values():
    with pytest.raises(InvalidParameterError):
        StsParams(-0.1, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        StsParams(0.0, -1e-9, 1.0)
    with pytest.raises(InvalidParameterError):
        StsParams(1.0, 1.0, -0.5)
    with pytest.raises(InvalidParameterError):
        StsParams(math.nan, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        StsParams(1.0, 1.0, 1.0, math.inf)
    # r = 0 is the admitted degenerate thermal product.
    StsParams(1.0, 2.0, 0.0)


def test_sts_params_phase_wraps_into_half_open_interval():
    assert StsParams(1.0, 1.0, 1.0, 3.0 * math.pi).phi == pytest.approx(math.pi, abs=1e-15)
    assert StsParams(1.0, 1.0, 1.0, -math.pi).phi == math.pi
    assert StsParams(1.0, 1.0, 1.0, math.pi).phi == math.pi
    assert StsParams(1.0, 1.0, 1.0, 0.0).phi == 0.0
    p = StsParams(1.0, 1.0, 1.0, -2.5)
    assert -math.pi < p.phi <= math.pi


def test_standard_form_accepts_vacuum_and_rejects_below():
    vac = StandardForm(0.5, 0.5, 0.0)
    assert (vac.b1, vac.b2, vac.c) == (0.5, 0.5, 0.0)
    # A hair below 1/2 is rounding residue and clamps up.
    assert StandardForm(0.5 - 5e-13, 0.6, 0.0).b1 == 0.5
    with pytest.raises(NonPhysicalStateError):
        StandardForm(0.5 - 1e-11, 0.6, 0.0)
    with pytest.raises(InvalidParameterError):
        StandardForm(math.nan, 0.6, 0.0)


def test_standard_form_rejects_uncertainty_violation():
    with pytest.raises(NonPhysicalStateError, match="uncertainty"):
        StandardForm(1.0, 1.0, 2.0)
    # Boundary itself is fine (pure-like).
    b = math.cosh(4.0) / 2.0
    StandardForm(b, b, math.sinh(4.0) / 2.0)


def test_entries_whose_margins_overflow_a_double_are_refused():
    # The uncertainty margin of these is NaN (its products overflow), which
    # a plain `margin < -slack` test lets through.
    for b1, b2, c in ((1e200, 1e200, 1e201), (1e200, 1e200, 1e199), (1e155, 1e155, 1.0)):
        with pytest.raises(InvalidParameterError, match=r"\(b_max\+1/2\)\(b_min-1/2\) - c\^2 overflows a double"):
            StandardForm(b1, b2, c)
    # A bona fide state whose discriminant (b1 + b2)^2 - 4c^2 overflows.
    sf = StandardForm(1.4e154, 2.0, 1.0)
    for measure in (symplectic_spectrum, correlation_report):
        with pytest.raises(InvalidParameterError, match=r"\(b1\+b2\)\^2 - 4c\^2 overflows a double for b1=1.4e\+154"):
            measure(sf)


def test_standard_form_normalizes_negative_c_into_phase():
    sf = StandardForm(1.0, 1.0, -0.3)
    assert sf.c == 0.3
    assert sf.phi == math.pi
    sf = StandardForm(1.0, 1.0, -0.3, math.pi)
    assert sf.c == 0.3
    assert sf.phi == 0.0


def test_parametrization_vacuum_and_pure_family():
    vac = standard_form_from_sts(StsParams(0.0, 0.0, 0.0))
    assert (vac.b1, vac.b2, vac.c) == (0.5, 0.5, 0.0)
    for r in (0.3, 1.0, 2.0, 3.5):
        sf = standard_form_from_sts(StsParams(0.0, 0.0, r))
        assert sf.b1 == sf.b2  # identical summands, identical rounding
        assert sf.b1 == pytest.approx(math.cosh(2.0 * r) / 2.0, rel=1e-14)
        assert sf.c == pytest.approx(math.sinh(2.0 * r) / 2.0, rel=1e-14)


def test_parametrization_frozen_references():
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    assert sf.b1 == pytest.approx(B1_REF, rel=5e-15)
    assert sf.b2 == pytest.approx(B2_REF, rel=5e-15)
    assert sf.c == pytest.approx(C_REF, rel=5e-15)
    sf = standard_form_from_sts(StsParams(10.0, 7.0, 2.0))
    assert sf.b1 == pytest.approx(B1_ASYM_REF, rel=5e-15)
    assert sf.b2 == pytest.approx(B2_ASYM_REF, rel=5e-15)
    assert sf.c == pytest.approx(C_ASYM_REF, rel=5e-15)


def test_spectrum_of_thermal_product_is_exact():
    sf = StandardForm(10.5, 7.5, 0.0)
    spec = symplectic_spectrum(sf)
    assert (spec.kappa_plus, spec.kappa_minus) == (10.5, 7.5)
    assert (spec.kappa_tilde_plus, spec.kappa_tilde_minus) == (10.5, 7.5)


def test_spectrum_of_pure_states():
    for r in (0.2, 1.0, 2.0):
        sf = standard_form_from_sts(StsParams(0.0, 0.0, r))
        spec = symplectic_spectrum(sf)
        assert spec.kappa_plus == pytest.approx(0.5, abs=1e-12)
        assert spec.kappa_minus == pytest.approx(0.5, abs=1e-12)
        assert spec.kappa_tilde_plus == pytest.approx(sf.b1 + sf.c, rel=1e-14)
        assert spec.kappa_tilde_minus == pytest.approx(sf.b1 - sf.c, rel=1e-11)


def test_spectrum_occupancy_identity_spot_check():
    spec = symplectic_spectrum(standard_form_from_sts(StsParams(10.0, 0.1, 2.0)))
    assert spec.kappa_plus == pytest.approx(10.5, rel=1e-12)
    assert spec.kappa_minus == pytest.approx(0.6, rel=1e-12)


def test_spectrum_signals_nonphysical_inputs():
    with pytest.raises(NonPhysicalStateError):
        symplectic_spectrum(_raw_standard_form(1.0, 1.0, 1.5))  # (b1+b2)^2 < 4c^2
    with pytest.raises(NonPhysicalStateError):
        symplectic_spectrum(_raw_standard_form(1.0, 1.0, 1.0))  # degenerate equality


def test_spectrum_is_swap_symmetric_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(300):
        sf = sample_standard_form(rng)
        swapped = StandardForm(sf.b2, sf.b1, sf.c, sf.phi)
        a = symplectic_spectrum(sf)
        b = symplectic_spectrum(swapped)
        assert (a.kappa_plus, a.kappa_minus) == (b.kappa_plus, b.kappa_minus)
        assert (a.kappa_tilde_plus, a.kappa_tilde_minus) == (
            b.kappa_tilde_plus,
            b.kappa_tilde_minus,
        )


def _two_prod(a, b):
    """Dekker's two-product through a split helper: the reference prod_diff inlines."""

    def split(x):
        t = 134217729.0 * x
        hi = t - (t - x)
        return hi, x - hi

    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + (ah * bl + al * bh)) + al * bl


def test_prod_diff_equals_its_composed_error_free_transforms():
    rng = random.Random(20141203)
    specials = (0.0, -0.0, 1.0, -1.0, 5e-324, 2.0**-1022, 134217729.0, 1e300)

    def magnitude():
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-30.0, 30.0)

    for k in range(20000):
        a, b, c, d = (magnitude() for _ in range(4))
        if k % 4 == 1:
            c, d = a * (1.0 + rng.uniform(-1e-12, 1e-12)), b  # heavy cancellation
        elif k % 4 == 2:
            c, d = b, a
        elif k % 4 == 3:
            a, d = rng.choice(specials), rng.choice(specials)
        p1, e1 = _two_prod(a, b)
        p2, e2 = _two_prod(c, d)
        s, t = two_sum(p1, -p2)
        expect = s + (t + (e1 - e2))
        got = prod_diff(a, b, c, d)
        assert repr(got) == repr(expect), (a, b, c, d)
        # The error term is symmetric in each pair, bit for bit.
        assert repr(prod_diff(b, a, d, c)) == repr(got)


def test_separability_examples():
    assert is_separable(StandardForm(10.5, 7.5, 0.0))
    assert not is_separable(standard_form_from_sts(StsParams(0.0, 0.0, 1.0)))
    assert not is_separable(standard_form_from_sts(StsParams(10.0, 0.1, 2.0)))


def test_separability_agrees_with_ppt_eigenvalue():
    rng = np.random.default_rng(11)
    for _ in range(3000):
        sf = (
            sample_standard_form(rng)
            if rng.random() < 0.5
            else standard_form_from_sts(sample_sts(rng))
        )
        spec = symplectic_spectrum(sf)
        assert is_separable(sf) == (spec.kappa_tilde_minus >= 0.5)


def test_margins_properties():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        sf = sample_standard_form(rng)
        assert bona_fide_margin(sf) >= 0.0
        spec = symplectic_spectrum(sf)
        # The separability margin factors through the PPT eigenvalues.
        factored = (spec.kappa_tilde_plus - 0.5) * (spec.kappa_tilde_minus - 0.5)
        assert separability_margin(sf) == pytest.approx(factored, rel=1e-9, abs=1e-13)


def test_full_cm_structure():
    assert np.array_equal(full_cm(StandardForm(0.5, 0.5, 0.0)), 0.5 * np.eye(4))
    sf = StandardForm(2.0, 1.5, 0.75, 0.0)
    v = full_cm(sf)
    assert np.array_equal(v, v.T)
    assert np.array_equal(v[0:2, 2:4], np.array([[0.75, 0.0], [0.0, -0.75]]))
    v = full_cm(StandardForm(2.0, 1.5, 0.75, math.pi / 2.0))
    assert v[0, 2] == pytest.approx(0.0, abs=1e-16)
    assert v[0, 3] == pytest.approx(0.75, rel=1e-15)
    assert v[1, 2] == pytest.approx(0.75, rel=1e-15)


def test_is_pure_detection():
    for r in (0.5, 2.0, 3.5, 5.0):
        assert pure(standard_form_from_sts(StsParams(0.0, 0.0, r)))
    assert not pure(StandardForm(1.5, 1.5, 0.0))
    assert not pure(standard_form_from_sts(StsParams(1e-6, 0.0, 1.0)))
    assert not pure(standard_form_from_sts(StsParams(10.0, 0.1, 2.0)))
