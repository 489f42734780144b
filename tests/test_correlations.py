"""Entanglement of formation, quantum discord, and mutual information."""

import math

import numpy as np
import pytest

from stsdecay import (
    InvalidParameterError,
    NonPhysicalStateError,
    StandardForm,
    StsParams,
    correlation_report,
    discords,
    entanglement_of_formation,
    entropic_h,
    mutual_information,
    standard_form_from_sts,
    symplectic_spectrum,
)
from stsdecay.verification import (
    sample_entangled_sts,
    sample_standard_form,
    sample_sts,
)

# Extended-precision reference values (frozen from a 40-digit computation)
# for the state with occupancies (10, 0.1) squeezed at r = 2.
EF_REF = 3.0224371240335289
XM_REF = 7.5622342365363806
D1_REF = 2.5730936971283028
D2_REF = 2.4088124840205894
MI_REF = 8.3548046328623183
H_10P5_REF = 3.3509970708416191  # entropic_h(10.5)

# Same, for occupancies (10, 7) at r = 2 (nearly symmetric modes).
EF_ASYM_REF = 0.78619715163844846
D1_ASYM_REF = 0.87385132670074454
D2_ASYM_REF = 0.86324526439934331

# Pure two-mode squeezed state at r = 2.
B_PURE_R2 = 13.654116418008243
H_PURE_R2 = 3.613817463507609


def test_entropic_h_endpoints_and_frozen_value():
    assert entropic_h(0.5) == 0.0
    assert entropic_h(1.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    assert entropic_h(10.5) == pytest.approx(H_10P5_REF, rel=1e-14)
    # Rounding residue below 1/2 clamps; genuine violations raise.
    assert entropic_h(0.5 - 1e-14) == 0.0
    with pytest.raises(InvalidParameterError):
        entropic_h(0.4)
    with pytest.raises(InvalidParameterError):
        entropic_h(math.nan)


def test_entropic_h_is_increasing():
    xs = np.linspace(0.5, 50.0, 400)
    hs = [entropic_h(float(x)) for x in xs]
    assert all(b > a for a, b in zip(hs, hs[1:]))


def test_ef_separable_state_is_zero():
    ef, x_m = entanglement_of_formation(StandardForm(10.5, 7.5, 0.0))
    assert ef == 0.0
    assert x_m == 0.5
    # Entangled-but-barely is positive.
    ef, _ = entanglement_of_formation(standard_form_from_sts(StsParams(0.0, 0.0, 0.05)))
    assert ef > 0.0


def test_ef_pure_state_matches_single_mode_entropy():
    sf = standard_form_from_sts(StsParams(0.0, 0.0, 2.0))
    ef, x_m = entanglement_of_formation(sf)
    assert x_m == pytest.approx(B_PURE_R2, rel=5e-15)
    assert ef == pytest.approx(H_PURE_R2, rel=1e-13)
    assert ef == pytest.approx(entropic_h(sf.b1), rel=1e-14)


def test_ef_frozen_reference():
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    ef, x_m = entanglement_of_formation(sf)
    assert ef == pytest.approx(EF_REF, abs=5e-12)
    assert x_m == pytest.approx(XM_REF, abs=5e-12)


def test_ef_minimizer_bounds():
    rng = np.random.default_rng(21)
    for _ in range(500):
        sf = sample_entangled_sts(rng)
        ef, x_m = entanglement_of_formation(sf)
        assert x_m >= 0.5
        assert ef > 0.0
        # The formation cost never exceeds the total correlations by more
        # than rounding noise.
        assert ef <= mutual_information(sf) + 1e-9


def test_discords_product_state_vanish():
    d1, d2, y, z = discords(StandardForm(3.5, 1.25, 0.0))
    assert (d1, d2) == (0.0, 0.0)
    assert (y, z) == (3.5, 1.25)


def test_discords_pure_state_equal_entropy():
    sf = standard_form_from_sts(StsParams(0.0, 0.0, 2.0))
    d1, d2, y, z = discords(sf)
    assert d1 == d2
    assert d1 == pytest.approx(H_PURE_R2, rel=1e-13)
    assert y == 0.5 and z == 0.5


def test_discords_frozen_references():
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    d1, d2, _, _ = discords(sf)
    assert d1 == pytest.approx(D1_REF, abs=5e-12)
    assert d2 == pytest.approx(D2_REF, abs=5e-12)
    sf = standard_form_from_sts(StsParams(10.0, 7.0, 2.0))
    d1, d2, _, _ = discords(sf)
    assert d1 == pytest.approx(D1_ASYM_REF, abs=5e-12)
    assert d2 == pytest.approx(D2_ASYM_REF, abs=5e-12)


def test_discords_swap_covariance_bitwise():
    rng = np.random.default_rng(23)
    for _ in range(300):
        sf = sample_standard_form(rng)
        d1, d2, y, z = discords(sf)
        s1, s2, sy, sz = discords(StandardForm(sf.b2, sf.b1, sf.c, sf.phi))
        assert (d1, d2, y, z) == (s2, s1, sz, sy)


def test_discords_are_nonnegative():
    rng = np.random.default_rng(29)
    for _ in range(2000):
        sf = sample_standard_form(rng)
        d1, d2, _, _ = discords(sf)
        assert d1 >= 0.0
        assert d2 >= 0.0


def test_mutual_information_cases():
    assert mutual_information(StandardForm(4.5, 2.5, 0.0)) == 0.0
    sf = standard_form_from_sts(StsParams(0.0, 0.0, 2.0))
    assert mutual_information(sf) == pytest.approx(2.0 * H_PURE_R2, rel=1e-13)
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    assert mutual_information(sf) == pytest.approx(MI_REF, abs=5e-12)
    sf = standard_form_from_sts(StsParams(10.0, 7.0, 2.0))
    ef, _ = entanglement_of_formation(sf)
    assert ef == pytest.approx(EF_ASYM_REF, abs=5e-12)


def test_positivity_of_entanglement_iff_ppt_violation():
    rng = np.random.default_rng(31)
    for _ in range(100_000):
        sf = sample_standard_form(rng)
        ef, _ = entanglement_of_formation(sf)
        entangled = symplectic_spectrum(sf).kappa_tilde_minus < 0.5
        assert (ef > 0.0) == entangled


def test_pure_state_measures_coincide():
    rng = np.random.default_rng(37)
    for _ in range(200):
        r = float(rng.uniform(0.01, 5.0))
        sf = standard_form_from_sts(StsParams(0.0, 0.0, r))
        ef, _ = entanglement_of_formation(sf)
        d1, d2, _, _ = discords(sf)
        assert abs(ef - d1) < 1e-10
        assert abs(d1 - d2) < 1e-10
        assert abs(ef - entropic_h(sf.b1)) < 1e-10


def test_correlation_report_is_consistent():
    rng = np.random.default_rng(41)
    for _ in range(400):
        sf = (
            sample_standard_form(rng)
            if rng.random() < 0.5
            else standard_form_from_sts(sample_sts(rng))
        )
        rep = correlation_report(sf)
        ef, x_m = entanglement_of_formation(sf)
        d1, d2, y, z = discords(sf)
        assert rep.ef == ef and rep.x_m == x_m
        assert (rep.d1, rep.d2, rep.y, rep.z) == (d1, d2, y, z)
        assert rep.mutual_information == mutual_information(sf)
        assert rep.separable == (rep.ef == 0.0)
        assert rep.invariant_d >= 0.0


def test_ef_is_the_reports_ef_and_x_m():
    # At r >= 19 the separability margin of a pure state is rounding noise
    # and reads separable; the pure branch still gives ef = h(b), x_m = b.
    rng = np.random.default_rng(43)
    states = [standard_form_from_sts(StsParams(0.0, 0.0, r)) for r in (19.0, 30.0, 100.0)]
    states += [sample_standard_form(rng) for _ in range(100)]
    states += [standard_form_from_sts(sample_sts(rng)) for _ in range(100)]
    for sf in states:
        rep = correlation_report(sf)
        assert entanglement_of_formation(sf) == (rep.ef, rep.x_m), sf
    for sf in states[:3]:
        assert entanglement_of_formation(sf) == (entropic_h(sf.b1), sf.b1)


def test_correlation_report_frozen_state():
    rep = correlation_report(standard_form_from_sts(StsParams(10.0, 0.1, 2.0)))
    assert rep.ef == pytest.approx(EF_REF, abs=5e-12)
    assert rep.d1 == pytest.approx(D1_REF, abs=5e-12)
    assert rep.d2 == pytest.approx(D2_REF, abs=5e-12)
    assert rep.mutual_information == pytest.approx(MI_REF, abs=5e-12)
    assert not rep.separable


def test_every_measure_rejects_a_state_the_report_rejects():
    # Accepted by the construction slack, but kappa_minus < 1/2 and y < 1/2
    # beyond tolerance: no measure of this state is meaningful.
    sf = StandardForm(49478.128337921145, 5569170.380517019, 524927.9636070088)
    for measure in (correlation_report, entanglement_of_formation, discords, mutual_information):
        with pytest.raises(NonPhysicalStateError, match="discord auxiliaries"):
            measure(sf)

