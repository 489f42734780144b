"""The paper's claims about discord rising above its initial value, through the public API alone.

The abstract says that the discord measured on the attenuated mode can rise
above its value at t = 0 when the input is mixed, that the rise is stronger
for a zero-temperature bath, and that it grows with the degree of mixing.
Each test scans one bath on mode 1 (gamma = 1) over 400 times in (0, 10]
and takes the peak of D(t)/D(0).  The states are symmetric, n1 = n2 = n,
at r = 1 unless a test varies r.  No test asserts that the ratio is above
or below 1 at n = 2 with n_r = 0.2 (1.0000) or at n = 5 with n_r = 1
(0.999): there the verdict hangs on the resolution of the scan.
"""

import functools

import pytest

from stsdecay import ReservoirConfig, StsParams, discords, evolve, standard_form_from_sts

_TIMES = [10.0 * k / 400 for k in range(1, 401)]
_BATHS = (0.0, 0.05, 0.2, 0.5, 1.0)
_MIXED = (2.0, 5.0, 10.0)
_NEARLY_PURE = (0.25, 0.5, 1.0)


@functools.lru_cache(maxsize=None)
def _peak_ratio(n, n_r, r=1.0, which="d2", pure=False):
    """The peak of D(t)/D(0) over the scan; D is d1 or d2, of (n, n, r), or of (0, 0, r) where ``pure``."""
    index = ("d1", "d2").index(which)
    sf0 = standard_form_from_sts(StsParams(0.0, 0.0, r) if pure else StsParams(n, n, r))
    res = ReservoirConfig.single_bath(1.0, n_r)
    d0 = discords(sf0)[index]
    return max(discords(evolve(sf0, res, t).sf)[index] for t in _TIMES) / d0


def test_discord_of_a_mixed_input_rises_above_its_initial_value_at_zero_temperature():
    peaks = [_peak_ratio(n, 0.0) for n in _MIXED]
    assert peaks == pytest.approx([1.199, 2.076, 3.560], abs=1e-3)
    assert min(peaks) > 1.0


@pytest.mark.parametrize("n", _NEARLY_PURE)
def test_discord_of_a_nearly_pure_input_stays_below_its_initial_value(n):
    assert max(_peak_ratio(n, n_r) for n_r in _BATHS) < 1.0


@pytest.mark.parametrize("n", _MIXED)
def test_the_rise_falls_as_the_bath_warms(n):
    peaks = [_peak_ratio(n, n_r) for n_r in _BATHS]
    assert all(hotter < colder for colder, hotter in zip(peaks, peaks[1:]))


def test_the_rise_at_n_5_as_the_bath_warms():
    assert [_peak_ratio(5.0, n_r) for n_r in _BATHS] == pytest.approx([2.076, 1.887, 1.533, 1.185, 0.999], abs=1e-3)


@pytest.mark.parametrize("n_r", [0.0, 1.0])
def test_the_rise_grows_with_mixing(n_r):
    peaks = [_peak_ratio(n, n_r) for n in (*_NEARLY_PURE, *_MIXED)]
    assert all(less < more for less, more in zip(peaks, peaks[1:]))


def test_discord_on_the_free_mode_and_of_a_pure_input_never_rises():
    assert _peak_ratio(10.0, 0.0, which="d1") == pytest.approx(0.995, abs=1e-3)
    assert _peak_ratio(0.0, 0.0, pure=True) == pytest.approx(0.943, abs=1e-3)
    for n_r in _BATHS:
        assert _peak_ratio(10.0, n_r, which="d1") < 1.0
        assert _peak_ratio(0.0, n_r, pure=True) < 1.0


def test_squeezing_suppresses_the_rise():
    peaks = [_peak_ratio(5.0, 0.0, r) for r in (0.25, 0.5, 1.0, 1.5)]
    assert peaks == pytest.approx([2.734, 2.661, 2.076, 1.324], abs=1e-3)
    assert all(more < less for less, more in zip(peaks, peaks[1:]))
    assert _peak_ratio(5.0, 0.0, 2.0) == pytest.approx(0.986, abs=1e-3)
    assert _peak_ratio(5.0, 0.0, 2.0) < 1.0
