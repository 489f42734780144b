"""The oracle layer itself: eigen-spectra, bisection, samplers, battery."""

import hashlib
import math
import random
from pathlib import Path

import numpy as np
import pytest
from conftest import bona_fide_margin

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
)
from stsdecay import _batch, cli, verification
from stsdecay.core import _offsets
from stsdecay.dynamics import _margin_at
from stsdecay.verification import (
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


def test_oracle_rejects_bad_matrices(monkeypatch):
    with pytest.raises(NonPhysicalStateError):
        symplectic_spectrum_oracle(np.diag([1.0, 1.0, 1.0, -0.5]))
    with pytest.raises(InvalidParameterError):
        symplectic_spectrum_oracle(np.eye(3))
    # With a zero pairing tolerance the unavoidable eigensolver noise in
    # the doubly degenerate moduli must be flagged.
    v = full_cm(standard_form_from_sts(StsParams(10.0, 0.1, 2.0)))
    monkeypatch.setattr(verification, "_PAIR_TOL", 0.0)
    with pytest.raises(NonPhysicalStateError):
        symplectic_spectrum_oracle(v)


def _oracle_stack(seed: int, n: int, with_phase: bool) -> np.ndarray:
    """``n`` covariance matrices drawn with run_verification's sampler mix."""
    rng = np.random.default_rng(seed)
    v = np.empty((n, 4, 4))
    for i in range(n):
        if i % 10 == 0:
            sf = sample_standard_form(rng, with_phase=with_phase)
        else:
            sf = standard_form_from_sts(sample_sts(rng, with_phase=with_phase))
        v[i] = full_cm(sf)
    return v


# Frozen from the one-matrix-at-a-time oracles, before they accepted stacks.
ORACLE_DIGEST = "a3826a7fc68e6058d753f040654dff1fc1b3bbc4e2b4ac714247267a0baba214"


def test_stacked_oracles_match_frozen_digest():
    h = hashlib.sha256()
    for seed, n, with_phase in ((20141202, 2000, False), (20141203, 500, True)):
        v = _oracle_stack(seed, n, with_phase)
        columns = (*symplectic_spectrum_oracle(v), *ppt_spectrum_oracle(v))
        for kp, km, tp, tm in zip(*(col.tolist() for col in columns)):
            h.update(f"{kp!r} {km!r} {tp!r} {tm!r}\n".encode())
    assert h.hexdigest() == ORACLE_DIGEST


# "k sha256" of the stdout of `verify --seed k`, for each seed the benchmark draws.
_VERIFY_DIGESTS = dict(line.split() for line in (Path(__file__).parent / "verify_seeds.sha256").read_text().splitlines())


# Ten of the recorded batteries, from the first seed to the last.
@pytest.mark.parametrize("seed", [0, 5, 11, 16, 22, 27, 33, 38, 44, 49])
def test_verify_battery_keeps_its_recorded_bytes(seed, capsys):
    assert cli.main(["verify", "--seed", str(seed)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _VERIFY_DIGESTS[str(seed)]


@pytest.mark.parametrize("oracle", [symplectic_spectrum_oracle, ppt_spectrum_oracle])
def test_a_stack_equals_its_matrices_one_at_a_time(oracle):
    v = _oracle_stack(5, 300, with_phase=True)
    kp, km = oracle(v)
    assert kp.shape == km.shape == (300,)
    singles = [oracle(v[i : i + 1]) for i in range(len(v))]
    assert kp.tobytes() == np.concatenate([s[0] for s in singles]).tobytes()
    assert km.tobytes() == np.concatenate([s[1] for s in singles]).tobytes()
    # Any leading batch shape is a stack too.
    kp2, km2 = oracle(v.reshape(20, 15, 4, 4))
    assert kp2.shape == (20, 15)
    assert kp2.tobytes() == kp.tobytes() and km2.tobytes() == km.tobytes()


@pytest.mark.parametrize("oracle", [symplectic_spectrum_oracle, ppt_spectrum_oracle])
def test_one_matrix_returns_two_python_floats(oracle):
    v = full_cm(standard_form_from_sts(StsParams(3.0, 1.0, 1.5, 0.7)))
    out = oracle(v)
    assert type(out) is tuple and len(out) == 2
    assert all(type(x) is float for x in out)
    stacked = oracle(v[np.newaxis])
    assert out == (stacked[0][0], stacked[1][0])


def test_a_non_physical_matrix_in_a_stack_is_named_by_index(monkeypatch):
    v = _oracle_stack(9, 6, with_phase=False)
    v[3] = np.diag([1.0, 1.0, 1.0, -0.5])
    with pytest.raises(NonPhysicalStateError, match=r"index 3\b"):
        symplectic_spectrum_oracle(v)
    with pytest.raises(NonPhysicalStateError, match=r"index \(1, 0\)"):
        ppt_spectrum_oracle(v.reshape(2, 3, 4, 4))
    # A thermal product state pairs exactly; the squeezed one does not.
    squeezed = full_cm(standard_form_from_sts(StsParams(10.0, 0.1, 2.0)))
    monkeypatch.setattr(verification, "_PAIR_TOL", 0.0)
    with pytest.raises(NonPhysicalStateError, match=r"moduli at index 1 do not pair within 0.0: "):
        symplectic_spectrum_oracle(np.stack([1.5 * np.eye(4), squeezed]))


@pytest.mark.parametrize("oracle", [symplectic_spectrum_oracle, ppt_spectrum_oracle])
@pytest.mark.parametrize("shape", [(3, 3), (4, 4, 3), (4,)])
def test_oracles_reject_other_shapes(oracle, shape):
    with pytest.raises(InvalidParameterError, match="4x4"):
        oracle(np.ones(shape))


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
    with pytest.raises(InvalidParameterError, match="no active bath"):
        esd_bisection(entangled, ReservoirConfig(0.0, 0.0, 0.0, 0.0))
    # Noise on an undamped mode is never injected, so it does not count.
    assert esd_bisection(entangled, ReservoirConfig(0.0, 1.5, 1.0, 0.0)) is ASYMPTOTIC_ONLY
    with pytest.raises(SeparableInputError):
        esd_bisection(StandardForm(1.5, 1.5, 0.0), ReservoirConfig.identical(1.0, 0.5))


def _count_margin_crossings(sf, res, t_max):
    """Sign changes of the separability margin at 4,000 even points of [0, t_max].

    A sample where the margin is 0 neither starts nor ends a crossing.
    """
    a1, a2, _ = _offsets(sf.b1, sf.b2, sf.c)
    signs = np.sign(_margin_at(a1, a2, sf.c, res._fields(), np.linspace(0.0, t_max, 4000), _batch._Arrays))
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def test_margin_crossing_counts():
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    ts = esd_time_identical_baths(sf, 1.0, 0.5)
    for res, t_max, crossings in (
        (ReservoirConfig.identical(1.0, 0.5), 4.0 * ts, 1),
        (ReservoirConfig.identical(1.0, 0.0), 10.0, 0),
    ):
        assert _count_margin_crossings(sf, res, t_max) == crossings
        # The margin on the whole grid at once has the bits, so the signs,
        # of the scalar margin at each point.
        grid, (a1, a2, _) = np.linspace(0.0, t_max, 4000), _offsets(sf.b1, sf.b2, sf.c)
        stacked = _margin_at(a1, a2, sf.c, res._fields(), grid, _batch._Arrays)
        scalar = [_margin_at(a1, a2, sf.c, res._fields(), t) for t in grid.tolist()]
        assert stacked.tobytes() == np.array(scalar).tobytes()
        assert np.sign(stacked).tolist() == [math.copysign(1.0, m) if m else 0.0 for m in scalar]
    # A margin of exactly 0 at t = 0, positive after it: a zero sample starts no crossing.
    assert _count_margin_crossings(StandardForm(1.5, 1.5, 1.0), ReservoirConfig.identical(1.0, 0.5), 5.0) == 0


# The samplers take any generator with random() and uniform(a, b): the
# battery's random.Random and numpy's Generator alike.
@pytest.mark.parametrize("generator", [random.Random, np.random.default_rng], ids=["random.Random", "numpy"])
def test_samplers_produce_valid_states(generator):
    rng = generator(73)
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
        assert bona_fide_margin(sf) >= 0.0
    assert sample_sts(rng, with_phase=False).phi == 0.0


def _battery(monkeypatch, spectrum, esd, cf):
    # A smaller battery than run_verification's own; the spectrum count
    # stays a multiple of _ORACLE_BLOCK and of 10.
    monkeypatch.setattr(verification, "_SPECTRUM_SAMPLES", spectrum)
    monkeypatch.setattr(verification, "_ESD_SAMPLES", esd)
    monkeypatch.setattr(verification, "_CF_SAMPLES", cf)


def test_run_verification_battery_passes_and_is_deterministic(monkeypatch):
    _battery(monkeypatch, 500, 40, 40)
    reports = run_verification(seed=3)
    assert len(reports) == 9
    assert all(r.passed for r in reports)
    names = [r.quantity for r in reports]
    assert len(set(names)) == 9
    again = run_verification(seed=3)
    assert again == reports


def test_the_spectrum_stacks_give_each_battery_state_its_scalar_bits(monkeypatch):
    # All 4,000 spectrum states of the battery of seed 11: the entries of
    # standard_form_from_sts and the four kappas of symplectic_spectrum.
    seen = {verification._sts_entries: [], verification._spectrum: []}

    def record(kernel, *args, stack=_batch.stack):
        out = stack(kernel, *args)
        seen[kernel].extend(zip(*(x.tolist() for x in (*args, *out))))
        return out

    monkeypatch.setattr(verification, "stack", record)
    _battery(monkeypatch, 2000, 1, 1)
    run_verification(seed=11)
    entries, spectra = seen.values()
    assert len(entries) == 2000 + 1800 and len(spectra) == 4000
    for n1, n2, r, *stacked in entries:
        assert stacked == list(standard_form_from_sts(StsParams(n1, n2, r))._fields()[:3])
    for b1, b2, c, *stacked in spectra:
        assert stacked == list(symplectic_spectrum(StandardForm(b1, b2, c))._fields())


def _error(f, *args):
    with pytest.raises(Exception) as raised:
        f(*args)
    return type(raised.value), str(raised.value)


@pytest.mark.parametrize(
    "n1, n2, r",
    [(1.0, 1.0, 400.0), (1.0, 1.0, 800.0), (1e308, 1.0, 1.0)],
    ids=["sinh-cosh-overflow", "cosh-overflow", "entries-overflow"],
)
def test_an_entry_stack_with_a_refused_state_raises_its_error(n1, n2, r):
    params = np.array([(2.0, 0.5, 1.0), (n1, n2, r), (3.0, 1.0, 0.5)]).T
    want = _error(lambda: standard_form_from_sts(StsParams(n1, n2, r)))
    assert _error(_batch.stack, verification._sts_entries, *params) == want


def test_a_spectrum_stack_with_a_refused_or_product_state_is_the_scalar_ones():
    # Entries admitted only within rounding: the discriminant is refused.
    within_rounding = standard_form_from_sts(StsParams(4.0, 1.5, 9.7))
    good = standard_form_from_sts(StsParams(2.0, 0.5, 1.0))
    columns = np.array([good._fields()[:3], within_rounding._fields()[:3], good._fields()[:3]]).T
    want = _error(symplectic_spectrum, within_rounding)
    assert want[0] is NonPhysicalStateError
    assert _error(_batch.stack, verification._spectrum, *columns) == want
    # A product state takes the scalar branch, and the stack keeps its bits.
    states = [good, StandardForm(2.5, 1.5, 0.0), good]
    stacked = _batch.stack(verification._spectrum, *np.array([sf._fields()[:3] for sf in states]).T)
    assert list(zip(*(x.tolist() for x in stacked))) == [symplectic_spectrum(sf)._fields() for sf in states]


def test_a_pair_that_is_not_finite_is_the_worst_and_fails(monkeypatch):
    closed, oracle = np.array([1.0, math.nan, 1.0]), np.array([1.0, 1.0, 1.000000000001])
    for relative in (False, True):
        report = verification._worst("q", closed, oracle, 1e-10, relative)
        assert math.isnan(report.closed_form) and report.oracle == 1.0 and not report.passed
    assert not verification._worst("q", np.array([1.0, math.inf]), np.array([1.0, math.inf]), 1e-10).passed
    # In the battery: one NaN among an eigen-oracle's values fails the check.
    oracle_stack = verification.symplectic_spectrum_oracle

    def nan_at_5(v):
        kp, km = oracle_stack(v)
        kp[5] = math.nan
        return kp, km

    monkeypatch.setattr(verification, "symplectic_spectrum_oracle", nan_at_5)
    _battery(monkeypatch, 500, 4, 4)
    reports = run_verification(seed=3)
    (report,) = [r for r in reports if r.quantity == "kappa_plus vs eigen-oracle"]
    assert math.isnan(report.oracle) and not report.passed


def test_a_negative_seed_is_refused_before_sampling(capsys, monkeypatch):
    def no_rng(seed):
        raise AssertionError("sampled with a negative seed")

    # The battery's generator, as run_verification builds it.
    monkeypatch.setattr(verification, "Random", no_rng)
    with pytest.raises(InvalidParameterError, match="seed"):
        run_verification(seed=-1)
    assert cli.main(["verify", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the verification seed (verify --seed) must be >= 0, got -1\n"
