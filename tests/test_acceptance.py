"""Acceptance battery: one test per contracted criterion, at stated tolerance.

Each test prints its measured worst case, so a `pytest -v` run of this file
reads as a pass/fail checklist with the achieved margins alongside.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import bona_fide_margin

from stsdecay import (
    ReservoirConfig,
    StsParams,
    correlation_report,
    discords,
    entanglement_of_formation,
    entropic_h,
    esd_time_identical_baths,
    esd_time_single_bath,
    evolve,
    full_cm,
    mutual_information,
    separability_margin,
    standard_form_from_sts,
    symplectic_spectrum,
)
from stsdecay.verification import (
    esd_bisection,
    ppt_spectrum_oracle,
    sample_entangled_sts,
    sample_standard_form,
    sample_sts,
    symplectic_spectrum_oracle,
)


def test_criterion_01_occupancy_identity_of_spectrum():
    # 10^4 random squeezed thermal states: the symplectic eigenvalues must
    # equal the sorted thermal occupancies plus 1/2, to 1e-12 relative, in
    # under 5 seconds.
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(10_000):
        p = sample_sts(rng, n_max=10.0, r_max=1.5)
        spec = symplectic_spectrum(standard_form_from_sts(p))
        hi = max(p.n1, p.n2) + 0.5
        lo = min(p.n1, p.n2) + 0.5
        worst = max(
            worst,
            abs(spec.kappa_plus - hi) / hi,
            abs(spec.kappa_minus - lo) / lo,
        )
    elapsed = time.monotonic() - start
    print(f"criterion 1: worst relative error {worst:.3e} (tol 1e-12), {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_spectra_against_eigen_oracle():
    # 10^4 states (squeezed-thermal manifold plus direct standard-form
    # draws): closed-form plain and partially transposed spectra vs the
    # eigen-decomposition oracle, 1e-10 absolute, under 30 seconds.
    # The oracles take the 10^4 matrices as one stack, which gives each
    # matrix the bits it gets on its own.
    rng = np.random.default_rng(102)
    start = time.monotonic()
    states = [
        sample_standard_form(rng, with_phase=False)
        if i % 10 == 0
        else standard_form_from_sts(sample_sts(rng, with_phase=False))
        for i in range(10_000)
    ]
    spectra = [symplectic_spectrum(sf) for sf in states]
    closed = np.array([(s.kappa_plus, s.kappa_minus, s.kappa_tilde_plus, s.kappa_tilde_minus) for s in spectra])
    v = np.array([full_cm(sf) for sf in states])
    oracle = np.column_stack([*symplectic_spectrum_oracle(v), *ppt_spectrum_oracle(v)])
    worst = float(np.abs(closed - oracle).max())
    elapsed = time.monotonic() - start
    print(f"criterion 2: worst absolute error {worst:.3e} (tol 1e-10), {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_03_death_times_against_bisection():
    # 10^3 entangled states per bath layout: closed-form sudden-death time
    # vs bisection on the evolved separability margin, 1e-9 absolute,
    # under 30 seconds.
    rng = np.random.default_rng(103)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        sf = sample_entangled_sts(rng)
        gamma = float(rng.uniform(0.25, 2.0))
        n_r = float(rng.uniform(0.05, 1.5))
        ts = esd_time_identical_baths(sf, gamma, n_r)
        tb = esd_bisection(sf, ReservoirConfig.identical(gamma, n_r))
        worst = max(worst, abs(ts - tb))
        ts = esd_time_single_bath(sf, gamma, n_r)
        tb = esd_bisection(sf, ReservoirConfig.single_bath(gamma, n_r))
        worst = max(worst, abs(ts - tb))
    elapsed = time.monotonic() - start
    print(f"criterion 3: worst absolute error {worst:.3e} (tol 1e-9), {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_04_pure_single_bath_time_is_squeezing_independent():
    # 100 pure states across the squeezing range: the single-bath death
    # time equals ln(1 + 1/n_r) regardless of r, to 1e-12.
    rng = np.random.default_rng(104)
    worst = 0.0
    expected = math.log(3.0)  # n_r = 0.5
    for _ in range(100):
        r = float(rng.uniform(0.01, 4.0))
        sf = standard_form_from_sts(StsParams(0.0, 0.0, r))
        ts = esd_time_single_bath(sf, 1.0, 0.5)
        worst = max(worst, abs(ts - expected))
    print(f"criterion 4: worst |t_s - ln 3| = {worst:.3e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_05_pure_state_measures_coincide():
    # 100 pure states with r up to 5: EF, both discords, and the reduced
    # single-mode entropy all agree to 1e-10.
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        r = float(rng.uniform(0.01, 5.0))
        sf = standard_form_from_sts(StsParams(0.0, 0.0, r))
        ef, _ = entanglement_of_formation(sf)
        d1, d2, _, _ = discords(sf)
        worst = max(
            worst,
            abs(ef - d1),
            abs(d1 - d2),
            abs(ef - entropic_h(sf.b1)),
        )
    print(f"criterion 5: worst pure-state identity gap {worst:.3e} (tol 1e-10)")
    assert worst <= 1e-10


def _gap_from_limit(out, res, sf0):
    """Largest entry gap of ``out`` from the t -> infinity limit of ``sf0`` under ``res``.

    The limit is b_i = n_ri + 1/2 where gamma_i > 0, the input's b_i where
    gamma_i = 0, and c = 0.
    """
    b1 = res.n_r1 + 0.5 if res.gamma1 > 0.0 else sf0.b1
    b2 = res.n_r2 + 0.5 if res.gamma2 > 0.0 else sf0.b2
    return max(abs(out.b1 - b1), abs(out.b2 - b2), abs(out.c))


def test_criterion_06_relaxation_to_steady_state():
    # After t = 700/min(gamma) the evolved state equals the steady state
    # to 1e-12 in every entry, and with both baths noisy every correlation
    # measure is below 1e-10.  Single-bath layouts relax to a product
    # state with the free mode untouched.
    rng = np.random.default_rng(106)
    worst_entry = 0.0
    worst_measure = 0.0
    for _ in range(200):
        sf = standard_form_from_sts(sample_sts(rng, n_max=10.0, r_max=2.0))
        res = ReservoirConfig(
            float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(0.1, 1.5)),
            float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(0.1, 1.5)),
        )
        t = 700.0 / min(res.gamma1, res.gamma2)
        out = evolve(sf, res, t).sf
        worst_entry = max(worst_entry, _gap_from_limit(out, res, sf))
        rep = correlation_report(out)
        worst_measure = max(worst_measure, rep.ef, rep.d1, rep.d2, rep.mutual_information)
    for _ in range(100):
        sf = standard_form_from_sts(sample_sts(rng, n_max=10.0, r_max=2.0))
        gamma = float(rng.uniform(0.3, 2.0))
        res = ReservoirConfig.single_bath(gamma, float(rng.uniform(0.0, 1.5)))
        out = evolve(sf, res, 700.0 / gamma).sf
        worst_entry = max(worst_entry, _gap_from_limit(out, res, sf))
        worst_measure = max(worst_measure, mutual_information(out))
    print(
        f"criterion 6: worst entry gap {worst_entry:.3e} (tol 1e-12), "
        f"worst residual measure {worst_measure:.3e} (tol 1e-10)"
    )
    assert worst_entry <= 1e-12
    assert worst_measure <= 1e-10


def test_criterion_07_transient_discord_enhancement():
    # Single zero-temperature bath on mode 1 of the (10, 7, r=2) state:
    # the discord read out on the damped side transiently exceeds its
    # initial value; the enhancement shrinks when the bath is hot; and
    # neither EF nor the other discord is ever enhanced.
    sf = standard_form_from_sts(StsParams(10.0, 7.0, 2.0))
    ts_grid = np.linspace(0.0, 10.0, 10_000)

    def excesses(n_r):
        res = ReservoirConfig.single_bath(1.0, n_r)
        rep0 = correlation_report(sf)
        exc_d2 = 0.0
        exc_d1 = 0.0
        exc_ef = 0.0
        for t in ts_grid:
            rep = correlation_report(evolve(sf, res, float(t)).sf)
            exc_d2 = max(exc_d2, rep.d2 - rep0.d2)
            exc_d1 = max(exc_d1, rep.d1 - rep0.d1)
            exc_ef = max(exc_ef, rep.ef - rep0.ef)
        return exc_d2, exc_d1, exc_ef

    exc_cold, exc_d1_cold, exc_ef_cold = excesses(0.0)
    exc_warm, exc_d1_warm, exc_ef_warm = excesses(0.5)
    print(
        f"criterion 7: d2 enhancement {exc_cold:.6f} at n_r=0, "
        f"{exc_warm:.6f} at n_r=0.5; d1/ef excesses "
        f"{max(exc_d1_cold, exc_d1_warm):.2e}/{max(exc_ef_cold, exc_ef_warm):.2e}"
    )
    assert exc_cold > 0.0
    assert exc_cold > exc_warm
    assert exc_d1_cold <= 1e-12 and exc_d1_warm <= 1e-12
    assert exc_ef_cold <= 1e-12 and exc_ef_warm <= 1e-12


def test_criterion_08_death_of_entanglement_but_not_discord():
    # (a) At the closed-form death time the evolved state has EF exactly
    # zero while both discords stay strictly positive.  (b) Pointwise on a
    # dense grid, the single-bath EF and damped-side discord dominate
    # their identical-baths counterparts for the same gamma and n_r.
    sf = standard_form_from_sts(StsParams(10.0, 0.1, 2.0))
    ts = esd_time_identical_baths(sf, 1.0, 0.5)
    rep = correlation_report(evolve(sf, ReservoirConfig.identical(1.0, 0.5), ts).sf)
    assert rep.ef == 0.0
    assert rep.separable
    assert rep.d1 > 0.0 and rep.d2 > 0.0

    sf36 = standard_form_from_sts(StsParams(10.0, 7.0, 2.0))
    single = ReservoirConfig.single_bath(1.0, 0.5)
    ident = ReservoirConfig.identical(1.0, 0.5)
    worst_gap = 0.0
    for t in np.linspace(0.0, 5.0, 2001):
        rep_s = correlation_report(evolve(sf36, single, float(t)).sf)
        rep_i = correlation_report(evolve(sf36, ident, float(t)).sf)
        worst_gap = max(worst_gap, rep_i.ef - rep_s.ef, rep_i.d2 - rep_s.d2)
    print(
        f"criterion 8: EF at death time = {rep.ef!r} with d1 = {rep.d1:.4f}, "
        f"d2 = {rep.d2:.4f}; worst single-vs-identical ordering gap {worst_gap:.3e}"
    )
    assert worst_gap <= 1e-12


def test_criterion_09_semigroup_and_physicality():
    # 10^4 random (state, reservoir, t1, t2) triples: evolving in two legs
    # agrees with one leg to 1e-12 per entry, and every evolved state
    # satisfies the uncertainty inequality to within -1e-12.
    rng = np.random.default_rng(109)
    worst_gap = 0.0
    worst_margin = 0.0
    for _ in range(10_000):
        sf = standard_form_from_sts(sample_sts(rng, n_max=10.0, r_max=2.0))
        gamma1 = float(rng.uniform(0.2, 2.0)) if rng.random() > 0.2 else 0.0
        gamma2 = float(rng.uniform(0.2, 2.0)) if rng.random() > 0.2 else 0.0
        res = ReservoirConfig(
            gamma1,
            float(rng.uniform(0.0, 1.5)),
            gamma2,
            float(rng.uniform(0.0, 1.5)),
        )
        t1 = float(rng.uniform(0.0, 4.0))
        t2 = float(rng.uniform(0.0, 4.0))
        mid = evolve(sf, res, t1).sf
        two_step = evolve(mid, res, t2).sf
        one_step = evolve(sf, res, t1 + t2).sf
        worst_gap = max(
            worst_gap,
            abs(two_step.b1 - one_step.b1),
            abs(two_step.b2 - one_step.b2),
            abs(two_step.c - one_step.c),
        )
        worst_margin = min(worst_margin, bona_fide_margin(mid), bona_fide_margin(two_step))
    print(
        f"criterion 9: worst semigroup gap {worst_gap:.3e} (tol 1e-12), "
        f"worst uncertainty margin {worst_margin:.3e} (floor -1e-12)"
    )
    assert worst_gap <= 1e-12
    assert worst_margin >= -1e-12


def test_criterion_10_cli_output_is_deterministic(tmp_path):
    # Two separate interpreter invocations of the same evolve command must
    # produce byte-identical output.
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(
        "n1=10\nn2=0.1\nr=2\nidentical=true\nnr=0.5\nt_end=2\npoints=50\n"
    )
    cmd = [sys.executable, "-m", "stsdecay", "evolve", "--config", str(cfg)]
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    lines = first.stdout.decode().splitlines()
    assert lines[0] == "t,b1,b2,c,ef,d1,d2,mutual_information,separable"
    assert len(lines) == 51
    print("criterion 10: two interpreter runs byte-identical "
          f"({len(first.stdout)} bytes)")
