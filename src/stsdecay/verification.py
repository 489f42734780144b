"""Independent numeric oracles for every closed form in the package.

The closed-form spectra, correlation measures and death times all flow
through hand-simplified algebra; this module re-derives the same numbers
by routes that share none of that algebra:

* symplectic spectra from an eigen-decomposition of the full 4x4
  covariance matrix (no two-mode formula involved),
* disentanglement times from bisection on the separability margin of the
  evolved state (no logarithm rearrangement involved; ``esd_bisection``
  lives in ``dynamics``, which answers general bath layouts with it, and
  is re-exported here),
* the evolved characteristic function cross-checked against the
  characteristic function of the evolved state (two different orders of
  applying the channel).

The eigenvalue route deliberately goes through an extended-precision
Cholesky factor: V = L L^T turns i*Omega*V, by similarity, into the
Hermitian matrix i*(L^T Omega L) whose eigenvalues a symmetric solver
returns with small *absolute* error.  Factoring in double precision
leaves a backward error of order eps*||V|| that the squeezing condition
number (~ e^{2r}) amplifies right past the 1e-10 oracle budget; carrying
the factorization and the congruence in longdouble removes that term at
negligible cost for 4x4 matrices.  Where numpy's longdouble is plain
binary64 (Windows, macOS on arm64) the oracle refuses to run rather than
silently losing that precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accurate import prod_diff
from .core import (
    StandardForm,
    StsParams,
    full_cm,
    separability_margin,
    standard_form_from_sts,
    symplectic_spectrum,
)
from .dynamics import (
    ReservoirConfig,
    _margin_at,
    characteristic_function,
    esd_bisection,
    esd_time_identical_baths,
    esd_time_single_bath,
    evolve,
    gaussian_cf,
)
from .errors import InvalidParameterError, NonPhysicalStateError, OraclePrecisionError

__all__ = [
    "OracleReport",
    "symplectic_spectrum_oracle",
    "ppt_spectrum_oracle",
    "esd_bisection",
    "count_margin_crossings",
    "sample_sts",
    "sample_entangled_sts",
    "sample_standard_form",
    "run_verification",
]

# Symplectic form for mode ordering (x1, p1, x2, p2).
_OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

# Partial transposition of mode 2 flips the sign of p2.
_PT_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one closed-form-versus-oracle comparison."""

    quantity: str
    closed_form: float
    oracle: float
    abs_err: float
    tol: float
    passed: bool

    @classmethod
    def compare(cls, quantity: str, closed_form: float, oracle: float, tol: float) -> OracleReport:
        """Build a report from the two values, deriving abs_err and the verdict."""
        abs_err = abs(closed_form - oracle)
        return cls(quantity, closed_form, oracle, abs_err, tol, abs_err <= tol)


def _cholesky_longdouble(v: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``v`` computed in extended precision.

    Raises:
        OraclePrecisionError: where numpy's longdouble is no wider than a double.
    """
    if np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
        raise OraclePrecisionError(
            "the eigen-oracle needs extended precision, but numpy's longdouble "
            "is a plain double on this platform"
        )
    a = np.array(v, dtype=np.longdouble)
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if d <= 0.0:
            raise NonPhysicalStateError("covariance matrix is not positive definite")
        low[j, j] = np.sqrt(d)
        for i in range(j + 1, n):
            low[i, j] = (a[i, j] - low[i, :j] @ low[j, :j]) / low[j, j]
    return low


def symplectic_spectrum_oracle(
    v: np.ndarray, pair_tol: float = 1e-8
) -> tuple[float, float]:
    """Symplectic eigenvalues of a 4x4 covariance matrix, by eigen-decomposition.

    Returns the two distinct moduli of the eigenvalues of i*Omega*V
    (each is doubly degenerate), sorted descending.  The computation runs
    on the Hermitian similarity transform i*(L^T Omega L) of the
    extended-precision Cholesky factor L of V — see the module docstring
    for why plain double precision is not good enough here.

    Raises:
        NonPhysicalStateError: if V is not positive definite, or if the
            eigenvalue moduli fail to pair within ``pair_tol``.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (4, 4):
        raise InvalidParameterError(f"expected a 4x4 covariance matrix, got shape {v.shape}")
    low = _cholesky_longdouble(v)
    a = (low.T @ (_OMEGA.astype(np.longdouble) @ low)).astype(float)
    a = 0.5 * (a - a.T)  # enforce exact antisymmetry before symmetrizing with i
    moduli = np.sort(np.abs(np.linalg.eigvalsh(1j * a)))[::-1]
    if abs(moduli[0] - moduli[1]) > pair_tol or abs(moduli[2] - moduli[3]) > pair_tol:
        raise NonPhysicalStateError(
            f"eigenvalue moduli do not pair within {pair_tol!r}: {moduli.tolist()!r}"
        )
    return float(0.5 * (moduli[0] + moduli[1])), float(0.5 * (moduli[2] + moduli[3]))


def ppt_spectrum_oracle(v: np.ndarray, pair_tol: float = 1e-8) -> tuple[float, float]:
    """Symplectic eigenvalues of the partial transpose of ``v``.

    Applies the momentum-sign flip on mode 2 and defers to
    symplectic_spectrum_oracle.  The smaller value dropping below 1/2 is
    the entanglement witness the closed forms must reproduce.
    """
    v = np.asarray(v, dtype=float)
    return symplectic_spectrum_oracle(_PT_FLIP @ v @ _PT_FLIP, pair_tol)


def count_margin_crossings(
    sf0: StandardForm, res: ReservoirConfig, t_max: float, n_points: int = 4000
) -> int:
    """Number of sign changes of the separability margin on [0, t_max].

    Dense uniform sampling; used by property tests to flag any appearance
    of multiple entanglement deaths/revivals, which this channel family
    must never produce.
    """
    ts = np.linspace(0.0, t_max, n_points)
    signs = np.sign([_margin_at(sf0, res, float(t)) for t in ts])
    crossings = 0
    prev = signs[0]
    for s in signs[1:]:
        if s != 0.0 and prev != 0.0 and s != prev:
            crossings += 1
        if s != 0.0:
            prev = s
    return crossings


def sample_sts(
    rng: np.random.Generator,
    n_max: float = 20.0,
    r_max: float = 3.0,
    with_phase: bool = True,
) -> StsParams:
    """Random squeezed-thermal parameters, uniform over the given box."""
    return StsParams(
        n1=n_max * rng.random(),
        n2=n_max * rng.random(),
        r=r_max * rng.random(),
        phi=rng.uniform(-math.pi, math.pi) if with_phase else 0.0,
    )


def sample_entangled_sts(
    rng: np.random.Generator,
    n_max: float = 5.0,
    r_min: float = 0.2,
    r_max: float = 2.5,
    with_phase: bool = True,
) -> StandardForm:
    """Random *entangled* standard-form state from the STS family.

    Rejection-samples the parametrization until the separability margin
    is negative.  The default box keeps the acceptance rate high while
    still covering strongly asymmetric states.
    """
    while True:
        p = StsParams(
            n1=n_max * rng.random(),
            n2=n_max * rng.random(),
            r=rng.uniform(r_min, r_max),
            phi=rng.uniform(-math.pi, math.pi) if with_phase else 0.0,
        )
        sf = standard_form_from_sts(p)
        if separability_margin(sf) < 0.0:
            return sf


def sample_standard_form(
    rng: np.random.Generator,
    b_max: float = 8.0,
    with_phase: bool = True,
) -> StandardForm:
    """Random bona fide state sampled directly in (b1, b2, c).

    Draws the diagonal entries uniformly, then draws c below the
    uncertainty bound sqrt((b_max'+1/2)(b_min'-1/2)) and keeps the rare
    rounding-edge rejects out.  Unlike the squeezed-thermal sampler this
    covers the whole standard-form family, including states no squeezed
    thermal parametrization reaches.
    """
    while True:
        b1 = rng.uniform(0.5, b_max)
        b2 = rng.uniform(0.5, b_max)
        hi, lo = (b1, b2) if b1 >= b2 else (b2, b1)
        c_bound = math.sqrt((hi + 0.5) * (lo - 0.5))
        c = rng.uniform(0.0, c_bound)
        if prod_diff(hi + 0.5, lo - 0.5, c, c) >= 0.0:
            phi = rng.uniform(-math.pi, math.pi) if with_phase else 0.0
            return StandardForm(b1, b2, c, phi)


def _worst(reports: list[tuple[float, float]]) -> tuple[float, float, float]:
    """(closed_form, oracle, abs_err) of the worst-agreeing pair."""
    closed, oracle = max(reports, key=lambda pair: abs(pair[0] - pair[1]))
    return closed, oracle, abs(closed - oracle)


def run_verification(
    seed: int = 0,
    spectrum_samples: int = 2000,
    esd_samples: int = 200,
    cf_samples: int = 100,
) -> list[OracleReport]:
    """Run the full closed-form-versus-oracle battery.

    Returns one aggregated OracleReport per checked quantity, each
    carrying the worst-agreeing pair observed over its random sample.
    Seeded, hence reproducible.
    """
    rng = np.random.default_rng(seed)
    reports: list[OracleReport] = []

    # Thermal-occupancy identity of the spectrum on the parametrized family.
    # Ranges are chosen so the identity is resolvable in double precision:
    # the stored standard form perturbs kappa_minus by O(n^2 e^{4r} eps).
    pairs_p: list[tuple[float, float]] = []
    pairs_m: list[tuple[float, float]] = []
    for _ in range(spectrum_samples):
        p = sample_sts(rng, n_max=10.0, r_max=1.5)
        spec = symplectic_spectrum(standard_form_from_sts(p))
        pairs_p.append((spec.kappa_plus, max(p.n1, p.n2) + 0.5))
        pairs_m.append((spec.kappa_minus, min(p.n1, p.n2) + 0.5))
    for name, pairs in (
        ("kappa_plus = n_max + 1/2 (relative)", pairs_p),
        ("kappa_minus = n_min + 1/2 (relative)", pairs_m),
    ):
        closed, expect = max(pairs, key=lambda pr: abs(pr[0] - pr[1]) / pr[1])
        rel = abs(closed - expect) / expect
        reports.append(OracleReport(name, closed, expect, rel, 1e-12, rel <= 1e-12))

    # Closed-form spectra vs the eigen-decomposition oracle.  Comparison
    # states are assembled at phi = 0, where the covariance matrix holds
    # the standard-form entries exactly; phase invariance is checked
    # separately against the closed forms' phase-free outputs.
    sp: list[tuple[float, float]] = []
    sm: list[tuple[float, float]] = []
    tp: list[tuple[float, float]] = []
    tm: list[tuple[float, float]] = []
    for i in range(spectrum_samples):
        if i % 10 == 0:
            sf = sample_standard_form(rng, with_phase=False)
        else:
            p = sample_sts(rng, with_phase=False)
            sf = standard_form_from_sts(p)
        spec = symplectic_spectrum(sf)
        v = full_cm(sf)
        okp, okm = symplectic_spectrum_oracle(v)
        otp, otm = ppt_spectrum_oracle(v)
        sp.append((spec.kappa_plus, okp))
        sm.append((spec.kappa_minus, okm))
        tp.append((spec.kappa_tilde_plus, otp))
        tm.append((spec.kappa_tilde_minus, otm))
    for name, pairs in (
        ("kappa_plus vs eigen-oracle", sp),
        ("kappa_minus vs eigen-oracle", sm),
        ("kappa_tilde_plus vs eigen-oracle", tp),
        ("kappa_tilde_minus vs eigen-oracle", tm),
    ):
        closed, oracle, err = _worst(pairs)
        reports.append(OracleReport(name, closed, oracle, err, 1e-10, err <= 1e-10))

    # Closed-form death times vs bisection.
    ident: list[tuple[float, float]] = []
    single: list[tuple[float, float]] = []
    for _ in range(esd_samples):
        sf = sample_entangled_sts(rng)
        gamma = rng.uniform(0.25, 2.0)
        n_r = rng.uniform(0.05, 1.5)
        ts = esd_time_identical_baths(sf, gamma, n_r)
        tb = esd_bisection(sf, ReservoirConfig.identical(gamma, n_r))
        assert isinstance(ts, float) and isinstance(tb, float)
        ident.append((ts, tb))
        ts = esd_time_single_bath(sf, gamma, n_r)
        tb = esd_bisection(sf, ReservoirConfig.single_bath(gamma, n_r))
        assert isinstance(ts, float) and isinstance(tb, float)
        single.append((ts, tb))
    for name, pairs in (
        ("identical-baths death time vs bisection", ident),
        ("single-bath death time vs bisection", single),
    ):
        closed, oracle, err = _worst(pairs)
        reports.append(OracleReport(name, closed, oracle, err, 1e-9, err <= 1e-9))

    # Evolved characteristic function vs characteristic function of the
    # evolved state: the two orders of applying the channel must agree.
    cf_pairs: list[tuple[float, float]] = []
    for _ in range(cf_samples):
        sf = standard_form_from_sts(sample_sts(rng, n_max=5.0, r_max=2.0))
        res = ReservoirConfig(
            rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.5)
        )
        t = rng.uniform(0.0, 3.0)
        lam1 = complex(rng.normal(), rng.normal())
        lam2 = complex(rng.normal(), rng.normal())
        chi_channel = characteristic_function(sf, res, t, lam1, lam2)
        chi_state = gaussian_cf(evolve(sf, res, t).sf, lam1, lam2)
        cf_pairs.append((chi_channel.real, chi_state.real))
    closed, oracle, err = _worst(cf_pairs)
    reports.append(
        OracleReport("evolved characteristic function vs evolved state", closed, oracle, err, 1e-10, err <= 1e-10)
    )

    return reports
