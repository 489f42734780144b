"""Independent numeric oracles for every closed form in the package.

The closed-form spectra, correlation measures and death times all flow
through hand-simplified algebra; this module re-derives the same numbers
by routes that share none of that algebra:

* symplectic spectra from an eigen-decomposition of the full 4x4
  covariance matrix, ``full_cm`` (no two-mode formula involved),
* disentanglement times from bisection on the separability margin of the
  evolved state (no logarithm rearrangement involved; ``esd_bisection``
  lives in ``dynamics``, which answers general bath layouts with it, and
  is re-exported here),
* the evolved characteristic function, ``characteristic_function``,
  cross-checked against the Gaussian characteristic function of the
  evolved state, ``gaussian_cf`` (two different orders of applying the
  channel).

Everything here needs numpy, which the closed forms do not: the package
imports this module on first use of one of its names.

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

import numpy as np

from ._accurate import prod_diff
from .core import (
    StandardForm,
    StsParams,
    _Record,
    separability_margin,
    standard_form_from_sts,
    symplectic_spectrum,
)
from .dynamics import (
    ReservoirConfig,
    _check_time,
    _margin_at,
    esd_bisection,
    esd_time_identical_baths,
    esd_time_single_bath,
    evolve,
)
from .errors import InvalidParameterError, NonPhysicalStateError, OraclePrecisionError

__all__ = [
    "full_cm",
    "gaussian_cf",
    "characteristic_function",
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

# States per stacked oracle call in run_verification; one buffer of this
# many matrices is reused, so the battery's memory does not grow with it.
_ORACLE_BLOCK = 250


def full_cm(sf: StandardForm) -> np.ndarray:
    """Assemble the full 4x4 covariance matrix of ``sf``.

    Ordering is (x1, p1, x2, p2); the result is real symmetric.  This is
    the bridge to the eigen-oracles and ``gaussian_cf``; the closed forms
    never consume the matrix form.
    """
    cphi = math.cos(sf.phi)
    sphi = math.sin(sf.phi)
    cblock = sf.c * np.array([[cphi, sphi], [sphi, -cphi]])
    v = np.zeros((4, 4))
    v[0, 0] = v[1, 1] = sf.b1
    v[2, 2] = v[3, 3] = sf.b2
    v[0:2, 2:4] = cblock
    v[2:4, 0:2] = cblock
    return v


def gaussian_cf(sf: StandardForm, lambda1: complex, lambda2: complex) -> complex:
    """Characteristic function of the zero-mean Gaussian state ``sf``.

    chi(lambda1, lambda2) = exp(-K^T V K / 2) with V = full_cm(sf) and
    K = sqrt(2) * (Im l1, -Re l1, Im l2, -Re l2); real and positive for
    these zero-mean states, returned as complex for uniformity.
    """
    l1 = complex(lambda1)
    l2 = complex(lambda2)
    k = math.sqrt(2.0) * np.array([l1.imag, -l1.real, l2.imag, -l2.real])
    return complex(math.exp(-0.5 * float(k @ full_cm(sf) @ k)))


def characteristic_function(
    sf0: StandardForm,
    res: ReservoirConfig,
    t: float,
    lambda1: complex,
    lambda2: complex,
) -> complex:
    """Evolved two-mode characteristic function at phase-space point (l1, l2).

    chi(l1, l2, t) = chi_0(l1 e^{-g1 t/2}, l2 e^{-g2 t/2})
                     * exp[-(n_r1 + 1/2)(1 - e^{-g1 t}) |l1|^2]
                     * exp[-(n_r2 + 1/2)(1 - e^{-g2 t}) |l2|^2]

    where chi_0 is the input state's Gaussian characteristic function.
    Always satisfies chi(0, 0, t) = 1 and |chi| <= 1.  Agrees pointwise
    with the Gaussian characteristic function of evolve(sf0, res, t) — a
    cross-check ``run_verification`` exercises.
    """
    _check_time(t)
    l1 = complex(lambda1)
    l2 = complex(lambda2)
    w1 = math.exp(-res.gamma1 * t)
    w2 = math.exp(-res.gamma2 * t)
    chi0 = gaussian_cf(sf0, l1 * math.exp(-0.5 * res.gamma1 * t), l2 * math.exp(-0.5 * res.gamma2 * t))
    damping = math.exp(
        -(res.n_r1 + 0.5) * (1.0 - w1) * (l1.real * l1.real + l1.imag * l1.imag)
        - (res.n_r2 + 0.5) * (1.0 - w2) * (l2.real * l2.real + l2.imag * l2.imag)
    )
    return chi0 * damping


class OracleReport(_Record):
    """Outcome of one closed-form-versus-oracle comparison."""

    __match_args__ = ("quantity", "closed_form", "oracle", "abs_err", "tol", "passed")

    def __init__(
        self, quantity: str, closed_form: float, oracle: float, abs_err: float, tol: float, passed: bool
    ) -> None:
        self.__dict__.update(
            quantity=quantity, closed_form=closed_form, oracle=oracle, abs_err=abs_err, tol=tol, passed=passed
        )

    @classmethod
    def compare(cls, quantity: str, closed_form: float, oracle: float, tol: float) -> OracleReport:
        """Build a report from the two values, deriving abs_err and the verdict."""
        abs_err = abs(closed_form - oracle)
        return cls(quantity, closed_form, oracle, abs_err, tol, abs_err <= tol)


def _cm_stack(v: np.ndarray) -> np.ndarray:
    """``v`` as a float array of shape ``(..., 4, 4)``."""
    v = np.asarray(v, dtype=float)
    if v.shape[-2:] != (4, 4):
        raise InvalidParameterError(
            f"expected a 4x4 covariance matrix or a stack of them, got shape {v.shape}"
        )
    return v


def _at(bad: np.ndarray) -> str:
    """Where the first true entry of ``bad`` sits in the stack ("" for one matrix)."""
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    if not index:
        return ""
    return f" at index {index[0] if len(index) == 1 else index}"


def _cholesky_longdouble(v: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack ``(..., n, n)`` in extended precision.

    The textbook entry-by-entry loop, with the stack axes moved last so that
    ``a[i, j]`` is that entry of every matrix at once (a scalar for one
    matrix).  Every dot product accumulates from 0 in index order, as
    numpy's longdouble ``x @ y`` does, and every operation is elementwise,
    so each matrix gets exactly the factor it gets on its own.

    Raises:
        OraclePrecisionError: where numpy's longdouble is no wider than a double.
        NonPhysicalStateError: naming the first matrix that is not positive definite.
    """
    if np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
        raise OraclePrecisionError(
            "the eigen-oracle needs extended precision, but numpy's longdouble "
            "is a plain double on this platform"
        )
    stack_axes = tuple(range(v.ndim - 2))
    a = np.array(v, dtype=np.longdouble).transpose(v.ndim - 2, v.ndim - 1, *stack_axes)
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        for i in range(j, n):
            dot = 0.0
            for k in range(j):
                dot = dot + low[i, k] * low[j, k]
            r = a[i, j] - dot
            if i == j:
                bad = r <= 0.0
                if bad.any():
                    raise NonPhysicalStateError(f"covariance matrix{_at(bad)} is not positive definite")
                low[j, j] = np.sqrt(r)
            else:
                low[i, j] = r / low[j, j]
    return low.transpose(*(k + 2 for k in stack_axes), 0, 1)


def symplectic_spectrum_oracle(
    v: np.ndarray, pair_tol: float = 1e-8
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Symplectic eigenvalues of a 4x4 covariance matrix, by eigen-decomposition.

    Returns the two distinct moduli of the eigenvalues of i*Omega*V
    (each is doubly degenerate), sorted descending.  The computation runs
    on the Hermitian similarity transform i*(L^T Omega L) of the
    extended-precision Cholesky factor L of V — see the module docstring
    for why plain double precision is not good enough here.

    ``v`` may also be a stack of shape ``(..., 4, 4)``; the result is then
    a pair of float arrays of the leading shape, and each entry has the
    bits the matrix gets on its own.  One ``(4, 4)`` matrix gives a pair
    of Python floats.

    Raises:
        InvalidParameterError: if the trailing shape is not 4x4.
        NonPhysicalStateError: if a matrix is not positive definite, or if
            its eigenvalue moduli fail to pair within ``pair_tol``; the
            message names the matrix's index in a stack.
    """
    v = _cm_stack(v)
    low = _cholesky_longdouble(v)
    a = (np.swapaxes(low, -1, -2) @ (_OMEGA.astype(np.longdouble) @ low)).astype(float)
    a = 0.5 * (a - np.swapaxes(a, -1, -2))  # enforce exact antisymmetry before symmetrizing with i
    moduli = np.sort(np.abs(np.linalg.eigvalsh(1j * a)), axis=-1)[..., ::-1]
    # Moduli 0, 1 and 2, 3 are the two degenerate pairs.
    unpaired = np.abs(moduli[..., 0::2] - moduli[..., 1::2]) > pair_tol
    if np.count_nonzero(unpaired):
        bad = unpaired.any(axis=-1)
        raise NonPhysicalStateError(
            f"eigenvalue moduli{_at(bad)} do not pair within {pair_tol!r}: "
            f"{moduli[bad][0].tolist()!r}"
        )
    kappas = 0.5 * (moduli[..., 0::2] + moduli[..., 1::2])
    kappa_plus, kappa_minus = kappas[..., 0], kappas[..., 1]
    if v.ndim == 2:
        return float(kappa_plus), float(kappa_minus)
    return kappa_plus, kappa_minus


def ppt_spectrum_oracle(
    v: np.ndarray, pair_tol: float = 1e-8
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Symplectic eigenvalues of the partial transpose of ``v``.

    Applies the momentum-sign flip on mode 2 and defers to
    symplectic_spectrum_oracle, stacks included.  The smaller value
    dropping below 1/2 is the entanglement witness the closed forms must
    reproduce.
    """
    return symplectic_spectrum_oracle(_PT_FLIP @ _cm_stack(v) @ _PT_FLIP, pair_tol)


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


def _worst(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """The (closed_form, oracle) pair that differs the most."""
    return max(pairs, key=lambda pair: abs(pair[0] - pair[1]))


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

    Raises:
        InvalidParameterError: if ``seed`` is negative.
    """
    if seed < 0:
        raise InvalidParameterError(f"the verification seed (verify --seed) must be >= 0, got {seed!r}")
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
    cms = np.empty((_ORACLE_BLOCK, 4, 4))
    for start in range(0, spectrum_samples, _ORACLE_BLOCK):
        specs = []
        for i in range(start, min(start + _ORACLE_BLOCK, spectrum_samples)):
            if i % 10 == 0:
                sf = sample_standard_form(rng, with_phase=False)
            else:
                p = sample_sts(rng, with_phase=False)
                sf = standard_form_from_sts(p)
            specs.append(symplectic_spectrum(sf))
            cms[i - start] = full_cm(sf)
        block = cms[: len(specs)]
        okp, okm = (x.tolist() for x in symplectic_spectrum_oracle(block))
        otp, otm = (x.tolist() for x in ppt_spectrum_oracle(block))
        for j, spec in enumerate(specs):
            sp.append((spec.kappa_plus, okp[j]))
            sm.append((spec.kappa_minus, okm[j]))
            tp.append((spec.kappa_tilde_plus, otp[j]))
            tm.append((spec.kappa_tilde_minus, otm[j]))
    for name, pairs in (
        ("kappa_plus vs eigen-oracle", sp),
        ("kappa_minus vs eigen-oracle", sm),
        ("kappa_tilde_plus vs eigen-oracle", tp),
        ("kappa_tilde_minus vs eigen-oracle", tm),
    ):
        reports.append(OracleReport.compare(name, *_worst(pairs), 1e-10))

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
        reports.append(OracleReport.compare(name, *_worst(pairs), 1e-9))

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
    name = "evolved characteristic function vs evolved state"
    reports.append(OracleReport.compare(name, *_worst(cf_pairs), 1e-10))

    return reports
