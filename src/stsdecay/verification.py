"""Independent numeric oracles for every closed form in the package.

The closed-form spectra, correlation measures and death times all flow
through hand-simplified algebra; this module re-derives the same numbers
by routes that share none of that algebra:

* symplectic spectra from an eigen-decomposition of the full 4x4
  covariance matrix, ``full_cm`` (no two-mode formula involved),
* disentanglement times from a bisection over the doubles on the
  separability margin of the evolved offsets b_i(t) - 1/2 (no logarithm,
  no four-term sum and no root formula involved; ``esd_bisection`` and
  its elementwise kernel ``_bisection``, which the battery runs on arrays
  through ``_batch.stack``, live in the numpy-free ``dynamics``, where no
  production death time calls them, and ``esd_bisection`` is re-exported
  here),
* the evolved characteristic function, ``characteristic_function``,
  cross-checked against the Gaussian characteristic function of the
  evolved state, ``gaussian_cf`` (two different orders of applying the
  channel).

Everything here needs numpy, which the closed forms do not.  Like every
submodule, this one is imported on first use of one of its names in the
package namespace, and never by ``import stsdecay`` alone.

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
from random import Random

import numpy as np

from ._accurate import prod_diff
from ._batch import stack
from .core import (
    StandardForm,
    StsParams,
    _Record,
    _spectrum,
    _sts_entries,
    separability_margin,
    standard_form_from_sts,
)
from .dynamics import (
    ReservoirConfig,
    _bisection,
    _check_time,
    esd_bisection,
    esd_time_identical_baths,
    esd_time_single_bath,
    evolve,
)
from .errors import InvalidParameterError, NonPhysicalStateError, OraclePrecisionError

# Every annotation is a string (``from __future__ import annotations``), so
# the names they use are imported for a type checker alone, not at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Protocol

    class _Rng(Protocol):
        """What the samplers draw from: ``random.Random`` and numpy's ``Generator`` both have it."""

        def random(self) -> float: ...

        def uniform(self, a: float, b: float) -> float: ...

__all__ = [
    "full_cm",
    "gaussian_cf",
    "characteristic_function",
    "OracleReport",
    "symplectic_spectrum_oracle",
    "ppt_spectrum_oracle",
    "esd_bisection",
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

# The battery of run_verification: spectrum states, death-time states (each
# in two bath layouts) and characteristic-function points.
_SPECTRUM_SAMPLES = 2000
_ESD_SAMPLES = 200
_CF_SAMPLES = 100
# States per stacked oracle call in run_verification, a divisor of
# _SPECTRUM_SAMPLES; one buffer of this many matrices is reused.  One stack
# of all 2,000 ran the eigen-oracles 1 ms faster in-process (29.5 ms
# against 30.5 ms on a 2-core Xeon), but peaked `verify` at 33.3 MB of RSS
# against 31.5 MB (median of 6 runs each): +5.7%, against the 10% bound
# of the benchmark's peak_rss_mb.
_ORACLE_BLOCK = 250
# The eigen-oracles refuse a matrix whose doubly degenerate eigenvalue
# moduli differ by more than this.
_PAIR_TOL = 1e-8
# The entries of full_cm at phi = 0, b1, b1, b2, b2, c, c, -c, -c, sit at
# these (row, column) places; the others are 0.
_CM_PLACES = ((0, 1, 2, 3, 0, 2, 1, 3), (0, 1, 2, 3, 2, 0, 3, 1))


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


def symplectic_spectrum_oracle(v: np.ndarray) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
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
            its eigenvalue moduli fail to pair within ``_PAIR_TOL``; the
            message names the matrix's index in a stack.
    """
    v = _cm_stack(v)
    low = _cholesky_longdouble(v)
    a = (np.swapaxes(low, -1, -2) @ (_OMEGA.astype(np.longdouble) @ low)).astype(float)
    a = 0.5 * (a - np.swapaxes(a, -1, -2))  # enforce exact antisymmetry before symmetrizing with i
    moduli = np.sort(np.abs(np.linalg.eigvalsh(1j * a)), axis=-1)[..., ::-1]
    # Moduli 0, 1 and 2, 3 are the two degenerate pairs.
    unpaired = np.abs(moduli[..., 0::2] - moduli[..., 1::2]) > _PAIR_TOL
    if np.count_nonzero(unpaired):
        bad = unpaired.any(axis=-1)
        raise NonPhysicalStateError(
            f"eigenvalue moduli{_at(bad)} do not pair within {_PAIR_TOL!r}: "
            f"{moduli[bad][0].tolist()!r}"
        )
    kappas = 0.5 * (moduli[..., 0::2] + moduli[..., 1::2])
    kappa_plus, kappa_minus = kappas[..., 0], kappas[..., 1]
    if v.ndim == 2:
        return float(kappa_plus), float(kappa_minus)
    return kappa_plus, kappa_minus


def ppt_spectrum_oracle(v: np.ndarray) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Symplectic eigenvalues of the partial transpose of ``v``.

    Applies the momentum-sign flip on mode 2 and defers to
    symplectic_spectrum_oracle, stacks included.  The smaller value
    dropping below 1/2 is the entanglement witness the closed forms must
    reproduce.
    """
    return symplectic_spectrum_oracle(_PT_FLIP @ _cm_stack(v) @ _PT_FLIP)


def sample_sts(
    rng: _Rng,
    n_max: float = 20.0,
    r_max: float = 3.0,
    with_phase: bool = True,
) -> StsParams:
    """Random squeezed-thermal parameters, uniform over the given box.

    ``rng`` is any generator with ``random()`` and ``uniform(a, b)``: a
    ``random.Random`` or a numpy ``Generator``.
    """
    return StsParams(
        n_max * rng.random(),
        n_max * rng.random(),
        r_max * rng.random(),
        rng.uniform(-math.pi, math.pi) if with_phase else 0.0,
    )


def sample_entangled_sts(
    rng: _Rng,
    n_max: float = 5.0,
    r_min: float = 0.2,
    r_max: float = 2.5,
    with_phase: bool = True,
) -> StandardForm:
    """Random *entangled* standard-form state from the STS family.

    Rejection-samples the parametrization until the separability margin
    is negative.  The default box keeps the acceptance rate high while
    still covering strongly asymmetric states.  ``rng`` is any generator
    with ``random()`` and ``uniform(a, b)``, as for ``sample_sts``.
    """
    while True:
        # By position, (n1, n2, r, phi), as the rng draws them: the
        # record's fast path, for each rejection draw.
        p = StsParams(
            n_max * rng.random(),
            n_max * rng.random(),
            rng.uniform(r_min, r_max),
            rng.uniform(-math.pi, math.pi) if with_phase else 0.0,
        )
        sf = standard_form_from_sts(p)
        if separability_margin(sf) < 0.0:
            return sf


def sample_standard_form(
    rng: _Rng,
    b_max: float = 8.0,
    with_phase: bool = True,
) -> StandardForm:
    """Random bona fide state sampled directly in (b1, b2, c).

    Draws the diagonal entries uniformly, then draws c below the
    uncertainty bound sqrt((b_max'+1/2)(b_min'-1/2)) and keeps the rare
    rounding-edge rejects out.  Unlike the squeezed-thermal sampler this
    covers the whole standard-form family, including states no squeezed
    thermal parametrization reaches.  ``rng`` is any generator with
    ``random()`` and ``uniform(a, b)``, as for ``sample_sts``.
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


def _worst(quantity: str, closed, oracle, tol: float, relative: bool = False) -> OracleReport:
    """The report on the pair of ``closed`` and ``oracle`` elements that differs the most.

    The difference is taken relative to the oracle where ``relative``.  A
    pair whose difference is NaN, where a value is not finite, is the
    worst, and fails.
    """
    with np.errstate(invalid="ignore"):
        err = np.abs(closed - oracle)
        if relative:
            err = err / oracle
    i = int(np.argmax(err))  # the first NaN, where there is one
    return OracleReport(quantity, closed[i].item(), oracle[i].item(), err[i].item(), tol, bool(err[i] <= tol))


def run_verification(seed: int = 0) -> list[OracleReport]:
    """Run the closed-form-versus-oracle battery.

    The battery is fixed: 2,000 spectrum states for each spectrum check,
    200 entangled states whose death times are checked in two bath
    layouts, and 100 characteristic-function points.  Returns one
    aggregated OracleReport per checked quantity, each carrying the
    worst-agreeing pair observed over its random sample; a pair that is
    not finite is the worst.  Seeded, hence reproducible: every state is
    drawn from ``random.Random(seed)`` through ``random()`` and
    ``uniform(a, b)`` alone, whose sequences every Python version keeps.

    The spectra and the bisection run on stacks: the entries, the closed
    spectra and the eigen-oracle's matrices of all spectrum states, and the
    bisection of all death-time cases, are array passes in which each
    element keeps the bits of its scalar call: the scalar kernels run on
    the arrays through ``_batch.stack``, which hands a stack with a case
    that takes a branch or a refusal of its own whole to the scalar
    kernel, so the first refused case raises its own error.  The rejection
    samplers and the characteristic-function check run one state at a time.

    Raises:
        InvalidParameterError: if ``seed`` is negative.
    """
    if seed < 0:
        raise InvalidParameterError(f"the verification seed (verify --seed) must be >= 0, got {seed!r}")
    rng = Random(seed)
    reports: list[OracleReport] = []

    # Thermal-occupancy identity of the spectrum on the parametrized family.
    # Ranges are chosen so the identity is resolvable in double precision:
    # the stored standard form perturbs kappa_minus by O(n^2 e^{4r} eps).
    # Each row holds what sample_sts(rng, n_max=10.0, r_max=1.5) draws for
    # its state: n1, n2, r and the phase.
    draws = np.array([rng.random() for _ in range(4 * _SPECTRUM_SAMPLES)]).reshape(-1, 4)
    n1, n2, r = 10.0 * draws[:, 0], 10.0 * draws[:, 1], 1.5 * draws[:, 2]
    kp, km, _, _ = stack(_spectrum, *stack(_sts_entries, n1, n2, r))
    reports.append(_worst("kappa_plus = n_max + 1/2 (relative)", kp, np.maximum(n1, n2) + 0.5, 1e-12, relative=True))
    reports.append(_worst("kappa_minus = n_min + 1/2 (relative)", km, np.minimum(n1, n2) + 0.5, 1e-12, relative=True))

    # Closed-form spectra vs the eigen-decomposition oracle.  Comparison
    # states are assembled at phi = 0, where the covariance matrix holds
    # the standard-form entries exactly; phase invariance is checked
    # separately against the closed forms' phase-free outputs.  Every tenth
    # state comes from sample_standard_form; after it, nine rows hold what
    # sample_sts(rng, with_phase=False) draws for the next nine.
    n = _SPECTRUM_SAMPLES
    b1, b2, c = np.empty((3, n))
    draws = []
    for i in range(0, n, 10):
        sf = sample_standard_form(rng, with_phase=False)
        b1[i], b2[i], c[i] = sf.b1, sf.b2, sf.c
        draws += [rng.random() for _ in range(9 * 3)]
    draws = np.array(draws).reshape(-1, 3)
    sts = np.arange(n) % 10 != 0
    b1[sts], b2[sts], c[sts] = stack(_sts_entries, 20.0 * draws[:, 0], 20.0 * draws[:, 1], 3.0 * draws[:, 2])
    closed = stack(_spectrum, b1, b2, c)
    oracle = np.empty((4, n))
    cms = np.zeros((_ORACLE_BLOCK, 4, 4))
    cells = np.stack((b1, b1, b2, b2, c, c, -c, -c), axis=-1)
    for start in range(0, n, _ORACLE_BLOCK):
        stop = start + _ORACLE_BLOCK
        cms[:, _CM_PLACES[0], _CM_PLACES[1]] = cells[start:stop]
        oracle[:2, start:stop] = symplectic_spectrum_oracle(cms)
        oracle[2:, start:stop] = ppt_spectrum_oracle(cms)
    for name, x, y in zip(
        (
            "kappa_plus vs eigen-oracle",
            "kappa_minus vs eigen-oracle",
            "kappa_tilde_plus vs eigen-oracle",
            "kappa_tilde_minus vs eigen-oracle",
        ),
        closed,
        oracle,
    ):
        reports.append(_worst(name, x, y, 1e-10))

    # Closed-form death times vs bisection, identical baths and one bath
    # for each state; the bisection takes all cases at once.
    ts: list[float] = []
    rows = []
    for _ in range(_ESD_SAMPLES):
        sf = sample_entangled_sts(rng)
        gamma = rng.uniform(0.25, 2.0)
        n_r = rng.uniform(0.05, 1.5)
        ts += [esd_time_identical_baths(sf, gamma, n_r), esd_time_single_bath(sf, gamma, n_r)]
        rows += [(sf.b1, sf.b2, sf.c, gamma, n_r, gamma, n_r), (sf.b1, sf.b2, sf.c, gamma, n_r, 0.0, 0.0)]
    b1, b2, c, *res = np.array(rows).T
    (tb,) = stack(_bisection, b1, b2, c, *res)
    assert all(isinstance(t, float) for t in ts) and tb.dtype == float
    ts = np.array(ts)
    for k, name in enumerate(("identical-baths death time vs bisection", "single-bath death time vs bisection")):
        reports.append(_worst(name, ts[k::2], tb[k::2], 1e-9))

    # Evolved characteristic function vs characteristic function of the
    # evolved state: the two orders of applying the channel must agree.
    chi_channel: list[float] = []
    chi_state: list[float] = []
    for _ in range(_CF_SAMPLES):
        sf = standard_form_from_sts(sample_sts(rng, n_max=5.0, r_max=2.0))
        res = ReservoirConfig(
            rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.5)
        )
        t = rng.uniform(0.0, 3.0)
        lam1 = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        lam2 = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        chi_channel.append(characteristic_function(sf, res, t, lam1, lam2).real)
        chi_state.append(gaussian_cf(evolve(sf, res, t).sf, lam1, lam2).real)
    name = "evolved characteristic function vs evolved state"
    reports.append(_worst(name, np.array(chi_channel), np.array(chi_state), 1e-10))

    return reports
