"""Exact dissipative dynamics of two-mode states in local thermal reservoirs.

Each mode couples to its own Markovian thermal bath with damping rate
``gamma_i`` and mean occupancy ``n_ri``.  The evolved state stays Gaussian
and stays in standard form; its entries follow the closed expressions

    b_i(t) = b_i e^{-gamma_i t} + (n_ri + 1/2)(1 - e^{-gamma_i t})
    c(t)   = c e^{-(gamma_1 + gamma_2) t / 2}

so no differential equation is ever integrated.  On top of the evolution
this module provides the steady states, the closed-form entanglement
sudden-death times for the two bath layouts that admit one (identical
baths, and a single bath on one mode), the bisection on the separability
margin that covers every other layout, and ``esd_time``, which picks the
route for a reservoir.  The evolved characteristic function is an oracle
cross-check and lives in ``verification``.
Zero-temperature baths never produce a finite death time; those queries
return the ASYMPTOTIC_ONLY marker instead of a number.
"""

from __future__ import annotations

import math
import sys

from ._accurate import finite, prod_diff
from .core import StandardForm, _Record, _separability_margin, separability_margin
from .errors import InvalidParameterError, NonPhysicalStateError, SeparableInputError

__all__ = [
    "ReservoirConfig",
    "EvolvedState",
    "AsymptoticOnly",
    "ASYMPTOTIC_ONLY",
    "evolve",
    "evolve_identical_baths",
    "esd_time_identical_baths",
    "esd_time_single_bath",
    "esd_bisection",
    "esd_time",
    "steady_state",
]


class AsymptoticOnly:
    """Marker result: entanglement decays only asymptotically.

    Returned (as the ASYMPTOTIC_ONLY singleton) by the sudden-death-time
    functions when every active bath has zero temperature, in which case
    the separability threshold is reached only as t -> infinity and no
    finite answer exists.  Deliberately not a float so that arithmetic on
    it fails loudly instead of propagating an infinity.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "ASYMPTOTIC_ONLY"


ASYMPTOTIC_ONLY = AsymptoticOnly()


class ReservoirConfig(_Record):
    """Local thermal reservoirs for the two modes.

    ``gamma1``/``gamma2`` are the damping rates (>= 0, inverse time) and
    ``n_r1``/``n_r2`` the reservoir mean occupancies (>= 0).  A rate of 0
    decouples that mode; both rates 0 is the trivial identity channel.
    """

    __match_args__ = ("gamma1", "n_r1", "gamma2", "n_r2")

    def __init__(self, gamma1: float, n_r1: float, gamma2: float, n_r2: float) -> None:
        self.__dict__.update(gamma1=gamma1, n_r1=n_r1, gamma2=gamma2, n_r2=n_r2)
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_reservoir(self.gamma1, self.n_r1, self.gamma2, self.n_r2)

    @classmethod
    def identical(cls, gamma: float, n_r: float) -> ReservoirConfig:
        """Two identical baths: both modes damped at ``gamma`` into occupancy ``n_r``."""
        return cls(gamma, n_r, gamma, n_r)

    @classmethod
    def single_bath(cls, gamma: float, n_r: float) -> ReservoirConfig:
        """One bath on mode 1 only; mode 2 evolves freely."""
        return cls(gamma, n_r, 0.0, 0.0)


def _check_reservoir(gamma1: float, n_r1: float, gamma2: float, n_r2: float) -> None:
    """The check of ReservoirConfig construction, shared with code that works on bare rates."""
    if not finite(gamma1, n_r1, gamma2, n_r2):
        raise InvalidParameterError("ReservoirConfig fields must be finite numbers")
    if min(gamma1, n_r1, gamma2, n_r2) < 0.0:
        raise InvalidParameterError(
            "damping rates and reservoir occupancies must be >= 0, got "
            f"gamma1={gamma1!r}, n_r1={n_r1!r}, gamma2={gamma2!r}, n_r2={n_r2!r}"
        )


class EvolvedState(_Record):
    """A standard-form state tagged with the elapsed evolution time."""

    __match_args__ = ("t", "sf")

    def __init__(self, t: float, sf: StandardForm) -> None:
        self.__dict__.update(t=t, sf=sf)


def _check_time(t: float) -> None:
    if not math.isfinite(t) or t < 0.0:
        raise InvalidParameterError(f"evolution time must be finite and >= 0, got {t!r}")


def _evolved_entries(sf0: StandardForm, res: ReservoirConfig, t, exp):
    """(b1(t), b2(t), c(t)) without StandardForm overhead; elementwise with the caller's ``exp``."""
    w1 = exp(-res.gamma1 * t)
    w2 = exp(-res.gamma2 * t)
    # Convex-combination form: exact at t = 0 (weights are exactly 1) and
    # exact in the t -> infinity limit (weights are exactly 0).
    b1t = sf0.b1 * w1 + (res.n_r1 + 0.5) * (1.0 - w1)
    b2t = sf0.b2 * w2 + (res.n_r2 + 0.5) * (1.0 - w2)
    ct = sf0.c * exp(-0.5 * (res.gamma1 + res.gamma2) * t)
    return b1t, b2t, ct


def evolve(sf0: StandardForm, res: ReservoirConfig, t: float) -> EvolvedState:
    """State after damping ``sf0`` in the reservoirs ``res`` for time ``t``.

    At t = 0 the input is returned unchanged; the phase never evolves.
    The channel is physical, so the output always satisfies the
    uncertainty inequality.

    Raises:
        InvalidParameterError: for negative or non-finite ``t``.
    """
    _check_time(t)
    b1t, b2t, ct = _evolved_entries(sf0, res, t, math.exp)
    return EvolvedState(t, StandardForm(b1t, b2t, ct, sf0.phi))


def evolve_identical_baths(
    sf0: StandardForm, gamma: float, n_r: float, t: float
) -> EvolvedState:
    """Damp both modes in identical baths ``(gamma, n_r)`` for time ``t``.

    Equivalent to the full covariance-matrix contraction
    V(t) = e^{-gamma t} V(0) + (n_r + 1/2)(1 - e^{-gamma t}) I_4;
    a symmetric input (b1 = b2) therefore stays symmetric exactly.
    """
    return evolve(sf0, ReservoirConfig.identical(gamma, n_r), t)


def _check_rates(gamma: float, n_r: float) -> None:
    if not finite(gamma, n_r) or gamma <= 0.0 or n_r < 0.0:
        raise InvalidParameterError(
            f"need damping rate > 0 and reservoir occupancy >= 0, got gamma={gamma!r}, n_r={n_r!r}"
        )


_MAX_TIME = sys.float_info.max
_MIN_NORMAL = sys.float_info.min
_OVERFLOW = (
    "death time overflows a double: the damping rate or reservoir occupancy "
    "is too small for a finite time"
)


def _finite_death_time(t: float) -> float:
    """``t``, refused when it overflowed a double (a tiny rate or occupancy)."""
    if not math.isfinite(t):
        raise InvalidParameterError(_OVERFLOW)
    return t


def _ktp_off(b1: float, b2: float, c: float) -> float:
    """kt_plus - 1/2 of the entries, assembled from non-negative terms only."""
    return 0.5 * ((b1 - 0.5) + (b2 - 0.5) + math.hypot(b1 - b2, 2.0 * c))


def _closed_form_time(margin: float, gamma: float, n_r: float, den: float, free: str = "b2") -> float | AsymptoticOnly:
    """``log1p(-margin / (den * n_r)) / gamma``, the form of both closed-form death times.

    Checks and markers as the two public functions document them; ``free``
    names the entry of a single bath's undamped mode, whose offset from
    1/2 is ``den``.  Where
    ``den * n_r`` is subnormal, the ratio is ``(-margin / den) / n_r``.
    Where the ratio overflows, or ``den * n_r`` underflows to 0 (a
    subnormal ``n_r``), the time is taken as ``(log(-margin) - log(den) -
    log(n_r)) / gamma``: the 1 of log1p lies far below the last bit of
    such a ratio.
    """
    if margin >= 0.0:
        raise SeparableInputError(
            "input is already separable: no finite disentanglement time to compute"
        )
    if n_r == 0.0:
        return ASYMPTOTIC_ONLY
    if den <= 0.0:  # only a single bath's free-mode offset can reach 0 while entangled
        raise NonPhysicalStateError(
            f"{free} = 1/2 with residual entanglement: degenerate denominator in the "
            "single-bath disentanglement time"
        )
    prod = den * n_r
    if prod >= _MIN_NORMAL:
        ratio = -margin / prod
    elif prod > 0.0:  # a subnormal product has lost bits; divide twice instead
        ratio = (-margin / den) / n_r
    else:
        ratio = math.inf
    if ratio == math.inf:
        return _finite_death_time((math.log(-margin) - math.log(den) - math.log(n_r)) / gamma)
    return _finite_death_time(math.log1p(ratio) / gamma)


def esd_time_identical_baths(
    sf0: StandardForm, gamma: float, n_r: float
) -> float | AsymptoticOnly:
    """Exact time at which two identical baths disentangle ``sf0``.

        t_s = (1/gamma) * ln(1 + (1/2 - kt_minus) / n_r)

    with kt_minus the smaller symplectic eigenvalue of the partially
    transposed input.  Internally the numerator is evaluated as
    -margin / (kt_plus - 1/2) on the compensated separability margin,
    which stays accurate when the input is barely entangled; the offset
    kt_plus - 1/2 is assembled from non-negative terms only.

    Returns ASYMPTOTIC_ONLY for a zero-temperature bath (n_r = 0).

    Raises:
        SeparableInputError: if ``sf0`` is already separable.
        InvalidParameterError: if the time overflows a double.
    """
    _check_rates(gamma, n_r)
    return _death_time(sf0.b1, sf0.b2, sf0.c, separability_margin(sf0), (gamma, n_r, gamma, n_r))


def esd_time_single_bath(
    sf0: StandardForm, gamma: float, n_r: float
) -> float | AsymptoticOnly:
    """Exact time at which a single bath on mode 1 disentangles ``sf0``.

        t_s = (1/gamma) * ln( 1 - margin / (n_r * (b2 - 1/2)) )

    where margin = (b1 - 1/2)(b2 - 1/2) - c^2 < 0 for the entangled
    input.  For pure inputs this collapses to (1/gamma)*ln(1 + 1/n_r),
    independent of the squeezing strength.

    Returns ASYMPTOTIC_ONLY for n_r = 0.

    Raises:
        SeparableInputError: if ``sf0`` is already separable.
        NonPhysicalStateError: if b2 = 1/2 (entangled inputs cannot reach
            this; the division is guarded rather than taken as a limit).
        InvalidParameterError: if the time overflows a double.
    """
    _check_rates(gamma, n_r)
    return _death_time(sf0.b1, sf0.b2, sf0.c, separability_margin(sf0), (gamma, n_r, 0.0, 0.0))


def _margin_at(sf0: StandardForm, res: ReservoirConfig, t: float) -> float:
    """Separability margin of the evolved state, without object overhead."""
    return _separability_margin(*_evolved_entries(sf0, res, t, math.exp))


# Bounds of the sign test in ``_margin_is_negative``, and the largest
# operand whose Dekker split (2**27 + 1 times it) cannot overflow.
_SIGN_TINY = 2.0**-900
_SIGN_HUGE = 2.0**900
_SIGN_REL = 2.0**-50
_SPLIT_SAFE = 2.0**996


def _margin_is_negative(x: float, y: float, c: float) -> bool:
    """``prod_diff(x, y, c, c) < 0.0``, mostly without calling ``prod_diff``.

    Dekker's split of ``x`` and ``y`` must not overflow: ``(2**27 + 1) * x``
    and ``(2**27 + 1) * y`` are finite, as they are for ``|x|, |y| <= 2**996``.

    ``prod_diff`` returns ``s + (t + (e1 - e2))`` on ``p1 = x*y``,
    ``p2 = c*c`` and ``s = p1 - p2``, formed here in the same way.  Let
    ``m = |p1| + p2`` with ``2**-900 < m < 2**900`` and ``|s| > 2**-50 m``,
    so ``|s| > 2**-950``.  No other split overflows (``c < 2**450``).  Where
    ``|p1|`` (``p2``) is at least 2**-960, Dekker's product error ``e1``
    (``e2``) is exact and at most ``2**-53 |p1|``; below that it may be
    inexact, but its terms are small multiples of ``|p1| < 2**-960``, so it
    stays under ``2**-955 < 2**-5 |s|``, and only one of the two products
    can be that small.  The two-sum error ``t`` is exact and at most
    ``2**-53 |s|``.  The correction ``t + (e1 - e2)`` is therefore at most
    ``(2**-53 + 2**-3 + 2**-5) |s|`` before its two roundings, below
    ``|s|/4``: the exact sum of ``s`` and the correction has the sign of
    ``s`` and a size above ``3|s|/4``, and round-to-nearest keeps that
    sign and does not reach 0.  ``abs(p1)``, because ``x = b1(t) - 1/2``
    can round slightly negative.  Every other triple goes to ``prod_diff``.
    """
    p1 = x * y
    p2 = c * c
    s = p1 - p2
    m = abs(p1) + p2
    if _SIGN_TINY < m < _SIGN_HUGE and abs(s) > _SIGN_REL * m:
        return s < 0.0
    return prod_diff(x, y, c, c) < 0.0


def _prod_diff_is_negative(x: float, y: float, c: float) -> bool:
    """``prod_diff(x, y, c, c) < 0.0`` for entries beyond the range of ``_margin_is_negative``."""
    return prod_diff(x, y, c, c) < 0.0


def esd_bisection(
    sf0: StandardForm, res: ReservoirConfig, t_tol: float = 1e-12
) -> float | AsymptoticOnly:
    """Disentanglement time found by bisection on the separability margin.

    Brackets the sign change of margin(t) = (b1(t)-1/2)(b2(t)-1/2)-c(t)^2
    starting from twice the analytic estimate (with the reservoir
    occupancy floored at 1e-6), doubling on failure, then bisects until
    the bracket is narrower than ``t_tol``.  The closed-form death times
    are never consulted, so the result is a genuine cross-check for them,
    and it answers for every bath layout, including two baths that differ
    in rate or temperature.

    A bisection step needs only the sign of the margin.  It evolves the
    entries as ``evolve`` does, with the constants of the reservoir
    computed once per call, and takes the sign of the rounded difference
    ``x*y - c^2`` of the two products whenever that difference is so far
    from the products' rounding errors that the compensated margin must
    share it; only the remaining steps compute the compensated margin.
    Every step decides as the compensated margin does, so each midpoint,
    and the result, is the same bit for bit.

    Returns ASYMPTOTIC_ONLY when every damped mode sees a zero-temperature
    bath: the margin then scales by a positive factor for all finite
    times and never crosses zero.

    Raises:
        InvalidParameterError: if no mode is damped, if the time overflows
            a double, or if the entries cannot resolve the crossing: every
            hot occupancy is lost in ``n_r + 1/2``, or the crossing lies
            below their time resolution (the fastest decay factor is
            within a few ulps of 1 there).
        SeparableInputError: if ``sf0`` is already separable.
    """
    return _bisection_death_time(sf0.b1, sf0.b2, sf0.c, separability_margin(sf0), res._fields(), t_tol)


def esd_time(sf0: StandardForm, res: ReservoirConfig) -> float | AsymptoticOnly:
    """Entanglement sudden-death time of ``sf0`` in the reservoirs ``res``.

    Identical baths and a single bath (on either mode) are answered in
    closed form; two baths that differ in rate or temperature fall back to
    ``esd_bisection``.  Returns ASYMPTOTIC_ONLY when no active bath is hot.

    Raises:
        InvalidParameterError: if no mode is damped, if the time overflows
            a double, or where ``esd_bisection`` cannot resolve the time.
        SeparableInputError: if ``sf0`` is already separable.
    """
    return _death_time(sf0.b1, sf0.b2, sf0.c, separability_margin(sf0), res._fields())


_NO_BATH = "the reservoir has no active bath; nothing evolves"
_UNRESOLVED = "the separability crossing lies below the time resolution of the evolved entries"
# A crossing where the fastest decay factor exp(-gamma t) is within this of
# 1 is a rounding step of exp, not a property of the state.
_EXP_RESOLUTION = 4.0 * 2.0**-53


def _death_time(
    b1: float, b2: float, c: float, margin: float, res: tuple[float, float, float, float]
) -> float | AsymptoticOnly:
    """Death time of the entries ``(b1, b2, c)``, whose separability margin is ``margin``.

    The kernel of ``esd_time`` and of the closed-form functions, on bare
    floats: ``res`` is ``(gamma1, n_r1, gamma2, n_r2)`` as ReservoirConfig
    admits them.  The closed form where one exists, else bisection; the
    checks, markers and errors are those the public functions document,
    in their order.
    """
    t = _closed_form_death_time(b1, b2, c, margin, res)
    return _bisection_death_time(b1, b2, c, margin, res) if t is None else t


def _closed_form_death_time(
    b1: float, b2: float, c: float, margin: float, res: tuple[float, float, float, float]
) -> float | AsymptoticOnly | None:
    """The closed-form death time of ``_death_time``, or None for two baths that differ in rate or temperature.

    A reservoir with no active bath is refused here, before any closed form.
    """
    gamma1, n_r1, gamma2, n_r2 = res
    if gamma1 > 0.0 and gamma2 > 0.0:
        if gamma1 == gamma2 and n_r1 == n_r2:
            return _closed_form_time(margin, gamma1, n_r1, _ktp_off(b1, b2, c))
        return None
    if gamma1 > 0.0:
        return _closed_form_time(margin, gamma1, n_r1, b2 - 0.5)
    if gamma2 > 0.0:
        # Bath on mode 2 only: the single-bath formula with the modes
        # relabeled.  The margin is symmetric in them (prod_diff is, under
        # a <-> b), so only the denominator changes.
        return _closed_form_time(margin, gamma2, n_r2, b1 - 0.5, "b1")
    raise InvalidParameterError(_NO_BATH)


def _bisection_death_time(
    b1: float, b2: float, c: float, margin: float, res: tuple[float, float, float, float], t_tol: float = 1e-12
) -> float | AsymptoticOnly:
    """The death time of ``_death_time`` by bisection to ``t_tol``, for every layout (``esd_bisection``)."""
    gamma1, n_r1, gamma2, n_r2 = res
    if gamma1 == 0.0 and gamma2 == 0.0:
        raise InvalidParameterError(_NO_BATH)
    if margin >= 0.0:
        raise SeparableInputError(
            "input is already separable: no disentanglement time to bracket"
        )
    hot = [n_r for gamma, n_r in ((gamma1, n_r1), (gamma2, n_r2)) if gamma > 0.0 and n_r > 0.0]
    if not hot:
        return ASYMPTOTIC_ONLY
    n_r_eff = max(hot)
    if n_r_eff + 0.5 == 0.5:  # the entries decay as in a cold bath: their margin only underflows
        raise InvalidParameterError(
            f"reservoir occupancy {n_r_eff!r} is lost in n_r + 1/2 in double "
            "precision: bisection cannot resolve the death time"
        )
    # Each time evolves the entries with the operations of _evolved_entries
    # in their order, the reservoir's constants hoisted.
    k1, k2, kc = -gamma1, -gamma2, -0.5 * (gamma1 + gamma2)
    h1, h2 = n_r1 + 0.5, n_r2 + 0.5
    exp = math.exp
    # Analytic scale for the bracket: the identical-bath expression with
    # conservative (slow) rate and noise choices, then doubled.
    gamma_eff = min(g for g in (gamma1, gamma2) if g > 0.0)
    # The bracket is capped at the largest double: a death time beyond it
    # is refused, and one below it is bracketed even when the estimate
    # overflows (a tiny rate on one mode, a finite time set by the other).
    t_hi = min(2.0 * math.log1p(-margin / (_ktp_off(b1, b2, c) * max(n_r_eff, 1e-6))) / gamma_eff, _MAX_TIME)
    for _ in range(200):
        w1, w2 = exp(k1 * t_hi), exp(k2 * t_hi)
        if _separability_margin(b1 * w1 + h1 * (1.0 - w1), b2 * w2 + h2 * (1.0 - w2), c * exp(kc * t_hi)) >= 0.0:
            break
        if t_hi == _MAX_TIME:
            raise InvalidParameterError(_OVERFLOW)
        t_hi = min(2.0 * t_hi, _MAX_TIME)
    else:
        raise InvalidParameterError(_UNRESOLVED)
    one_rate = k1 == k2 == kc  # equal rates: the three exponentials are one
    # Entries between the initial and the reservoir values stay in the
    # sign test's range; above it every step takes the compensated margin.
    negative = _margin_is_negative if max(b1, b2, h1, h2) <= _SPLIT_SAFE else _prod_diff_is_negative
    t_lo = 0.0
    # Halves are added: t_lo + t_hi can overflow once the bracket nears the cap.
    while t_hi - t_lo > t_tol:
        t_mid = 0.5 * t_lo + 0.5 * t_hi
        if t_mid <= t_lo or t_mid >= t_hi:
            break  # bracket has collapsed to adjacent floats
        w1 = exp(k1 * t_mid)
        if one_rate:
            w2 = wc = w1
        else:
            w2 = exp(k2 * t_mid)
            wc = exp(kc * t_mid)
        ct = c * wc
        if negative(b1 * w1 + h1 * (1.0 - w1) - 0.5, b2 * w2 + h2 * (1.0 - w2) - 0.5, ct):
            t_lo = t_mid
        else:
            t_hi = t_mid
    t = _finite_death_time(0.5 * t_lo + 0.5 * t_hi)
    if -math.expm1(-max(gamma1, gamma2) * t) <= _EXP_RESOLUTION:
        raise InvalidParameterError(_UNRESOLVED)
    return t


def steady_state(res: ReservoirConfig, sf0: StandardForm) -> StandardForm:
    """Asymptotic (t -> infinity) state of ``sf0`` under ``res``.

    With both baths active the state relaxes to the product of the two
    reservoir thermal states, b_i = n_ri + 1/2 with no cross block.  With
    a single active bath, the free mode keeps its initial variance.  The
    result is always a product state, hence has zero discord and zero
    entanglement.

    Raises:
        InvalidParameterError: when both damping rates are 0 (nothing
            relaxes, no steady state exists).
    """
    if res.gamma1 == 0.0 and res.gamma2 == 0.0:
        raise InvalidParameterError("steady state undefined for the identity channel")
    b1 = res.n_r1 + 0.5 if res.gamma1 > 0.0 else sf0.b1
    b2 = res.n_r2 + 0.5 if res.gamma2 > 0.0 else sf0.b2
    return StandardForm(b1, b2, 0.0, sf0.phi)

