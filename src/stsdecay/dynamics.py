"""Exact dissipative dynamics of two-mode states in local thermal reservoirs.

Each mode couples to its own Markovian thermal bath with damping rate
``gamma_i`` and mean occupancy ``n_ri``.  The evolved state stays Gaussian
and stays in standard form; its entries follow the closed expressions

    b_i(t) = b_i e^{-gamma_i t} + (n_ri + 1/2)(1 - e^{-gamma_i t})
    c(t)   = c e^{-(gamma_1 + gamma_2) t / 2}

so no differential equation is ever integrated.  On top of the evolution
this module provides the entanglement sudden-death time of every bath
layout, ``esd_time``: one root of the evolved margin's four-term sum, in
closed form at equal rates (the paper's identical and single baths among
them) and by Newton's method at unequal rates.  ``esd_bisection``, a
bisection over the doubles on the separability margin of the evolved
offsets b_i(t) - 1/2 (the map above with 1/2 taken out of both terms), is
the death-time oracle and answers no production query.  The evolved
characteristic function is an oracle cross-check and lives in
``verification``.
Every death-time route first passes one gate, in this order: no active
bath is refused, then a separable input (one message for every layout);
where no active bath is hot, the time is the ASYMPTOTIC_ONLY marker.
"""

from __future__ import annotations

import math
import sys

from ._accurate import finite, prod_diff
from .core import _BITS, _DOUBLE, StandardForm, _Floats, _offsets, _Record
from .errors import InvalidParameterError, NonPhysicalStateError, SeparableInputError

__all__ = [
    "ReservoirConfig",
    "EvolvedState",
    "AsymptoticOnly",
    "ASYMPTOTIC_ONLY",
    "evolve",
    "esd_time_identical_baths",
    "esd_time_single_bath",
    "esd_bisection",
    "esd_time",
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

    Construction checks the fields.  What it accepts along one field is an
    interval, so CLI ``sweep`` builds the record at the two ends only.
    """

    __match_args__ = ("gamma1", "n_r1", "gamma2", "n_r2")

    def __post_init__(self) -> None:
        gamma1, n_r1, gamma2, n_r2 = self.gamma1, self.n_r1, self.gamma2, self.n_r2
        if not finite(gamma1, n_r1, gamma2, n_r2):
            raise InvalidParameterError("ReservoirConfig fields must be finite numbers")
        if min(gamma1, n_r1, gamma2, n_r2) < 0.0:
            raise InvalidParameterError(
                "damping rates and reservoir occupancies must be >= 0, got "
                f"gamma1={gamma1!r}, n_r1={n_r1!r}, gamma2={gamma2!r}, n_r2={n_r2!r}"
            )

    @classmethod
    def identical(cls, gamma: float, n_r: float) -> ReservoirConfig:
        """Two identical baths: both modes damped at ``gamma`` into occupancy ``n_r``."""
        return cls(gamma, n_r, gamma, n_r)

    @classmethod
    def single_bath(cls, gamma: float, n_r: float) -> ReservoirConfig:
        """One bath on mode 1 only; mode 2 evolves freely."""
        return cls(gamma, n_r, 0.0, 0.0)


class EvolvedState(_Record):
    """A standard-form state tagged with the elapsed evolution time."""

    __match_args__ = ("t", "sf")


def _check_time(t: float) -> None:
    if not math.isfinite(t) or t < 0.0:
        raise InvalidParameterError(f"evolution time must be finite and >= 0, got {t!r}")


def _evolved_entries(sf0: StandardForm, res: ReservoirConfig, t, ops=_Floats):
    """(b1(t), b2(t), c(t)) without StandardForm overhead; elementwise in ``t``."""
    exp = ops.exp
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
    b1t, b2t, ct = _evolved_entries(sf0, res, t)
    return EvolvedState(t, StandardForm(b1t, b2t, ct, sf0.phi))


_MAX_TIME = sys.float_info.max
_MIN_NORMAL = sys.float_info.min
_OVERFLOW = (
    "death time overflows a double: the damping rate or reservoir occupancy "
    "is too small for a finite time"
)
_UNDERFLOW = "death time underflows a double: the damping rate or reservoir occupancy is too large"


def _finite_death_time(t: float) -> float:
    """``t``, refused where it overflowed a double or fell below its smallest normal value."""
    if not math.isfinite(t):
        raise InvalidParameterError(_OVERFLOW)
    if t < _MIN_NORMAL:
        raise InvalidParameterError(_UNDERFLOW)
    return t


def esd_time_identical_baths(
    sf0: StandardForm, gamma: float, n_r: float
) -> float | AsymptoticOnly:
    """Exact time at which two identical baths disentangle ``sf0``.

        t_s = (1/gamma) * ln(1 + (1/2 - kt_minus) / n_r)

    with kt_minus the smaller symplectic eigenvalue of the partially
    transposed input.  The time is the equal-rate root of ``esd_time``,
    whose ratio (1/2 - kt_minus)/n_r it equals: -margin divided by
    n_r*(kt_plus - 1/2), with the compensated separability margin, so it
    stays accurate when the input is barely entangled.

    ``esd_time`` of ``ReservoirConfig.identical(gamma, n_r)``, with its
    cases in its order: ASYMPTOTIC_ONLY for a zero-temperature bath (n_r = 0).

    Raises:
        InvalidParameterError: if ``gamma`` or ``n_r`` is negative or not
            finite (ReservoirConfig's check), if ``gamma`` is 0 (no active
            bath), or if the time overflows a double or lies below its
            smallest normal value.
        SeparableInputError: if ``sf0`` is already separable.
    """
    return esd_time(sf0, ReservoirConfig.identical(gamma, n_r))


def esd_time_single_bath(
    sf0: StandardForm, gamma: float, n_r: float
) -> float | AsymptoticOnly:
    """Exact time at which a single bath on mode 1 disentangles ``sf0``.

        t_s = (1/gamma) * ln( 1 - margin / (n_r * (b2 - 1/2)) )

    where margin = (b1 - 1/2)(b2 - 1/2) - c^2 < 0 for the entangled
    input.  For pure inputs this collapses to (1/gamma)*ln(1 + 1/n_r),
    independent of the squeezing strength.

    ``esd_time`` of ``ReservoirConfig.single_bath(gamma, n_r)``, with its
    cases in its order: ASYMPTOTIC_ONLY for n_r = 0.

    Raises:
        InvalidParameterError: if ``gamma`` or ``n_r`` is negative or not
            finite (ReservoirConfig's check), if ``gamma`` is 0 (no active
            bath), or if the time overflows a double or lies below its
            smallest normal value.
        SeparableInputError: if ``sf0`` is already separable.
        NonPhysicalStateError: if b2 = 1/2 (entangled inputs cannot reach
            this; the division is guarded rather than taken as a limit).
    """
    return esd_time(sf0, ReservoirConfig.single_bath(gamma, n_r))


def _margin_at(a1, a2, c, res, t, ops=_Floats):
    """Separability margin at ``t`` of the state of offsets ``a_i = b_i - 1/2`` (``core._offsets``) and cross block ``c``.

    ``res`` is ``(gamma1, n_r1, gamma2, n_r2)``.  With x_i = exp(-gamma_i t),
    the evolved offsets are A_i = a_i*x_i - n_ri*expm1(-gamma_i t):
    the evolution map with 1/2 taken out of both terms of b_i(t), so that
    a_i*x_i is never lost below the ulp of 1/2.  c(t)^2 is (c*x1)*(c*x2),
    and the margin A1*A2 - c(t)^2 takes one compensated rounding.
    Elementwise.
    """
    gamma1, n_r1, gamma2, n_r2 = res
    u1, u2 = -gamma1 * t, -gamma2 * t
    x1, x2 = ops.exp(u1), ops.exp(u2)
    return prod_diff(a1 * x1 - n_r1 * ops.expm1(u1), a2 * x2 - n_r2 * ops.expm1(u2), c * x1, c * x2)


# The bit patterns of the non-negative doubles, read as integers, are in
# the order of their values, from +0.0 (pattern 0) to +inf.
_INF_BITS = _BITS.unpack(_DOUBLE.pack(math.inf))[0]
# Dekker's product a*b = p + e is exact when the exponents of a and b
# (2^E_a <= |a| < 2^(E_a+1)) sum to at least -970: the last bit of the
# exact product, 2^(E_a+E_b-104), is then no finer than the smallest
# subnormal 2^-1074.  |a*b| < 2^(E_a+E_b+2), so a rounded product above
# 2^-969 meets that.  At the crossing A1*A2 is c(t)^2 to rounding, so the
# oracle tests c(t)^2 alone.
_DEKKER_MIN = 2.0**-969


def _crossing(a1, a2, c, res, ops=_Floats):
    """The first non-negative double at which ``_margin_at`` of ``(a1, a2, c)`` is >= 0; elementwise.

    The bit patterns from +0.0 to +inf are fewer than 2^63, so 63
    halvings narrow them to one; +inf where no finite double crosses.  The
    low end holds a time of negative margin, or +0.0, so a range one
    pattern wide (its middle is its low end) stays as it is wherever the
    margin at +0.0 is < 0: for every input that ``_gate`` passes.
    """
    lo, hi = 0, _INF_BITS
    for _ in range(63):
        mid = lo + (hi - lo) // 2  # lo + hi overflows an int64
        below = _margin_at(a1, a2, c, res, ops.double(mid), ops) < 0.0
        lo, hi = ops.select(below, mid, lo), ops.select(below, hi, mid)
    return ops.double(hi)


def esd_bisection(sf0: StandardForm, res: ReservoirConfig) -> float | AsymptoticOnly:
    """Disentanglement time found by bisection on the separability margin: the death-time oracle.

    ``_crossing`` bisects the bit patterns of the non-negative doubles
    from +0.0 to +inf, in 63 halvings, for the first double at which
    ``_margin_at``, the margin of the evolved offsets, is >= 0; the gate of
    ``esd_time``, in its order, decides before that double is answered
    (``_bisection_answer``).  It never consults the logarithms, the
    four-term sum or the roots that ``esd_time`` takes, so it cross-checks
    every bath layout.

    ASYMPTOTIC_ONLY when every damped mode sees a zero-temperature bath:
    the margin then scales by a positive factor for all finite times and
    never crosses zero.

    Raises:
        InvalidParameterError: if no mode is damped, if the margin changes
            sign at no finite double (the time overflows) or only below the
            smallest normal one, if the products of the margin at the
            answer are at most 2^-969, where Dekker's product is no longer
            exact (its terms underflow), or if the crossing lies below the
            time resolution of the entries (the fastest decay factor is
            within a few ulps of 1 there).
        SeparableInputError: if ``sf0`` is already separable, as ``esd_time``.
    """
    fields, (a1, a2, m) = res._fields(), _offsets(sf0.b1, sf0.b2, sf0.c)
    return _bisection_answer(m, sf0.c, fields, _crossing(a1, a2, sf0.c, fields))


def _bisection_answer(
    margin: float, c: float, res: tuple[float, float, float, float], t: float
) -> float | AsymptoticOnly:
    """What ``esd_bisection`` answers for entries of separability margin ``margin`` and crossing ``t`` (``_crossing``).

    ``_gate`` first, then ``t`` with its refusals: a time that overflows or
    falls below the smallest normal double, products of the margin at or
    below ``_DEKKER_MIN``, and a crossing below ``_EXP_RESOLUTION``.  The
    scalar oracle and the stacked one in ``verification`` share it.
    """
    if _gate(margin, res):
        return ASYMPTOTIC_ONLY
    t = _finite_death_time(t)
    gamma1, n_r1, gamma2, n_r2 = res
    if c * math.exp(-gamma1 * t) * (c * math.exp(-gamma2 * t)) <= _DEKKER_MIN:
        raise InvalidParameterError(_TERMS_UNDERFLOW.format(n_r1, n_r2))
    if -math.expm1(-max(gamma1, gamma2) * t) <= _EXP_RESOLUTION:
        raise InvalidParameterError(_UNRESOLVED)
    return t


def esd_time(sf0: StandardForm, res: ReservoirConfig) -> float | AsymptoticOnly:
    """Entanglement sudden-death time of ``sf0`` in the reservoirs ``res``.

    Every layout first passes one gate, in this order: no damped mode, a
    separable ``sf0``, then ASYMPTOTIC_ONLY where no active bath is hot.
    Then one root of the evolved margin's four-term sum answers it: in
    closed form at equal rates, by Newton's method in log t at unequal
    rates.  A cold or absent bath beside a hot one does not move the root
    (it only scales the margin by its own exp(-gamma t)), so one hot bath
    and identical baths give the paper's closed forms.  ``esd_bisection``
    is the independent oracle.

    Raises:
        InvalidParameterError: if no mode is damped, if the time overflows
            a double or lies below its smallest normal value, or if the
            terms of two hot baths' margin overflow a double or underflow
            before it crosses zero.
        SeparableInputError: if ``sf0`` is already separable (one message).
        NonPhysicalStateError: a single hot bath's other entry at 1/2.
    """
    return _death_time(*_offsets(sf0.b1, sf0.b2, sf0.c), res._fields())


_NO_BATH = "the reservoir has no active bath; nothing evolves"
_SEPARABLE = "input is already separable: no finite disentanglement time to compute"
_TERMS_OVERFLOW = "the terms of the evolved separability margin overflow a double (reservoir occupancies {!r} and {!r})"
_TERMS_UNDERFLOW = (
    "the terms of the evolved separability margin underflow a double before it crosses 0 "
    "(reservoir occupancies {!r} and {!r})"
)
_UNRESOLVED = "the separability crossing lies below the time resolution of the evolved entries"
# A crossing where the fastest decay factor exp(-gamma t) is within this of
# 1 is a rounding step of exp, not a property of the state.
_EXP_RESOLUTION = 4.0 * 2.0**-53
# The largest decay exponent gamma*t of the two-bath root: exp(-709) is
# already subnormal, and expm1 stays finite up to it.
_EXP_MAX = 709.0


def _death_time(a1: float, a2: float, m: float, res: tuple[float, float, float, float]) -> float | AsymptoticOnly:
    """Death time of a state of offsets ``a_i = b_i - 1/2`` and separability margin ``m``, as ``core._offsets`` gives them.

    The kernel of ``esd_time`` and of the closed-form functions, and of
    ``sweep``'s ts cells, which pass their row's offsets: ``res`` is
    ``(gamma1, n_r1, gamma2, n_r2)`` as ReservoirConfig admits them; the
    cross block c enters through ``m`` alone.  After ``_gate`` every layout
    takes ``_root``.  A cold or absent bath only scales the evolved margin
    by its own exp(-gamma t), so it does not move the root: it enters at
    the hot bath's rate with occupancy 0.
    """
    if _gate(m, res):
        return ASYMPTOTIC_ONLY
    gamma1, n_r1, gamma2, n_r2 = res
    if gamma1 == 0.0 or n_r1 == 0.0:
        res = (gamma2, 0.0, gamma2, n_r2)
    elif gamma2 == 0.0 or n_r2 == 0.0:
        res = (gamma1, n_r1, gamma1, 0.0)
    return _root(a1, a2, -m, res)


def _gate(margin: float, res: tuple[float, float, float, float]) -> bool:
    """The cases every death-time route shares, in their order; True where the time is ASYMPTOTIC_ONLY.

    No active bath is refused, then ``margin >= 0``; where no active bath
    is hot, the margin only scales by a positive factor, never to zero.
    """
    gamma1, n_r1, gamma2, n_r2 = res
    if gamma1 == 0.0 and gamma2 == 0.0:
        raise InvalidParameterError(_NO_BATH)
    if margin >= 0.0:
        raise SeparableInputError(_SEPARABLE)
    return (gamma1 == 0.0 or n_r1 == 0.0) and (gamma2 == 0.0 or n_r2 == 0.0)


def _root(a1: float, a2: float, neg: float, res: tuple[float, float, float, float]) -> float:
    """Death time from ``a_i = b_i - 1/2`` and ``neg = -margin > 0``, with at least one bath hot.

    With E_i = expm1(gamma_i t) and N_i = n_ri*E_i, the evolved margin is
    exp(-(gamma1 + gamma2) t) * (S - neg), S = a2*N1 + a1*N2 + N1*N2.  Each
    term of S is >= 0 and rises from 0, so S crosses neg once.  At equal
    rates S is quadratic in E, with the root E* = 2*neg/(B + hypot(B,
    2*sqrt(n_r1*n_r2*neg))), B = a2*n_r1 + a1*n_r2: neg/(n_r*(kt_plus -
    1/2)) for identical baths, neg/(a2*n_r1) beside a cold bath.  E* is of
    degree -1 in the occupancies, so it is taken on them scaled by 2^-k, k
    even, which is exact and commutes with sqrt and hypot.  Where E*
    overflows, log1p(E*) is 2*log(sqrt(E*_scaled)*2^(-k/2)); where it is
    subnormal, log1p(E*)/gamma is (E*_scaled*2^(-k/2)/gamma)*2^(-k/2), so
    no bit of E*_scaled is lost.  At unequal rates log(S/neg) is convex
    and increasing in s = log t (each E_i is log-convex in s, and so are
    sums and products of them), so Newton's method in s descends
    monotonically from any time above the root.  It starts at the least
    of: E* at the slower rate, each single-term root
    log1p(neg/(a_j*n_ri))/gamma_i, and ``_EXP_MAX``/gamma_max; it stops
    when a step no longer lowers t.  Below the single-term roots each term
    of S/neg is under 1, or under neg/(a1*a2) for N1*N2, so S stays finite.
    """
    gamma1, n_r1, gamma2, n_r2 = res
    k = math.frexp(n_r1 if n_r1 > n_r2 else n_r2)[1] & -2
    n1, n2 = math.ldexp(n_r1, -k), math.ldexp(n_r2, -k)
    b = a2 * n1 + a1 * n2
    den = b + math.hypot(b, 2.0 * math.sqrt(n1) * math.sqrt(n2) * math.sqrt(neg))
    if den <= 0.0:  # only beside a cold bath, whose mode's offset is then 0
        free = "b2" if n_r2 == 0.0 else "b1"
        raise NonPhysicalStateError(f"{free} = 1/2 with residual entanglement: degenerate denominator in the single-bath disentanglement time")
    if den == math.inf:
        raise InvalidParameterError(_TERMS_OVERFLOW.format(n_r1, n_r2))
    scaled = 2.0 * neg / den
    try:
        e_star = math.ldexp(scaled, -k)
    except OverflowError:
        if gamma1 == gamma2:
            return _finite_death_time(2.0 * math.log(math.ldexp(math.sqrt(scaled), -k // 2)) / gamma1)
        # E* beyond the largest double puts exp(-gamma t) below the smallest one.
        raise InvalidParameterError(_TERMS_UNDERFLOW.format(n_r1, n_r2)) from None
    if gamma1 == gamma2:
        if e_star < _MIN_NORMAL:
            return _finite_death_time(math.ldexp(math.ldexp(scaled, -k // 2) / gamma1, -k // 2))
        return _finite_death_time(math.log1p(e_star) / gamma1)
    limit = min(_EXP_MAX / max(gamma1, gamma2), _MAX_TIME)
    t = min(math.log1p(e_star) / min(gamma1, gamma2), limit)
    for a, n_r, gamma in ((a2, n_r1, gamma1), (a1, n_r2, gamma2)):
        if a > 0.0:
            t = min(t, math.log1p(neg / a / n_r) / gamma)
    while True:
        if t < _MIN_NORMAL:
            raise InvalidParameterError(_UNDERFLOW)
        u1, u2 = gamma1 * t, gamma2 * t
        m1, m2 = n_r1 * math.expm1(u1), n_r2 * math.expm1(u2)
        total = m1 * (a2 + m2) + a1 * m2
        if total < neg and t == limit:  # the root lies beyond the first bound
            if t == _MAX_TIME:
                raise InvalidParameterError(_OVERFLOW)
            raise InvalidParameterError(_TERMS_UNDERFLOW.format(n_r1, n_r2))
        # t * dS/dt; the Newton step in s is log(S/neg) / (t * dS/dt / S).
        slope = u1 * (n_r1 + m1) * (a2 + m2) + u2 * (n_r2 + m2) * (a1 + m1)
        if not total + slope < math.inf:
            raise InvalidParameterError(_TERMS_OVERFLOW.format(n_r1, n_r2))
        t_next = t * math.exp(-math.log(total / neg) * total / slope)
        if not t_next < t:
            return t
        t = t_next
