"""Two-mode Gaussian states in standard form and their symplectic spectra.

A two-mode squeezed thermal state is specified either by the physical
parameters ``(n1, n2, r, phi)`` — thermal occupancies of the two modes,
squeeze strength and squeeze phase — or directly by the standard-form
covariance-matrix entries ``(b1, b2, c, phi)``.  The covariance matrix is

    V = [[b1*I2, C], [C, b2*I2]],   C = c*[[cos(phi), sin(phi)],
                                           [sin(phi), -cos(phi)]],

with vacuum variance 1/2 (this convention is fixed package-wide and not
configurable).  All correlation and dynamics code in this package works on
the scalar triple ``(b1, b2, c)``; the full 4x4 matrix, ``full_cm``, lives
with the oracles in ``verification``, its only consumer.
"""

from __future__ import annotations

import math
import operator
import struct
import sys

from ._accurate import finite, prod_diff, sum_sq_minus_4c2
from .errors import InvalidParameterError, NonPhysicalStateError

__all__ = [
    "StsParams",
    "StandardForm",
    "SymplecticSpectrum",
    "standard_form_from_sts",
    "symplectic_spectrum",
    "separability_margin",
    "uncertainty_margin",
    "is_separable",
    "is_pure",
]

_EPS = sys.float_info.epsilon
# A double's bit pattern as a signed 64-bit integer, and the double.
_BITS, _DOUBLE = struct.Struct("<q"), struct.Struct("<d")

# Absolute slack absorbed by all physicality checks.  A relative term
# (64 eps of the products involved) is added on top because the stored
# double-precision entries of a strongly squeezed pure state sit up to
# ~b^2*eps away from the exact uncertainty boundary, which dwarfs any
# fixed absolute allowance once b ~ e^{2r} is large.
_ABS_SLACK = 1e-12
_REL_SLACK = 64.0 * _EPS


def _h_offset(a: float) -> float:
    """Entropic function evaluated at ``x = 1/2 + a`` for ``a >= 0``.

    Uses h(1/2 + a) = log1p(a) + a*log1p(1/a), which is accurate for both
    tiny and huge offsets; the direct two-logarithm form loses digits as
    a -> 0.  Non-positive offsets are rounding residue and map to 0.
    """
    if a <= 0.0:
        return 0.0
    return math.log1p(a) + a * math.log1p(1.0 / a)


class _Floats:
    """The elementwise operations of the kernels, on floats.

    Each kernel that takes ``ops`` runs on floats with this namespace, its
    default, and on float64 arrays with ``_batch._Arrays``, which has the
    same names: ``math``'s functions, Python's ``max`` and ``min`` of two,
    ``select`` (``a if cond else b``), ``not_``, ``h`` (``_h_offset``),
    ``double`` (the double of a bit pattern) and the hook ``branch``.
    ``branch(cond)`` is true where the element takes a branch or a refusal
    of its own, which the kernel then runs on floats; on arrays it raises
    instead where any element does, and the caller hands the whole stack
    to the scalar kernel.  So the checks, their messages and their order
    are written once, in the scalar kernel.
    """

    sqrt, hypot, exp, expm1 = math.sqrt, math.hypot, math.exp, math.expm1
    cosh, sinh, isfinite = math.cosh, math.sinh, math.isfinite
    not_, branch, h = operator.not_, operator.truth, _h_offset

    # max and min of two as the builtins pick them, in half their time.
    @staticmethod
    def max(a: float, b: float) -> float:
        return b if b > a else a

    @staticmethod
    def min(a: float, b: float) -> float:
        return b if b < a else a

    @staticmethod
    def select(cond: bool, a: float, b: float) -> float:
        return a if cond else b

    @staticmethod
    def double(bits: int) -> float:
        return _DOUBLE.unpack(_BITS.pack(bits))[0]


class _Record:
    """Base of the package's immutable value records.

    A subclass lists its fields, in order, as ``__match_args__`` and stores
    them in ``__init__`` through the instance ``__dict__``; assignment and
    deletion are refused afterwards.  A validating record checks (and
    normalizes) its fields in ``__post_init__``, which ``__init__`` calls
    last, so tools that wrap that hook keep seeing the check.

    ``repr``, ``==`` and ``hash`` are those of a frozen dataclass:
    ``Name(field=value, ...)``, equal only to an instance of the same class
    with equal fields, hashed as the tuple of the fields.  The instance
    ``__dict__`` is what ``copy``, ``deepcopy`` and ``pickle`` restore,
    without going through ``__setattr__``.  (With ``__slots__`` instead,
    they would restore through ``__setattr__`` and fail.)  The dataclass
    machinery itself is not used: importing ``dataclasses`` (which pulls in
    ``inspect``) and decorating the records cost each command-line call
    about 15 ms of start-up.
    """

    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple[object, ...]:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _wrap_angle(phi: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    w = math.remainder(phi, math.tau)
    return math.pi if w == -math.pi else w


class StsParams(_Record):
    """Physical parameters of a two-mode squeezed thermal state.

    Attributes:
        n1: mean thermal photon number of mode 1 (>= 0).
        n2: mean thermal photon number of mode 2 (>= 0).
        r: squeeze parameter (>= 0; 0 is admitted as the degenerate
            thermal-product case).
        phi: squeeze phase in radians, normalized to (-pi, pi].
    """

    __match_args__ = ("n1", "n2", "r", "phi")

    def __init__(self, n1: float, n2: float, r: float, phi: float = 0.0) -> None:
        self.__dict__.update(n1=n1, n2=n2, r=r, phi=phi)
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_sts(self.n1, self.n2, self.r, self.phi)
        self.__dict__["phi"] = _wrap_angle(self.phi)


def _check_sts(n1: float, n2: float, r: float, phi: float) -> None:
    """The check of StsParams construction, shared with code that works on bare parameters."""
    if not finite(n1, n2, r, phi):
        raise InvalidParameterError("StsParams fields must be finite numbers")
    if n1 < 0.0 or n2 < 0.0:
        raise InvalidParameterError(f"thermal occupancies must be >= 0, got n1={n1!r}, n2={n2!r}")
    if r < 0.0:
        raise InvalidParameterError(f"squeeze parameter must be >= 0, got r={r!r}")


class StandardForm(_Record):
    """Standard-form covariance-matrix entries of a two-mode Gaussian state.

    ``b1`` and ``b2`` are the diagonal variances of the two modes (>= 1/2,
    the vacuum value), ``c`` is the magnitude of the cross-mode block and
    ``phi`` its phase.  A negative ``c`` is normalized to ``c >= 0`` by
    absorbing the sign into ``phi -> phi + pi``.

    Construction validates the bona-fide (uncertainty) inequality

        (b_max + 1/2)*(b_min - 1/2) - c^2 >= 0

    with a small slack (1e-12 absolute plus a few ulps relative) so that
    states assembled from rounded parametrization round-trips are not
    spuriously rejected; genuine violations raise NonPhysicalStateError.
    """

    __match_args__ = ("b1", "b2", "c", "phi")

    def __init__(self, b1: float, b2: float, c: float, phi: float = 0.0) -> None:
        self.__dict__.update(b1=b1, b2=b2, c=c, phi=phi)
        self.__post_init__()

    def __post_init__(self) -> None:
        b1, b2, c, phi = self.b1, self.b2, self.c, self.phi
        if not math.isfinite(phi):
            raise InvalidParameterError("StandardForm fields must be finite numbers")
        if c < 0.0:
            c = -c
            phi = phi + math.pi
        b1, b2 = _bona_fide(b1, b2, c)
        self.__dict__.update(b1=b1, b2=b2, c=c, phi=_wrap_angle(phi))


def _bona_fide(b1: float, b2: float, c: float, ops=_Floats) -> tuple[float, float]:
    """Validate the standard-form entries ``(b1, b2, c)``, ``c >= 0``; elementwise.

    This is the check of StandardForm construction, shared with code that
    works on bare entries: all three must be finite, variances up to the
    absolute slack below the vacuum value 1/2 clamp to it, and the
    uncertainty margin must not fall below the slack.  A margin that is
    NaN (its products overflow a double) is refused as well.  Returns the
    clamped ``(b1, b2)``.
    """
    if ops.branch(ops.not_(ops.isfinite(b1) & ops.isfinite(b2) & ops.isfinite(c))):
        raise InvalidParameterError("StandardForm fields must be finite numbers")
    if ops.branch((b1 < 0.5 - _ABS_SLACK) | (b2 < 0.5 - _ABS_SLACK)):
        raise NonPhysicalStateError(
            f"diagonal variances must be >= 1/2 (vacuum), got b1={b1!r}, b2={b2!r}"
        )
    b1 = ops.max(b1, 0.5)
    b2 = ops.max(b2, 0.5)
    margin, slack = _uncertainty(ops.max(b1, b2), ops.min(b1, b2), c, ops)
    if ops.branch(ops.not_(margin >= -slack)):
        if math.isnan(margin):
            raise InvalidParameterError(
                f"(b_max+1/2)(b_min-1/2) - c^2 overflows a double for b1={b1!r}, b2={b2!r}, c={c!r}"
            )
        raise NonPhysicalStateError(
            "uncertainty inequality violated: "
            f"(b_max+1/2)(b_min-1/2) - c^2 = {margin!r} < 0 "
            f"for b1={b1!r}, b2={b2!r}, c={c!r}"
        )
    return b1, b2


def _uncertainty(hi, lo, c, ops=_Floats):
    """Margin ``(hi + 1/2)*(lo - 1/2) - c^2`` of clamped ``hi >= lo`` and its slack; elementwise."""
    return prod_diff(hi + 0.5, lo - 0.5, c, c), ops.max(_ABS_SLACK, _REL_SLACK * (hi * lo + c * c + 0.25))


class SymplecticSpectrum(_Record):
    """Symplectic eigenvalues of a two-mode state and of its partial transpose.

    ``kappa_plus >= kappa_minus >= 1/2`` for any physical state;
    ``kappa_tilde_minus < 1/2`` if and only if the state is entangled.
    """

    __match_args__ = ("kappa_plus", "kappa_minus", "kappa_tilde_plus", "kappa_tilde_minus")

    def __init__(
        self, kappa_plus: float, kappa_minus: float, kappa_tilde_plus: float, kappa_tilde_minus: float
    ) -> None:
        self.__dict__.update(
            kappa_plus=kappa_plus,
            kappa_minus=kappa_minus,
            kappa_tilde_plus=kappa_tilde_plus,
            kappa_tilde_minus=kappa_tilde_minus,
        )


def standard_form_from_sts(p: StsParams) -> StandardForm:
    """Standard-form covariance entries of the squeezed thermal state ``p``.

    Returns the triple

        b1 = (n1+1/2)*cosh(r)^2 + (n2+1/2)*sinh(r)^2
        b2 = (n1+1/2)*sinh(r)^2 + (n2+1/2)*cosh(r)^2
        c  = (n1+n2+1)*sinh(r)*cosh(r)

    with the phase carried through unchanged.  The output satisfies the
    uncertainty inequality by construction (up to rounding, which the
    StandardForm validation slack absorbs).

    Raises:
        InvalidParameterError: when ``sinh(r)*cosh(r)`` overflows a double
            (r above about 355.6), where no occupancies give finite entries,
            or where the given ones do not.
    """
    return StandardForm(*_sts_entries(p.n1, p.n2, p.r, *_cosh_sinh(p.r)), p.phi)


def _cosh_sinh(r: float, ops=_Floats) -> tuple[float, float]:
    """``(cosh r, sinh r)`` of an admissible squeeze parameter, refused where their product overflows a double; elementwise.

    ``c = (n1 + n2 + 1)*sinh(r)*cosh(r)`` is then infinite whatever the
    occupancies.
    """
    try:
        ch, sh = ops.cosh(r), ops.sinh(r)
    except OverflowError:
        ch = sh = math.inf
    if ops.branch(sh * ch == math.inf):
        raise InvalidParameterError(f"squeeze parameter r={r!r} is too large: sinh(r)*cosh(r) overflows a double")
    return ch, sh


def _sts_entries(n1: float, n2: float, r: float, ch: float, sh: float, ops=_Floats) -> tuple[float, float, float]:
    """``(b1, b2, c)`` of ``standard_form_from_sts``, given ``ch = cosh(r)`` and ``sh = sinh(r)``; elementwise.

    Checked as StandardForm checks them; entries that overflow a double
    (tested only once ``_bona_fide`` refuses them) are refused by name.
    """
    a1 = n1 + 0.5
    a2 = n2 + 0.5
    b1, b2, c = a1 * ch * ch + a2 * sh * sh, a1 * sh * sh + a2 * ch * ch, (n1 + n2 + 1.0) * sh * ch
    try:
        b1, b2 = _bona_fide(b1, b2, c, ops)
    except InvalidParameterError:
        if finite(b1, b2, c):
            raise
        raise InvalidParameterError(f"n1={n1!r}, n2={n2!r}, r={r!r} give covariance entries that overflow a double") from None
    return b1, b2, c


def symplectic_spectrum(sf: StandardForm) -> SymplecticSpectrum:
    """Closed-form symplectic spectra of ``sf`` and of its partial transpose.

        kappa_pm       = ( sqrt((b1+b2)^2 - 4c^2) +- |b1 - b2| ) / 2
        kappa_tilde_pm = ( (b1+b2) +- sqrt((b1-b2)^2 + 4c^2) ) / 2

    Both minus-branch values are evaluated as ``(b1*b2 - c^2) / plus_branch``
    instead of by subtraction: the two eigenvalue pairs share the product
    ``b1*b2 - c^2``, and the quotient form avoids the catastrophic
    cancellation that otherwise destroys kappa_minus for strongly squeezed
    states.  The discriminant and the product are computed with compensated
    arithmetic (see ``_accurate``).

    Raises:
        NonPhysicalStateError: when ``(b1+b2)^2 <= 4c^2`` or
            ``b1*b2 <= c^2``, which no bona fide state can reach.
        InvalidParameterError: when ``(b1+b2)^2 - 4c^2`` overflows a double.
    """
    return SymplecticSpectrum(*_spectrum(sf.b1, sf.b2, sf.c))


def _spectrum(b1: float, b2: float, c: float, ops=_Floats) -> tuple[float, float, float, float]:
    """``symplectic_spectrum`` on bare entries: ``(kappa_plus, kappa_minus, kappa_tilde_plus, kappa_tilde_minus)``; elementwise."""
    if ops.branch(c == 0.0):
        hi, lo = (b1, b2) if b1 >= b2 else (b2, b1)
        return hi, lo, hi, lo
    u = prod_diff(b1, b2, c, c)
    kp, km = _kappas(b1, b2, u, _discriminant(b1, b2, c, u, ops), ops)
    ktp = 0.5 * ((b1 + b2) + ops.hypot(b1 - b2, 2.0 * c))
    return kp, km, ktp, u / ktp


# Only entries that the construction admits through its relative slack
# reach the two refusals of _discriminant: they need a slack of 1/4 or
# more, so products near 1/eps.
_WITHIN_ROUNDING = "the double-precision entries satisfy the uncertainty inequality only within rounding"


def _discriminant(b1: float, b2: float, c: float, u: float, ops=_Floats) -> float:
    """The compensated ``delta = (b1+b2)^2 - 4c^2``, refused with ``u = b1*b2 - c^2`` unless both are positive; elementwise.

    A ``delta`` that overflows a double is refused too.
    """
    delta = sum_sq_minus_4c2(b1, b2, c)
    if ops.branch(delta <= 0.0):
        raise NonPhysicalStateError(
            f"(b1+b2)^2 - 4c^2 = {delta!r} <= 0: {_WITHIN_ROUNDING}"
        )
    if ops.branch(delta == math.inf):
        raise InvalidParameterError(
            f"(b1+b2)^2 - 4c^2 overflows a double for b1={b1!r}, b2={b2!r}, c={c!r}"
        )
    if ops.branch(u <= 0.0):
        raise NonPhysicalStateError(
            f"b1*b2 - c^2 = {u!r} <= 0: {_WITHIN_ROUNDING}"
        )
    return delta


def _kappas(b1, b2, u, delta, ops=_Floats):
    """``(kappa_plus, kappa_minus)`` from ``u = b1*b2 - c^2`` and ``delta``; elementwise.

    kappa_minus comes from the eigenvalue product ``u = kappa_plus *
    kappa_minus`` rather than from the subtractive closed form.  This is
    the one place the spectrum is evaluated; the correlation kernel shares it.
    """
    kp = 0.5 * (ops.sqrt(delta) + abs(b1 - b2))
    return kp, u / kp


def separability_margin(sf: StandardForm) -> float:
    """Signed separability margin ``(b1 - 1/2)*(b2 - 1/2) - c^2``.

    Negative exactly when the state is entangled.  Computed with one
    compensated rounding, so the sign is trustworthy even within a few
    ulps of the separability threshold.
    """
    return _separability_margin(sf.b1, sf.b2, sf.c)


def _separability_margin(b1: float, b2: float, c: float) -> float:
    """``separability_margin`` on bare entries."""
    return prod_diff(b1 - 0.5, b2 - 0.5, c, c)


def uncertainty_margin(sf: StandardForm) -> float:
    """Signed bona-fide margin ``(b_max + 1/2)*(b_min - 1/2) - c^2``.

    Non-negative (up to rounding) for every physical state; this is the
    quantity the StandardForm constructor checks.
    """
    hi, lo = (sf.b1, sf.b2) if sf.b1 >= sf.b2 else (sf.b2, sf.b1)
    return _uncertainty(hi, lo, sf.c)[0]


def is_separable(sf: StandardForm) -> bool:
    """True iff ``sf`` is separable (PPT margin non-negative).

    Equivalent to ``kappa_tilde_minus >= 1/2``; the margin form is used
    because it stays accurate arbitrarily close to the threshold.
    """
    return separability_margin(sf) >= 0.0


def is_pure(sf: StandardForm) -> bool:
    """True when ``sf`` is a two-mode squeezed vacuum up to rounding.

    Purity in standard form means ``b1 = b2`` and ``b1*b2 - c^2 = 1/4``.
    Both conditions are tested relative to the magnitudes involved: the
    stored entries of a squeezed vacuum constructed in double precision
    miss the exact relations by O(b^2 * eps), so any fixed absolute
    tolerance would misclassify strongly squeezed pure states.
    """
    b1, b2, c = sf.b1, sf.b2, sf.c
    return _is_pure(b1, b2, c, prod_diff(b1, b2, c, c))


def _is_pure(b1: float, b2: float, c: float, u: float) -> bool:
    """``is_pure`` on bare entries, given ``u = b1*b2 - c^2`` (compensated); elementwise on arrays."""
    return (abs(b1 - b2) <= _REL_SLACK * (b1 + b2)) & (abs(u - 0.25) <= _REL_SLACK * (b1 * b2 + c * c + 0.25))

