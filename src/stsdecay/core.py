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

# Absolute slack absorbed by all physicality checks.  A relative term
# (64 eps of the products involved) is added on top because the stored
# double-precision entries of a strongly squeezed pure state sit up to
# ~b^2*eps away from the exact uncertainty boundary, which dwarfs any
# fixed absolute allowance once b ~ e^{2r} is large.
_ABS_SLACK = 1e-12
_REL_SLACK = 64.0 * _EPS


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
        if not finite(self.n1, self.n2, self.r, self.phi):
            raise InvalidParameterError("StsParams fields must be finite numbers")
        if self.n1 < 0.0 or self.n2 < 0.0:
            raise InvalidParameterError(
                f"thermal occupancies must be >= 0, got n1={self.n1!r}, n2={self.n2!r}"
            )
        if self.r < 0.0:
            raise InvalidParameterError(f"squeeze parameter must be >= 0, got r={self.r!r}")
        self.__dict__["phi"] = _wrap_angle(self.phi)


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


def _bona_fide(b1: float, b2: float, c: float) -> tuple[float, float]:
    """Validate the standard-form entries ``(b1, b2, c)``, ``c >= 0``.

    This is the check of StandardForm construction, shared with code that
    works on bare entries: all three must be finite, variances up to the
    absolute slack below the vacuum value 1/2 clamp to it, and the
    uncertainty margin must not fall below the slack.  Returns the clamped
    ``(b1, b2)``.
    """
    if not (math.isfinite(b1) and math.isfinite(b2) and math.isfinite(c)):
        raise InvalidParameterError("StandardForm fields must be finite numbers")
    if b1 < 0.5 - _ABS_SLACK or b2 < 0.5 - _ABS_SLACK:
        raise NonPhysicalStateError(
            f"diagonal variances must be >= 1/2 (vacuum), got b1={b1!r}, b2={b2!r}"
        )
    b1 = max(b1, 0.5)
    b2 = max(b2, 0.5)
    hi, lo = (b1, b2) if b1 >= b2 else (b2, b1)
    margin = prod_diff(hi + 0.5, lo - 0.5, c, c)
    slack = max(_ABS_SLACK, _REL_SLACK * (hi * lo + c * c + 0.25))
    if margin < -slack:
        raise NonPhysicalStateError(
            "uncertainty inequality violated: "
            f"(b_max+1/2)(b_min-1/2) - c^2 = {margin!r} < 0 "
            f"for b1={b1!r}, b2={b2!r}, c={c!r}"
        )
    return b1, b2


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
    """
    ch = math.cosh(p.r)
    sh = math.sinh(p.r)
    a1 = p.n1 + 0.5
    a2 = p.n2 + 0.5
    b1 = a1 * ch * ch + a2 * sh * sh
    b2 = a1 * sh * sh + a2 * ch * ch
    c = (p.n1 + p.n2 + 1.0) * sh * ch
    return StandardForm(b1, b2, c, p.phi)


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
    """
    b1, b2, c = sf.b1, sf.b2, sf.c
    if c == 0.0:
        hi, lo = (b1, b2) if b1 >= b2 else (b2, b1)
        return SymplecticSpectrum(hi, lo, hi, lo)
    u = prod_diff(b1, b2, c, c)
    _, kp, km = _spectrum_scalars(b1, b2, c, u)
    ktp = 0.5 * ((b1 + b2) + math.hypot(b1 - b2, 2.0 * c))
    ktm = u / ktp
    return SymplecticSpectrum(kp, km, ktp, ktm)


def _spectrum_scalars(b1: float, b2: float, c: float, u: float) -> tuple[float, float, float]:
    """``(delta, kappa_plus, kappa_minus)`` of the entries ``(b1, b2, c)``.

    ``u`` is the compensated product ``b1*b2 - c^2``; ``delta`` is the
    compensated discriminant ``(b1+b2)^2 - 4c^2``.  kappa_minus comes from
    the eigenvalue product ``u = kappa_plus * kappa_minus`` rather than
    from the subtractive closed form.  This is the one place the spectrum
    is evaluated; the correlation kernel shares it.
    """
    delta = sum_sq_minus_4c2(b1, b2, c)
    if delta <= 0.0:
        raise NonPhysicalStateError(
            f"(b1+b2)^2 - 4c^2 = {delta!r} <= 0: not a physical two-mode state"
        )
    if u <= 0.0:
        raise NonPhysicalStateError(
            f"b1*b2 - c^2 = {u!r} <= 0: not a physical two-mode state"
        )
    kp = 0.5 * (math.sqrt(delta) + abs(b1 - b2))
    return delta, kp, u / kp


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
    return prod_diff(hi + 0.5, lo - 0.5, sf.c, sf.c)


def is_separable(sf: StandardForm) -> bool:
    """True iff ``sf`` is separable (PPT margin non-negative).

    Equivalent to ``kappa_tilde_minus >= 1/2``; the margin form is used
    because it stays accurate arbitrarily close to the threshold.
    """
    return separability_margin(sf) >= 0.0


def is_pure(sf: StandardForm, rtol: float = _REL_SLACK) -> bool:
    """True when ``sf`` is a two-mode squeezed vacuum up to rounding.

    Purity in standard form means ``b1 = b2`` and ``b1*b2 - c^2 = 1/4``.
    Both conditions are tested relative to the magnitudes involved: the
    stored entries of a squeezed vacuum constructed in double precision
    miss the exact relations by O(b^2 * eps), so any fixed absolute
    tolerance would misclassify strongly squeezed pure states.
    """
    b1, b2, c = sf.b1, sf.b2, sf.c
    return _is_pure(b1, b2, c, prod_diff(b1, b2, c, c), rtol)


def _is_pure(b1: float, b2: float, c: float, u: float, rtol: float = _REL_SLACK) -> bool:
    """``is_pure`` on bare entries, given ``u = b1*b2 - c^2`` (compensated)."""
    return abs(b1 - b2) <= rtol * (b1 + b2) and abs(u - 0.25) <= rtol * (b1 * b2 + c * c + 0.25)

