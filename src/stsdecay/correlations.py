"""Closed-form quantum correlations of two-mode squeezed thermal states.

Everything here reduces to the entropic function

    h(x) = (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2)

evaluated at standard-form entries and symplectic eigenvalues: the
entanglement of formation through its auxiliary parameter x_m, the two
Gaussian measurement discords, and the quantum mutual information.  All
results are in nats; unit conversion is a display concern left to callers.

Numerical notes.  The measures stay well conditioned only if the inputs to
``h`` are formed without cancellation, so internally ``h`` is evaluated on
the offset ``a = x - 1/2`` (fast-converging log1p form), and every offset
is produced by a compensated product difference.  Pure states get an exact
branch: their minus symplectic eigenvalue carries an unavoidable O(b^2 eps)
representation error, and pushing that through the log singularity of
``h`` near 1/2 would destroy the pure-state identities (EF = D1 = D2) that
this family satisfies.
"""

from __future__ import annotations

import math

from ._accurate import prod_diff
from .core import (
    StandardForm,
    _discriminant,
    _Floats,
    _h_offset,
    _is_pure,
    _kappas,
    _Record,
    _separability_margin,
    is_separable,
)
from .errors import InvalidParameterError, NonPhysicalStateError

__all__ = [
    "CorrelationReport",
    "entropic_h",
    "entanglement_of_formation",
    "discords",
    "mutual_information",
    "correlation_report",
]

# Discord/MI values in [-1e-10, 0) are rounding residue and clamp to zero;
# anything more negative indicates a genuinely broken input.
_NEG_CLAMP = 1e-10


class CorrelationReport(_Record):
    """All correlation measures of one state, computed consistently.

    Attributes:
        ef: entanglement of formation (nats); 0 exactly iff separable.
        d1: discord with Gaussian measurements on mode 2 (nats).
        d2: discord with Gaussian measurements on mode 1 (nats).
        mutual_information: quantum mutual information (nats).
        separable: PPT separability verdict.
        x_m: auxiliary parameter of the EF formula (>= 1/2).
        y: auxiliary parameter of d1, ``b1 - c^2/(b2 + 1/2)``.
        z: auxiliary parameter of d2, ``b2 - c^2/(b1 + 1/2)``.
        invariant_d: main symplectic invariant
            ``(b1 b2 - c^2)^2 - (b1^2 + b2^2 - 2 c^2)/4 + 1/16`` (>= 0).
    """

    __match_args__ = ("ef", "d1", "d2", "mutual_information", "separable", "x_m", "y", "z", "invariant_d")

    def __init__(
        self,
        ef: float,
        d1: float,
        d2: float,
        mutual_information: float,
        separable: bool,
        x_m: float,
        y: float,
        z: float,
        invariant_d: float,
    ) -> None:
        self.__dict__.update(
            ef=ef,
            d1=d1,
            d2=d2,
            mutual_information=mutual_information,
            separable=separable,
            x_m=x_m,
            y=y,
            z=z,
            invariant_d=invariant_d,
        )


def entropic_h(x: float) -> float:
    """Entropy h(x) of a thermal mode with symplectic eigenvalue ``x``.

    h(x) = (x+1/2) ln(x+1/2) - (x-1/2) ln(x-1/2), in nats, with
    h(1/2) = 0 by the usual 0*ln(0) = 0 convention.  Inputs within 1e-12
    below 1/2 are clamped to 1/2; anything lower is rejected.
    """
    if not math.isfinite(x) or x < 0.5 - 1e-12:
        raise InvalidParameterError(f"entropic_h requires x >= 1/2, got {x!r}")
    return _h_offset(x - 0.5)


def entanglement_of_formation(sf: StandardForm) -> tuple[float, float]:
    """Entanglement of formation of ``sf`` and its auxiliary parameter.

    Returns ``(ef, x_m)``.  Separable states return ``(0.0, 0.5)`` (the EF
    of a separable state is zero by definition).  Entangled states use

        D   = (b1 b2 - c^2)^2 - (b1^2 + b2^2 - 2c^2)/4 + 1/16
        x_m = [ (b1+b2)(b1 b2 - c^2 + 1/4) - 2 c sqrt(D) ] / [ (b1+b2)^2 - 4 c^2 ]
        ef  = h(x_m)

    with D evaluated in the equivalent product form
    (kappa_plus^2 - 1/4)(kappa_minus^2 - 1/4), which does not cancel.
    Pure states short-circuit to the exact identity ef = h(b), x_m = b.
    """
    # Separable states return at once.  The verdict also overrides the
    # pure-state branch here, unlike in the report: the two disagree only
    # where a near-pure state's margin is rounding noise (next to the
    # vacuum, or at extreme squeezing).
    if is_separable(sf):
        return 0.0, 0.5
    ef, _, _, _, _, x_m, _, _, _ = _measures(sf.b1, sf.b2, sf.c)
    return ef, x_m


def _clamp_measure(value: float, name: str, ops=_Floats) -> float:
    """Clamp tiny negative rounding residue of a measure to zero; elementwise.  NaN is refused."""
    if ops.branch(ops.not_(value >= -_NEG_CLAMP)):
        raise NonPhysicalStateError(f"{name} = {value!r} is negative beyond rounding tolerance")
    return ops.max(value, 0.0)


def discords(sf: StandardForm) -> tuple[float, float, float, float]:
    """Gaussian quantum discords of ``sf``.

    Returns ``(d1, d2, y, z)`` where

        y  = b1 - c^2/(b2 + 1/2)        z  = b2 - c^2/(b1 + 1/2)
        d1 = h(b2) - h(k+) - h(k-) + h(y)
        d2 = h(b1) - h(k+) - h(k-) + h(z)

    d1 is the discord extracted by Gaussian measurements on mode 2, d2 by
    measurements on mode 1.  For squeezed thermal states these Gaussian
    expressions are the exact discords.  Values in [-1e-10, 0) clamp to 0.

    Raises:
        NonPhysicalStateError: if y or z falls below 1/2 - 1e-9, which no
            bona fide input can produce.
    """
    rep = _measures(sf.b1, sf.b2, sf.c)
    return rep[1], rep[2], rep[6], rep[7]


def mutual_information(sf: StandardForm) -> float:
    """Quantum mutual information ``h(b1) + h(b2) - h(k+) - h(k-)`` in nats."""
    return _measures(sf.b1, sf.b2, sf.c)[3]


def correlation_report(sf: StandardForm) -> CorrelationReport:
    """Compute every correlation measure of ``sf`` in one consistent pass."""
    return CorrelationReport(*_measures(sf.b1, sf.b2, sf.c))


def _measures(
    b1: float, b2: float, c: float, margin: float | None = None, ops=_Floats
) -> tuple[float, float, float, float, bool, float, float, float, float]:
    """The fused kernel: every measure of the standard-form entries ``(b1, b2, c)``; elementwise.

    Returns the CorrelationReport fields in order (ef, d1, d2,
    mutual_information, separable, x_m, y, z, invariant_d).  Each shared
    scalar (separability margin, u = b1 b2 - c^2, the spectrum, the y/z
    offsets and every h value) is computed once; the public measures are
    projections of this tuple.  A caller that holds the separability
    margin already passes it as ``margin``.  The product (c = 0) and pure
    branches and the refusals are ``ops.branch`` cases (see
    ``core._Floats``): on arrays, a stack with an element that takes one
    is the scalar kernel's, and the rest is the general branch.
    """
    if ops.branch(c == 0.0):
        kp, km = max(b1, b2), min(b1, b2)
        inv_d = (kp - 0.5) * (kp + 0.5) * max((km - 0.5) * (km + 0.5), 0.0)
        return 0.0, 0.0, 0.0, 0.0, True, 0.5, b1, b2, inv_d
    separable = (_separability_margin(b1, b2, c) if margin is None else margin) >= 0.0
    u = prod_diff(b1, b2, c, c)
    if ops.branch(_is_pure(b1, b2, c, u)):
        b = 0.5 * (b1 + b2)
        hb = _h_offset(b - 0.5)
        return hb, hb, hb, 2.0 * hb, separable, b, 0.5, 0.5, 0.0
    delta = _discriminant(b1, b2, c, u, ops)
    kp, km = _kappas(b1, b2, u, delta, ops)
    if ops.branch(kp < 0.5):  # admitted by the construction slack; no measure exists
        raise NonPhysicalStateError(
            f"kappa_plus = {kp!r} < 1/2: not a physical two-mode state"
        )
    sqrt, max_, h = ops.sqrt, ops.max, ops.h
    mp = (kp - 0.5) * (kp + 0.5)
    mm = max_((km - 0.5) * (km + 0.5), 0.0)
    # The refusal of kp < 1/2 above keeps math.sqrt(mp) from raising.
    x_m = ops.select(separable, 0.5, max_(((b1 + b2) * (u + 0.25) - 2.0 * c * (sqrt(mp) * sqrt(mm))) / delta, 0.5))
    # Offsets y - 1/2 and z - 1/2 as compensated product differences:
    # y - 1/2 = [ (b1 - 1/2)(b2 + 1/2) - c^2 ] / (b2 + 1/2).  h maps the
    # negative residue of either to 0, as its clamp would.
    y_off = prod_diff(b1 - 0.5, b2 + 0.5, c, c) / (b2 + 0.5)
    z_off = prod_diff(b2 - 0.5, b1 + 0.5, c, c) / (b1 + 0.5)
    if ops.branch((y_off < -1e-9) | (z_off < -1e-9)):
        raise NonPhysicalStateError(
            f"discord auxiliaries below 1/2: y={0.5 + y_off!r}, z={0.5 + z_off!r}"
        )
    h1 = h(b1 - 0.5)
    h2 = h(b2 - 0.5)
    hkp = h(kp - 0.5)
    hkm = h(km - 0.5)
    hk = hkp + hkm
    d1 = _clamp_measure(h2 - hk + h(y_off), "d1", ops)
    d2 = _clamp_measure(h1 - hk + h(z_off), "d2", ops)
    mi = _clamp_measure(h1 + h2 - hkp - hkm, "mutual information", ops)
    return h(x_m - 0.5), d1, d2, mi, separable, x_m, 0.5 + max_(y_off, 0.0), 0.5 + max_(z_off, 0.0), mp * mm
