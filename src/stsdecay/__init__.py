"""Quantum correlations of two-mode squeezed thermal states and their decay.

The package computes, in closed form, the entanglement of formation, the
two Gaussian quantum discords and the mutual information of two-mode
squeezed thermal states; evolves those states exactly through local
thermal reservoirs; finds entanglement sudden-death times analytically
and by bisection; and cross-checks every closed form against independent
numeric oracles.  The ``stsdecay`` command-line tool exposes the same
machinery for report generation, time series, death times and parameter
sweeps.
"""

from .core import (
    StandardForm,
    StsParams,
    SymplecticSpectrum,
    full_cm,
    is_pure,
    is_separable,
    separability_margin,
    standard_form_from_sts,
    symplectic_spectrum,
    uncertainty_margin,
)
from .correlations import (
    CorrelationReport,
    correlation_report,
    discords,
    entanglement_of_formation,
    entropic_h,
    mutual_information,
)
from .dynamics import (
    ASYMPTOTIC_ONLY,
    AsymptoticOnly,
    EvolvedState,
    ReservoirConfig,
    characteristic_function,
    esd_bisection,
    esd_time,
    esd_time_identical_baths,
    esd_time_single_bath,
    evolve,
    evolve_identical_baths,
    gaussian_cf,
    steady_state,
)
from .errors import (
    InvalidParameterError,
    NonPhysicalStateError,
    OraclePrecisionError,
    SeparableInputError,
)

# The oracles need numpy, which the closed forms do not; they are imported
# on first access (PEP 562), so ``import stsdecay`` does not load numpy.
_LAZY = {
    "OracleReport",
    "count_margin_crossings",
    "ppt_spectrum_oracle",
    "run_verification",
    "sample_entangled_sts",
    "sample_standard_form",
    "sample_sts",
    "symplectic_spectrum_oracle",
}


def __getattr__(name: str) -> object:
    if name in _LAZY:
        from . import verification

        return getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

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
    "full_cm",
    "CorrelationReport",
    "entropic_h",
    "entanglement_of_formation",
    "discords",
    "mutual_information",
    "correlation_report",
    "ReservoirConfig",
    "EvolvedState",
    "AsymptoticOnly",
    "ASYMPTOTIC_ONLY",
    "evolve",
    "evolve_identical_baths",
    "esd_time_identical_baths",
    "esd_time_single_bath",
    "esd_time",
    "steady_state",
    "characteristic_function",
    "gaussian_cf",
    "OracleReport",
    "symplectic_spectrum_oracle",
    "ppt_spectrum_oracle",
    "esd_bisection",
    "count_margin_crossings",
    "sample_sts",
    "sample_entangled_sts",
    "sample_standard_form",
    "run_verification",
    "InvalidParameterError",
    "NonPhysicalStateError",
    "SeparableInputError",
    "OraclePrecisionError",
    "__version__",
]
