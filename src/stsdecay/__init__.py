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

from . import core, correlations, dynamics, errors
from .core import *
from .correlations import *
from .dynamics import *
from .errors import *

# The oracles need numpy, which the closed forms do not; they are imported
# on first access (PEP 562), so ``import stsdecay`` does not load numpy.
# These are the names of ``verification.__all__`` not in ``dynamics.__all__``.
_LAZY = {
    "OracleReport",
    "characteristic_function",
    "count_margin_crossings",
    "full_cm",
    "gaussian_cf",
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

# The public API is each module's ``__all__``; no name is listed twice.
__all__ = [*core.__all__, *correlations.__all__, *dynamics.__all__, *sorted(_LAZY), *errors.__all__, "__version__"]
