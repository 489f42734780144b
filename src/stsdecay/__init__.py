"""Quantum correlations of two-mode squeezed thermal states and their decay.

The package computes, in closed form, the entanglement of formation, the
two Gaussian quantum discords and the mutual information of two-mode
squeezed thermal states; evolves those states exactly through local
thermal reservoirs; finds entanglement sudden-death times analytically
and, for two hot baths at unequal rates, as the root of the evolved
separability margin; and cross-checks every closed form and root against
independent numeric oracles.  The ``stsdecay`` command-line tool exposes the same
machinery for report generation, time series, death times and parameter
sweeps.
"""

import importlib

__version__ = "0.1.0"

# ``import stsdecay`` imports no submodule: each public name is imported on
# first access (PEP 562), from the module that defines it.  The namespace is
# the ``__all__`` of these modules, searched in this order; each imports
# only modules before it, so a name loads no module after its own.
_MODULES = ("errors", "core", "dynamics", "correlations")
# Submodules without a leading underscore.  They, and every name with one
# (``from . import _batch``), go straight to the import system, and
# never start the search.
_SUBMODULES = {*_MODULES, "cli", "verification"}
# The oracles need numpy, which the closed forms do not; their names are
# those of ``verification.__all__`` not in ``dynamics.__all__``.
_LAZY = {
    "OracleReport",
    "characteristic_function",
    "full_cm",
    "gaussian_cf",
    "ppt_spectrum_oracle",
    "run_verification",
    "sample_entangled_sts",
    "sample_standard_form",
    "sample_sts",
    "symplectic_spectrum_oracle",
}


def _module(short: str) -> object:
    return importlib.import_module(f"{__name__}.{short}")


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return _module(name)
    if name == "__all__":
        # The public API is each module's ``__all__``; no name is listed twice.
        value = [*(n for short in _MODULES for n in _module(short).__all__), *sorted(_LAZY), "__version__"]
    elif name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    elif name in _LAZY:
        value = getattr(_module("verification"), name)
    else:
        for short in _MODULES:
            module = _module(short)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
