"""Higher-order Gumbel approximations for powered maxima |M_n|^t of
standard normal samples: norming constants, exact finite-n law, expansion
coefficients, convergence-rate measurement, and Monte Carlo validation.

Importing the package loads no submodule: each public name is imported
from its submodule on first access (PEP 562), so the norming constants and
the expansions run without numpy and scipy, which only the exact law, the
normal survival function and the Monte Carlo load.
"""
import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines
_EXPORTS = {
    "convergence_lab": (
        "CurveRow", "ErrorCurve", "HallCheck", "HallRow", "Scaling", "SlopeFit",
        "default_n_grid", "error_curve", "hall_limit_check", "naive_t2_constants",
        "rate_fit",
    ),
    "errors": (
        "DomainError", "InsufficientDataError", "InternalError", "PowexError",
        "ResourceError",
    ),
    "exact_law": ("exact_cdf", "exact_cdf_values", "exact_pdf"),
    "expansions": (
        "ApproxOrder", "Density", "ExpansionCoefficients", "cdf_approx", "coefficients",
        "pdf_approx",
    ),
    "montecarlo": ("KSResult", "SimSample", "ks_check", "simulate_block_maxima"),
    "norming": (
        "NormingConstants", "TransformedQuantile", "norming_constants", "solve_b",
        "transformed_quantile",
    ),
    "special_functions": (
        "Probability", "gumbel_cdf", "gumbel_pdf", "mills_series_bound",
        "mills_series_survival", "std_normal_pdf", "survival",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
