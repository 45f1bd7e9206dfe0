"""Higher-order Gumbel approximations for powered maxima |M_n|^t of
standard normal samples: norming constants, exact finite-n law, expansion
coefficients, convergence-rate measurement, and Monte Carlo validation.
"""
from .convergence_lab import (
    CurveRow,
    ErrorCurve,
    HallCheck,
    HallRow,
    Scaling,
    SlopeFit,
    default_n_grid,
    error_curve,
    hall_limit_check,
    naive_t2_constants,
    rate_fit,
)
from .errors import (
    DomainError,
    InsufficientDataError,
    InternalError,
    PowexError,
    ResourceError,
)
from .exact_law import exact_cdf, exact_cdf_values, exact_pdf
from .expansions import (
    ApproxOrder,
    Density,
    ExpansionCoefficients,
    cdf_approx,
    coefficients,
    density_factor_expansion,
    nu_expansion,
    pdf_approx,
)
from .montecarlo import KSResult, SimSample, empirical_cdf, ks_check, simulate_block_maxima
from .norming import (
    NormingConstants,
    PowerIndex,
    TransformedQuantile,
    norming_constants,
    solve_b,
    transformed_quantile,
)
from .special_functions import (
    Probability,
    gumbel_cdf,
    gumbel_pdf,
    mills_series_bound,
    mills_series_survival,
    std_normal_pdf,
    survival,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxOrder",
    "CurveRow",
    "Density",
    "DomainError",
    "ErrorCurve",
    "ExpansionCoefficients",
    "HallCheck",
    "HallRow",
    "InsufficientDataError",
    "InternalError",
    "KSResult",
    "NormingConstants",
    "PowerIndex",
    "PowexError",
    "Probability",
    "ResourceError",
    "Scaling",
    "SimSample",
    "SlopeFit",
    "TransformedQuantile",
    "cdf_approx",
    "coefficients",
    "default_n_grid",
    "density_factor_expansion",
    "empirical_cdf",
    "error_curve",
    "exact_cdf",
    "exact_cdf_values",
    "exact_pdf",
    "gumbel_cdf",
    "gumbel_pdf",
    "hall_limit_check",
    "ks_check",
    "mills_series_bound",
    "mills_series_survival",
    "naive_t2_constants",
    "norming_constants",
    "nu_expansion",
    "pdf_approx",
    "rate_fit",
    "simulate_block_maxima",
    "solve_b",
    "std_normal_pdf",
    "survival",
    "transformed_quantile",
]
