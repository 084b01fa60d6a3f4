"""Exact inclusion-exclusion polynomial arithmetic and height analysis."""

from .analysis import (
    ConstantResult,
    HeightReport,
    height_report,
    limit_constant,
    normalized_ratio,
    normalizer,
    predicted_ratio,
    search_max_ratio,
)
from .construction import (
    CongruenceFamily,
    CongruenceReport,
    HeightBound,
    check_congruence,
    congruence_family,
    height_lower_bound,
)
from .core import (
    CoprimeTuple,
    degree_of,
    eval_at_one,
    expand,
    factor_system,
    height,
    is_palindromic,
    low_half,
    validate_tuple,
)
from .oracle import oracle_expand

__all__ = [
    "ConstantResult",
    "CongruenceFamily",
    "CongruenceReport",
    "CoprimeTuple",
    "HeightBound",
    "HeightReport",
    "check_congruence",
    "congruence_family",
    "degree_of",
    "eval_at_one",
    "expand",
    "factor_system",
    "height",
    "height_lower_bound",
    "height_report",
    "is_palindromic",
    "limit_constant",
    "low_half",
    "normalized_ratio",
    "normalizer",
    "oracle_expand",
    "predicted_ratio",
    "search_max_ratio",
    "validate_tuple",
]

__version__ = "0.1.0"
