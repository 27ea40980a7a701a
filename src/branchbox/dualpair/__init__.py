"""Exact brute-force oracle: dual pair actions on truncated polynomial spaces."""

from .analysis import (
    BracketEntry,
    BracketReport,
    DEFAULT_BUDGET,
    HarmonicReport,
    MinorCertificate,
    build_buckets,
    check_monomial_count,
    harmonic_isotypic_dims,
    harmonic_report,
    hwv_multiplicities,
    minor_hwv,
    verify_brackets,
)
from .configs import (
    FULL,
    MOD_IDEAL,
    MatrixSpaceShape,
    ProductO,
    SpaceConfig,
    build_config,
)
from .poly import Operator, apply_operator, apply_to_monomial

__all__ = [
    "BracketEntry",
    "BracketReport",
    "DEFAULT_BUDGET",
    "FULL",
    "HarmonicReport",
    "MOD_IDEAL",
    "MatrixSpaceShape",
    "MinorCertificate",
    "Operator",
    "ProductO",
    "SpaceConfig",
    "apply_operator",
    "apply_to_monomial",
    "build_buckets",
    "build_config",
    "check_monomial_count",
    "harmonic_isotypic_dims",
    "harmonic_report",
    "hwv_multiplicities",
    "minor_hwv",
    "verify_brackets",
]
