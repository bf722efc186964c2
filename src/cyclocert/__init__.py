"""Exact cyclotomic coefficients and certified coefficient-value witnesses.

The library computes coefficients a(n, k) of the n-th cyclotomic polynomial
and c(n, k) of its reciprocal Taylor series, and constructively produces, for
any modulus m and any integer v, a certificate naming a multiple N of m and
an index k with a(N, k) = v (or c(N, k) = v), checkable independently of how
it was found.
"""

from .arith import (
    DEFAULT_SCAN_CEILING,
    FactoredInteger,
    PrimeCluster,
    PrimeClusterSpec,
    euler_phi,
    factor,
    find_prime_cluster,
    is_prime,
    mobius,
    next_prime_above,
    radical,
)
from .cyclo import (
    DEFAULT_DEGREE_BUDGET,
    CyclotomicPoly,
    InverseCoefficientTable,
    a_coeff,
    c_coeff,
    c_table,
    inverse_phi_truncated,
    phi_poly,
    phi_truncated,
)
from .errors import (
    ArithmeticOverflowError,
    CycloError,
    DegreeBudgetExceededError,
    DocumentFormatError,
    MACHINE_INT_MAX,
    SearchBoundExceededError,
)
from .hunter import (
    DEFAULT_RATIO,
    Certificate,
    TargetPlan,
    VerificationReport,
    build_certificate,
    lift_to_modulus,
    plan_target,
    predict_window,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticOverflowError",
    "Certificate",
    "CycloError",
    "CyclotomicPoly",
    "DEFAULT_DEGREE_BUDGET",
    "DEFAULT_RATIO",
    "DEFAULT_SCAN_CEILING",
    "DegreeBudgetExceededError",
    "DocumentFormatError",
    "FactoredInteger",
    "InverseCoefficientTable",
    "MACHINE_INT_MAX",
    "PrimeCluster",
    "PrimeClusterSpec",
    "SearchBoundExceededError",
    "TargetPlan",
    "VerificationReport",
    "a_coeff",
    "build_certificate",
    "c_coeff",
    "c_table",
    "euler_phi",
    "factor",
    "find_prime_cluster",
    "inverse_phi_truncated",
    "is_prime",
    "lift_to_modulus",
    "mobius",
    "next_prime_above",
    "phi_poly",
    "phi_truncated",
    "plan_target",
    "predict_window",
    "radical",
    "verify_certificate",
]
