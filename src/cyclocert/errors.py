"""Error types shared across the package, plus the checked machine-width bound.

Python integers never wrap, so "overflow" here is a policy: any coefficient or
expanded value leaving the signed 64-bit range raises instead of silently
growing.  Keeping the bound explicit makes resource limits testable and leaves
room to swap in an arbitrary-precision backend behind the same contracts.
"""

MACHINE_INT_MAX = 2**63 - 1


class CycloError(Exception):
    """Base class for all errors raised by this package."""


class ArithmeticOverflowError(CycloError, OverflowError):
    """A computed value left the signed 64-bit machine range."""


class DegreeBudgetExceededError(CycloError):
    """An exact polynomial would exceed the configured degree budget."""


class SearchBoundExceededError(CycloError):
    """A prime-cluster scan hit its ceiling without finding a cluster.

    This signals the configured resource bound, not nonexistence: Dirichlet's
    theorem guarantees a cluster exists for every modulus, count, and ratio.
    """


class DocumentFormatError(CycloError, ValueError):
    """A certificate document is malformed or violates the schema."""
