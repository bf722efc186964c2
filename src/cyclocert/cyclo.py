"""Cyclotomic polynomials, their reciprocal series, and truncated products.

a(n, k) denotes the k-th coefficient of the n-th cyclotomic polynomial Phi_n,
and c(n, k) the k-th Taylor coefficient of 1/Phi_n at the origin.  Exact
polynomials are available for machine-scale n; truncated expansions of Phi_N
and 1/Phi_N accept N in factored form and stay cheap even when N itself is
far beyond machine width, because only divisors below the truncation matter.

Two classical identities drive everything here:

    x**n - 1 = prod over d | n of Phi_d(x)
    Phi_n(x) = prod over d | n of (1 - x**d)**mu(n/d)      (n > 1)

The second (Mobius-inverted, sign-normalized) form is valid only for n > 1;
Phi_1 = x - 1 is special-cased throughout.  For n > 1 it also shows Phi_n is
self-reciprocal, which halves the work of computing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

from .arith import FactoredInteger, euler_phi, factor, radical
from .errors import ArithmeticOverflowError, DegreeBudgetExceededError, MACHINE_INT_MAX
from .series import TruncatedSeries

DEFAULT_DEGREE_BUDGET = 1_000_000

_MIN = -MACHINE_INT_MAX


@dataclass(frozen=True)
class CyclotomicPoly:
    """Exact Phi_n: coeffs[k] = a(n, k), length phi(n) + 1, monic."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("cyclotomic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class PsiPoly:
    """The cofactor Psi_n = (x**n - 1) / Phi_n, of degree n - phi(n)."""

    n: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class InverseCoefficientTable:
    """One period of c(n, .): period[j] = c(n, j) for 0 <= j < n.

    c(n, k) depends only on k mod n because 1/Phi_n = -Psi_n * (1 + x**n +
    x**2n + ...) and deg Psi_n = n - phi(n) < n; consequently period[j] is
    -1 times the x**j coefficient of Psi_n, and the window
    n - phi(n) < j < n is identically zero.
    """

    n: int
    period: tuple[int, ...]

    def lookup(self, k: int) -> int:
        return self.period[k % self.n]


def _check_degree_budget(n: int, degree_budget: int) -> None:
    if degree_budget < 1:
        raise DegreeBudgetExceededError(f"degree budget {degree_budget} is not positive")
    # phi(n) >= sqrt(n/2) for every n, so huge n can be rejected unfactored
    if n > 2 * degree_budget * degree_budget:
        raise DegreeBudgetExceededError(f"phi({n}) certainly exceeds budget {degree_budget}")


def _mobius_unit_divisors(n: FactoredInteger, bound: int) -> list[tuple[int, int]]:
    """Divisors d <= bound of n with squarefree cofactor, as (d, mu(n/d)).

    At each prime p**e of n the divisor must use exponent e or e-1, otherwise
    n/d is not squarefree.  So d = base * prod(S), where base is the product
    of every p**(e-1) and S is a set of primes of n, and mu(n/d) is
    (-1)**(omega(n) - |S|).  The sets are enumerated with an explicit stack
    over the ascending primes, pruned against the bound, so neither n nor the
    recursion depth grows with the number of primes.
    """
    if bound < 1:
        return []
    base = 1
    for p, e in n.factors:
        for _ in range(e - 1):
            if base > bound // p:
                return []
            base *= p
    primes = n.primes()
    omega = len(primes)
    out: list[tuple[int, int]] = []
    stack = [(0, base, 0)]  # (next prime index, divisor, |S|)
    while stack:
        i, d, size = stack.pop()
        out.append((d, -1 if (omega - size) & 1 else 1))
        room = bound // d
        for j in range(i, omega):
            if primes[j] > room:
                break  # every later prime is larger still
            stack.append((j + 1, d * primes[j], size + 1))
    return out


def _truncated_product(
    n: FactoredInteger, truncation: int, start: int, exponent: int
) -> TruncatedSeries:
    """Coefficients start..truncation-1 of the product of (1 - x**d)**e_d,
    e_d = exponent * mu(n/d), over the divisors d of n below the truncation.

    A divisor is low when 2d < truncation and high otherwise.  The low
    factors are applied densely, all of them multiplications first: that
    keeps the partial products near the size of the result instead of
    letting the running sums of the divisions grow first.  A high factor is
    1 - e_d * x**d modulo x**truncation and any product of two of them
    vanishes, so their product is 1 - sum of e_d * x**d, and coefficient k
    of the result is dense[k] - sum over high d <= k of e_d * dense[k - d],
    computed only for the requested k.
    """
    if n.is_one:
        raise ValueError("the Mobius product form requires n > 1")
    if not 0 <= start < truncation:
        raise ValueError(f"start must lie in [0, {truncation}), got {start}")
    low: list[tuple[int, int]] = []
    high: list[tuple[int, int]] = []
    for d, mu in _mobius_unit_divisors(n, truncation - 1):
        (low if 2 * d < truncation else high).append((d, exponent * mu))
    dense = TruncatedSeries.one(truncation)
    for d, sign in sorted(low, key=lambda step: (-step[1], step[0])):
        dense = dense.apply_one_minus_power(d, sign)
    if not high:
        return dense if start == 0 else TruncatedSeries(dense.coeffs[start:])
    base = dense.coeffs
    out = list(base[start:])
    for d, sign in high:
        lo = max(start, d)
        out[lo - start :] = map(
            sub if sign == 1 else add, out[lo - start :], base[lo - d : truncation - d]
        )
    if max(out) > MACHINE_INT_MAX or min(out) < _MIN:
        raise ArithmeticOverflowError("coefficient outside the 64-bit range")
    return TruncatedSeries(tuple(out))


def phi_truncated(n: FactoredInteger, truncation: int, start: int = 0) -> TruncatedSeries:
    """Phi_n mod x**truncation for factored n > 1, from coefficient `start` on.

    Applies (1 - x**d)**mu(n/d) for every divisor d below the truncation with
    squarefree cofactor; all other divisors contribute 1.  The result holds
    coefficients start..truncation-1, so it has length truncation - start.
    Cost is O(#low * truncation + #high * (truncation - start)), with low
    divisors 2d < truncation and high ones the rest, never governed by n
    itself.  Every coefficient of the dense low-divisor product, after each
    step, and every returned coefficient is checked against the 64-bit range.
    """
    return _truncated_product(n, truncation, start, 1)


def inverse_phi_truncated(
    n: FactoredInteger, truncation: int, start: int = 0
) -> TruncatedSeries:
    """1/Phi_n mod x**truncation: the same divisor product, exponents negated."""
    return _truncated_product(n, truncation, start, -1)


@lru_cache(maxsize=None)
def _phi_poly_cached(n: int) -> CyclotomicPoly:
    if n == 1:
        return CyclotomicPoly(1, (-1, 1))
    fac = factor(n)
    phi = euler_phi(fac)
    half = (phi + 1) // 2  # ceil(phi/2); self-reciprocality supplies the rest
    lower = phi_truncated(fac, half + 1).coeffs
    coeffs = list(lower) + [0] * (phi - half)
    for k in range(half + 1, phi + 1):
        coeffs[k] = lower[phi - k]
    return CyclotomicPoly(n, tuple(coeffs))


def phi_poly(n: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> CyclotomicPoly:
    """Exact Phi_n, computed at half the truncation and mirrored (n > 1)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _check_degree_budget(n, degree_budget)
    if n > 1 and euler_phi(factor(n)) > degree_budget:
        raise DegreeBudgetExceededError(f"phi({n}) exceeds degree budget {degree_budget}")
    return _phi_poly_cached(n)


def _poly_mul_checked(a: list[int], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av == 0:
            continue
        for j, bv in enumerate(b):
            if bv:
                out[i + j] += av * bv
    for v in out:
        if v > MACHINE_INT_MAX or v < _MIN:
            raise ArithmeticOverflowError("polynomial coefficient outside the 64-bit range")
    return out


@lru_cache(maxsize=None)
def _psi_poly_cached(n: int) -> PsiPoly:
    if n == 1:
        return PsiPoly(1, (1,))
    prod = [1]
    for d in sorted(d for d in range(1, n) if n % d == 0):
        prod = _poly_mul_checked(prod, _phi_poly_cached(d).coeffs)
    fac = factor(n)
    assert len(prod) - 1 == n - euler_phi(fac)
    return PsiPoly(n, tuple(prod))


def psi_poly(n: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> PsiPoly:
    """Exact Psi_n as the product of Phi_d over proper divisors d of n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > degree_budget:
        raise DegreeBudgetExceededError(f"{n} exceeds degree budget {degree_budget}")
    return _psi_poly_cached(n)


@lru_cache(maxsize=None)
def _c_table_cached(n: int) -> InverseCoefficientTable:
    psi = _psi_poly_cached(n)
    period = [0] * n
    for j, coefficient in enumerate(psi.coeffs):
        period[j] = -coefficient
    return InverseCoefficientTable(n, tuple(period))


def c_table(n: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> InverseCoefficientTable:
    """The length-n period of c(n, .), read off from Psi_n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > degree_budget:
        raise DegreeBudgetExceededError(f"{n} exceeds degree budget {degree_budget}")
    return _c_table_cached(n)


def a_coeff(n: int, k: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> int:
    """a(n, k), with 0 for any k beyond the degree phi(n)."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    poly = phi_poly(n, degree_budget=degree_budget)
    if k >= len(poly.coeffs):
        return 0
    return poly.coeffs[k]


def c_coeff(n: int, k: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> int:
    """c(n, k) via the periodic table: c(n, k) = period[k mod n]."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return c_table(n, degree_budget=degree_budget).lookup(k)


def radical_reduce(n: int, k: int) -> tuple[int, int] | None:
    """Reduce a(n, k) to the squarefree kernel of n.

    Iterating Phi_pn(x) = Phi_n(x**p) for primes p | n gives
    Phi_n(x) = Phi_kappa(x**s) with kappa the squarefree kernel and
    s = n / kappa.  Hence a(n, k) = a(kappa, k/s) when s | k, and 0
    otherwise; None encodes the flattened-zero case.
    """
    if n <= 1:
        raise ValueError(f"n must exceed 1, got {n}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    fac = factor(n)
    kernel = radical(fac).value()
    s = n // kernel
    if k % s:
        return None
    return kernel, k // s
