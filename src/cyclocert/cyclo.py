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
from itertools import cycle, islice, repeat
from operator import mul, neg, sub

from .arith import FactoredInteger, euler_phi, factor, radical
from .errors import ArithmeticOverflowError, DegreeBudgetExceededError, MACHINE_INT_MAX
from .series import TruncatedSeries

DEFAULT_DEGREE_BUDGET = 1_000_000


@dataclass(frozen=True)
class CyclotomicPoly:
    """Exact Phi_n: coeffs[k] = a(n, k), length phi(n) + 1, monic."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("cyclotomic polynomial must be monic")


@dataclass(frozen=True)
class PsiPoly:
    """The cofactor Psi_n = (x**n - 1) / Phi_n, of degree n - phi(n)."""

    n: int
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class InverseCoefficientTable:
    """One period of c(n, .): period[j] = c(n, j) for 0 <= j < n.

    c(n, k) depends only on k mod n because 1/Phi_n = -Psi_n * (1 + x**n +
    x**2n + ...) and deg Psi_n = n - phi(n) < n; consequently period[j] is
    -1 times the x**j coefficient of Psi_n, and the window
    n - phi(n) < j < n is identically zero.  For n > 1, Psi_n is
    anti-palindromic, since x**n - 1 is anti-reciprocal and Phi_n is
    reciprocal (Moree, "Inverse cyclotomic polynomials", J. Number Theory
    129, 2009): period[deg - j] = -period[j] for deg = n - phi(n), so half
    of 0..deg determines the period; _half_product expands that half.
    """

    n: int
    period: tuple[int, ...]

    def lookup(self, k: int) -> int:
        return self.period[k % self.n]


def _check_degree_budget(n: int, degree_budget: int) -> None:
    """The budget checks on n that come before factoring it."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if degree_budget < 1:
        raise DegreeBudgetExceededError(f"degree budget {degree_budget} is not positive")
    # phi(n) >= sqrt(n/2) for every n, so huge n can be rejected unfactored
    if n > 2 * degree_budget * degree_budget:
        raise DegreeBudgetExceededError(f"phi({n}) certainly exceeds budget {degree_budget}")


def _check_phi_budget(fac: FactoredInteger, degree_budget: int) -> None:
    """The budget check on n once it is factored: phi(n) within the budget."""
    if euler_phi(fac) > degree_budget:
        raise DegreeBudgetExceededError(f"phi({fac.value()}) exceeds degree budget {degree_budget}")


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


def _dense_product(
    truncation: int, low: list[tuple[int, int]], high: list[tuple[int, int]]
) -> list[int]:
    """The product of (1 - x**d)**e over the (d, e) of low and high, modulo
    x**truncation, as one list stepped in place.

    A high factor (2d >= truncation) is 1 - e * x**d modulo x**truncation
    and any product of two of them vanishes, so their product is 1 - sum of
    e * x**d: each is seeded into the starting list as the term -e at index
    d, at O(1).  The factors commute, so the low ones are then applied
    densely to that list, all of them multiplications first: that keeps the
    partial products near the size of the result instead of letting the
    running sums of the divisions grow first.  Each step is range checked,
    seeded terms included.
    """
    coeffs = [0] * truncation
    coeffs[0] = 1
    for d, sign in high:
        coeffs[d] = -sign
    # distinct high d give distinct indices, so every entry is 0 or +-1
    dense = TruncatedSeries(coeffs, 1)
    for d, sign in sorted(low, key=lambda step: (-step[1], step[0])):
        dense.apply_one_minus_power(d, sign)
    return coeffs


def _low_kernel(n: FactoredInteger, low: list[tuple[int, int]]) -> FactoredInteger | None:
    """K, factored, when the low (d, e_d) are exactly the (d, -mu(K/d)) over
    the divisors d of K with squarefree K/d, K the largest low divisor; else
    None.

    Their product is then 1/Phi_K (1/(1 - x) for K = 1), a series of period
    K.  K's factorization is read off n's primes, since K divides n.
    """
    if not low:
        return None
    kernel = max(d for d, _ in low)
    factors = []
    for p, _ in n.factors:
        if p > kernel:
            break
        e = 0
        while kernel % p ** (e + 1) == 0:
            e += 1
        if e:
            factors.append((p, e))
    kernel_fac = FactoredInteger(tuple(factors))
    unit = _mobius_unit_divisors(kernel_fac, kernel)
    if sorted(low) != sorted((d, -mu) for d, mu in unit):
        return None
    return kernel_fac


def _periodic_tail(
    kernel_fac: FactoredInteger,
    high: list[tuple[int, int]],
    truncation: int,
    start: int,
) -> tuple[int, ...]:
    """Coefficients start..truncation-1 of (1/Phi_K) * (1 - sum of e_h * x**h)
    when every high h is at most start, K = kernel_fac (1/(1 - x) in place
    of 1/Phi_K for K = 1).

    With L one period of 1/Phi_K, read from c_table's memo, coefficient
    j >= start is L[j mod K] - sum of e_h * L[(j - h) mod K] over every h,
    which depends on j mod K alone.  So one tail period S is built, grouping
    the high divisors by residue r mod K into weights w_r, and tiled from
    start mod K.
    """
    period = (1,) if kernel_fac.is_one else _c_table_cached(kernel_fac).period
    kernel = len(period)
    weights: dict[int, int] = {}
    for h, sign in high:
        r = h % kernel
        weights[r] = weights.get(r, 0) + sign
    tail = period
    for r, weight in weights.items():
        if weight:
            shifted = period[kernel - r :] + period[: kernel - r]  # L[(s - r) mod K]
            tail = list(map(sub, tail, map(mul, repeat(weight), shifted)))
    offset = start % kernel
    rotated = tail[offset:] + tail[:offset]
    read = rotated[: truncation - start]
    if max(read) > MACHINE_INT_MAX or min(read) < -MACHINE_INT_MAX:
        raise ArithmeticOverflowError("coefficient outside the 64-bit range")
    return tuple(islice(cycle(rotated), truncation - start))


def _truncated_product(
    n: FactoredInteger, truncation: int, start: int, exponent: int
) -> tuple[int, ...]:
    """Coefficients start..truncation-1 of the product of (1 - x**d)**e_d,
    e_d = exponent * mu(n/d), over the divisors d of n below the truncation.

    A divisor is low when 2d < truncation and high otherwise.  Two routes:

    - Periodic: when every high divisor is at most start and the low
      factors are exactly those of 1/Phi_K for K the largest low divisor
      (see _low_kernel), one period of 1/Phi_K is read from c_table's memo
      and the requested coefficients are read from one tail period (see
      _periodic_tail).  This is every certificate of the hunter, in both
      modes.  It costs O(#div(K) * K) on a memo miss plus O(#residues * K +
      #high + (truncation - start)), and holds O(K + truncation - start),
      independent of the truncation itself.
    - Dense: otherwise, the seeded in-place product of _dense_product,
      O(#low * truncation + #high) time and one list of length truncation
      plus the returned tuple.
    """
    if n.is_one:
        raise ValueError("the Mobius product form requires n > 1")
    if not 0 <= start < truncation:
        raise ValueError(f"start must lie in [0, {truncation}), got {start}")
    low: list[tuple[int, int]] = []
    high: list[tuple[int, int]] = []
    for d, mu in _mobius_unit_divisors(n, truncation - 1):
        (low if 2 * d < truncation else high).append((d, exponent * mu))
    if all(d <= start for d, _ in high):
        kernel_fac = _low_kernel(n, low)
        if kernel_fac is not None:
            return _periodic_tail(kernel_fac, high, truncation, start)
    coeffs = _dense_product(truncation, low, high)
    return tuple(islice(coeffs, start, None) if start else coeffs)


def phi_truncated(n: FactoredInteger, truncation: int, start: int = 0) -> tuple[int, ...]:
    """Phi_n mod x**truncation for factored n > 1, from coefficient `start` on.

    Applies (1 - x**d)**mu(n/d) for every divisor d below the truncation with
    squarefree cofactor; all other divisors contribute 1.  The result is the
    tuple of coefficients start..truncation-1, of length truncation - start.
    Low divisors have 2d < truncation, high ones are the rest.  Where every
    high divisor is at most start and the low ones make exactly 1/Phi_K, K
    the largest of them, the result is tiled from one period of length K,
    read from c_table's memo: O(#div(K) * K) to build it on a miss, plus
    O(#residues mod K * K + #high + (truncation - start)) time, and
    O(K + truncation - start) memory.  Otherwise the dense product
    costs O(#low * truncation + #high), never governed by n itself, and
    holds one list of length truncation plus the returned tuple.  Both
    routes raise ArithmeticOverflowError when a coefficient leaves the
    64-bit range: on the dense route, any coefficient of the product after
    any step (checked by a scan only where a carried magnitude bound does
    not prove it); on the periodic route, any coefficient of the period of
    1/Phi_K or any returned coefficient.
    """
    return _truncated_product(n, truncation, start, 1)


def inverse_phi_truncated(
    n: FactoredInteger, truncation: int, start: int = 0
) -> tuple[int, ...]:
    """1/Phi_n mod x**truncation: the same divisor product, exponents negated,
    returned as the same tuple of coefficients start..truncation-1."""
    return _truncated_product(n, truncation, start, -1)


def _half_product(fac: FactoredInteger, degree: int, exponent: int) -> tuple[int, ...]:
    """Coefficients 0..degree of the product of (1 - x**d)**(exponent * mu(n/d))
    over the divisors d of n = fac > 1: Phi_n for exponent 1 and degree
    phi(n), or -Psi_n, the first entries of a period of 1/Phi_n, for
    exponent -1 and degree n - phi(n).

    Phi_n is palindromic and Psi_n anti-palindromic (see
    InverseCoefficientTable), so entry degree - j is entry j, negated for
    exponent -1.  Only entries 0..floor(degree/2) are expanded, by the
    truncated product; the rest are mirrored as slices.
    """
    expand = phi_truncated if exponent == 1 else inverse_phi_truncated
    lower = expand(fac, degree // 2 + 1)
    mirror = lower[(degree + 1) // 2 - 1 :: -1]
    return lower + (mirror if exponent == 1 else tuple(map(neg, mirror)))


# keyed on the factorization of a squarefree n, since phi_poly stretches
# Phi_rad for every other n; bounded, since a scan would otherwise keep every
# polynomial it visits; a_coeff reads Phi_K from it, one K for every k of one n
@lru_cache(maxsize=16)
def _phi_poly_cached(fac: FactoredInteger) -> CyclotomicPoly:
    if fac.is_one:
        return CyclotomicPoly(1, (-1, 1))
    return CyclotomicPoly(fac.value(), _half_product(fac, euler_phi(fac), 1))


def _factor_within_budget(n: int, degree_budget: int) -> FactoredInteger:
    """factor(n), once n is known positive and phi(n) within the budget."""
    _check_degree_budget(n, degree_budget)
    fac = factor(n)
    _check_phi_budget(fac, degree_budget)
    return fac


def phi_poly(n: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> CyclotomicPoly:
    """Exact Phi_n, as Phi_rad(x**s) with rad = rad(n) and s = n/rad.

    Only the squarefree Phi_rad is expanded, by the truncated divisor
    product of rad at half its degree, mirrored (rad > 1) and cached; its
    coefficients are then spread s apart.  The cost is that half-length
    product over the divisors of rad, plus O(phi(n)) for the stretch.
    """
    base = _phi_poly_cached(radical(_factor_within_budget(n, degree_budget)))
    s = n // base.n
    if s == 1:
        return base
    coeffs = [0] * ((len(base.coeffs) - 1) * s + 1)
    coeffs[::s] = base.coeffs
    return CyclotomicPoly(n, tuple(coeffs))


# one period of 1/Phi_n per factored n, read by c_table, by a_coeff and by the
# periodic route of _truncated_product (the verifier's), whose K is factored
# off N's primes; bounded, since a_coeff keeps one per kernel K = rad(n)/p it
# meets; 32 holds every kernel of the acceptance grid (m <= 30)
@lru_cache(maxsize=32)
def _c_table_cached(fac: FactoredInteger) -> InverseCoefficientTable:
    if fac.is_one:
        return InverseCoefficientTable(1, (-1,))
    n = fac.value()
    degree = n - euler_phi(fac)
    zeros = (0,) * (n - degree - 1)  # the window degree < j < n
    return InverseCoefficientTable(n, _half_product(fac, degree, -1) + zeros)


def c_table(n: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> InverseCoefficientTable:
    """The length-n period of c(n, .): 1/Phi_n expanded modulo x**n.

    For n > 1 the truncated divisor product runs only to (n - phi(n))/2 and
    the anti-palindrome of Psi_n supplies the rest (see _half_product), so
    a table costs O((n - phi(n))/2) per divisor d of n below (n - phi(n))/4,
    plus O(n).  Tables are cached, a bounded number of them.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > degree_budget:
        raise DegreeBudgetExceededError(f"{n} exceeds degree budget {degree_budget}")
    return _c_table_cached(factor(n))


def psi_poly(n: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> PsiPoly:
    """Exact Psi_n, read off the period of c(n, .).

    1/Phi_n = -Psi_n / (1 - x**n) and deg Psi_n = n - phi(n) < n, so Psi_n
    is the negated prefix of length n - phi(n) + 1 of that period.
    """
    period = c_table(n, degree_budget=degree_budget).period
    # the last nonzero entry: period[deg] = -1 for n >= 2, period[0] for n = 1
    degree = next(j for j in range(n - 1, -1, -1) if period[j])
    return PsiPoly(n, tuple(-c for c in period[: degree + 1]))


def a_coeff(n: int, k: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> int:
    """a(n, k), with 0 for any k beyond the degree phi(n).

    Built from objects over K = rad(n)/p, p the largest prime of n, never
    from Phi_n itself.  Phi_n(x) = Phi_rad(x**s) with s = n/rad(n), so
    a(n, k) is 0 unless s | k, and a(rad, k/s) otherwise; Phi_rad is
    self-reciprocal, so k/s may be replaced by min(k/s, phi(rad) - k/s).
    For p not dividing K, Phi_{Kp}(x) = Phi_K(x**p) / Phi_K(x), hence

        a(Kp, k) = sum over 0 <= i <= min(phi(K), k/p) of a(K, i) * c(K, k - p*i)

    with a(K, .) from phi_poly(K) and c(K, .) from c_table's memo, keyed on K
    as factored off n, both cached.  K <= phi(n), so the budget checks are
    those of phi_poly(n) and nothing else can exceed the budget.  The cost
    is O(#div(K) * K) to build both tables, once per K, plus
    O(min(phi(K), k/p)) per call.  That sum is paid on every call: a loop
    over the k of one n should read phi_poly(n).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    fac = _factor_within_budget(n, degree_budget)
    phi = euler_phi(fac)
    if k > phi:
        return 0
    if n == 1:
        return (-1, 1)[k]  # Phi_1 = x - 1
    rad = radical(fac)
    s = n // rad.value()
    if k % s:
        return 0
    k = min(k // s, phi // s - k // s)
    p = rad.factors[-1][0]
    kernel = FactoredInteger(rad.factors[:-1])  # K = rad/p
    coeffs = phi_poly(kernel.value(), degree_budget=degree_budget).coeffs
    table = _c_table_cached(kernel)
    # map stops at the shorter input: i <= phi(K) and p*i <= k
    value = sum(map(mul, coeffs, map(table.lookup, range(k, -1, -p))))
    if abs(value) > MACHINE_INT_MAX:
        raise ArithmeticOverflowError("coefficient outside the 64-bit range")
    return value


def c_coeff(n: int, k: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> int:
    """c(n, k) via the periodic table: c(n, k) = period[k mod n]."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return c_table(n, degree_budget=degree_budget).lookup(k)

