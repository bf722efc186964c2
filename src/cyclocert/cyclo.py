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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle, islice, repeat
from math import isqrt
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
class InverseCoefficientTable:
    """c(n, .) from the nonzero part of its period: nonzero[j] = c(n, j)
    for 0 <= j <= n - phi(n).

    c(n, k) depends only on k mod n because 1/Phi_n = -Psi_n * (1 + x**n +
    x**2n + ...) and deg Psi_n = n - phi(n) < n; consequently c(n, j) is
    -1 times the x**j coefficient of Psi_n for j <= n - phi(n), and the
    window n - phi(n) < j < n is identically zero.  Those zeros are never
    stored: window writes them into the slice it returns.  For n > 1, Psi_n
    is anti-palindromic, since x**n - 1 is anti-reciprocal and Phi_n is
    reciprocal (Moree, "Inverse cyclotomic polynomials", J. Number Theory
    129, 2009): c(n, deg - j) = -c(n, j) for deg = n - phi(n), so half of
    0..deg determines the period; _half_product expands that half.
    """

    n: int
    nonzero: tuple[int, ...]

    @property
    def period(self) -> tuple[int, ...]:
        """c(n, 0..n - 1), O(n) on every read."""
        return self.window(0, self.n)

    def lookup(self, k: int) -> int:
        j = k % self.n
        return self.nonzero[j] if j < len(self.nonzero) else 0

    def window(self, offset: int, count: int) -> tuple[int, ...]:
        """c(n, (offset + i) mod n) for 0 <= i < count, any integer offset.

        Each turn of the period the window crosses adds one slice of the
        nonzero part and the zeros after it, so a window of at most n
        entries is at most two of each: O(count), with nothing of length n
        built for a short window.
        """
        out, j = [], offset % self.n
        while len(out) < count:
            stop = min(self.n, j + count - len(out))
            out += self.nonzero[j:stop] + (0,) * (stop - max(j, len(self.nonzero)))
            j = 0
        return tuple(out)


def _mobius_unit_divisors(
    n: FactoredInteger, bound: int, limit: int | None = None
) -> list[tuple[int, int]]:
    """Divisors d <= bound of n with squarefree cofactor, as (d, mu(n/d)).

    With a limit, raises DegreeBudgetExceededError as soon as more than
    `limit` of them are listed, so a hostile n with a huge bound stops
    there, never far past it.

    At each prime p**e of n the divisor must use exponent e or e-1, otherwise
    n/d is not squarefree.  So d = base * prod(S), where base is the product
    of every p**(e-1) and S is a set of primes of n, and mu(n/d) is
    (-1)**(omega(n) - |S|).  The sets are grown one prime at a time over the
    ascending primes, pruned against the bound, with no recursion and
    without expanding n.  A set can take a prime q above its largest p only
    if base * p * q <= bound, so p is at most isqrt(bound // base): only
    sets ending there or below grow further, and each set's extensions are
    one slice of the primes, multiplied out at C speed.
    """
    if bound < 1:
        return []
    primes, exponents = zip(*n.factors) if n.factors else ((), ())
    base = 1
    if max(exponents, default=1) > 1:
        for p, e in n.factors:
            for _ in range(e - 1):
                if base > bound // p:
                    return []
                base *= p
    omega = len(primes)
    small = bisect_right(primes, isqrt(bound // base))
    out = [(base, -1 if omega & 1 else 1)]
    growing = [(base, 0)]  # (divisor, index of the least prime it may take)
    size = 0
    while growing:
        size += 1
        mu = -1 if (omega - size) & 1 else 1
        grown = []
        for d, i in growing:
            cut = bisect_right(primes, bound // d, i)
            out += zip(map(d.__mul__, primes[i:cut]), repeat(mu))
            if limit is not None and len(out) > limit:
                raise DegreeBudgetExceededError(
                    f"more than {limit} divisors with squarefree cofactor up to {bound}"
                )
            stop = min(cut, small)
            grown += zip(map(d.__mul__, primes[i:stop]), range(i + 1, stop + 1))
        growing = grown
    return out


def _dense_product(
    truncation: int,
    start: int,
    low: list[tuple[int, int]],
    high: list[tuple[int, int]],
    prime: int,
) -> tuple[int, ...]:
    """Coefficients start..truncation-1 of the product of (1 - x**d)**e over
    the (d, e) of low and high, modulo x**truncation, stepped in one packed
    series (see series); prime is the largest prime of n.

    A high factor (2d >= truncation) is 1 - e * x**d modulo x**truncation
    and any product of two of them vanishes, so their product is 1 - sum of
    e * x**d: each is seeded into the starting series as the term -e at
    index d, at O(1).  The factors commute, so the low ones are then applied
    to that series.  A division by 1 - x**d whose partner p*d (p = prime)
    is a multiplication, low or high, makes with it one geometric sum
    (1 - x**(p*d)) / (1 - x**d) = 1 + x**d + ... + x**((p-1)*d), stepped
    as one multiplication wherever that takes fewer passes than the division.
    For squarefree n = K*p, e_(p*d) = -e_d for every d | K, so every
    division at a d | K with p*d below the truncation can pair: up to half
    of all the divisions, and those at the smallest d, the dearest.  The
    steps run as multiplications by 1 - x**d, then geometric sums, then
    divisions: that keeps the partial products near the size of the result
    instead of letting the running sums of the divisions grow first.  Each
    step is range checked, seeded terms included.
    """
    signs = dict(low + high)
    paired: set[int] = set()
    geometric = []
    for d, sign in low:
        if sign == -1 and signs.get(prime * d) == 1:
            # floor(log2 q) + popcount(q) - 1 passes for the q terms below
            # the truncation, against a division's one doubling per s = d,
            # 2d, 4d, ... below it
            terms = min(prime, (truncation - 1) // d + 1)
            if terms.bit_length() + terms.bit_count() - 2 < ((truncation - 1) // d).bit_length():
                geometric.append(d)
                paired.update((d, prime * d))
    # distinct high d give distinct indices, so every entry is 0 or +-1
    dense = TruncatedSeries.seeded(truncation, [step for step in high if step[0] not in paired])
    for d, sign in low:
        if sign == 1 and d not in paired:
            dense.apply_one_minus_power(d, 1)
    for d in geometric:
        dense.apply_geometric_sum(d, prime)
    for d, sign in low:
        if sign == -1 and d not in paired:
            dense.apply_one_minus_power(d, -1)
    return dense.suffix(start)


def _kernel_factors(n: FactoredInteger, steps: list[tuple[int, int]]) -> FactoredInteger | None:
    """K, factored, when the sorted steps are exactly the (d, -mu(K/d)) over
    the divisors d of K with squarefree K/d, K the last of them; else None.

    Their product is then 1/Phi_K (1/(1 - x) for K = 1), a series of period
    K.  K is a divisor of n with squarefree cofactor, so each p**e of n
    divides it to the power e or e - 1.
    """
    kernel = steps[-1][0]
    below = n.factors[: bisect_left(n.factors, (kernel + 1,))]
    kernel_fac = FactoredInteger(
        tuple((p, e if kernel % p**e == 0 else e - 1) for p, e in below if kernel % p == 0)
    )
    unit = _mobius_unit_divisors(kernel_fac, kernel)
    if steps != sorted((d, -mu) for d, mu in unit):
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

    With L one period of 1/Phi_K and w_r the sum of e_h over the h = r mod
    K, coefficient j >= start is L[j mod K] - sum of w_r * L[(j - r) mod K],
    which depends on j mod K alone.  So only the min(K, truncation - start)
    coefficients returned are computed, from one window of L at start and
    one at start - r per nonzero w_r, then tiled.  The windows are read
    through an InverseCoefficientTable over c_table's memo of L[0..deg],
    deg = K - phi(K), so nothing of length K is built for a short read.
    """
    nonzero = (1,) if kernel_fac.is_one else _c_table_cached(kernel_fac)
    table = InverseCoefficientTable(kernel_fac.value(), nonzero)
    size = min(table.n, truncation - start)
    weights: dict[int, int] = {}
    for h, sign in high:
        r = h % table.n
        weights[r] = weights.get(r, 0) + sign
    read = table.window(start, size)
    for r, weight in weights.items():
        if weight:
            read = list(map(sub, read, map(mul, repeat(weight), table.window(start - r, size))))
    if max(read) > MACHINE_INT_MAX or min(read) < -MACHINE_INT_MAX:
        raise ArithmeticOverflowError("coefficient outside the 64-bit range")
    return tuple(islice(cycle(read), truncation - start))


def _truncated_product(
    n: FactoredInteger,
    truncation: int,
    start: int,
    exponent: int,
    degree_budget: int,
    divisor_limit: int | None,
) -> tuple[int, ...]:
    """Coefficients start..truncation-1 of the product of (1 - x**d)**e_d,
    e_d = exponent * mu(n/d), over the divisors d of n below the truncation.

    A divisor is low when 2d < truncation and high otherwise.  Two routes:

    - Periodic: when the factors up to some divisor K are exactly those of
      1/Phi_K (see _kernel_factors) and every divisor above K is high and at
      most start, the requested coefficients are read from windows of one
      period of 1/Phi_K, cut from its nonzero part c(K, 0..K - phi(K)) in
      c_table's memo (see _periodic_tail).  K is the
      largest low divisor or else the least high one, the latter only
      within degree_budget.  A valid certificate's kernel K lies below its
      first cluster prime, hence below half the truncation, so no proper
      divisor of K is high, and every valid certificate takes this route.
      With R = truncation - start, it costs O(#div(K) * (K - phi(K))) on a
      memo miss, then O(#residues * min(K, R) + #high + R), holding O(R)
      beside the memo's K - phi(K) + 1 entries.  A half product of
      (K - phi(K))//2 + 1 entries above degree_budget + omega(n) raises
      DegreeBudgetExceededError, on a memo hit as on a miss.
    - Dense: otherwise (any other N, and the exact-polynomial builds), the
      seeded product of _dense_product, O(#low) steps of a few O(truncation)
      passes each plus O(#high), holding one packed series of the
      truncation's coefficients (two during a geometric sum) plus the
      returned tuple.  A truncation above degree_budget raises
      DegreeBudgetExceededError before anything of that size is allocated.

    The divisors are listed under a limit of degree_budget + omega(n), or
    divisor_limit where that is smaller.
    """
    if n.is_one:
        raise ValueError("the Mobius product form requires n > 1")
    if not 0 <= start < truncation:
        raise ValueError(f"start must lie in [0, {truncation}), got {start}")
    # a valid certificate's N has at most K <= degree_budget divisors below
    # the truncation from its kernel K, plus one per cluster prime
    limit = degree_budget + len(n.factors)
    cap = limit if divisor_limit is None else min(limit, divisor_limit)
    steps = sorted(_mobius_unit_divisors(n, truncation - 1, cap))
    if exponent != 1:
        steps = [(d, exponent * mu) for d, mu in steps]
    # sorted by d, so the low ones (2d < truncation) come first
    split = bisect_left(steps, ((truncation + 1) // 2,))
    # the kernel ends steps[:end]: the largest low divisor, or else the least
    # high one, that only within the budget, since its period is built whole
    ends = [split] if split else []
    if split < len(steps) and steps[split][0] <= degree_budget:
        ends.append(split + 1)
    for end in ends:
        if end == len(steps) or steps[-1][0] <= start:
            kernel_fac = _kernel_factors(n, steps[:end])
            if kernel_fac is not None:
                # the half product of 1/Phi_K, (K - phi(K))//2 + 1 entries, is
                # held to the divisors' limit, whether or not the memo holds it
                if (kernel_fac.value() - euler_phi(kernel_fac)) // 2 >= limit:
                    raise DegreeBudgetExceededError(f"half product of 1/Phi_K exceeds {limit}")
                return _periodic_tail(kernel_fac, steps[end:], truncation, start)
    if truncation > degree_budget:
        raise DegreeBudgetExceededError(
            f"dense truncation {truncation} exceeds degree budget {degree_budget}"
        )
    return _dense_product(truncation, start, steps[:split], steps[split:], n.factors[-1][0])


def phi_truncated(
    n: FactoredInteger,
    truncation: int,
    start: int = 0,
    *,
    degree_budget: int = DEFAULT_DEGREE_BUDGET,
    divisor_limit: int | None = None,
) -> tuple[int, ...]:
    """Phi_n mod x**truncation for factored n > 1, from coefficient `start` on.

    Applies (1 - x**d)**mu(n/d) for every divisor d below the truncation with
    squarefree cofactor; all other divisors contribute 1.  The result is the
    tuple of coefficients start..truncation-1, of length truncation - start.
    Low divisors have 2d < truncation, high ones are the rest.  Where the
    divisors up to K make exactly 1/Phi_K and every one above K is at most
    start, K the largest low divisor or else the least high one within
    degree_budget (every valid certificate's kernel is one of the two), the
    result is read from windows of one period of 1/Phi_K, cut from the
    nonzero part c(K, 0..K - phi(K)) that c_table's memo holds:
    O(#div(K) * (K - phi(K))) to build it on a miss, then, with R =
    truncation - start, O(#residues * min(K, R) + #high + R) time and
    O(R) memory.  Otherwise the dense product costs O(passes * truncation +
    #high), never governed by n itself: a multiplication by 1 - x**d is
    one pass and a division about log2(truncation/d), and a division at d
    whose partner p*d (p the largest prime of n) is a multiplication folds
    with it into one geometric sum of floor(log2 p) + popcount(p) - 1
    passes, where that is fewer (see _dense_product).  It holds one packed
    series of the truncation's coefficients, two during a geometric sum,
    plus the returned tuple; it raises DegreeBudgetExceededError, before it
    allocates, when the truncation exceeds degree_budget.  Either route
    raises it once more than degree_budget + omega(n) divisors with
    squarefree cofactor lie below the truncation, or more than
    divisor_limit where that is smaller, so a hostile n with a huge
    truncation stops there; the periodic route raises it as well when
    K's half product, (K - phi(K))//2 + 1 entries, exceeds degree_budget
    + omega(n), whether or not c_table's memo holds it.
    Both routes raise ArithmeticOverflowError when a coefficient leaves the
    64-bit range: on the dense route, any coefficient of the product after
    any step (checked only where a carried magnitude bound does not prove
    it); on the periodic route, any coefficient of the period of 1/Phi_K or
    any returned coefficient.
    """
    return _truncated_product(n, truncation, start, 1, degree_budget, divisor_limit)


def inverse_phi_truncated(
    n: FactoredInteger,
    truncation: int,
    start: int = 0,
    *,
    degree_budget: int = DEFAULT_DEGREE_BUDGET,
    divisor_limit: int | None = None,
) -> tuple[int, ...]:
    """1/Phi_n mod x**truncation: the same divisor product, exponents negated,
    returned as the same tuple of coefficients start..truncation-1, under
    the same budget."""
    return _truncated_product(n, truncation, start, -1, degree_budget, divisor_limit)


def _half_product(fac: FactoredInteger, degree: int, exponent: int) -> tuple[int, ...]:
    """Coefficients 0..degree of the product of (1 - x**d)**(exponent * mu(n/d))
    over the divisors d of n = fac > 1: Phi_n for exponent 1 and degree
    phi(n), or -Psi_n, the first entries of a period of 1/Phi_n, for
    exponent -1 and degree n - phi(n).

    Phi_n is palindromic and Psi_n anti-palindromic (see
    InverseCoefficientTable), so entry degree - j is entry j, negated for
    exponent -1.  Only entries 0..floor(degree/2) are expanded, by the
    truncated product; the rest are mirrored as slices.  The callers have
    budgeted the degree, so the truncation is admitted as it stands.
    """
    expand = phi_truncated if exponent == 1 else inverse_phi_truncated
    lower = expand(fac, degree // 2 + 1, degree_budget=degree // 2 + 1)
    mirror = lower[(degree + 1) // 2 - 1 :: -1]
    return lower + (mirror if exponent == 1 else tuple(map(neg, mirror)))


def _factor_within_budget(n: int, degree_budget: int) -> FactoredInteger:
    """factor(n), once n is known positive and phi(n) within the budget.

    The one budget-checked factorization of n, for phi_poly, a_coeff and
    scan.  phi(n) <= n, so no n with 1 <= n <= degree_budget fails here:
    scan relies on that to skip such n unfactored.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if degree_budget < 1:
        raise DegreeBudgetExceededError(f"degree budget {degree_budget} is not positive")
    # phi(n) >= sqrt(n/2) for every n, so huge n can be rejected unfactored
    if n > 2 * degree_budget * degree_budget:
        raise DegreeBudgetExceededError(f"phi({n}) certainly exceeds budget {degree_budget}")
    fac = factor(n)
    if euler_phi(fac) > degree_budget:
        raise DegreeBudgetExceededError(f"phi({n}) exceeds degree budget {degree_budget}")
    return fac


def _phi_prefix(fac: FactoredInteger, kmax: int, degree_budget: int) -> tuple[int, ...]:
    """a(n, 0..min(kmax, phi(n))) for n = fac, () for kmax < 0: the one
    read of Phi_n's coefficients, for phi_poly and scan --kmax, which have
    budget-checked n (see _factor_within_budget).

    Phi_n(x) = Phi_rad(x**s) with rad = rad(n) and s = n/rad, so these are
    the first floor(kmax/s) + 1 coefficients of Phi_rad, spread s apart.
    Below half of Phi_rad's degree they come from the truncated product
    under degree_budget, O(#low * kmax/s); at or past half, Phi_rad is
    expanded whole by _half_product, its half product mirrored (rad > 1).
    Nothing is cached: each call pays that product, plus O(kmax) for the
    stretch when s > 1.
    """
    if kmax < 0:
        return ()
    rad = radical(fac)
    s, phi = fac.value() // rad.value(), euler_phi(rad)
    reach = min(kmax // s, phi)
    if rad.is_one:
        coeffs = (-1, 1)[: reach + 1]  # Phi_1 = x - 1
    elif 2 * reach < phi:
        coeffs = phi_truncated(rad, reach + 1, degree_budget=degree_budget)
    else:
        coeffs = _half_product(rad, phi, 1)[: reach + 1]
    if s == 1:
        return coeffs
    stretched = [0] * (min(kmax, phi * s) + 1)
    stretched[::s] = coeffs
    return tuple(stretched)


def phi_poly(n: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> CyclotomicPoly:
    """Exact Phi_n, after the budget checks of _factor_within_budget: the
    prefix of _phi_prefix to phi(n), so every call expands the half product
    of Phi_rad over the divisors of rad, mirrors it and stretches it."""
    fac = _factor_within_budget(n, degree_budget)
    return CyclotomicPoly(n, _phi_prefix(fac, euler_phi(fac), degree_budget))


# c(n, 0..deg), deg = n - phi(n), per factored n: the nonzero part of one
# period of 1/Phi_n, held by every InverseCoefficientTable (c_table's,
# a_coeff's through it, the hunter's, and the periodic route's of
# _truncated_product, whose K is factored off N's primes) and read only
# through its window and lookup; bounded, since a_coeff keeps one per kernel K =
# rad(n)/p it meets; 32 holds every kernel of the acceptance grid (m <= 30)
@lru_cache(maxsize=32)
def _c_table_cached(fac: FactoredInteger) -> tuple[int, ...]:
    if fac.is_one:
        return (-1,)
    return _half_product(fac, fac.value() - euler_phi(fac), -1)


def c_table(n: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> InverseCoefficientTable:
    """c(n, .), the series of 1/Phi_n, as a table over the nonzero part
    c(n, 0..n - phi(n)) of its period.

    For n > 1 the truncated divisor product runs only to (n - phi(n))/2 and
    the anti-palindrome of Psi_n supplies the rest of c(n, 0..n - phi(n))
    (see _half_product), so a table costs a few passes of O((n - phi(n))/2)
    per divisor d of n below (n - phi(n))/4, one geometric sum in place of
    each division whose partner p*d is a multiplication (see
    phi_truncated).  Only that nonzero part is cached, a bounded number of
    them; a call on a memo hit costs factor(n) and builds nothing of length
    n, since the table's windows write the zeros n - phi(n) < j < n into
    what they return.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > degree_budget:
        raise DegreeBudgetExceededError(f"{n} exceeds degree budget {degree_budget}")
    return InverseCoefficientTable(n, _c_table_cached(factor(n)))


def a_coeff(n: int, k: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> int:
    """a(n, k), with 0 for any k beyond the degree phi(n).

    Built from objects over K = rad(n)/p, p the largest prime of n, never
    from Phi_n itself.  Phi_n(x) = Phi_rad(x**s) with s = n/rad(n), so
    a(n, k) is 0 unless s | k, and a(rad, k/s) otherwise; Phi_rad is
    self-reciprocal, so k/s may be replaced by min(k/s, phi(rad) - k/s).
    For p not dividing K, Phi_{Kp}(x) = Phi_K(x**p) / Phi_K(x), hence

        a(Kp, k) = sum over 0 <= i <= min(phi(K), k/p) of a(K, i) * c(K, k - p*i)

    with a(K, .) from phi_poly(K) and c(K, .) from c_table(K), whose memo
    is keyed on K.  K <= phi(n), so the budget checks are those of
    phi_poly(n) and nothing else can exceed the budget.  The cost is
    O(#div(K) * K) to expand Phi_K, on every call, and the period of
    1/Phi_K, once per K, plus O(K + min(phi(K), k/p)) per call.  A loop
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
    table = c_table(kernel.value(), degree_budget=degree_budget)
    # map stops at the shorter input: i <= phi(K) and p*i <= k
    value = sum(map(mul, coeffs, map(table.lookup, range(k, -1, -p))))
    if abs(value) > MACHINE_INT_MAX:
        raise ArithmeticOverflowError("coefficient outside the 64-bit range")
    return value


def c_coeff(n: int, k: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> int:
    """c(n, k) via the table: c(n, k mod n), 0 past n - phi(n)."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return c_table(n, degree_budget=degree_budget).lookup(k)

