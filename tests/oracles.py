"""Independent reference implementations used as test oracles.

Everything here is deliberately written against library code paths: dense
lists, schoolbook algorithms, trial division.  Nothing imports from the
package under test.
"""

from math import isqrt


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                if bv:
                    out[i + j] += av * bv
    return out


def poly_div_exact(numerator: list[int], denominator: list[int]) -> list[int]:
    """Long division by a monic divisor; raises if the remainder is nonzero."""
    assert denominator[-1] == 1
    work = list(numerator)
    dlen = len(denominator)
    quotient = [0] * (len(work) - dlen + 1)
    for i in range(len(quotient) - 1, -1, -1):
        c = work[i + dlen - 1]
        if c:
            quotient[i] = c
            for j in range(dlen):
                work[i + j] -= c * denominator[j]
    if any(work):
        raise ValueError("nonzero remainder")
    return quotient


_PHI_CACHE: dict[int, list[int]] = {}


def cyclotomic_by_division(n: int) -> list[int]:
    """Phi_n from repeated exact division of x**n - 1 by proper-divisor Phi_d."""
    got = _PHI_CACHE.get(n)
    if got is not None:
        return got
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = poly_div_exact(poly, cyclotomic_by_division(d))
    _PHI_CACHE[n] = poly
    return poly


def invert_series(poly: list[int], order: int) -> list[int]:
    """First `order` Taylor coefficients of 1/poly; constant term must be +-1."""
    a0 = poly[0]
    assert a0 in (1, -1)
    out = [0] * order
    out[0] = a0
    for i in range(1, order):
        acc = 0
        for j in range(1, min(i, len(poly) - 1) + 1):
            acc += poly[j] * out[i - j]
        out[i] = -a0 * acc
    return out


def mul_series(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * order
    for i, av in enumerate(a[:order]):
        if av:
            for j in range(min(len(b), order - i)):
                if b[j]:
                    out[i + j] += av * b[j]
    return out


def geometric_series(d: int, order: int) -> list[int]:
    """1 / (1 - x**d) truncated: ones at every multiple of d."""
    out = [0] * order
    for i in range(0, order, d):
        out[i] = 1
    return out


def one_minus_power_loop(coeffs: list[int], d: int, sign: int) -> list[int]:
    """coeffs times (sign=+1) or divided by (sign=-1) 1 - x**d, one
    coefficient at a time."""
    out = list(coeffs)
    if sign == 1:
        for i in range(len(out) - 1, d - 1, -1):
            out[i] -= out[i - d]
    else:
        for i in range(d, len(out)):
            out[i] += out[i - d]
    return out


def divisor_product(n: int, order: int, exponent: int) -> list[int]:
    """prod over d | n, d < order, of (1 - x**d)**(exponent * mu(n/d)),
    truncated, one factor at a time with no split into low and high d."""
    out = [1] + [0] * (order - 1)
    for d in range(1, order):
        if n % d:
            continue
        cofactor = trial_factor(n // d)
        if any(e > 1 for _, e in cofactor):
            continue
        if exponent * (-1) ** len(cofactor) == 1:
            out = mul_series(out, [1] + [0] * (d - 1) + [-1], order)
        else:
            out = mul_series(out, geometric_series(d, order), order)
    return out


def sieve_primes(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p : limit + 1 : p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(2, limit + 1) if flags[i]]


def trial_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def cluster_scan_bruteforce(
    modulus: int, count: int, num: int, den: int, floor_n: int, limit: int
) -> tuple[int, list[int]] | None:
    """Smallest n in [floor_n, limit] whose window holds `count` primes.

    Re-sieves from scratch for every candidate n; slow but transparent.
    """
    for n in range(floor_n, limit + 1):
        top = num * n // den + 1
        window = [
            p
            for p in sieve_primes(top)
            if n < p and p * den < n * num and p % modulus == 1 % modulus
        ]
        if len(window) >= count:
            return n, window[:count]
    return None
