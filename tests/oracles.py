"""Independent reference implementations used as test oracles.

Everything here is deliberately written against library code paths: dense
lists, schoolbook algorithms, trial division.  Nothing imports from the
package under test.
"""

import json
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


def psi_by_product(n: int) -> list[int]:
    """Psi_n = (x**n - 1) / Phi_n as the schoolbook product of Phi_d over
    the proper divisors d of n."""
    out = [1]
    for d in range(1, n):
        if n % d == 0:
            out = poly_mul(out, cyclotomic_by_division(d))
    return out


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


def geometric_sum_loop(coeffs: list[int], d: int, q: int) -> list[int]:
    """coeffs times 1 + x**d + ... + x**((q-1)*d), truncated, one term at a
    time."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i, min(len(out), i + q * d), d):
            out[j] += c
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
        out = one_minus_power_loop(out, d, exponent * (-1) ** len(cofactor))
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


def cluster_scan_bruteforce(
    modulus: int, count: int, num: int, den: int, floor_n: int, limit: int
) -> tuple[int, list[int]] | None:
    """Smallest n in [floor_n, limit] whose window holds `count` primes.

    Sieves once up to r*limit, then collects the window of every candidate
    n afresh from all those primes in the class; slow but transparent.
    """
    candidates = [p for p in sieve_primes(num * limit // den + 1) if p % modulus == 1 % modulus]
    for n in range(floor_n, limit + 1):
        window = [p for p in candidates if n < p and p * den < n * num]
        if len(window) >= count:
            return n, window[:count]
    return None


def serialize_document_by_dumps(document) -> str:
    """A certificate document as json.dumps(..., indent=2) writes it: the
    fields in schema order, then the verification report when present."""
    cert = document.certificate
    plan = cert.plan
    data = {
        "schema_version": "1",
        "mode": cert.mode,
        "m": cert.m_original,
        "v": cert.v,
        "kernel": plan.kernel,
        "mu_kernel": plan.mu_kernel,
        "t": plan.t,
        "delta": plan.delta,
        "cluster_n": cert.cluster.n,
        "primes": list(cert.cluster.primes),
        "q": cert.q,
        "N_factors": [[p, e] for p, e in cert.N.factors],
        "k": cert.k_kernel,
        "stretch": cert.stretch,
        "N_lifted_factors": [[p, e] for p, e in cert.N_lifted.factors],
        "k_lifted": cert.k_lifted,
        "truncation": cert.truncation,
        "ratio_num": cert.ratio_num,
        "ratio_den": cert.ratio_den,
    }
    if document.verification is not None:
        data["verification"] = report_fields(document.verification)
    return json.dumps(data, indent=2) + "\n"


def report_fields(report) -> dict:
    """A verification report as the JSON object that `verify` prints and a
    document embeds."""
    return {
        "pass": report.passed,
        "computed_value": report.computed_value,
        "window_checked": report.window_checked,
        "reasons": list(report.reasons),
    }


def whole_window_mismatches(expand, n, p_first, p_last, period, mu, t) -> list[int]:
    """The indices k of the window [p_t, 2*p_1) at which the expansion
    differs from the window identity c(K, k) - mu * t * c(K, k - 1).

    `expand(n, truncation, start)` is read over the whole window at once,
    at truncation 2*p_1, and `period` is one period of c(K, .): every index
    is compared, and the expansion is not assumed periodic."""
    if p_last >= 2 * p_first:
        return []
    expansion = expand(n, 2 * p_first, p_last)
    kernel = len(period)
    return [
        k
        for k, got in enumerate(expansion, p_last)
        if got != period[k % kernel] - mu * t * period[(k - 1) % kernel]
    ]


def _odd_height_bound(odd: list[int]) -> int | None:
    """The proven bound on |a(n, k)| from n's odd primes, ascending: 1 for
    at most two (Migotti), q1 - ceil(q1/4) for three (Bachman), else None."""
    if len(odd) <= 2:
        return 1
    if len(odd) == 3:
        return odd[0] - (odd[0] + 3) // 4
    return None


def scan_by_factoring(m: int, nmax: int, kmax: int | None, coefficients) -> list[list[int]]:
    """The rows [value, n, k] of `scan --m m --nmax nmax [--kmax kmax]`,
    each value with its first (n, k), by the per-n loop that factors every
    n = m*j by trial division.  n is skipped when its height bound B leaves
    no value unseen (all of [-B, B] seen), or when it is not squarefree,
    m divides rad(n) and 0 has been seen; otherwise a(n, 0..kmax) are read
    from coefficients(n), all of Phi_n's coefficients."""
    first_seen: dict[int, tuple[int, int]] = {}
    for j in range(1, nmax + 1):
        n = m * j
        primes = [p for p, _ in trial_factor(n)]
        bound = _odd_height_bound([p for p in primes if p > 2])
        if bound is not None and all(v in first_seen for v in range(-bound, bound + 1)):
            continue
        rad = 1
        for p in primes:
            rad *= p
        if rad < n and rad % m == 0 and 0 in first_seen:
            continue
        coeffs = list(coefficients(n))
        if kmax is not None:
            coeffs = coeffs[: max(kmax + 1, 0)]
        for k, value in enumerate(coeffs):
            first_seen.setdefault(value, (n, k))
    return [[value, n, k] for value, (n, k) in sorted(first_seen.items())]


def first_over_budget(m: int, nmax: int, budget: int) -> int | None:
    """The first n = m*j, j <= nmax, with phi(n) above the budget."""
    for j in range(1, nmax + 1):
        n = m * j
        phi = n
        for p, _ in trial_factor(n):
            phi = phi // p * (p - 1)
        if phi > budget:
            return n
    return None
