"""Elementary multiplicative number theory over machine-width integers.

Factorization, the Mobius and Euler phi functions, squarefree kernels,
deterministic primality, bounded divisor enumeration, and the search for
clusters of primes p = 1 (mod m) inside an interval (n, r*n) with r < 2.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt

from .errors import ArithmeticOverflowError, MACHINE_INT_MAX, SearchBoundExceededError

DEFAULT_SCAN_CEILING = 100_000_000


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer held as its ordered prime factorization.

    The empty factorization represents 1.  Numbers assembled this way may be
    far beyond machine width; only value() insists on a 64-bit result.
    Entries are validated for ordering and positivity but not for primality,
    so untrusted factorizations (e.g. from a certificate file) can be held
    and then rejected by an explicit primality check.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError(f"prime entries must be strictly increasing, got {p} after {last}")
            if e < 1:
                raise ValueError(f"exponent of {p} must be at least 1, got {e}")
            last = p

    @classmethod
    def one(cls) -> "FactoredInteger":
        return cls(())

    @property
    def is_one(self) -> bool:
        return not self.factors

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def value(self) -> int:
        """Expand the product, refusing results beyond machine width."""
        out = 1
        for p, e in self.factors:
            for _ in range(e):
                out *= p
                if out > MACHINE_INT_MAX:
                    raise ArithmeticOverflowError("expanded value exceeds the 64-bit range")
        return out

    def __mul__(self, other: "FactoredInteger") -> "FactoredInteger":
        merged: dict[int, int] = {}
        for p, e in self.factors:
            merged[p] = merged.get(p, 0) + e
        for p, e in other.factors:
            merged[p] = merged.get(p, 0) + e
        return FactoredInteger(tuple(sorted(merged.items())))

    def divides(self, other: "FactoredInteger") -> bool:
        """Exponent-wise divisibility test; never expands either value."""
        exps = dict(other.factors)
        return all(exps.get(p, 0) >= e for p, e in self.factors)


_SMALL_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def factor(n: int) -> FactoredInteger:
    """Factor a machine-width integer by trial division with a 2/3/5 wheel.

    Large composite values are only ever *built* in factored form by this
    package, never factored, so trial division is all that is needed here.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    if n > MACHINE_INT_MAX:
        raise ArithmeticOverflowError(f"{n} exceeds the 64-bit range")
    out = []
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d, step = 7, 0
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += _SMALL_WHEEL[step]
        step = (step + 1) & 7
    if n > 1:
        out.append((n, 1))
    return FactoredInteger(tuple(out))


def mobius(n: FactoredInteger) -> int:
    """Mobius function: 0 on non-squarefree input, else (-1)**(prime count)."""
    if any(e > 1 for _, e in n.factors):
        return 0
    return -1 if len(n.factors) % 2 else 1


def euler_phi(n: FactoredInteger) -> int:
    """Euler's totient, multiplicatively: phi(p**e) = p**(e-1) * (p-1)."""
    out = 1
    for p, e in n.factors:
        out *= p - 1
        for _ in range(e - 1):
            out *= p
        if out > MACHINE_INT_MAX:
            raise ArithmeticOverflowError("totient exceeds the 64-bit range")
    return out


def radical(n: FactoredInteger) -> FactoredInteger:
    """Squarefree kernel: the same primes, all exponents dropped to 1."""
    return FactoredInteger(tuple((p, 1) for p, _ in n.factors))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(u: int) -> bool:
    """Deterministic primality for 0 <= u < 2**64.

    Miller-Rabin with the fixed witness set {2, 3, ..., 37}, which is known
    to be exact below 3.3 * 10**24; no probabilistic answers.
    """
    if u < 2:
        return False
    for p in _MR_BASES:
        if u == p:
            return True
        if u % p == 0:
            return False
    d = u - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, u)
        if x == 1 or x == u - 1:
            continue
        for _ in range(s - 1):
            x = x * x % u
            if x == u - 1:
                break
        else:
            return False
    return True


def next_prime_above(x: int) -> int:
    """Smallest prime strictly greater than x."""
    if x < 0:
        raise ValueError(f"expected a nonnegative integer, got {x}")
    candidate = max(2, x + 1)
    while not is_prime(candidate):
        candidate += 1
        if candidate > MACHINE_INT_MAX:
            raise ArithmeticOverflowError("next prime exceeds the 64-bit range")
    return candidate


def divisors_up_to(n: FactoredInteger, bound: int) -> list[int]:
    """All divisors d of n with d <= bound, ascending.

    Grows the divisor list one prime power at a time, pruning products
    against the bound; n itself is never expanded and no recursion is used,
    so this stays cheap even when n has thousands of primes and bound is
    small.
    """
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    found = [1]
    for p, e in n.factors:
        if p > bound:
            break  # primes ascend, so no later one fits either
        grown = []
        for d in found:
            for _ in range(e):
                if d > bound // p:
                    break
                d *= p
                grown.append(d)
        found += grown
    return sorted(found)


@dataclass(frozen=True)
class PrimeClusterSpec:
    """What to search for: `count` primes = 1 (mod `modulus`) in (n, r*n).

    The ratio r = ratio_num / ratio_den is an exact rational with 1 < r < 2;
    all interval comparisons are done by cross multiplication, never floats.
    """

    modulus: int
    count: int
    ratio_num: int
    ratio_den: int
    floor_n: int = 1

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if self.count < 1:
            raise ValueError("count must be positive")
        if not 0 < self.ratio_den < self.ratio_num < 2 * self.ratio_den:
            raise ValueError(
                f"ratio must satisfy 1 < num/den < 2, got {self.ratio_num}/{self.ratio_den}"
            )
        if self.floor_n < 1:
            raise ValueError("floor_n must be positive")


@dataclass(frozen=True)
class PrimeCluster:
    """A found cluster: n < p_1 < ... < p_t < r*n, every p_i = 1 (mod m).

    Since r < 2 this forces p_t < 2*p_1.  The invariants are established by
    find_prime_cluster and revalidated by the certificate verifier; the
    container itself is a plain holder.
    """

    n: int
    primes: tuple[int, ...]


def _sieve_primes(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start : limit + 1 : p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i in range(2, limit + 1) if flags[i]]


def find_prime_cluster(
    spec: PrimeClusterSpec, *, scan_ceiling: int = DEFAULT_SCAN_CEILING
) -> PrimeCluster:
    """Scan n = floor_n, floor_n + 1, ... for the first admissible cluster.

    Returns the cluster with the smallest n such that the open interval
    (n, r*n) contains at least `count` primes = 1 (mod modulus), taking the
    `count` smallest of them.  Dirichlet guarantees eventual success, but the
    scan stops with SearchBoundExceededError once n passes `scan_ceiling` so
    resource use stays explicit.
    """
    m, t = spec.modulus, spec.count
    num, den = spec.ratio_num, spec.ratio_den
    residue = 1 % m

    limit = 256
    while limit * den < spec.floor_n * num:
        limit *= 2
    primes = [p for p in _sieve_primes(limit) if p % m == residue]

    n = spec.floor_n
    while n <= scan_ceiling:
        if limit * den < n * num:
            # sieve must cover the whole window (n, r*n) before counting
            while limit * den < n * num:
                limit *= 2
            primes = [p for p in _sieve_primes(limit) if p % m == residue]
        lo = bisect_right(primes, n)
        last = lo + t - 1
        if last < len(primes) and primes[last] * den < n * num:
            return PrimeCluster(n=n, primes=tuple(primes[lo : lo + t]))
        n += 1
    raise SearchBoundExceededError(
        f"no cluster of {t} primes = 1 (mod {m}) in (n, {num}/{den}*n) for n <= {scan_ceiling}"
    )
