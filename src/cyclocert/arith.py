"""Elementary multiplicative number theory over machine-width integers.

Factorization, the Mobius and Euler phi functions, squarefree kernels,
deterministic primality (one value at a time, or a whole list by one
interval sieve where its window is dense), and the search for clusters of
primes p = 1 (mod m) inside an interval (n, r*n) with r < 2.  That search
is one pass over the primes of the class, read from a segmented sieve of
the progression: O(r*n/m) sieve work plus O(number of class primes) steps
for a cluster found at n, in O(t + segment) memory.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from math import gcd, isqrt, prod
from operator import sub

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


def _small_primes(limit: int) -> list[int]:
    """The primes up to limit, ascending, by a plain sieve of Eratosthenes."""
    flags = bytearray(b"\x01") * (limit + 1)
    flags[:2] = b"\x00\x00"
    for q in range(2, isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, limit + 1, q)))
    return list(compress(range(limit + 1), flags))


_TRIAL_LIMIT = 1 << 12
# the primes below _TRIAL_LIMIT and the least above it, whose square passes
# 2**24, so every n below 2**24 ends the walk at some d with d*d > n
_TRIAL_PRIMES = (*_small_primes(_TRIAL_LIMIT), 4099)


def factor(n: int) -> FactoredInteger:
    """Factor a machine-width integer.

    Trial division by the primes below _TRIAL_LIMIT = 4096 and by 4099,
    which settles every n below 2**24 alone.  A larger cofactor, whose
    primes all exceed the limit, is kept when is_prime accepts it and
    otherwise split by Brent's rho, _brent_divisor; the pieces wait on an
    explicit stack, so no input recurses or trial-divides past the table.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    if n > MACHINE_INT_MAX:
        raise ArithmeticOverflowError(f"{n} exceeds the 64-bit range")
    out = []
    for d in _TRIAL_PRIMES:
        if d * d > n:
            if n > 1:
                out.append((n, 1))
            return FactoredInteger(tuple(out))
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
    large: dict[int, int] = {}
    stack = [n] if n > 1 else []
    while stack:
        u = stack.pop()
        if is_prime(u):
            large[u] = large.get(u, 0) + 1
        else:
            g = _brent_divisor(u)
            stack += (g, u // g)
    return FactoredInteger(tuple(out) + tuple(sorted(large.items())))


def _brent_divisor(n: int) -> int:
    """A divisor 1 < g < n of a composite n with no prime below _TRIAL_LIMIT.

    Brent's cycle-finding rho (Brent, BIT 20, 1980) on x -> x*x + c mod n,
    with the gcd taken once per 128 steps and the last block replayed step
    by step when it overshoots to n; c runs 1, 2, ... until a split shows,
    so the answer is deterministic.  About n**(1/4) steps are expected,
    some 2**16 for a 64-bit n.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def mobius(n: FactoredInteger) -> int:
    """Mobius function: 0 on non-squarefree input, else (-1)**(prime count)."""
    if any(e > 1 for _, e in n.factors):
        return 0
    return -1 if len(n.factors) % 2 else 1


def euler_phi(n: FactoredInteger) -> int:
    """Euler's totient, multiplicatively: phi(p**e) = p**(e-1) * (p-1)."""
    out = 1
    for p, e in n.factors:
        for step in range(e):
            out *= p if step else p - 1
            if out > MACHINE_INT_MAX:
                raise ArithmeticOverflowError("totient exceeds the 64-bit range")
    return out


def radical(n: FactoredInteger) -> FactoredInteger:
    """Squarefree kernel: the same primes, all exponents dropped to 1."""
    return FactoredInteger(tuple((p, 1) for p, _ in n.factors))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = frozenset(_MR_BASES)
_SMALL_PRODUCT = prod(_MR_BASES)  # 7,420,738,134,810


def is_prime(u: int) -> bool:
    """Deterministic primality for 0 <= u < 2**64.

    u <= 37 is answered by membership among the 12 primes 2, 3, ..., 37,
    and a larger u sharing a factor with their product (one gcd) is
    composite.  The rest goes to Miller-Rabin with the fewest of those
    primes as bases that is proven exact for u: the first 2 below
    psi_2 = 1,373,653, the first 3 below psi_3 = 25,326,001, the first 4
    below psi_4 = 3,215,031,751, the first 7 below psi_7 =
    341,550,071,728,321, and all 12 otherwise, which is exact below
    psi_12 = 318,665,857,834,031,151,167,461, about 3.2 * 10**23.  The
    psi_k up to psi_8 are Jaeschke's (Math. Comp. 61, 1993), psi_12 and
    psi_13 Sorenson and Webster's (Math. Comp. 86, 2017); no probabilistic
    answers.  u >= 2**64, outside the documented domain, raises
    ArithmeticOverflowError: the 12 bases pass composites there, such as
    psi_13 = 3,317,044,064,679,887,385,961,981 = 1,287,836,182,261 *
    2,575,672,364,521.
    """
    if u >= 1 << 64:
        raise ArithmeticOverflowError("is_prime is proven only below 2**64")
    if u <= 37:
        return u in _SMALL_PRIMES
    if gcd(u, _SMALL_PRODUCT) != 1:
        return False
    if u < 1_373_653:  # psi_2
        bases = _MR_BASES[:2]
    elif u < 25_326_001:  # psi_3
        bases = _MR_BASES[:3]
    elif u < 3_215_031_751:  # psi_4
        bases = _MR_BASES[:4]
    elif u < 341_550_071_728_321:  # psi_7
        bases = _MR_BASES[:7]
    else:
        bases = _MR_BASES
    d = u - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
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


_SIEVE_SEGMENT = 1 << 18  # window entries per segment of all_prime's sieve
# window entries all_prime's sieve strikes in the time of one Miller-Rabin
# call below psi_2, about 2.5 us against 3 ns an entry on one 2-vCPU core;
# each unit of isqrt(hi), for the base primes, costs an eighth of that, and
# the sieve's set-up about eight calls on the small values of the
# acceptance grid.  Larger values make Miller-Rabin dearer, so the rule
# leans towards it.
_SIEVE_BREAK_EVEN = 512


def all_prime(values: Sequence[int]) -> bool:
    """all(map(is_prime, values)), by one interval sieve where that is cheaper.

    For t values in the window [lo, hi], 2 <= lo, the sieve costs about
    hi - lo + isqrt(hi) * _SIEVE_BREAK_EVEN / 8 entries, and it is taken
    when that is below _SIEVE_BREAK_EVEN * (t - 8), the entries of t - 8
    Miller-Rabin calls; a cluster of the hunter at m = 30 spans about 100
    integers per prime.  Otherwise, as for the small clusters of the
    acceptance grid, wide kernels (about phi(K) * ln(n) integers per prime)
    or huge and sparse values, each value goes to is_prime.
    """
    t = len(values)
    if t > 8:
        lo, hi = min(values), max(values)
        if lo >= 2 and hi - lo + isqrt(hi) * (_SIEVE_BREAK_EVEN // 8) < _SIEVE_BREAK_EVEN * (t - 8):
            return _window_all_prime(sorted(values))
    return all(map(is_prime, values))


def _window_all_prime(values: list[int]) -> bool:
    """Whether every one of the ascending values, all at least 2, is prime.

    A segmented sieve of Eratosthenes over [values[0], values[-1]] (Bays
    and Hudson, BIT 17, 1977).  Its base primes up to isqrt of the top come
    from _small_primes, the plain sieve that factor's trial primes come
    from too, and not from the hunter's _class_primes, so the verifier
    shares no sieve with the hunter's search.  It holds the base primes and
    one segment of _SIEVE_SEGMENT flags; all_prime's rule keeps isqrt of
    the top below 8t.
    """
    lo, hi = values[0], values[-1]
    bases = _small_primes(isqrt(hi))
    zeros = memoryview(bytes(min(hi - lo, _SIEVE_SEGMENT) // 2 + 1))
    for start in range(lo, hi + 1, _SIEVE_SEGMENT):
        size = min(_SIEVE_SEGMENT, hi + 1 - start)
        flags = bytearray(b"\x01") * size
        for q in bases:
            # strike from q*q on, so q itself stays when it lies in the window
            offset = q * q - start
            if offset >= size:
                break
            if offset < 0:
                offset = -start % q
            if offset < size:
                flags[offset::q] = zeros[: (size - 1 - offset) // q + 1]
        chunk = values[bisect_left(values, start) : bisect_left(values, start + size)]
        if not all(map(flags.__getitem__, map(sub, chunk, repeat(start)))):
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


_SEGMENT_MAX = 1 << 16  # class members per sieve segment


def _class_primes(modulus: int, above: int, top: int) -> Iterator[int]:
    """The primes p = 1 (mod modulus) with above < p <= top, ascending; above >= 1.

    A segmented sieve of the progression alone: one flag per class member,
    struck by the base primes up to sqrt of the segment's last member that
    do not divide the modulus (those never divide a member).  The base
    primes come from this sieve at modulus 1.  Segments double from 64
    members to _SEGMENT_MAX, so a search that ends early sieves little and
    a long one holds one bounded segment.
    """
    residue = 1 % modulus
    # members are residue + j*modulus; sieve the indices j in [lo, stop)
    lo = (above - residue) // modulus + 1
    stop = (top - residue) // modulus + 1
    size = 64
    base_limit = 1
    bases: list[tuple[int, int]] = []  # (q, j mod q of the members q divides)
    while lo < stop:
        hi = min(stop, lo + size)
        first = residue + lo * modulus
        last = residue + (hi - 1) * modulus
        if isqrt(last) > base_limit:
            base_limit = min(max(2 * base_limit, isqrt(last)), isqrt(top))
            bases = [
                (q, -residue * pow(modulus, -1, q) % q)
                for q in _class_primes(1, 1, base_limit)
                if modulus % q
            ]
        flags = bytearray(b"\x01") * (hi - lo)
        for q, j_q in bases:
            # strike from q*q on, so q itself stays when it is a member
            j = -(-(max(q * q, first) - residue) // modulus)
            j += (j_q - j) % q
            if j < hi:
                flags[j - lo :: q] = bytes(len(range(j, hi, q)))
        yield from compress(range(first, last + 1, modulus), flags)
        lo = hi
        size = min(2 * size, _SEGMENT_MAX)


def find_prime_cluster(
    spec: PrimeClusterSpec, *, scan_ceiling: int = DEFAULT_SCAN_CEILING
) -> PrimeCluster:
    """The least n >= floor_n whose window (n, r*n) holds `count` class primes.

    Returns that n with the `count` smallest primes = 1 (mod modulus) above
    it.  One forward pass over those primes p_0 < p_1 < ... above floor_n:
    the cluster p_i..p_{i+t-1} admits every n from max(floor_n, p_{i-1},
    floor(p_{i+t-1}/r) + 1) up to p_i - 1, and these lower ends never
    decrease in i, so the first i whose range is not empty gives the least
    n.  Cost: O(r*n/m) sieve work plus one step per class prime; memory:
    the t + 1 primes at hand and one sieve segment.  Dirichlet guarantees
    eventual success, but the search stops with SearchBoundExceededError
    once no n <= scan_ceiling can work, reading no prime at or above
    r*scan_ceiling, so resource use stays explicit.
    """
    m, t = spec.modulus, spec.count
    num, den = spec.ratio_num, spec.ratio_den
    top, residue = (scan_ceiling * num - 1) // den, 1 % m
    # no search when the class has fewer than t members in (floor_n, top]
    if t <= (top - residue) // m - (spec.floor_n - residue) // m:
        window: deque[int] = deque(maxlen=t)  # p_i..p_{i+t-1} once full
        low = spec.floor_n  # max(floor_n, p_{i-1})
        for p in _class_primes(m, spec.floor_n, top):
            if len(window) == t:
                low = window[0]
            window.append(p)
            if len(window) == t:
                n = max(low, p * den // num + 1)
                if n > scan_ceiling:
                    break
                if n < window[0]:
                    return PrimeCluster(n=n, primes=tuple(window))
    raise SearchBoundExceededError(
        f"no cluster of {t} primes = 1 (mod {m}) in (n, {num}/{den}*n) for n <= {scan_ceiling}"
    )
