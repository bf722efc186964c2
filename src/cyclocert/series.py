"""Exact integer power series truncated at a fixed order.

The truncation order T is the length of the coefficient tuple; index i holds
the coefficient of x**i.  Every operation checks its results against the
signed 64-bit range and raises ArithmeticOverflowError when a coefficient
leaves it, so the fixed-width policy fails loudly instead of growing silently.

Multiplication and inversion are the naive O(T^2) loops, which only the
tests use.  The hot path, multiplying or dividing by a binomial
1 - x**d, is apply_one_minus_power: O(T) element operations run inside
slice and accumulate calls over chunks of at most _CHUNK coefficients, plus
one range check of all T results per step.  Truncated cyclotomic products
call it only for divisors with 2d < T (see cyclo), so a product costs
O(T) per such divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub

from .errors import ArithmeticOverflowError, MACHINE_INT_MAX, NonUnitConstantTermError

_MIN = -MACHINE_INT_MAX

# slice length of the in-place kernels below; it bounds their temporaries
_CHUNK = 4096


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer coefficients of a power series modulo x**T, T = len(coeffs)."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("truncation order must be at least 1")

    @classmethod
    def one(cls, truncation: int) -> "TruncatedSeries":
        """The unit series 1 at the given truncation."""
        if truncation < 1:
            raise ValueError(f"truncation must be at least 1, got {truncation}")
        return cls((1,) + (0,) * (truncation - 1))

    @classmethod
    def from_coeffs(cls, values, truncation: int) -> "TruncatedSeries":
        """Build from an iterable, padding with zeros or truncating to T."""
        vals = list(values)[:truncation]
        vals.extend(0 for _ in range(truncation - len(vals)))
        for v in vals:
            if v > MACHINE_INT_MAX or v < _MIN:
                raise ArithmeticOverflowError("coefficient outside the 64-bit range")
        return cls(tuple(vals))

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    def coefficient(self, k: int) -> int:
        if not 0 <= k < len(self.coeffs):
            raise IndexError(f"coefficient index {k} outside truncation {len(self.coeffs)}")
        return self.coeffs[k]

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Convolution truncated to the shared order."""
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("cannot multiply series with different truncations")
        t = len(self.coeffs)
        out = [0] * t
        b = other.coeffs
        for i, av in enumerate(self.coeffs):
            if av == 0:
                continue
            for j in range(t - i):
                bv = b[j]
                if bv:
                    out[i + j] += av * bv
        for v in out:
            if v > MACHINE_INT_MAX or v < _MIN:
                raise ArithmeticOverflowError("product coefficient outside the 64-bit range")
        return TruncatedSeries(tuple(out))

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse mod x**T; requires constant term +1 or -1."""
        a = self.coeffs
        a0 = a[0]
        if a0 not in (1, -1):
            raise NonUnitConstantTermError(f"constant term must be +1 or -1, got {a0}")
        t = len(a)
        inv = [0] * t
        inv[0] = a0
        for i in range(1, t):
            acc = 0
            for j in range(1, i + 1):
                aj = a[j]
                if aj:
                    acc += aj * inv[i - j]
            v = -a0 * acc
            if v > MACHINE_INT_MAX or v < _MIN:
                raise ArithmeticOverflowError("inverse coefficient outside the 64-bit range")
            inv[i] = v
        return TruncatedSeries(tuple(inv))

    def apply_one_minus_power(self, d: int, sign: int) -> "TruncatedSeries":
        """Multiply (sign=+1) or divide (sign=-1) by 1 - x**d, in O(T).

        Multiplication is c'_i = c_i - c_{i-d}; division is the running-sum
        recurrence c'_i = c_i + c'_{i-d}.  A d at or beyond the truncation is
        a no-op since 1 - x**d = 1 mod x**T.  The whole result is range
        checked once, after the step.
        """
        if d < 1:
            raise ValueError(f"exponent d must be at least 1, got {d}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if d >= len(self.coeffs):
            return self
        c = list(self.coeffs)
        if sign == 1:
            _multiply_in_place(c, d)
        elif d * d < _CHUNK:
            _divide_small_in_place(c, d)
        else:
            _divide_in_place(c, d)
        if max(c) > MACHINE_INT_MAX or min(c) < _MIN:
            raise ArithmeticOverflowError("coefficient outside the 64-bit range")
        return TruncatedSeries(tuple(c))


def _multiply_in_place(c: list[int], d: int) -> None:
    # c[i] -= c[i-d], top chunk first, so every c[i-d] read is still unchanged
    hi = len(c)
    while hi > d:
        lo = max(d, hi - _CHUNK)
        c[lo:hi] = map(sub, c[lo:hi], c[lo - d : hi - d])
        hi = lo


def _divide_in_place(c: list[int], d: int) -> None:
    # c[i] += c[i-d], bottom chunk first; a chunk spans at most d indices, so
    # every c[i-d] it reads is already final
    t = len(c)
    width = min(d, _CHUNK)
    for lo in range(d, t, width):
        hi = min(t, lo + width)
        c[lo:hi] = map(add, c[lo:hi], c[lo - d : hi - d])


def _divide_small_in_place(c: list[int], d: int) -> None:
    # for small d those chunks would be short: run a prefix sum along each
    # residue class instead, one block of about _CHUNK indices at a time; past
    # the first block each class slice starts at its last final element,
    # which accumulate passes through unchanged
    t = len(c)
    block = _CHUNK // d * d
    for lo in range(0, t, block):
        hi = min(t, lo + block)
        for start in range(lo - d, lo) if lo else range(d):
            c[start:hi:d] = accumulate(c[start:hi:d])
