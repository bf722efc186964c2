"""The working buffer of a truncated power-series product.

A TruncatedSeries holds the integer coefficients of a power series modulo
x**T as one list of length T (index i holds the coefficient of x**i) and is
stepped in place.  Its one operation, apply_one_minus_power, multiplies or
divides the list by a binomial 1 - x**d: O(T) element operations run inside
slice and accumulate calls over chunks of at most _CHUNK coefficients, so a
step allocates no second array of length T.  It checks its results against
the signed 64-bit range and raises ArithmeticOverflowError when a
coefficient leaves it, so the fixed-width policy fails loudly instead of
growing silently.

The check goes through a proven bound B >= max |c_i| that each step
carries forward: a multiplication at most doubles it, a division
multiplies it by the number of terms in a running sum, floor((T-1)/d) + 1.
All T coefficients are scanned only when B leaves the 64-bit range, and B
then drops to the exact maximum, so a step raises exactly when one of its
coefficients leaves the range.  Truncated cyclotomic products call
it only for divisors with 2d < T (see cyclo), so a product costs O(T) per
such divisor.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, sub

from .errors import ArithmeticOverflowError, MACHINE_INT_MAX

_MIN = -MACHINE_INT_MAX

# slice length of the in-place kernels below; it bounds their temporaries
_CHUNK = 4096


class TruncatedSeries:
    """Integer coefficients of a power series modulo x**T, T = len(coeffs),
    updated in place.

    bound is at least the largest |coefficient|; it lets
    apply_one_minus_power skip its range scan.
    """

    __slots__ = ("coeffs", "bound")

    def __init__(self, coeffs: list[int], bound: int) -> None:
        self.coeffs = coeffs
        self.bound = bound

    def apply_one_minus_power(self, d: int, sign: int) -> None:
        """Multiply (sign=+1) or divide (sign=-1) the series by 1 - x**d,
        in place and in O(T).

        Multiplication is c'_i = c_i - c_{i-d}; division is the running-sum
        recurrence c'_i = c_i + c'_{i-d}.  A d at or beyond the truncation is
        a no-op since 1 - x**d = 1 mod x**T.  The result is range checked
        after the step, by a scan of every coefficient only where the
        carried bound does not already prove it (see the module docstring);
        when that check raises, coeffs holds the out-of-range result.
        """
        if d < 1:
            raise ValueError(f"exponent d must be at least 1, got {d}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        c = self.coeffs
        if d >= len(c):
            return
        if sign == 1:
            _multiply_in_place(c, d)
            growth = 2
        else:
            if d * d < _CHUNK:
                _divide_small_in_place(c, d)
            else:
                _divide_in_place(c, d)
            growth = (len(c) - 1) // d + 1
        bound = self.bound * growth
        if bound > MACHINE_INT_MAX:
            top, bottom = max(c), min(c)
            if top > MACHINE_INT_MAX or bottom < _MIN:
                raise ArithmeticOverflowError("coefficient outside the 64-bit range")
            bound = max(top, -bottom)
        self.bound = bound


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
