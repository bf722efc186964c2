"""The working buffer of a truncated power-series product.

A TruncatedSeries holds the integer coefficients c_0..c_{T-1} of a power
series modulo x**T packed into one integer by Kronecker substitution
(Harvey, J. Symbolic Comput. 44, 2009):

    P = sum of c_i * 2**(b*i), kept as a residue modulo 2**(b*T),

for a limb width b of 16, 32 or 64 bits.  Setting x = 2**b is a ring map
from Z[x]/(x**T) to Z/2**(b*T), so every step below is exact modulo
2**(b*T) whatever the limbs hold in the middle of it.  The coefficients are
read back exactly when every c_i lies in [-2**(b-1), 2**(b-1)): adding
2**(b-1) to every limb of P then leaves the b-bit limbs c_i + 2**(b-1),
free of carries.  Its two operations multiply or divide by a binomial
1 - x**d, or multiply by a geometric sum 1 + x**d + ... + x**((q-1)*d),
in a few big-integer shifts and adds that run in C:

- every step shifts by P * x**s mod x**T = (P mod 2**(b*(T-s))) * 2**(b*s);
- multiplication by 1 - x**d is P - P * x**d;
- multiplication by the geometric sum S_q, with q first cut to the
  floor((T-1)/d) + 1 terms below x**T, reads q's bits from the top:
  S_2k = S_k * (1 + x**(k*d)) is one doubling of the running product R,
  and S_2k+1 = 1 + x**d * S_2k is one shift of R added to P, so it takes
  floor(log2 q) + popcount(q) - 1 passes.  Where q has a set bit below
  its top one, it holds P and R at once, one full-width copy more than a
  division;
- division by 1 - x**d is multiplication by S_q for q = 2**L, with L the
  bit length of floor((T-1)/d): the terms of 1/(1 - x**d) from the q-th
  on lie beyond x**T.  No bit of that q lies below its top one, so it is
  L doublings R += R * x**s at s = d, 2d, 4d, ... below T, and no copy of
  P is kept beside R.

A proven bound B >= max |c_i| is carried from step to step: a
multiplication by 1 - x**d at most doubles it, a division or a geometric
sum multiplies it by its number of terms below x**T, floor((T-1)/d) + 1
or min(q, floor((T-1)/d) + 1).  Before a step whose output bound could
reach 2**(b-1), B is tightened without decoding, by a C-speed test of
whether every c_i lies in [-2**(k-1), 2**(k-1)) (_fits), and the limbs
move, by copying bytes, to the narrowest width that the tightened bound
allows.  Where that bound leaves the signed 64-bit range the step
runs on 128-bit limbs and its output is then checked:
ArithmeticOverflowError is raised exactly when a coefficient leaves the
range, so the fixed-width policy fails loudly instead of growing silently,
and otherwise the limbs narrow back to 64 bits and B drops to the exact
maximum.  Truncated cyclotomic products step it only for divisors with
2d < T (see cyclo).
"""

from __future__ import annotations

import sys
from array import array

from .errors import ArithmeticOverflowError, MACHINE_INT_MAX

_WIDTHS = (16, 32, 64, 128)
# array typecodes of the widths a series is read at; 128 only ever holds
# the output of one step, until it is checked and narrowed
_CODES = {16: "h", 32: "i", 64: "q"}
_FLIP_TOP = bytes(byte ^ 0x80 for byte in range(256))


def _limbs(value: int, width: int, count: int) -> int:
    """The integer whose `count` limbs of `width` bits each hold value."""
    return int.from_bytes(value.to_bytes(width // 8, "little") * count, "little")


class TruncatedSeries:
    """Integer coefficients of a power series modulo x**T, packed into one
    integer and updated in place.

    bound is at least the largest |coefficient|; it chooses the limb width
    and lets the steps skip their range checks.  coeffs decodes the
    coefficients into a new list.
    """

    __slots__ = ("packed", "width", "truncation", "bound")

    def __init__(self, coeffs: list[int], bound: int) -> None:
        if bound > MACHINE_INT_MAX:
            raise ArithmeticOverflowError("coefficient outside the 64-bit range")
        width = next(w for w in _WIDTHS if not bound >> (w - 1))
        digits = array(_CODES[width], coeffs)
        if sys.byteorder == "big":
            digits.byteswap()
        self._set_digits(digits, width, len(coeffs), bound)

    @classmethod
    def seeded(cls, truncation: int, terms: list[tuple[int, int]]) -> TruncatedSeries:
        """1 - sum of e * x**d modulo x**truncation over the (d, e) of terms,
        for distinct d in [1, truncation) and e = +-1, written straight into
        16-bit limbs."""
        digits = bytearray(2 * truncation)
        digits[0] = 1
        for d, sign in terms:
            digits[2 * d : 2 * d + 2] = b"\xff\xff" if sign == 1 else b"\x01\x00"
        series = cls.__new__(cls)
        series._set_digits(digits, 16, truncation, 1)
        return series

    def _set_digits(self, digits, width: int, truncation: int, bound: int) -> None:
        # digits holds each c_i modulo 2**width, little-endian; flipping each
        # limb's top bit gives c_i + 2**(width-1), free of carries
        offset = _limbs(1 << (width - 1), width, truncation)
        packed = (int.from_bytes(digits, "little") ^ offset) - offset
        self.packed = packed - ((packed >> (width * truncation)) << (width * truncation))
        self.width = width
        self.truncation = truncation
        self.bound = bound

    @property
    def coeffs(self) -> list[int]:
        return self._decode(0).tolist()

    def suffix(self, start: int) -> tuple[int, ...]:
        """Coefficients start..T-1, decoded once."""
        return tuple(self._decode(start))

    def apply_one_minus_power(self, d: int, sign: int) -> None:
        """Multiply (sign=+1) or divide (sign=-1) the series by 1 - x**d,
        in place.

        Multiplication is c'_i = c_i - c_{i-d}; division is the running-sum
        recurrence c'_i = c_i + c'_{i-d}, computed as the geometric sum of
        every term of 1/(1 - x**d) below x**T by the ladder of
        apply_geometric_sum, with doublings only (see the module docstring).
        A d at or beyond the truncation is a no-op since 1 - x**d = 1 mod
        x**T.  The limbs widen first where the carried bound requires it,
        and the result is range checked where that bound does not already
        prove it (see the module docstring); once the check raises, the
        series holds no usable value.
        """
        if d < 1:
            raise ValueError(f"exponent d must be at least 1, got {d}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        t = self.truncation
        if d >= t:
            return
        if sign == -1:
            # 1/(1 - x**d) = 1 + x**d + x**(2d) + ..., whose terms from the
            # 2**L-th on lie beyond x**T, for L the bit length of (T-1)//d
            self._ladder(d, 1 << ((t - 1) // d).bit_length())
            return
        bound = self._room_for(2)
        p, self.packed = self.packed, 0  # so that the step holds one copy of P
        p -= self._shifted(p, d)
        self._store(p, bound)

    def apply_geometric_sum(self, d: int, q: int) -> None:
        """Multiply the series by 1 + x**d + ... + x**((q-1)*d), in place.

        Only the min(q, floor((T-1)/d) + 1) terms below x**T act, so that is
        the bound's growth, and the step takes floor(log2 q) + popcount(q) - 1
        passes for that q (see the module docstring); a division by 1 - x**d
        runs the same ladder.  The limbs widen and the result is checked as
        in apply_one_minus_power.
        """
        if d < 1:
            raise ValueError(f"exponent d must be at least 1, got {d}")
        if q < 1:
            raise ValueError(f"term count q must be at least 1, got {q}")
        q = min(q, (self.truncation - 1) // d + 1)
        if q > 1:
            self._ladder(d, q)

    def _ladder(self, d: int, q: int) -> None:
        """Multiply the series by 1 + x**d + ... + x**((q-1)*d) for d < T
        and q > 1, reading q's bits from the top (see the module docstring).

        The bound grows by the min(q, floor((T-1)/d) + 1) terms below x**T.
        Where q is a power of two no odd step reads P, so P is not kept
        beside the running product R.
        """
        bound = self._room_for(min(q, (self.truncation - 1) // d + 1))
        r, self.packed = self.packed, 0
        p = r if q & (q - 1) else 0
        k = 1  # r is P times the sum of the first k terms
        for bit in bin(q)[3:]:
            # k*d < T: 2k <= q, and q is at most (T-1)//d + 1 or the least
            # power of two above (T-1)//d
            r += self._shifted(r, k * d)
            k *= 2
            if bit == "1":
                r = p + self._shifted(r, d)
                k += 1
        del p
        self._store(r, bound)

    def _shifted(self, p: int, s: int) -> int:
        """P * x**s modulo x**T: limbs 0..T-s-1 of P, shifted up by s limbs."""
        keep = self.width * (self.truncation - s)
        return (p - ((p >> keep) << keep)) << (self.width * s)

    def _room_for(self, growth: int) -> int:
        """The bound on the output of a step that multiplies the bound by
        `growth`, with the limbs first made room for it (see _make_room)."""
        bound = self.bound * growth
        if bound >> (self.width - 1):
            bound = self._make_room(growth)
        return bound

    def _store(self, p: int, bound: int) -> None:
        """Keep a step's output P modulo 2**(b*T), checked and narrowed when
        it ran on 128-bit limbs, with its bound."""
        b, t = self.width, self.truncation
        self.packed = p - ((p >> (b * t)) << (b * t))
        if b == 128:
            bound = self._narrow_checked()
        self.bound = bound

    def _make_room(self, growth: int) -> int:
        """The bound on the output of a step of this growth, with the input
        bound tightened and the limbs moved to the narrowest width the
        tightened bound allows.

        That is the first width w for which the input passes the fit test
        at k = w - bits(growth), or fits k bits anyway: then
        2**(k-1) * growth < 2**(w-1).  At 128 bits k exceeds 64 for any
        feasible T, so the loop ends there.
        """
        for width in _WIDTHS:
            k = width - growth.bit_length()
            if k >= self.width or k >= 1 and self._fits(1 << (k - 1), k):
                break
        if width != self.width:
            self._repack(width)
        return min(self.bound, 1 << (k - 1)) * growth

    def _fits(self, offset: int, k: int) -> bool:
        """Whether every c_i + offset lies in [0, 2**k), for k <= width and
        0 <= offset <= 2**(k-1): the limb bits from k up are then all zero
        in the offset form (see _offset_bytes), and only then."""
        w, t = self.width // 8, self.truncation
        data = self._offset_bytes(offset)
        return not any(
            data[j : w * t : w].translate(None, bytes(range(1 << max(k - 8 * j, 0))))
            for j in range(k // 8, w)
        )

    def _offset_bytes(self, offset: int, start: int = 0) -> bytes:
        """Limbs start..T-1 of P, with offset added to each, little-endian,
        and one byte more for the carry out of the top limb.

        Where every c_i + offset lies in [0, 2**b) those limbs are exactly
        the c_i + offset, free of carries.  Limbs start..T-1 of P are
        c_start.. less the borrow of the lower limbs' signed sum, which is
        negative exactly when bit b*start - 1 of P is set.
        """
        b, t = self.width, self.truncation
        p = self.packed
        if start:
            p = (p >> (b * start)) + ((p >> (b * start - 1)) & 1)
        count = t - start
        return (p + _limbs(offset, b, count)).to_bytes(b // 8 * count + 1, "little")

    def _repack(self, width: int) -> None:
        """Move the coefficients onto limbs of `width` bits.

        With o = 2**(min(b, width) - 1), every c_i + o fits in the narrower
        of the two limbs; those limbs are copied byte by byte, and o is
        taken back off at the new width.
        """
        old, new, t = self.width // 8, width // 8, self.truncation
        offset = 1 << (8 * min(old, new) - 1)
        data = self._offset_bytes(offset)
        self.packed = 0
        spread = bytearray(new * t)
        for j in range(min(old, new)):
            spread[j::new] = data[j : old * t : old]
        del data
        packed = int.from_bytes(spread, "little")
        del spread
        packed -= _limbs(offset, width, t)
        self.packed = packed - ((packed >> (width * t)) << (width * t))
        self.width = width

    def _narrow_checked(self) -> int:
        """Check a 128-bit result against the signed 64-bit range, narrow it
        to 64-bit limbs and return its exact maximum |c_i|."""
        if not self._fits(1 << 63, 64):
            raise ArithmeticOverflowError("coefficient outside the 64-bit range")
        self._repack(64)
        values = self._decode(0)
        top, bottom = max(values), min(values)
        if bottom < -MACHINE_INT_MAX:
            raise ArithmeticOverflowError("coefficient outside the 64-bit range")
        return max(top, -bottom)

    def _decode(self, start: int) -> array:
        """Coefficients start..T-1 as a signed array: the limbs c_i + 2**(b-1)
        of the offset form, each with its top bit flipped."""
        b = self.width
        w = b // 8
        data = self._offset_bytes(1 << (b - 1), start)
        out = array(_CODES[b])
        out.frombytes(memoryview(data)[:-1])
        top = w - 1
        if sys.byteorder == "big":
            out.byteswap()
            top = 0
        memoryview(out).cast("B")[top::w] = data[w - 1 : -1 : w].translate(_FLIP_TOP)
        return out
