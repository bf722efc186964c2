import random

import pytest
from hypothesis import given, strategies as st

from cyclocert.errors import ArithmeticOverflowError, NonUnitConstantTermError
from cyclocert.series import TruncatedSeries

from oracles import invert_series, one_minus_power_loop

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=64)
# inverse coefficients can grow like 9 * 10**(i-1), so keep inversion inputs
# short enough that the checked 64-bit range cannot overflow mid-property
invertible_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=16)


def series(*coeffs: int) -> TruncatedSeries:
    return TruncatedSeries(tuple(coeffs))


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    def test_one(self):
        assert TruncatedSeries.one(4).coeffs == (1, 0, 0, 0)

    def test_from_coeffs_pads_and_truncates(self):
        assert TruncatedSeries.from_coeffs([1, 2], 4).coeffs == (1, 2, 0, 0)
        assert TruncatedSeries.from_coeffs([1, 2, 3, 4], 2).coeffs == (1, 2)


class TestMul:
    def test_difference_of_squares(self):
        assert series(1, 1, 0).mul(series(1, -1, 0)).coeffs == (1, 0, -1)

    def test_zero_annihilates(self):
        assert series(3, -2, 7).mul(series(0, 0, 0)).coeffs == (0, 0, 0)

    def test_square_of_geometric_prefix(self):
        assert series(1, 1, 1).mul(series(1, 1, 1)).coeffs == (1, 2, 3)

    def test_truncation_mismatch(self):
        with pytest.raises(ValueError):
            series(1, 2).mul(series(1, 2, 3))

    def test_overflow_detected(self):
        big = 2**62
        with pytest.raises(ArithmeticOverflowError):
            series(big, 0).mul(series(4, 0))

    @given(coeff_lists, coeff_lists)
    def test_commutative(self, a, b):
        t = min(len(a), len(b))
        x, y = TruncatedSeries(tuple(a[:t])), TruncatedSeries(tuple(b[:t]))
        assert x.mul(y) == y.mul(x)

    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_associative(self, a, b, c):
        t = min(len(a), len(b), len(c))
        x = TruncatedSeries(tuple(a[:t]))
        y = TruncatedSeries(tuple(b[:t]))
        z = TruncatedSeries(tuple(c[:t]))
        assert x.mul(y).mul(z) == x.mul(y.mul(z))


class TestInvert:
    def test_geometric(self):
        assert series(1, -1, 0, 0).invert().coeffs == (1, 1, 1, 1)

    def test_inverse_of_hexagonal_cyclotomic(self):
        # 1 - x + x**2 inverts to the period-6 pattern
        inverted = series(1, -1, 1, 0, 0, 0, 0, 0).invert()
        assert inverted.coeffs == (1, 1, 0, -1, -1, 0, 1, 1)
        assert list(inverted.coeffs) == invert_series([1, -1, 1], 8)

    def test_negated_geometric(self):
        assert series(-1, 1, 0).invert().coeffs == (-1, -1, -1)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitConstantTermError):
            series(2, 1).invert()
        with pytest.raises(NonUnitConstantTermError):
            series(0, 1).invert()

    def test_overflow_detected(self):
        with pytest.raises(ArithmeticOverflowError):
            series(1, -(2**62), 0, 0).invert()

    @given(invertible_lists, st.sampled_from([1, -1]))
    def test_involution(self, coeffs, unit):
        coeffs[0] = unit
        a = TruncatedSeries(tuple(coeffs))
        assert a.invert().invert() == a

    @given(invertible_lists, st.sampled_from([1, -1]))
    def test_product_with_inverse_is_one(self, coeffs, unit):
        coeffs[0] = unit
        a = TruncatedSeries(tuple(coeffs))
        assert a.mul(a.invert()) == TruncatedSeries.one(len(coeffs))


class TestApplyOneMinusPower:
    def test_divide_by_one_minus_x(self):
        assert series(1, 1, 1).apply_one_minus_power(1, -1).coeffs == (1, 2, 3)

    def test_geometric_in_cube(self):
        got = TruncatedSeries.one(7).apply_one_minus_power(3, -1)
        assert got.coeffs == (1, 0, 0, 1, 0, 0, 1)

    def test_multiply_cube_binomial(self):
        got = series(1, 0, 0, 1, 0, 0, 0).apply_one_minus_power(3, 1)
        assert got.coeffs == (1, 0, 0, 0, 0, 0, -1)

    def test_exponent_beyond_truncation_is_identity(self):
        a = series(4, -1, 2)
        assert a.apply_one_minus_power(5, 1) == a

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            series(1, 0).apply_one_minus_power(0, 1)
        with pytest.raises(ValueError):
            series(1, 0).apply_one_minus_power(2, 3)

    @given(coeff_lists, st.integers(min_value=1, max_value=63))
    def test_roundtrip(self, coeffs, d):
        a = TruncatedSeries(tuple(coeffs))
        assert a.apply_one_minus_power(d, 1).apply_one_minus_power(d, -1) == a
        assert a.apply_one_minus_power(d, -1).apply_one_minus_power(d, 1) == a

    @pytest.mark.parametrize("d", [1, 2, 7, 63, 64, 65, 1000, 4095, 4096, 4097, 6000])
    def test_long_series_match_the_loop(self, d):
        # several of the kernels' chunks, whichever path d selects
        rng = random.Random(d)
        coeffs = [rng.randint(-3, 3) for _ in range(3 * 4096 + 17)]
        a = TruncatedSeries(tuple(coeffs))
        for sign in (1, -1):
            got = a.apply_one_minus_power(d, sign)
            assert list(got.coeffs) == one_minus_power_loop(coeffs, d, sign), sign

    def test_overflow_detected(self):
        big = 2**62
        with pytest.raises(ArithmeticOverflowError):
            series(big, 0, big).apply_one_minus_power(2, -1)
        with pytest.raises(ArithmeticOverflowError):
            series(-big, 0, big).apply_one_minus_power(2, 1)

    @given(coeff_lists, st.integers(min_value=1, max_value=16))
    def test_agrees_with_mul(self, coeffs, d):
        a = TruncatedSeries(tuple(coeffs))
        binomial = TruncatedSeries.from_coeffs([1] + [0] * (d - 1) + [-1], len(coeffs))
        assert a.apply_one_minus_power(d, 1) == a.mul(binomial)
