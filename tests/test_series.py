import random

import pytest
from hypothesis import given, strategies as st

from cyclocert.errors import ArithmeticOverflowError
from cyclocert.series import TruncatedSeries

from oracles import geometric_sum_loop, mul_series, one_minus_power_loop

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=64)

MAX = 2**63 - 1
# coefficients on both sides of each limb edge, 2**15, 2**31 and 2**63
EDGES = sorted(
    {sign * (2**e + o) for e in (14, 15, 30, 31, 62) for o in (-1, 0, 1) for sign in (1, -1)}
    | {MAX, -MAX}
)
wide_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.sampled_from(EDGES),
    st.integers(min_value=-MAX, max_value=MAX),
)
steps = st.lists(
    st.tuples(st.integers(min_value=1, max_value=90), st.sampled_from((1, -1))), max_size=12
)


def series(*coeffs: int) -> TruncatedSeries:
    return TruncatedSeries(list(coeffs), max(map(abs, coeffs)))


def stepped(a: TruncatedSeries, *steps: tuple[int, int]) -> list[int]:
    for d, sign in steps:
        a.apply_one_minus_power(d, sign)
    return a.coeffs


class TestApplyOneMinusPower:
    def test_steps_in_place(self):
        # the series is one packed integer: a step returns nothing and
        # coeffs decodes the stepped values
        a = series(1, 1, 1)
        assert a.apply_one_minus_power(1, -1) is None
        assert a.coeffs == [1, 2, 3]
        assert a.apply_one_minus_power(5, 1) is None
        assert a.coeffs == [1, 2, 3]

    def test_divide_by_one_minus_x(self):
        assert stepped(series(1, 1, 1), (1, -1)) == [1, 2, 3]

    def test_geometric_in_cube(self):
        got = stepped(series(1, 0, 0, 0, 0, 0, 0), (3, -1))
        assert got == [1, 0, 0, 1, 0, 0, 1]

    def test_multiply_cube_binomial(self):
        got = stepped(series(1, 0, 0, 1, 0, 0, 0), (3, 1))
        assert got == [1, 0, 0, 0, 0, 0, -1]

    def test_exponent_beyond_truncation_is_identity(self):
        a = series(4, -1, 2)
        assert stepped(a, (5, 1)) == [4, -1, 2]
        assert a.bound == 4

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            series(1, 0).apply_one_minus_power(0, 1)
        with pytest.raises(ValueError):
            series(1, 0).apply_one_minus_power(2, 3)

    @given(coeff_lists, st.integers(min_value=1, max_value=63))
    def test_roundtrip(self, coeffs, d):
        assert stepped(series(*coeffs), (d, 1), (d, -1)) == coeffs
        assert stepped(series(*coeffs), (d, -1), (d, 1)) == coeffs

    @pytest.mark.parametrize("d", [1, 2, 7, 63, 64, 65, 1000, 4095, 4096, 4097, 6000])
    def test_long_series_match_the_loop(self, d):
        # several of the kernels' chunks, whichever path d selects
        rng = random.Random(d)
        coeffs = [rng.randint(-3, 3) for _ in range(3 * 4096 + 17)]
        for sign in (1, -1):
            got = stepped(series(*coeffs), (d, sign))
            assert got == one_minus_power_loop(coeffs, d, sign), sign

    def test_overflow_detected(self):
        big = 2**62
        with pytest.raises(ArithmeticOverflowError):
            series(big, 0, big).apply_one_minus_power(2, -1)
        with pytest.raises(ArithmeticOverflowError):
            series(-big, 0, big).apply_one_minus_power(2, 1)

    def test_overflow_raised_at_the_first_step_out_of_range(self):
        # divisions by 1 - x and 1 - x**2, with multiplications by 1 - x**3
        # between them, leave the 64-bit range only many steps in; the
        # carried bound must neither hide that step nor raise earlier
        got = series(1, *[0] * 95)
        exact = list(got.coeffs)
        for index, (d, sign) in enumerate([(1, -1), (2, -1), (1, -1), (3, 1)] * 40):
            exact = one_minus_power_loop(exact, d, sign)
            if max(abs(c) for c in exact) > 2**63 - 1:
                with pytest.raises(ArithmeticOverflowError):
                    got.apply_one_minus_power(d, sign)
                break
            got.apply_one_minus_power(d, sign)
            assert got.coeffs == exact
            assert got.bound >= max(abs(c) for c in exact)
        else:
            pytest.fail("the chain never left the 64-bit range")
        assert index > 20

    @pytest.mark.parametrize(
        "values, d, sign",
        [((2**62, 0, 0, 0), 1, 1), ((1 - 2**62,) * 7, 4, -1)],
    )
    def test_second_step_overflows_by_the_tight_growth(self, values, d, sign):
        # the buffer starts from its exact maximum, so the first step leaves
        # the exact maximum M as its bound; the second reaches exactly 2M
        # (multiplication) or, with floor(6/4) + 1 = 2 terms per running
        # sum, 3M/2 (division)
        first = series(*values)
        first.apply_one_minus_power(d, sign)
        assert first.bound == max(abs(c) for c in first.coeffs)
        with pytest.raises(ArithmeticOverflowError):
            first.apply_one_minus_power(d, sign)

    @given(coeff_lists, st.integers(min_value=1, max_value=16))
    def test_agrees_with_mul(self, coeffs, d):
        binomial = [1] + [0] * (d - 1) + [-1]
        expected = mul_series(coeffs, binomial, len(coeffs))
        assert stepped(series(*coeffs), (d, 1)) == expected


class TestPackedSeries:
    @given(st.lists(wide_coeffs, min_size=1, max_size=80), steps)
    def test_steps_match_the_loop(self, coeffs, chain):
        # every step agrees with the loop, through widenings and narrowings,
        # until the first step whose output leaves the 64-bit range raises
        got = TruncatedSeries(list(coeffs), max(map(abs, coeffs)))
        exact = list(coeffs)
        for d, sign in chain:
            exact = one_minus_power_loop(exact, d, sign)
            if max(map(abs, exact)) > MAX:
                with pytest.raises(ArithmeticOverflowError):
                    got.apply_one_minus_power(d, sign)
                return
            got.apply_one_minus_power(d, sign)
            assert got.coeffs == exact
            assert max(map(abs, exact)) <= got.bound < 2 ** (got.width - 1)

    @pytest.mark.parametrize("edge, width", [(15, 32), (31, 64)])
    def test_widens_across_a_limb_edge(self, edge, width):
        # c_1 - c_0 = -2**edge: the bound, 2**edge, leaves the limbs
        top = 2 ** (edge - 1)
        a = series(top, -top, 0, 0)
        assert a.width == edge + 1
        a.apply_one_minus_power(1, 1)
        assert a.coeffs == [top, -2 * top, top, 0]
        assert a.width == width

    def test_minus_two_to_the_63_is_out_of_range(self):
        # -2**63 fits a 64-bit limb but not the symmetric 64-bit range
        top = 2**62
        with pytest.raises(ArithmeticOverflowError):
            series(top, -top, 0).apply_one_minus_power(1, 1)
        a = series(MAX, 0, -MAX)
        a.apply_one_minus_power(2, -1)
        assert (a.coeffs, a.bound, a.width) == ([MAX, 0, 0], MAX, 64)

    def test_a_loose_bound_is_tightened_and_the_limbs_narrow(self):
        a = TruncatedSeries([1, 0, 0, 0], 2**62)
        assert a.width == 64
        a.apply_one_minus_power(1, 1)
        assert (a.coeffs, a.width) == ([1, -1, 0, 0], 16)
        assert a.bound < 2**15

    def test_seeded_holds_the_high_terms(self):
        a = TruncatedSeries.seeded(6, [(3, 1), (5, -1)])
        assert (a.coeffs, a.bound, a.width) == ([1, 0, 0, -1, 0, 1], 1, 16)
        assert a.suffix(3) == (-1, 0, 1)


class TestApplyGeometricSum:
    def test_steps_in_place(self):
        a = series(1, 0, 0, 0, 0)
        assert a.apply_geometric_sum(2, 2) is None
        assert a.coeffs == [1, 0, 1, 0, 0]
        assert a.apply_geometric_sum(1, 3) is None
        assert a.coeffs == [1, 1, 2, 1, 1]

    def test_equals_the_binomial_pair(self):
        # 1 + x**d + ... + x**((q-1)*d) = (1 - x**(q*d)) / (1 - x**d)
        coeffs = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8]
        for d, q in [(1, 2), (1, 5), (2, 3), (3, 17), (5, 2)]:
            paired = stepped(series(*coeffs), (q * d, 1), (d, -1))
            single = series(*coeffs)
            single.apply_geometric_sum(d, q)
            assert single.coeffs == paired, (d, q)

    def test_terms_beyond_the_truncation_are_dropped(self):
        # q*d >= T: only floor((T-1)/d) + 1 terms act, the bound grows by that
        a = series(1, 0, 0, 0, 0, 0, 0)
        a.apply_geometric_sum(3, 100)
        assert (a.coeffs, a.bound) == ([1, 0, 0, 1, 0, 0, 1], 3)

    @pytest.mark.parametrize("d, q", [(1, 1), (7, 5), (9, 2)])
    def test_identity(self, d, q):
        # one term, or d at or beyond the truncation
        a = series(4, -1, 2, 0, 0, 0, 7)
        a.apply_geometric_sum(d, q)
        assert (a.coeffs, a.bound) == ([4, -1, 2, 0, 0, 0, 7], 7)

    @pytest.mark.parametrize("d, q, growth", [(1, 5, 5), (2, 3, 3), (2, 100, 5), (4, 7, 3)])
    def test_bound_grows_by_the_terms_below_the_truncation(self, d, q, growth):
        # min(q, floor((T-1)/d) + 1) at T = 10, with no tightening at 16 bits
        a = series(2, -1, 0, 0, 0, 0, 0, 0, 0, 1)
        a.apply_geometric_sum(d, q)
        assert a.bound == 2 * growth
        assert max(map(abs, a.coeffs)) <= a.bound

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            series(1, 0).apply_geometric_sum(0, 2)
        with pytest.raises(ValueError):
            series(1, 0).apply_geometric_sum(1, 0)

    @given(
        st.lists(wide_coeffs, min_size=1, max_size=80),
        st.integers(min_value=1, max_value=90),
        st.integers(min_value=1, max_value=200),
    )
    def test_matches_the_loop(self, coeffs, d, q):
        # q*d reaches past T for many draws; an output outside the 64-bit
        # range raises, and otherwise the step is exact
        got = TruncatedSeries(list(coeffs), max(map(abs, coeffs)))
        exact = geometric_sum_loop(coeffs, d, q)
        if max(map(abs, exact)) > MAX:
            with pytest.raises(ArithmeticOverflowError):
                got.apply_geometric_sum(d, q)
            return
        got.apply_geometric_sum(d, q)
        assert got.coeffs == exact
        assert max(map(abs, exact)) <= got.bound < 2 ** (got.width - 1)

    @pytest.mark.parametrize("d", [1, 2, 63, 4096, 6000])
    @pytest.mark.parametrize("q", [2, 3, 17, 32771])
    def test_long_series_match_the_loop(self, d, q):
        rng = random.Random(d * q)
        coeffs = [rng.randint(-3, 3) for _ in range(3 * 4096 + 17)]
        got = series(*coeffs)
        got.apply_geometric_sum(d, q)
        assert got.coeffs == geometric_sum_loop(coeffs, d, q)

    @pytest.mark.parametrize("edge, width", [(15, 32), (31, 64)])
    def test_widens_across_a_limb_edge(self, edge, width):
        # three terms of 2**(edge-1) - 1 sum past the limb's range
        top = 2 ** (edge - 1) - 1
        a = series(top, top, top, 0)
        assert a.width == edge + 1
        a.apply_geometric_sum(1, 3)
        assert a.coeffs == [top, 2 * top, 3 * top, 2 * top]
        assert a.width == width

    def test_minus_two_to_the_63_is_out_of_range(self):
        half = 2**62
        with pytest.raises(ArithmeticOverflowError):
            series(-half, -half, 0).apply_geometric_sum(1, 2)
        a = series(MAX, -MAX, 0)
        a.apply_geometric_sum(1, 2)
        assert (a.coeffs, a.bound, a.width) == ([MAX, 0, -MAX], MAX, 64)

    def test_overflow_raised_at_the_first_step_out_of_range(self):
        # geometric sums of 3 and 5 terms with multiplications by 1 - x
        # between them leave the 64-bit range only many steps in
        got = series(1, *[0] * 95)
        exact = list(got.coeffs)
        chain = [("g", 1, 3), ("g", 2, 5), ("m", 1, 1), ("g", 3, 3)] * 40
        for index, (kind, d, arg) in enumerate(chain):
            if kind == "g":
                exact = geometric_sum_loop(exact, d, arg)
            else:
                exact = one_minus_power_loop(exact, d, arg)
            step = got.apply_geometric_sum if kind == "g" else got.apply_one_minus_power
            if max(abs(c) for c in exact) > MAX:
                with pytest.raises(ArithmeticOverflowError):
                    step(d, arg)
                break
            step(d, arg)
            assert got.coeffs == exact
            assert got.bound >= max(abs(c) for c in exact)
        else:
            pytest.fail("the chain never left the 64-bit range")
        assert index > 20
