import random

import pytest
from hypothesis import given, strategies as st

from cyclocert.arith import FactoredInteger, euler_phi, factor
from cyclocert.cyclo import (
    a_coeff,
    c_coeff,
    c_table,
    inverse_phi_truncated,
    phi_poly,
    phi_truncated,
    psi_poly,
    radical_reduce,
)
from cyclocert.errors import DegreeBudgetExceededError

from oracles import (
    cyclotomic_by_division,
    divisor_product,
    geometric_series,
    invert_series,
    mul_series,
    poly_mul,
    sieve_primes,
)

PRIMES_BELOW_300 = sieve_primes(300)


@st.composite
def split_products(draw) -> tuple[FactoredInteger, int, int]:
    """(n, truncation, start) where n repeats 2 and has prime divisors in
    [truncation/2, truncation), so the product has low and high divisors."""
    truncation = draw(st.integers(min_value=8, max_value=300))
    high_primes = [p for p in PRIMES_BELOW_300 if truncation <= 2 * p < 2 * truncation]
    exponents = {
        2: draw(st.integers(min_value=2, max_value=3)),
        3: draw(st.integers(min_value=0, max_value=2)),
        5: draw(st.integers(min_value=0, max_value=1)),
        7: draw(st.integers(min_value=0, max_value=1)),
    }
    for p in draw(st.lists(st.sampled_from(high_primes), min_size=1, max_size=2, unique=True)):
        exponents[p] = 1
    n = FactoredInteger(tuple(sorted((p, e) for p, e in exponents.items() if e)))
    return n, truncation, draw(st.integers(min_value=0, max_value=truncation - 1))


class TestPhiPoly:
    def test_n_equals_one(self):
        assert phi_poly(1).coeffs == (-1, 1)

    def test_hexagonal(self):
        assert phi_poly(6).coeffs == (1, -1, 1)
        assert phi_poly(6).coeffs == tuple(cyclotomic_by_division(6))

    def test_first_coefficient_outside_unit_range(self):
        poly = phi_poly(105)
        assert poly.coeffs[7] == -2
        assert poly.coeffs == tuple(cyclotomic_by_division(105))

    def test_against_division_oracle(self):
        for n in range(1, 121):
            assert phi_poly(n).coeffs == tuple(cyclotomic_by_division(n)), n

    def test_self_reciprocal(self):
        for n in range(2, 121):
            coeffs = phi_poly(n).coeffs
            assert coeffs == coeffs[::-1], n
            assert coeffs[0] == 1 and coeffs[-1] == 1

    def test_product_identity(self):
        for n in range(1, 61):
            product = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    product = poly_mul(product, list(phi_poly(d).coeffs))
            assert product == [-1] + [0] * (n - 1) + [1], n

    def test_degree_budget(self):
        with pytest.raises(DegreeBudgetExceededError):
            phi_poly(1009, degree_budget=100)
        with pytest.raises(DegreeBudgetExceededError):
            phi_poly(10**14, degree_budget=1000)  # rejected before factoring


class TestPsiPoly:
    def test_n_equals_one(self):
        assert psi_poly(1).coeffs == (1,)

    def test_hexagonal(self):
        # product of the three proper-divisor polynomials
        expected = poly_mul(poly_mul([-1, 1], [1, 1]), [1, 1, 1])
        assert list(psi_poly(6).coeffs) == expected
        assert psi_poly(6).coeffs == (-1, -1, 0, 1, 1)

    def test_prime(self):
        for p in (2, 3, 5, 7, 97):
            assert psi_poly(p).coeffs == (-1, 1)

    def test_cofactor_identity_and_degree(self):
        for n in range(1, 101):
            phi = phi_poly(n).coeffs
            psi = psi_poly(n).coeffs
            assert len(psi) - 1 == n - euler_phi(factor(n)), n
            assert poly_mul(list(phi), list(psi)) == [-1] + [0] * (n - 1) + [1], n

    def test_degree_budget(self):
        with pytest.raises(DegreeBudgetExceededError):
            psi_poly(101, degree_budget=100)


class TestACoeff:
    def test_examples(self):
        assert a_coeff(6, 1) == -1
        assert a_coeff(105, 7) == -2
        for n in (2, 15, 36):
            assert a_coeff(n, 0) == 1

    def test_beyond_degree_is_zero(self):
        assert a_coeff(6, 3) == 0
        assert a_coeff(6, 10**9) == 0


class TestCTable:
    def test_n_equals_one(self):
        assert c_table(1).period == (-1,)
        assert c_coeff(1, 10**6) == -1

    def test_n_equals_two(self):
        assert c_table(2).period == (1, -1)

    def test_hexagonal(self):
        expected = invert_series(list(phi_poly(6).coeffs), 12)
        assert expected[:6] == expected[6:]
        assert c_table(6).period == tuple(expected[:6])
        assert c_table(6).period == (1, 1, 0, -1, -1, 0)

    def test_c_coeff_examples(self):
        oracle = invert_series(list(phi_poly(3).coeffs), 45)
        assert c_coeff(3, 43) == oracle[43] == -1
        assert c_coeff(6, 604) == -1

    def test_periodicity_against_inversion_oracle(self):
        for n in range(1, 61):
            oracle = invert_series(list(phi_poly(n).coeffs), 6 * n + 1)
            for k in range(5 * n + 1):
                assert c_coeff(n, k) == oracle[k], (n, k)
                assert c_coeff(n, k) == c_coeff(n, k + n), (n, k)

    def test_tail_zero_window(self):
        for n in range(1, 61):
            period = c_table(n).period
            tail_start = n - euler_phi(factor(n))
            for j in range(tail_start + 1, n):
                assert period[j] == 0, (n, j)


class TestPhiTruncated:
    def test_agrees_with_exact_polynomial(self):
        assert phi_truncated(factor(6), 3).coeffs == phi_poly(6).coeffs[:3]
        for n in range(2, 201):
            full = phi_poly(n).coeffs
            for truncation in range(1, len(full) + 1):
                got = phi_truncated(factor(n), truncation)
                assert got.coeffs == full[:truncation], (n, truncation)

    def test_prime_prefix_is_all_ones(self):
        for p in (13, 97):
            assert phi_truncated(factor(p), p).coeffs == (1,) * p

    def test_rejects_one(self):
        with pytest.raises(ValueError):
            phi_truncated(FactoredInteger(()), 5)

    def test_worked_instance_against_bruteforce_expansion(self):
        # (1 - x) / ((1-x^3)(1-x^31)(1-x^37)(1-x^43)) mod x^86
        order = 86
        expected = [1] + [0] * (order - 1)
        expected = mul_series(expected, [1, -1], order)
        for d in (3, 31, 37, 43):
            expected = mul_series(expected, geometric_series(d, order), order)
        got = phi_truncated(factor(3 * 31 * 37 * 43), order)
        assert list(got.coeffs) == expected
        assert got.coeffs[43] == 2

    def test_huge_modulus_stays_cheap(self):
        # the big prime sits beyond the truncation, so it only flips mu
        n = factor(6) * FactoredInteger(((10**9 + 7, 1),))
        assert phi_truncated(n, 8) == inverse_phi_truncated(factor(6), 8)
        # and with two big primes the flips cancel
        n2 = n * FactoredInteger(((10**9 + 9, 1),))
        assert phi_truncated(n2, 8) == phi_truncated(factor(6), 8)


class TestStartOffset:
    @given(split_products())
    def test_suffix_of_the_full_expansion(self, case):
        n, truncation, start = case
        for expand, exponent in ((phi_truncated, 1), (inverse_phi_truncated, -1)):
            full = expand(n, truncation)
            assert list(full.coeffs) == divisor_product(n.value(), truncation, exponent)
            assert expand(n, truncation, start).coeffs == full.coeffs[start:]

    def test_start_outside_the_truncation_rejected(self):
        for start in (-1, 8):
            with pytest.raises(ValueError):
                phi_truncated(factor(6), 8, start)


class TestInversePhiTruncated:
    def test_examples(self):
        assert inverse_phi_truncated(factor(6), 8).coeffs == (1, 1, 0, -1, -1, 0, 1, 1)
        assert inverse_phi_truncated(factor(2), 4).coeffs == (1, -1, 1, -1)
        assert inverse_phi_truncated(factor(15), 7).coeffs == (1, 1, 1, 0, 0, -1, -1)

    def test_product_with_forward_is_unit(self):
        rng = random.Random(20260810)
        small_primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
        for _ in range(10):
            chosen = rng.sample(small_primes, rng.randint(3, 5))
            n = FactoredInteger(tuple((p, 1) for p in sorted(chosen)))
            truncation = rng.randint(2, 128)
            forward = phi_truncated(n, truncation)
            backward = inverse_phi_truncated(n, truncation)
            assert forward.mul(backward).coeffs == (1,) + (0,) * (truncation - 1)


class TestRadicalReduce:
    def test_examples(self):
        assert radical_reduce(12, 2) == (6, 1)
        assert a_coeff(12, 2) == a_coeff(6, 1) == -1
        assert radical_reduce(12, 1) is None
        assert radical_reduce(30, 17) == (30, 17)

    def test_agrees_with_stretching(self):
        for n in range(2, 101):
            for k in range(0, euler_phi(factor(n)) + 1):
                reduced = radical_reduce(n, k)
                if reduced is None:
                    assert a_coeff(n, k) == 0, (n, k)
                else:
                    kernel, k2 = reduced
                    assert a_coeff(n, k) == a_coeff(kernel, k2), (n, k)

    def test_stretch_identity(self):
        # Phi_{p*n}(x) = Phi_n(x**p) for p | n, checked coefficientwise
        for n in range(2, 51):
            for p, _ in factor(n).factors:
                if p * n > 500:
                    continue
                stretched = phi_poly(p * n).coeffs
                base = phi_poly(n).coeffs
                expected = [0] * ((len(base) - 1) * p + 1)
                for i, coefficient in enumerate(base):
                    expected[i * p] = coefficient
                assert list(stretched) == expected, (n, p)
