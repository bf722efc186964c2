import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from cyclocert import cyclo
from cyclocert.arith import FactoredInteger, euler_phi, factor, next_prime_above
from cyclocert.cyclo import (
    a_coeff,
    c_coeff,
    c_table,
    inverse_phi_truncated,
    phi_poly,
    phi_truncated,
)
from cyclocert.errors import DegreeBudgetExceededError
from cyclocert.hunter import build_certificate
from cyclocert.series import TruncatedSeries

from passes import counting_passes

from oracles import (
    cyclotomic_by_division,
    divisor_product,
    geometric_series,
    invert_series,
    mul_series,
    poly_mul,
    psi_by_product,
    sieve_primes,
    trial_factor,
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


@st.composite
def seeded_products(draw) -> tuple[FactoredInteger, int, int]:
    """(n, truncation, start) where n has two to six prime divisors in
    [truncation/2, truncation), each a seeded high divisor, and start lies
    between the smallest and the largest, so the window read begins below
    some seeded terms and above others."""
    truncation = draw(st.integers(min_value=20, max_value=300))
    high_primes = [p for p in PRIMES_BELOW_300 if truncation <= 2 * p < 2 * truncation]
    chosen = sorted(
        draw(st.lists(st.sampled_from(high_primes), min_size=2, max_size=6, unique=True))
    )
    exponents = {
        2: draw(st.integers(min_value=1, max_value=3)),
        3: draw(st.integers(min_value=0, max_value=2)),
        5: draw(st.integers(min_value=0, max_value=1)),
        7: draw(st.integers(min_value=0, max_value=1)),
    }
    exponents.update((p, 1) for p in chosen)
    n = FactoredInteger(tuple(sorted((p, e) for p, e in exponents.items() if e)))
    return n, truncation, draw(st.integers(min_value=chosen[0], max_value=chosen[-1] - 1))


def small_kernels(limit: int) -> list[FactoredInteger]:
    """Every product of a subset of 2, 3, 5, 7, at most one of them squared,
    below limit; 1 included."""
    out = []
    for size in range(5):
        for primes in combinations((2, 3, 5, 7), size):
            for squared in (None,) + primes:
                fac = FactoredInteger(tuple((p, 2 if p == squared else 1) for p in primes))
                if fac.value() < limit:
                    out.append(fac)
    return out


KERNELS = small_kernels(150)


@st.composite
def high_kernel_products(draw) -> tuple[FactoredInteger, int, int, object]:
    """(n, truncation, start, periodic) where n = K * p, p a prime in
    (K, 2K), times a prime q at or above the truncation or not, and
    p <= start < truncation <= 2K, so that K is itself a high divisor.  The
    factors over K's divisors make 1/Phi_K for `periodic`, phi_truncated
    without q and inverse_phi_truncated with it, whose product is then read
    from one period of 1/Phi_K; K's period is left in c_table's memo."""
    kernel = draw(st.sampled_from([fac for fac in KERNELS if not fac.is_one]))
    k = kernel.value()
    p = draw(st.sampled_from([p for p in PRIMES_BELOW_300 if k < p < 2 * k]))
    truncation = draw(st.integers(min_value=p + 1, max_value=2 * k))
    primes = [p]
    with_q = draw(st.booleans())
    if with_q:
        primes.append(next_prime_above(truncation - 1))
    c_table(k)
    n = kernel * FactoredInteger(tuple((q, 1) for q in primes))
    start = draw(st.integers(min_value=p, max_value=truncation - 1))
    return n, truncation, start, inverse_phi_truncated if with_q else phi_truncated


def refuse_dense_route(*args):
    raise AssertionError("the dense route was taken")


@st.composite
def periodic_products(draw) -> tuple[FactoredInteger, int, int]:
    """(n, truncation, start) where n is a kernel K of small primes times up
    to six primes in [truncation/2, truncation), all = 1 (mod K) or on
    several residues, and start lies on either side of the largest of those.
    For one of the two exponents the low factors make exactly 1/Phi_K, and
    for the other Phi_K.  An optional extra prime in (K, truncation/2) adds
    low divisors outside K, which leaves both exponents on the dense route
    unless they make a larger kernel."""
    kernel = draw(st.sampled_from(KERNELS))
    k = kernel.value()
    truncation = draw(st.integers(min_value=max(20, 2 * k + 1), max_value=300))
    high_primes = [p for p in PRIMES_BELOW_300 if truncation <= 2 * p < 2 * truncation]
    if draw(st.booleans()):
        high_primes = [p for p in high_primes if p % k == 1 % k]
    chosen = []
    if high_primes:  # never empty for k = 1, by Bertrand's postulate
        chosen = draw(
            st.lists(
                st.sampled_from(high_primes), min_size=1 if k == 1 else 0, max_size=6, unique=True
            )
        )
    middle = [p for p in PRIMES_BELOW_300 if k < p and 2 * p < truncation]
    if middle and draw(st.booleans()):
        chosen.append(draw(st.sampled_from(middle)))
    n = kernel * FactoredInteger(tuple((p, 1) for p in sorted(chosen)))
    top = max((p for p in chosen if 2 * p >= truncation), default=0)
    if top and draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=top - 1))
    else:
        start = draw(st.integers(min_value=top, max_value=truncation - 1))
    return n, truncation, start


class TestPhiPoly:
    def test_n_equals_one(self):
        assert phi_poly(1).coeffs == (-1, 1)

    def test_n_equals_two(self):
        # phi(2) = 1 = ceil(phi/2): nothing to mirror
        assert phi_poly(2).coeffs == (1, 1)

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

    def test_stretch_matches_long_division(self):
        # 3072 = 2**10 * 3 stretches Phi_6 by 512
        for n in [*range(1, 301), 900, 3072, 3150]:
            assert phi_poly(n).coeffs == tuple(cyclotomic_by_division(n)), n

    def test_non_squarefree_n_expands_only_its_radical(self, monkeypatch):
        # Phi_n(x) = Phi_210(x**s) for n = 2**j * 105, s = n/210: the full
        # divisor product of n would take 68,615 and 1,097,735 series updates
        updates = 0
        apply = TruncatedSeries.apply_one_minus_power

        def counted(series, d, sign):
            nonlocal updates
            updates += max(len(series.coeffs) - d, 0)
            apply(series, d, sign)

        monkeypatch.setattr(TruncatedSeries, "apply_one_minus_power", counted)
        base = phi_poly(210).coeffs
        counts = []
        for n in (210, 2**10 * 105, 2**14 * 105):
            cyclo._c_table_cached.cache_clear()
            updates = 0
            coeffs = phi_poly(n).coeffs
            counts.append(updates)
            # a(n, k) = a(210, k/s) when s | k, and 0 otherwise
            assert coeffs[:: n // 210] == base
            assert sum(map(abs, coeffs)) == sum(map(abs, base))
        assert counts == [141, 141, 141]

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


def psi_from_period(n: int) -> list[int]:
    """Psi_n = (x**n - 1) / Phi_n, of degree n - phi(n) < n: since
    1/Phi_n = -Psi_n / (1 - x**n), it is the negated prefix of the period."""
    return [-c for c in c_table(n).period[: n - euler_phi(factor(n)) + 1]]


class TestPsiPoly:
    def test_n_equals_one(self):
        assert c_table(1).period == (-1,)
        assert psi_from_period(1) == [1]

    def test_hexagonal(self):
        # product of the three proper-divisor polynomials
        expected = poly_mul(poly_mul([-1, 1], [1, 1]), [1, 1, 1])
        assert psi_from_period(6) == expected == [-1, -1, 0, 1, 1]

    def test_prime(self):
        for p in (2, 3, 5, 7, 97):
            assert c_table(p).period == (1, -1) + (0,) * (p - 2)

    def test_cofactor_identity_and_degree(self):
        for n in range(1, 101):
            phi = phi_poly(n).coeffs
            psi = psi_from_period(n)
            assert psi[-1] == 1, n  # Psi_n is monic of degree n - phi(n)
            assert poly_mul(list(phi), psi) == [-1] + [0] * (n - 1) + [1], n

    def test_degree_budget(self):
        with pytest.raises(DegreeBudgetExceededError):
            c_table(101, degree_budget=100)


class TestACoeff:
    def test_examples(self):
        assert a_coeff(6, 1) == -1
        assert a_coeff(105, 7) == -2
        for n in (2, 15, 36):
            assert a_coeff(n, 0) == 1

    def test_beyond_degree_is_zero(self):
        assert a_coeff(6, 3) == 0
        assert a_coeff(6, 10**9) == 0

    def test_against_division_oracle(self):
        for n in range(1, 500):
            expected = cyclotomic_by_division(n) + [0, 0]
            assert [a_coeff(n, k) for k in range(len(expected))] == expected, n

    @pytest.mark.parametrize(
        "n",
        [
            1,
            2,
            97,
            3**6,  # a prime power: K = 1
            2**5 * 3**2 * 5,
            7**3 * 11,
        ],
    )
    def test_named_cases_through_the_degree(self, n):
        # k runs to phi(n) + 1, one past the degree
        expected = cyclotomic_by_division(n) + [0]
        assert [a_coeff(n, k) for k in range(len(expected))] == expected

    def test_sampled_against_the_whole_polynomial(self):
        # 255255 = 3*5*7*11*13*17: K = 15015, p = 17
        coeffs = phi_poly(255255).coeffs
        phi = len(coeffs) - 1
        rng = random.Random(255255)
        for k in [0, 1, 17, phi // 2, phi // 2 + 1, phi - 1, phi, *rng.sample(range(phi), 300)]:
            assert a_coeff(255255, k) == coeffs[k], k

    def test_one_coefficient_does_not_build_phi_n(self, monkeypatch):
        # a(1616615, k) from K = 85085: half of Phi_K and the half-length
        # period of 1/Phi_K take about 1.17M series updates, where half of
        # Phi_1616615 takes 24,565,824; the sum over i adds none
        updates = 0
        apply = TruncatedSeries.apply_one_minus_power

        def counted(series, d, sign):
            nonlocal updates
            updates += max(len(series.coeffs) - d, 0)
            apply(series, d, sign)

        monkeypatch.setattr(TruncatedSeries, "apply_one_minus_power", counted)
        cyclo._c_table_cached.cache_clear()
        assert a_coeff(1616615, 300000) == -805
        assert 0 < updates <= 1_500_000

    def test_periods_per_kernel_stay_bounded(self):
        # each a(210*q*q', 1), q < q' consecutive primes, reads the period of
        # 1/Phi_K for a new kernel K = 210*q
        primes = [p for p in sieve_primes(400) if p > 7][:41]
        cyclo._c_table_cached.cache_clear()
        for q, q_next in zip(primes, primes[1:]):
            a_coeff(210 * q * q_next, 1, degree_budget=10**8)
        info = cyclo._c_table_cached.cache_info()
        assert info.maxsize is not None and info.maxsize >= 32
        assert info.currsize <= info.maxsize


class TestCTable:
    def test_n_equals_one(self):
        table = c_table(1)
        assert table.period == (-1,)
        assert c_coeff(1, 10**6) == -1
        for offset in (0, 1, -7, 10**30 + 7):
            assert table.lookup(offset) == -1
            for count in (0, 1, 2, 3):
                assert table.window(offset, count) == (-1,) * count

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

    @pytest.mark.parametrize("n", [1, 7, 49, 2 * 3 * 5 * 7, 1155, 2310, 3003])
    def test_period_and_psi_against_product_oracle(self, n):
        # 1/Phi_n = -Psi_n / (1 - x**n), so the period is -Psi_n padded to n
        psi = psi_by_product(n)
        assert psi_from_period(n) == psi
        assert list(c_table(n).period) == [-c for c in psi] + [0] * (n - len(psi))

    def test_tail_zero_window(self):
        for n in range(1, 61):
            period = c_table(n).period
            tail_start = n - euler_phi(factor(n))
            for j in range(tail_start + 1, n):
                assert period[j] == 0, (n, j)

    def test_a_warm_table_builds_nothing_of_its_length(self):
        # on a memo hit, c_table and c_coeff read the memo's nonzero part of
        # the period of 1/Phi_30030; a padded period would be a tuple of
        # 30030 pointers, 240 KB
        n = 30030
        period = c_table(n).period
        ks = (0, 7, 24270, 24271, 29999, 10**20 + 3)
        tracemalloc.start()
        try:
            table = c_table(n)
            values = [c_coeff(n, k) for k in ks]
            pair = table.window(24270, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values == [period[k % n] for k in ks]
        assert pair == period[24270:24272]
        assert peak < 64 * 1024


class TestInversePeriod:
    # the period of 1/Phi_K is expanded to floor(deg/2) and mirrored,
    # deg = K - phi(K), by c_table's memo, which the verifier's route reads

    def test_every_small_kernel_against_psi_oracle(self):
        parities = set()
        for n in range(2, 800):
            psi = psi_by_product(n)
            parities.add((len(psi) - 1) % 2)
            expected = tuple(-c for c in psi) + (0,) * (n - len(psi))
            cyclo._c_table_cached.cache_clear()
            assert cyclo._c_table_cached(factor(n)) == expected[: len(psi)], n
            table = c_table(n)
            assert table.period == expected, n
            if n > 300:
                continue
            # window and lookup against the padded period, at offsets past
            # either end and counts across the zeros and whole turns
            deg = len(psi) - 1
            for offset in (0, 1, deg, deg + 1, n - 1, n, -1, -n - 3, 10**30 + 7, -(10**30) - 11):
                assert table.lookup(offset) == expected[offset % n], (n, offset)
                for count in (0, 1, deg + 1, n, n + 1, 2 * n + 1):
                    window = tuple(expected[(offset + i) % n] for i in range(count))
                    assert table.window(offset, count) == window, (n, offset, count)
        assert parities == {0, 1}

    @pytest.mark.parametrize(
        "n, parity",
        [(3003, 1), (15015, 1), (30030, 0), (85085, 1), (255255, 1)],
    )
    def test_large_kernels_against_divisor_product(self, n, parity):
        fac = factor(n)
        assert (n - euler_phi(fac)) % 2 == parity
        expected = tuple(divisor_product(n, n, -1))
        cyclo._c_table_cached.cache_clear()
        assert cyclo._c_table_cached(fac) == expected[: n - euler_phi(fac) + 1]
        assert c_table(n).period == expected

    def test_kernel_one_is_the_geometric_series(self):
        # the periodic route of a prime N reads the product 1/(1 - x), not
        # 1/Phi_1 = -1/(1 - x), which c_table(1) special-cases
        assert phi_truncated(factor(13), 13, 5) == (1,) * 8
        assert phi_truncated(factor(13), 20, 13) == (0,) * 7
        assert c_table(1).period == (-1,)

    def test_half_product_against_divisor_product(self):
        # Phi_n and the first n - phi(n) + 1 entries of the period of 1/Phi_n,
        # for odd and even degrees and for n squarefree or not
        parities = set()
        for n in range(2, 401):
            fac = factor(n)
            for exponent, degree in ((1, euler_phi(fac)), (-1, n - euler_phi(fac))):
                parities.add(degree % 2)
                expected = tuple(divisor_product(n, degree + 1, exponent))
                assert cyclo._half_product(fac, degree, exponent) == expected, (n, exponent)
        assert parities == {0, 1}


class TestPhiTruncated:
    def test_agrees_with_exact_polynomial(self):
        assert phi_truncated(factor(6), 3) == phi_poly(6).coeffs[:3]
        for n in range(2, 201):
            full = phi_poly(n).coeffs
            for truncation in range(1, len(full) + 1):
                got = phi_truncated(factor(n), truncation)
                assert got == full[:truncation], (n, truncation)

    def test_prime_prefix_is_all_ones(self):
        for p in (13, 97):
            assert phi_truncated(factor(p), p) == (1,) * p

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
        assert list(got) == expected
        assert got[43] == 2

    def test_huge_modulus_stays_cheap(self):
        # the big prime sits beyond the truncation, so it only flips mu
        n = factor(6) * FactoredInteger(((10**9 + 7, 1),))
        assert phi_truncated(n, 8) == inverse_phi_truncated(factor(6), 8)
        # and with two big primes the flips cancel
        n2 = n * FactoredInteger(((10**9 + 9, 1),))
        assert phi_truncated(n2, 8) == phi_truncated(factor(6), 8)

    def test_divisor_count_is_budgeted(self):
        # N = 6 * 21 primes in [1000, 2000): at truncation 2000 its divisors
        # are 1, 2, 3, 6, making 1/Phi_6, and the 21 primes, so the periodic
        # route needs no other budget; the enumeration admits
        # degree_budget + 23 of the 25
        primes = [p for p in sieve_primes(1999) if p > 1000][:21]
        n = factor(6) * FactoredInteger(tuple((p, 1) for p in primes))
        expected = phi_truncated(n, 2000, 1999)
        assert phi_truncated(n, 2000, 1999, degree_budget=2) == expected
        with pytest.raises(DegreeBudgetExceededError):
            phi_truncated(n, 2000, 1999, degree_budget=1)
        assert len(cyclo._mobius_unit_divisors(n, 1999, 25)) == 25
        with pytest.raises(DegreeBudgetExceededError):
            cyclo._mobius_unit_divisors(n, 1999, 24)
        # Phi_6's divisors make no 1/Phi_K, so its read is dense, and a
        # dense truncation is held to the budget itself
        with pytest.raises(DegreeBudgetExceededError,
                           match="^dense truncation 20 exceeds degree budget 10$"):
            phi_truncated(factor(6), 20, degree_budget=10)

    @pytest.mark.parametrize("warm", [False, True])
    def test_half_period_is_budgeted_on_a_memo_hit_and_a_miss(self, warm):
        # N = 30 * 31: below 62 the divisors of 30 make 1/Phi_30, whose half
        # product has (30 - 8)//2 + 1 = 12 entries, and 31 is high; the
        # limit is degree_budget + omega(N) = degree_budget + 4, whether or
        # not c_table's memo already holds the half product
        n = factor(30 * 31)
        expected = phi_truncated(n, 62, 31)
        cyclo._c_table_cached.cache_clear()
        if warm:
            c_table(30)
        assert phi_truncated(n, 62, 31, degree_budget=8) == expected
        with pytest.raises(DegreeBudgetExceededError, match="exceeds 11$"):
            phi_truncated(n, 62, 31, degree_budget=7)

    def test_divisor_limit_lowers_the_budget_limit(self):
        # the same 25 divisors: a limit below them stops the enumeration, one
        # above the budget's own does not raise it
        primes = [p for p in sieve_primes(1999) if p > 1000][:21]
        n = factor(6) * FactoredInteger(tuple((p, 1) for p in primes))
        expected = phi_truncated(n, 2000, 1999)
        assert phi_truncated(n, 2000, 1999, divisor_limit=25) == expected
        with pytest.raises(DegreeBudgetExceededError):
            phi_truncated(n, 2000, 1999, divisor_limit=24)
        with pytest.raises(DegreeBudgetExceededError):
            inverse_phi_truncated(n, 2000, 1999, divisor_limit=24)
        with pytest.raises(DegreeBudgetExceededError):
            phi_truncated(n, 2000, 1999, degree_budget=1, divisor_limit=10**6)


class TestPairedSteps:
    """A division by 1 - x**d whose partner p*d is a multiplication (p the
    largest prime of n) is one geometric sum in the dense product."""

    @pytest.mark.parametrize(
        "build, n, passes, parent_passes",
        [(c_table, 30030, 173, 243), (phi_poly, 85085, 81, 121)],
    )
    def test_pass_totals(self, monkeypatch, build, n, passes, parent_passes):
        # a clock-free guard: the full-width passes of a cold build, pinned
        # (parent_passes is the count with every division stepped alone)
        cyclo._c_table_cached.cache_clear()
        with counting_passes(monkeypatch) as totals:
            build(n)
        assert totals["passes"] == passes < parent_passes
        assert totals["apply_geometric_sum"] > 0

    @pytest.mark.parametrize(
        "n", [30030, 4 * 9 * 5 * 7 * 11, 2 * 3 * 5 * 7 * 13**2, 3 * 5 * 7 * 11 * 13]
    )
    @pytest.mark.parametrize("truncation", [50, 500, 3000])
    def test_paired_products_against_divisor_product(self, monkeypatch, n, truncation):
        # non-squarefree n pair only where d and p*d have squarefree cofactors
        geometric = 0
        for expand, exponent in ((phi_truncated, 1), (inverse_phi_truncated, -1)):
            with counting_passes(monkeypatch) as totals:
                got = expand(factor(n), truncation)
            geometric += totals["apply_geometric_sum"]
            assert list(got) == divisor_product(n, truncation, exponent), expand
        assert geometric > 0 or truncation == 50

    @pytest.mark.parametrize("start", [0, 2**16])
    @pytest.mark.parametrize(
        "expand, n", [(phi_truncated, 30030), (inverse_phi_truncated, 2 * 3 * 5 * 7 * 11 * 13**2)]
    )
    def test_peak_of_a_paired_build(self, monkeypatch, expand, n, start):
        # a geometric sum holds P and its running product at once, one copy
        # more than a division: at 16-bit limbs that still leaves the peak
        # within TestOneList's bound, and near 1.6 * 8 * T measured
        truncation = 2**17
        with counting_passes(monkeypatch) as totals:
            expand(factor(n), truncation, start)
        assert totals["apply_geometric_sum"] > 0
        result, peak = TestOneList.traced_peak(expand, factor(n), truncation, start)
        assert peak <= 2 * 8 * truncation
        assert len(result) == truncation - start

    def test_no_pairing_where_it_saves_no_pass(self, monkeypatch):
        # at n = 30 * 32771 and T = 2**17 the only pair is (1, 32771): a
        # geometric sum of 32771 terms takes 15 + 3 - 1 = 17 passes, as many
        # as the division by 1 - x it would replace
        with counting_passes(monkeypatch) as totals:
            inverse_phi_truncated(factor(30 * 32771), 2**17)
        assert totals["apply_geometric_sum"] == 0


class TestStartOffset:
    @given(split_products())
    def test_suffix_of_the_full_expansion(self, case):
        n, truncation, start = case
        for expand, exponent in ((phi_truncated, 1), (inverse_phi_truncated, -1)):
            full = expand(n, truncation)
            assert list(full) == divisor_product(n.value(), truncation, exponent)
            assert expand(n, truncation, start) == full[start:]

    @given(seeded_products())
    def test_high_divisors_on_both_sides_of_start(self, case):
        n, truncation, start = case
        for expand, exponent in ((phi_truncated, 1), (inverse_phi_truncated, -1)):
            expected = divisor_product(n.value(), truncation, exponent)
            assert list(expand(n, truncation, start)) == expected[start:]

    @given(periodic_products())
    def test_low_kernel_products(self, case):
        n, truncation, start = case
        for expand, exponent in ((phi_truncated, 1), (inverse_phi_truncated, -1)):
            expected = divisor_product(n.value(), truncation, exponent)
            assert list(expand(n, truncation, start)) == expected[start:]

    @given(high_kernel_products())
    def test_kernel_that_is_a_high_divisor(self, case):
        n, truncation, start, periodic = case
        for expand, exponent in ((phi_truncated, 1), (inverse_phi_truncated, -1)):
            expected = divisor_product(n.value(), truncation, exponent)
            with pytest.MonkeyPatch.context() as patch:
                if expand is periodic:
                    patch.setattr(cyclo, "_dense_product", refuse_dense_route)
                assert list(expand(n, truncation, start)) == expected[start:]

    def test_start_outside_the_truncation_rejected(self):
        for start in (-1, 8):
            with pytest.raises(ValueError):
                phi_truncated(factor(6), 8, start)


class TestOneList:
    @pytest.mark.parametrize("start", [0, 2**16])
    @pytest.mark.parametrize(
        "expand, n",
        [
            (inverse_phi_truncated, 30),
            (phi_truncated, 2310),
            # the prime 32771 lies in (T/4, T/2), so the low factors are not
            # those of 1/Phi_30 and the dense series is what is measured
            (inverse_phi_truncated, 30 * 32771),
        ],
    )
    def test_peak_is_one_list_plus_the_result(self, expand, n, start):
        # the coefficients are cached small ints, so the buffers are all that
        # is traced: the packed series, 2 or 4 bytes a coefficient, with the
        # few transient copies of a step, and the returned tuple of T
        # pointers, where a new list per step would hold three lists at once
        truncation = 2**17
        result, peak = self.traced_peak(expand, factor(n), truncation, start)
        assert peak <= 2.5 * 8 * truncation
        assert isinstance(result, tuple) and len(result) == truncation - start

    @pytest.mark.parametrize(
        "expand, n", [(phi_truncated, 2310), (inverse_phi_truncated, 30 * 32771)]
    )
    def test_suffix_is_copied_once(self, expand, n):
        # the packed series plus the returned tuple of T/2 pointers, decoded
        # from the suffix alone, where decoding all T coefficients first
        # would hold a second tuple of the suffix
        truncation = 2**17
        result, peak = self.traced_peak(expand, factor(n), truncation, truncation // 2)
        assert peak <= 1.75 * 8 * truncation
        assert len(result) == truncation // 2

    @staticmethod
    def traced_peak(expand, fac, truncation, start):
        tracemalloc.start()
        try:
            result = expand(fac, truncation, start)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak


class TestPeriodicRead:
    def test_one_coefficient_builds_nothing_of_the_period_length(self):
        # the hunted certificate's coefficient k, read alone with the period
        # of 1/Phi_30030 already in the memo: windows of length 1, never a
        # copy of the 30030-entry period
        cert = build_certificate(30030, 3, "a")
        k = cert.k_kernel
        assert phi_truncated(cert.N, k + 1, k) == (3,)
        tracemalloc.start()
        try:
            assert phi_truncated(cert.N, k + 1, k) == (3,)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_prime_kernel_read_builds_nothing_of_the_kernel_length(self):
        # below the truncation the divisors of N = P * c are 1, P and c, and
        # 1 and P make 1/Phi_P = (1 - x)/(1 - x**P): its nonzero part is two
        # entries long, and a read of one coefficient must not build the
        # P - 2 zeros after them (building the whole period peaks near 16
        # MB); N * c' has an even number of primes above P, so its inverse
        # reads the same kernel
        low, high = next_prime_above(10**6), next_prime_above(3 * 10**6)
        higher = next_prime_above(high)
        n = FactoredInteger(((low, 1), (high, 1)))

        def period(j):  # one period of (1 - x)/(1 - x**P)
            return {0: 1, 1: -1}.get(j % low, 0)

        cyclo._c_table_cached.cache_clear()
        tracemalloc.start()
        try:
            forward = phi_truncated(n, high + 6, high + 5)
            backward = inverse_phi_truncated(n * factor(higher), higher + 6, higher + 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # (1 - x**c)**-1 and (1 - x**c')**-1 are 1 + x**c and 1 + x**c' here
        assert forward == (period(high + 5) + period(5),)
        assert backward == (period(higher + 5) + period(higher + 5 - high) + period(5),)
        assert peak < 64 * 1024


class TestInversePhiTruncated:
    def test_examples(self):
        assert inverse_phi_truncated(factor(6), 8) == (1, 1, 0, -1, -1, 0, 1, 1)
        assert inverse_phi_truncated(factor(2), 4) == (1, -1, 1, -1)
        assert inverse_phi_truncated(factor(15), 7) == (1, 1, 1, 0, 0, -1, -1)

    def test_product_with_forward_is_unit(self):
        rng = random.Random(20260810)
        small_primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
        for _ in range(10):
            chosen = rng.sample(small_primes, rng.randint(3, 5))
            n = FactoredInteger(tuple((p, 1) for p in sorted(chosen)))
            truncation = rng.randint(2, 128)
            forward = phi_truncated(n, truncation)
            backward = inverse_phi_truncated(n, truncation)
            product = mul_series(forward, backward, truncation)
            assert product == [1] + [0] * (truncation - 1)


class TestRadicalReduce:
    def test_agrees_with_stretching(self):
        # Phi_n(x) = Phi_kernel(x**s), s = n / kernel: a(n, k) = a(kernel, k/s)
        # when s | k, and 0 otherwise
        for n in range(2, 101):
            kernel = 1
            for p, _ in trial_factor(n):
                kernel *= p
            s = n // kernel
            for k in range(0, euler_phi(factor(n)) + 1):
                expected = a_coeff(kernel, k // s) if k % s == 0 else 0
                assert a_coeff(n, k) == expected, (n, k)

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
