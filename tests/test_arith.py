import math

import pytest
from hypothesis import given, strategies as st

from cyclocert.arith import (
    FactoredInteger,
    PrimeCluster,
    PrimeClusterSpec,
    divisors_up_to,
    euler_phi,
    factor,
    find_prime_cluster,
    is_prime,
    mobius,
    next_prime_above,
    radical,
)
from cyclocert.errors import ArithmeticOverflowError, SearchBoundExceededError

from oracles import brute_divisors, cluster_scan_bruteforce, sieve_primes, trial_factor


class TestFactor:
    def test_one_is_empty_product(self):
        assert factor(1).factors == ()
        assert factor(1).value() == 1

    def test_small_composite(self):
        assert factor(60).factors == ((2, 2), (3, 1), (5, 1))

    def test_four_prime_product(self):
        assert factor(147963).factors == tuple(trial_factor(147963))
        assert factor(147963).factors == ((3, 1), (31, 1), (37, 1), (43, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor(0)
        with pytest.raises(ValueError):
            factor(-12)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_roundtrip(self, n):
        fac = factor(n)
        assert fac.value() == n
        assert all(e >= 1 for _, e in fac.factors)
        primes = [p for p, _ in fac.factors]
        assert primes == sorted(primes)


class TestFactoredInteger:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            FactoredInteger(((5, 1), (3, 1)))
        with pytest.raises(ValueError):
            FactoredInteger(((3, 0),))

    def test_multiply_merges_exponents(self):
        n = factor(12) * factor(18)
        assert n.factors == ((2, 3), (3, 3))
        assert n.value() == 216

    def test_value_overflow(self):
        big = FactoredInteger(((2, 64),))
        with pytest.raises(ArithmeticOverflowError):
            big.value()

    def test_divides(self):
        assert factor(12).divides(factor(132))
        assert not factor(8).divides(factor(12))


class TestMultiplicativeFunctions:
    def test_mobius_examples(self):
        assert mobius(factor(1)) == 1
        assert mobius(factor(30)) == -1
        assert mobius(factor(12)) == 0

    def test_phi_examples(self):
        assert euler_phi(factor(1)) == 1
        assert euler_phi(factor(12)) == 4
        assert euler_phi(factor(105)) == 48

    def test_radical_examples(self):
        assert radical(factor(12)).value() == 6
        assert radical(factor(30)).value() == 30
        assert radical(factor(2**9)).value() == 2

    def test_against_bruteforce_definitions(self):
        # brute mu: squarefree test plus prime counting by trial division
        # brute phi: count of coprime residues
        for n in range(1, 10_001):
            fac = factor(n)
            pairs = trial_factor(n)
            brute_mu = 0 if any(e > 1 for _, e in pairs) else (-1) ** len(pairs)
            assert mobius(fac) == brute_mu, n
            brute_rad = 1
            for p, _ in pairs:
                brute_rad *= p
            assert radical(fac).value() == brute_rad, n
            brute_phi = sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)
            assert euler_phi(fac) == brute_phi, n

    def test_mobius_divisor_sum_vanishes(self):
        for n in range(2, 10_001):
            total = sum(mobius(factor(d)) for d in range(1, n + 1) if n % d == 0)
            assert total == 0, n

    def test_phi_overflow(self):
        with pytest.raises(ArithmeticOverflowError):
            euler_phi(FactoredInteger(((2, 100),)))


class TestPrimality:
    def test_examples(self):
        assert is_prime(97)
        assert not is_prime(91)
        assert not is_prime(1)
        assert not is_prime(0)

    def test_against_sieve(self):
        reference = set(sieve_primes(100_000))
        for u in range(100_001):
            assert is_prime(u) == (u in reference), u

    def test_64bit_edge_cases(self):
        # strong pseudoprimes to small bases, and true large primes
        assert not is_prime(3215031751)
        assert not is_prime(341550071728321)
        assert not is_prime(3825123056546413051)
        assert is_prime(2305843009213693951)  # 2**61 - 1
        assert is_prime(9223372036854775783)  # largest prime below 2**63
        assert not is_prime(9223372036854775781)


class TestNextPrimeAbove:
    def test_examples(self):
        assert next_prime_above(86) == 89
        assert next_prime_above(2) == 3
        assert next_prime_above(422) == 431

    def test_against_sieve(self):
        primes = sieve_primes(2000)
        for x in range(1, 1900):
            expected = next(p for p in primes if p > x)
            assert next_prime_above(x) == expected


class TestDivisorsUpTo:
    def test_examples(self):
        assert divisors_up_to(factor(30), 10) == [1, 2, 3, 5, 6, 10]
        assert divisors_up_to(factor(147963), 86) == [1, 3, 31, 37, 43]
        assert divisors_up_to(factor(997), 1) == [1]

    def test_never_materializes_value(self):
        huge = FactoredInteger(((2, 1), (3, 1), (10**9 + 7, 5), (10**9 + 9, 5)))
        assert divisors_up_to(huge, 7) == [1, 2, 3, 6]

    def test_thousands_of_primes(self):
        # far more primes than Python's default recursion limit allows frames
        primes = sieve_primes(13000)[:1500]
        fac = FactoredInteger(tuple((p, 1) for p in primes))
        bound = primes[-1]
        squarefree = [d for d in range(1, bound + 1) if all(e == 1 for _, e in factor(d).factors)]
        assert divisors_up_to(fac, bound) == squarefree

    @given(st.integers(min_value=1, max_value=5000))
    def test_matches_bruteforce(self, n):
        fac = factor(n)
        assert divisors_up_to(fac, n) == brute_divisors(n)
        count = 1
        for _, e in fac.factors:
            count *= e + 1
        assert len(divisors_up_to(fac, n)) == count


class TestPrimeCluster:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PrimeClusterSpec(15, 2, 2, 1)  # ratio not below 2
        with pytest.raises(ValueError):
            PrimeClusterSpec(15, 2, 7, 8)  # ratio not above 1
        with pytest.raises(ValueError):
            PrimeClusterSpec(0, 2, 15, 8)

    def test_mod_15_pair(self):
        cluster = find_prime_cluster(PrimeClusterSpec(15, 2, 15, 8))
        assert cluster.n == 97
        assert cluster.primes == (151, 181)
        assert cluster_scan_bruteforce(15, 2, 15, 8, 1, 120) == (97, [151, 181])

    def test_mod_3_triple(self):
        cluster = find_prime_cluster(PrimeClusterSpec(3, 3, 15, 8))
        assert cluster.primes == (31, 37, 43)
        assert cluster.primes[-1] < 2 * cluster.primes[0]
        assert cluster_scan_bruteforce(3, 3, 15, 8, 1, 40) == (cluster.n, [31, 37, 43])

    def test_any_modulus_one_cluster_satisfies_postcondition(self):
        cluster = find_prime_cluster(PrimeClusterSpec(1, 1, 15, 8))
        self._assert_invariants(cluster, PrimeClusterSpec(1, 1, 15, 8))

    @pytest.mark.parametrize(
        "modulus,count,floor_n", [(1, 4, 1), (2, 3, 10), (5, 2, 1), (7, 3, 50), (30, 2, 1)]
    )
    def test_invariants_hold(self, modulus, count, floor_n):
        spec = PrimeClusterSpec(modulus, count, 15, 8, floor_n)
        self._assert_invariants(find_prime_cluster(spec), spec)

    def test_floor_respected_and_minimal(self):
        spec = PrimeClusterSpec(3, 3, 15, 8, floor_n=30)
        cluster = find_prime_cluster(spec)
        assert cluster.n >= 30
        brute = cluster_scan_bruteforce(3, 3, 15, 8, 30, 200)
        assert brute == (cluster.n, list(cluster.primes))

    def test_ceiling_error(self):
        with pytest.raises(SearchBoundExceededError):
            find_prime_cluster(PrimeClusterSpec(15, 2, 15, 8), scan_ceiling=20)

    @staticmethod
    def _assert_invariants(cluster: PrimeCluster, spec: PrimeClusterSpec):
        assert len(cluster.primes) == spec.count
        assert cluster.n >= spec.floor_n
        assert cluster.n < cluster.primes[0]
        assert list(cluster.primes) == sorted(set(cluster.primes))
        assert cluster.primes[-1] * spec.ratio_den < cluster.n * spec.ratio_num
        assert cluster.primes[-1] < 2 * cluster.primes[0]
        for p in cluster.primes:
            assert is_prime(p)
            assert p % spec.modulus == 1 % spec.modulus
