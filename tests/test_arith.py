import math
import subprocess
import sys
import tracemalloc
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cyclocert
from cyclocert import arith
from cyclocert.arith import (
    FactoredInteger,
    PrimeCluster,
    PrimeClusterSpec,
    all_prime,
    euler_phi,
    factor,
    find_prime_cluster,
    is_prime,
    mobius,
    next_prime_above,
    radical,
    _SEGMENT_MAX,
    _class_primes,
)
from cyclocert.errors import ArithmeticOverflowError, MACHINE_INT_MAX, SearchBoundExceededError

from oracles import cluster_scan_bruteforce, sieve_primes, trial_factor


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

    def test_rejects_values_past_64_bits(self):
        assert factor(MACHINE_INT_MAX).value() == MACHINE_INT_MAX
        with pytest.raises(ArithmeticOverflowError):
            factor(MACHINE_INT_MAX + 1)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_roundtrip(self, n):
        fac = factor(n)
        assert fac.value() == n
        assert all(e >= 1 for _, e in fac.factors)
        primes = [p for p, _ in fac.factors]
        assert primes == sorted(primes)

    def test_below_two_to_the_24_trial_division_settles_n(self, monkeypatch):
        # 4096**2 = 2**24: small n never reach the primality test or rho
        def refuse(*_):
            raise AssertionError("n left trial division")

        monkeypatch.setattr(arith, "is_prime", refuse)
        monkeypatch.setattr(arith, "_brent_divisor", refuse)
        for n in (16777213, 16777215, 4091 * 4093, 4093**2, 999983, 1616615):
            assert factor(n).factors == tuple(trial_factor(n))

    @pytest.mark.parametrize(
        "factors",
        [
            ((2147483647, 2),),  # (2**31 - 1)**2
            ((9223372036854775783, 1),),  # the largest prime below 2**63
            ((3037000453, 1), (3037000493, 1)),  # the two primes nearest 2**31.5
            ((1000000007, 1), (1000000009, 1)),
            ((3, 1), (4099, 3)),  # 4099: the least prime above the trial limit
            ((4099, 5),),
            ((7, 1), (65537, 3)),
            ((4099, 1), (4111, 1), (2147483647, 1)),
            # 3825123056546413051, a strong pseudoprime to the bases 2..23
            ((149491, 1), (747451, 1), (34233211, 1)),
        ],
    )
    def test_cofactors_beyond_trial_division(self, monkeypatch, factors):
        # rho splits composites only: handed 1 or a prime, it would never return
        brent = arith._brent_divisor

        def composites_only(u):
            assert u >= 2 and not is_prime(u), f"rho was handed {u}"
            return brent(u)

        monkeypatch.setattr(arith, "_brent_divisor", composites_only)
        assert factor(FactoredInteger(factors).value()).factors == factors

    @given(
        st.integers(min_value=1, max_value=4096),
        st.lists(st.integers(min_value=4096, max_value=1 << 31), min_size=1, max_size=4),
    )
    def test_products_of_large_primes(self, small, lows):
        n, expected = small, Counter(dict(trial_factor(small)))
        for low in lows:
            p = next_prime_above(low)
            if n * p > MACHINE_INT_MAX:
                break
            n *= p
            expected[p] += 1
        assert factor(n).factors == tuple(sorted(expected.items()))


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

    def test_phi_overflow_of_a_huge_exponent_is_prompt(self):
        # the range check follows every multiplication, so phi(2**(10**12))
        # fails after 64 of them; in a child process, so that a check left
        # until the end of the exponent loop fails by the timeout
        src = str(Path(cyclocert.__file__).resolve().parent.parent)
        child = subprocess.run(
            [sys.executable, "-c", PHI_OF_A_HUGE_POWER, src],
            capture_output=True, text=True, timeout=20,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout == "overflow\n"


# prints "overflow" when euler_phi refuses 2**(10**12); argv[1] is the
# directory holding the package under test
PHI_OF_A_HUGE_POWER = """
import sys
sys.path.insert(0, sys.argv[1])
from cyclocert.arith import FactoredInteger, euler_phi
from cyclocert.errors import ArithmeticOverflowError
try:
    euler_phi(FactoredInteger(((2, 10**12),)))
except ArithmeticOverflowError:
    print("overflow")
"""


class TestPrimality:
    def test_examples(self):
        assert is_prime(97)
        assert not is_prime(91)
        assert not is_prime(1)
        assert not is_prime(0)

    def test_against_sieve(self):
        reference = set(sieve_primes(1_000_000))
        for u in range(1_000_001):
            assert is_prime(u) == (u in reference), u

    @pytest.mark.parametrize(
        "psi",
        [
            2047,
            1_373_653,
            25_326_001,
            3_215_031_751,
            2_152_302_898_747,
            3_474_749_660_383,
            341_550_071_728_321,
            3_825_123_056_546_413_051,
        ],
    )
    def test_least_strong_pseudoprimes_are_composite(self, psi):
        # psi_k passes Miller-Rabin to the first k prime bases, so each one
        # sits at or just above the bound where fewer bases would answer
        assert not is_prime(psi)

    @pytest.mark.parametrize("psi", [1_373_653, 25_326_001])
    def test_agrees_with_trial_division_around_base_switches(self, psi):
        # psi_2 and psi_3 are where is_prime moves from 2 to 3 and from 3 to
        # 4 Miller-Rabin bases
        for u in range(psi - 2000, psi + 2001):
            assert is_prime(u) == (trial_factor(u) == [(u, 1)]), u

    def test_64bit_edge_cases(self):
        # strong pseudoprimes to small bases, and true large primes
        assert not is_prime(3215031751)
        assert not is_prime(341550071728321)
        assert not is_prime(3825123056546413051)
        assert is_prime(2305843009213693951)  # 2**61 - 1
        assert is_prime(9223372036854775783)  # largest prime below 2**63
        assert not is_prime(9223372036854775781)

    def test_refuses_values_beyond_its_proven_domain(self):
        assert is_prime(2**64 - 59)  # the largest prime below 2**64
        # 2**64 + 13 is the least prime above 2**64, and psi_13 =
        # 1,287,836,182,261 * 2,575,672,364,521 a strong pseudoprime to
        # every base up to 41
        for u in (2**64, 2**64 + 13, 3_317_044_064_679_887_385_961_981):
            with pytest.raises(ArithmeticOverflowError):
                is_prime(u)


# Jaeschke's psi_2 ... psi_7 (psi_8 = psi_7), the least strong pseudoprime to
# the first 9 to 11 prime bases, and three Carmichael numbers
_PSEUDOPRIMES = (
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
)
_CARMICHAEL = (561, 1105, 1729)


@st.composite
def prime_lists(draw, bases=(0, 1, 2, *_CARMICHAEL, *_PSEUDOPRIMES)) -> list[int]:
    """Mostly primes from one window, so that the answer is often True:
    a sample of the primes in [base, base + width), optionally with
    intruders (the window's other integers, 0, 1, 2, pseudoprimes,
    Carmichael numbers), duplicated and shuffled."""
    base = draw(st.one_of(st.sampled_from(bases), st.integers(0, 10**6)))
    width = draw(st.integers(1, 3000))
    window = range(base, base + width)
    primes = [u for u in window if is_prime(u)] or [2]
    values = draw(st.lists(st.sampled_from(primes), max_size=200))
    values += draw(
        st.lists(st.one_of(st.sampled_from(window), st.sampled_from(bases)), max_size=2)
    )
    values += draw(st.lists(st.sampled_from(values or [2]), max_size=3))
    return draw(st.permutations(values))


class TestAllPrime:
    @settings(max_examples=150, deadline=None)
    @given(prime_lists())
    def test_equals_is_prime_on_each(self, values):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arith, "_SIEVE_SEGMENT", 64)  # so segment ends are crossed
            assert all_prime(values) == all(map(is_prime, values))

    @settings(max_examples=100, deadline=None)
    @given(prime_lists(bases=(0, 1, 2, *_CARMICHAEL, *_PSEUDOPRIMES[:3])))
    def test_sieve_equals_is_prime_on_each(self, values):
        # the rule forced to the sieve, whose base primes stay below 2**16
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arith, "_SIEVE_SEGMENT", 64)
            patch.setattr(arith, "_SIEVE_BREAK_EVEN", 1 << 40)
            assert all_prime(values) == all(map(is_prime, values))

    @pytest.mark.parametrize("composite", [*_CARMICHAEL, *_PSEUDOPRIMES[:2], 3 * 5 * 7, 2**16])
    def test_sieve_rejects_a_composite_among_primes(self, monkeypatch, composite):
        primes = [u for u in range(composite - 8000, composite + 8000) if is_prime(u)]
        assert all_prime(primes)
        monkeypatch.setattr(arith, "is_prime", None)  # the sieve route alone
        assert all_prime(primes)
        assert not all_prime(primes + [composite])
        assert not all_prime([composite] + primes[::-1])

    def test_edge_values(self):
        assert all_prime([])
        assert all_prime([2])
        assert all_prime([2, 3, 5, 7, 2, 3])
        assert not all_prime([0, 2, 3])
        assert not all_prime([1])
        assert not all_prime([4])
        assert not all_prime(range(3, 10**4, 2))

    def test_tiny_and_sparse_windows_take_miller_rabin(self, monkeypatch):
        tiny = [151, 181, 211, 241, 271]  # a cluster of the acceptance grid
        sparse = [next_prime_above(2**40), next_prime_above(2**41)]
        calls = []
        monkeypatch.setattr(arith, "is_prime", lambda u: calls.append(u) or is_prime(u))
        assert all_prime(tiny) and all_prime(sparse)
        assert calls == tiny + sparse


class TestNextPrimeAbove:
    def test_examples(self):
        assert next_prime_above(86) == 89
        assert next_prime_above(2) == 3
        assert next_prime_above(422) == 431
        assert next_prime_above(0) == 2
        with pytest.raises(ValueError):
            next_prime_above(-1)

    def test_against_sieve(self):
        primes = sieve_primes(2000)
        for x in range(1, 1900):
            expected = next(p for p in primes if p > x)
            assert next_prime_above(x) == expected


class TestPrimeCluster:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PrimeClusterSpec(15, 2, 2, 1)  # ratio not below 2
        with pytest.raises(ValueError):
            PrimeClusterSpec(15, 2, 7, 8)  # ratio not above 1
        with pytest.raises(ValueError):
            PrimeClusterSpec(0, 2, 15, 8)
        with pytest.raises(ValueError, match="count"):
            PrimeClusterSpec(15, 0, 15, 8)
        with pytest.raises(ValueError, match="floor_n"):
            PrimeClusterSpec(15, 2, 15, 8, 0)

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

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    def test_delta_floor_fits_the_window(self, modulus, count, data):
        # the floor build_certificate sets, n >= delta / (2 - r), alone keeps
        # p_t + delta below 2*p_1: 2*p_1 - p_t > (2 - r)*n >= delta
        # den <= 64 (r >= 65/64) keeps each scan below n = 2 * 10**5
        den = data.draw(st.integers(min_value=2, max_value=64), label="den")
        num = data.draw(st.integers(min_value=den + 1, max_value=2 * den - 1), label="num")
        delta = data.draw(st.integers(min_value=0, max_value=modulus - 1), label="delta")
        floor_n = max(1, -(-delta * den // (2 * den - num)))
        spec = PrimeClusterSpec(modulus, count, num, den, floor_n)
        cluster = find_prime_cluster(spec)
        self._assert_invariants(cluster, spec)
        assert cluster.primes[-1] + delta < 2 * cluster.primes[0]

    def test_class_sieve_against_oracle(self):
        reference = sieve_primes(200_000)
        # segments hold 64, 128, ..., _SEGMENT_MAX members, then
        # _SEGMENT_MAX each: limits on both sides of every segment end
        sizes = [64 << k for k in range(_SEGMENT_MAX.bit_length() - 6)]
        ends = list(accumulate(sizes + [_SEGMENT_MAX]))
        for modulus in range(1, 200):
            residue = 1 % modulus
            expected = [p for p in reference if p % modulus == residue]
            first = 1 + modulus if modulus > 1 else 2  # the least member above 1
            limits = {0, 1, 2, 3, 255, 256, 30_000}
            limits |= {first + e * modulus + d for e in ends for d in (-1, 0, 1)}
            for limit in sorted(x for x in limits if x <= reference[-1]):
                for above in (1, max(1, limit // 3)):
                    want = expected[bisect_right(expected, above) : bisect_right(expected, limit)]
                    got = list(_class_primes(modulus, above, limit))
                    assert got == want, (modulus, above, limit)

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    def test_search_against_oracle(self, modulus, count, data):
        den = data.draw(st.integers(min_value=2, max_value=12), label="den")
        num = data.draw(st.integers(min_value=den + 1, max_value=2 * den - 1), label="num")
        floor_n = data.draw(st.integers(min_value=1, max_value=200), label="floor_n")
        spec = PrimeClusterSpec(modulus, count, num, den, floor_n)
        answer = find_prime_cluster(spec)
        ceiling = max(1, answer.n + data.draw(st.integers(-3, 3), label="offset"))
        brute = cluster_scan_bruteforce(modulus, count, num, den, floor_n, ceiling)
        if brute is None:
            with pytest.raises(SearchBoundExceededError):
                find_prime_cluster(spec, scan_ceiling=ceiling)
        else:
            assert brute == (answer.n, list(answer.primes))
            assert find_prime_cluster(spec, scan_ceiling=ceiling) == answer

    @pytest.mark.parametrize(
        "modulus,count,n,primes",
        [
            (510510, 3, 4_628_625, (5105101, 8168161, 8678671)),
            (
                30030,
                10,
                752_753,
                (
                    840841, 870871, 930931, 960961, 1051051,
                    1201201, 1231231, 1261261, 1381381, 1411411,
                ),
            ),
        ],
    )
    def test_wide_kernels(self, modulus, count, n, primes):
        # the answers of the n-by-n scan this search replaced
        cluster = find_prime_cluster(PrimeClusterSpec(modulus, count, 15, 8))
        assert cluster == PrimeCluster(n=n, primes=primes)

    def test_exhausted_search_holds_one_segment(self):
        # no 2000 primes = 1 (mod 30) fit in (n, 65n/64) for n <= 10**7, so
        # the search reads every class prime below r * 10**7; a sieve with
        # one flag per integer up to there would take 2**24 bytes
        spec = PrimeClusterSpec(30, 2000, 65, 64)
        tracemalloc.start()
        try:
            with pytest.raises(SearchBoundExceededError):
                find_prime_cluster(spec, scan_ceiling=10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_ceiling_error(self):
        with pytest.raises(SearchBoundExceededError):
            find_prime_cluster(PrimeClusterSpec(15, 2, 15, 8), scan_ceiling=20)

    def test_search_stops_at_the_ceiling(self, monkeypatch):
        # 151 = 1 (mod 30) is the first class prime above floor_n = 150, and
        # every n it could serve is at least 150, above the ceiling 100: the
        # search stops at it, before 181 (its range ends at r * 100 = 187.5),
        # so it reads no class prime at or above r * 100
        read = []
        class_primes = arith._class_primes

        def recorded(modulus, above, top):
            for p in class_primes(modulus, above, top):
                if modulus == 30:  # not the sieving primes, modulus 1
                    read.append(p)
                yield p

        monkeypatch.setattr(arith, "_class_primes", recorded)
        with pytest.raises(SearchBoundExceededError):
            find_prime_cluster(PrimeClusterSpec(30, 1, 15, 8, floor_n=150), scan_ceiling=100)
        assert read == [151]

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
