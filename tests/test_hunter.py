import pickle
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import cyclocert
from cyclocert import cyclo, hunter
from cyclocert.arith import FactoredInteger, PrimeCluster, euler_phi, factor, is_prime, radical
from cyclocert.cyclo import c_table, inverse_phi_truncated, phi_poly, phi_truncated
from cyclocert.errors import SearchBoundExceededError
from cyclocert.hunter import (
    REASON_CLUSTER,
    REASON_CONGRUENCE,
    REASON_LIFT,
    REASON_PRIMALITY,
    REASON_Q_BOUND,
    REASON_VALUE,
    REASON_WINDOW,
    Certificate,
    build_certificate,
    lift_to_modulus,
    plan_target,
    predict_window,
    verify_certificate,
)


class TestPlanTarget:
    def test_odd_prime_kernel_positive_target(self):
        plan = plan_target(3, 2)
        assert (plan.t, plan.delta) == (3, 0)
        assert plan.mu_kernel == -1
        assert plan.predicted_value == 2  # the classical -1 + t at the leading index

    def test_two_odd_primes_kernel(self):
        plan = plan_target(15, -2)
        assert plan.mu_kernel == 1
        assert (plan.t, plan.delta) == (2, 2)
        # mu = +1 sets the cluster floor q2 / (2 - r) = 8 * 5 from the
        # kernel's second prime; without it n = 17 would already hold 31
        assert build_certificate(15, -1, "a").cluster.n == 8 * 5

    def test_even_kernel(self):
        plan = plan_target(6, 5)
        assert (plan.t, plan.delta) == (5, 4)
        assert plan.predicted_value == 5

    def test_kernel_reduction(self):
        assert plan_target(12, 5) == plan_target(6, 5)
        assert plan_target(9, -4) == plan_target(3, -4)

    def test_rejects_m_below_two(self):
        with pytest.raises(ValueError):
            plan_target(1, 3)

    def test_plan_equation_and_offset_support(self):
        for m in range(2, 31):
            kernel = radical(factor(m)).value()
            period = c_table(kernel).period
            for v in range(-6, 7):
                plan = plan_target(m, v)
                assert plan.kernel == kernel
                assert 0 <= plan.delta < kernel
                assert period[plan.delta] != 0
                predicted = (
                    period[(plan.delta + 1) % kernel]
                    - plan.mu_kernel * plan.t * period[plan.delta]
                )
                assert predicted == v == plan.predicted_value

    def test_minimality_by_exhaustive_rescan(self):
        for m in range(2, 16):
            kernel = radical(factor(m)).value()
            period = c_table(kernel).period
            for v in range(-5, 6):
                plan = plan_target(m, v)
                for t in range(1, plan.t + 1):
                    for delta in range(kernel):
                        if period[delta] == 0:
                            continue
                        hits = (
                            period[(delta + 1) % kernel] - plan.mu_kernel * t * period[delta] == v
                        )
                        if hits:
                            assert (t, delta) >= (plan.t, plan.delta), (m, v, t, delta)


class TestBuildCertificate:
    def test_worked_instance(self):
        cert = build_certificate(3, 2, "a")
        assert cert.cluster.primes == (31, 37, 43)
        assert cert.q is None  # t = 3 odd, mode a
        assert cert.N.value() == 3 * 31 * 37 * 43
        assert cert.k_kernel == 43
        assert cert.truncation == 62
        assert (cert.ratio_num, cert.ratio_den) == (15, 8)

    def test_delegation_of_m_equals_one(self):
        cert = build_certificate(1, 7, "a")
        assert cert.m_original == 1
        assert cert.plan.kernel == 2
        assert cert.stretch == 1
        assert cert.N_lifted == cert.N
        assert verify_certificate(cert, full_window=True).passed

    def test_mode_c_parity(self):
        cert = build_certificate(3, 2, "c")
        assert cert.q == 67  # smallest prime above 2 * 31
        assert cert.N.value() == 3 * 31 * 37 * 43 * 67
        assert cert.k_kernel == 43
        assert verify_certificate(cert, full_window=True).passed

    def test_mode_a_even_t_gets_q(self):
        cert = build_certificate(15, -2, "a")
        assert cert.plan.t == 2
        assert cert.q is not None and cert.q > 2 * cert.cluster.primes[0]
        assert verify_certificate(cert, full_window=True).passed

    def test_window_constraint_respected(self):
        for m, v in ((15, 1), (6, 5), (21, -3), (30, 4)):
            cert = build_certificate(m, v, "a")
            assert cert.k_kernel < 2 * cert.cluster.primes[0]

    def test_case_one_floor(self):
        # mu(kernel) = +1 demands n >= q2 / (2 - r); for 15/8 that is 8 * q2
        cert = build_certificate(15, -2, "a")
        assert cert.cluster.n >= 8 * 5

    def test_custom_ratio(self):
        cert = build_certificate(3, 2, "a", Fraction(9, 5))
        assert (cert.ratio_num, cert.ratio_den) == (9, 5)
        assert cert.cluster.primes[-1] * 5 < cert.cluster.n * 9
        assert verify_certificate(cert, full_window=True).passed

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            build_certificate(3, 2, "a", Fraction(2, 1))
        with pytest.raises(ValueError):
            build_certificate(3, 2, "a", Fraction(1, 1))

    def test_scan_ceiling_propagates(self):
        with pytest.raises(SearchBoundExceededError):
            build_certificate(15, -2, "a", scan_ceiling=10)

    def test_cluster_cache_stays_bounded(self):
        # the acceptance grid's 1,260 builds search 371 distinct clusters:
        # all of them stay cached, so every repeat is a hit
        hunter._cluster_cached.cache_clear()
        for m in range(1, 31):
            for v in range(-10, 11):
                for mode in ("a", "c"):
                    build_certificate(m, v, mode)
        info = hunter._cluster_cached.cache_info()
        assert (info.misses, info.hits) == (371, 889)
        assert info.currsize == info.misses
        # a library loop over v: each v at m = 6 needs its own t
        for v in range(1, 530):
            build_certificate(6, v, "c")
        info = hunter._cluster_cached.cache_info()
        assert info.maxsize is not None and info.misses > info.maxsize
        assert info.currsize <= info.maxsize


class TestPredictWindow:
    def test_worked_instance_window(self):
        cert = build_certificate(3, 2, "a")
        window = predict_window(cert)
        assert window[0] == 2  # k = p_t = 43
        assert window[1] == -3  # k = 44: c(3,44)=0, c(3,43)=-1, mu=-1, t=3
        assert len(window) == 2 * 31 - 43

    def test_zero_at_dead_offsets(self):
        cert = build_certificate(15, 0, "a")
        period = c_table(15).period
        window = predict_window(cert)
        p_last = cert.cluster.primes[-1]
        dead = [
            i
            for i, _ in enumerate(window)
            if period[(p_last + i) % 15] == 0 and period[(p_last + i - 1) % 15] == 0
        ]
        assert dead  # kernel 15 has adjacent zero offsets, so the case is real
        for i in dead:
            assert window[i] == 0

    def test_full_window_of_a_wide_cluster(self):
        # kernel 30 times t = 200 primes = 1 (mod 30) in [T/2, T), T = 2*p_1:
        # every prime is a high divisor, seeded into the series, and the
        # window is read from starts above, between and below them
        for mode, expand in (("a", phi_truncated), ("c", inverse_phi_truncated)):
            cert = build_certificate(30, 200, mode)
            primes, truncation = cert.cluster.primes, cert.truncation
            assert len(primes) == 200 and 2 * primes[0] == truncation
            window = predict_window(cert)
            p_last = primes[-1]
            for start in (p_last, primes[100], 0):
                got = expand(cert.N, truncation, start)
                assert got[p_last - start :] == window, (mode, start)


class TestVerifyCertificate:
    def test_grid_sample_full_window(self):
        for m in (1, 2, 3, 4, 6, 15, 18, 25, 30):
            for v in (-3, 0, 1, 5):
                for mode in ("a", "c"):
                    cert = build_certificate(m, v, mode)
                    report = verify_certificate(cert, full_window=True)
                    assert report.passed, (m, v, mode, report.reasons)
                    assert report.computed_value == v
                    assert report.window_checked

    def test_value_tamper_rejected(self):
        cert = build_certificate(3, 2, "a")
        bad = replace(cert, v=-2)
        report = verify_certificate(bad)
        assert not report.passed
        assert REASON_VALUE in report.reasons
        assert report.computed_value == 2

    def test_composite_prime_rejected(self):
        cert = build_certificate(3, 2, "a")
        primes = (31, 37, 49)  # 49 = 7*7, still = 1 mod 3 and inside the window
        bad = replace(
            cert,
            cluster=replace(cert.cluster, primes=primes),
            N=FactoredInteger(((3, 1), (31, 1), (37, 1), (49, 1))),
            N_lifted=FactoredInteger(((3, 1), (31, 1), (37, 1), (49, 1))),
        )
        report = verify_certificate(bad)
        assert not report.passed
        assert REASON_PRIMALITY in report.reasons

    def test_congruence_tamper_rejected(self):
        cert = build_certificate(3, 2, "a")
        primes = (31, 37, 41)  # 41 = 2 mod 3
        bad = replace(
            cert,
            cluster=replace(cert.cluster, primes=primes),
            N=FactoredInteger(((3, 1), (31, 1), (37, 1), (41, 1))),
            N_lifted=FactoredInteger(((3, 1), (31, 1), (37, 1), (41, 1))),
        )
        report = verify_certificate(bad)
        assert not report.passed
        assert REASON_CONGRUENCE in report.reasons

    def test_q_bound_tamper_rejected(self):
        cert = build_certificate(3, 2, "c")
        assert cert.q == 67
        bad_n = factor(3 * 31 * 37 * 43 * 47)
        bad = replace(cert, q=47, N=bad_n, N_lifted=bad_n)
        report = verify_certificate(bad)
        assert not report.passed
        assert REASON_Q_BOUND in report.reasons

    def test_window_tamper_rejected(self):
        cert = build_certificate(3, 2, "a")
        bad = replace(cert, k_kernel=cert.truncation, k_lifted=cert.truncation)
        report = verify_certificate(bad)
        assert not report.passed
        assert REASON_WINDOW in report.reasons
        assert report.computed_value is None

    def test_cluster_interval_tamper_rejected(self):
        cert = build_certificate(3, 2, "a")
        bad = replace(cert, cluster=replace(cert.cluster, n=5))
        report = verify_certificate(bad)
        assert not report.passed
        assert REASON_CLUSTER in report.reasons

    def test_shifted_k_reports_computed_value(self):
        cert = build_certificate(3, 2, "a")
        shifted = replace(cert, k_kernel=cert.k_kernel + 1, k_lifted=cert.k_lifted + 1)
        report = verify_certificate(shifted)
        window = predict_window(cert)
        assert report.computed_value == window[1] == -3
        assert not report.passed


def _clear_caches() -> None:
    cyclo._c_table_cached.cache_clear()
    cyclo._phi_poly_cached.cache_clear()
    hunter._cluster_cached.cache_clear()


class TestOnePeriodPerKernel:
    # the verifier's periodic route reads the period of 1/Phi_kernel from
    # c_table's memo, keyed on the kernel as factored off N's primes

    @pytest.mark.parametrize("m", [30, 2310])
    def test_build_and_verify_expand_the_period_once(self, monkeypatch, m):
        built = []
        half_product = cyclo._half_product

        def counted(fac, degree, exponent):
            if exponent == -1:  # a period of 1/Phi_n, not Phi_n
                built.append(fac.value())
            return half_product(fac, degree, exponent)

        monkeypatch.setattr(cyclo, "_half_product", counted)
        _clear_caches()
        cert = build_certificate(m, 3)
        assert verify_certificate(cert, full_window=True).passed
        assert built == [m]
        assert verify_certificate(cert, full_window=True).passed
        assert built == [m]

    @pytest.mark.parametrize("m, mode", [(30, "a"), (2310, "c")])
    def test_periodic_route_never_factors(self, monkeypatch, m, mode):
        cert = build_certificate(m, 3, mode)
        expand = phi_truncated if mode == "a" else inverse_phi_truncated
        horizon, start = cert.truncation, cert.cluster.primes[-1]
        # start 0 leaves every cluster prime above it: the dense route
        dense = expand(cert.N, horizon)

        def no_factor(n):
            raise AssertionError(f"factor({n}) called")

        _clear_caches()
        monkeypatch.setattr(cyclo, "factor", no_factor)
        assert expand(cert.N, horizon, start) == dense[start:]
        assert expand(cert.N, cert.k_kernel + 1, cert.k_kernel) == (cert.v,)


# verifies the pickled certificate on stdin with the address space capped at
# 512 MB; argv[1] is the directory holding the package under test
VERIFY_UNDER_RLIMIT = """
import pickle, resource, sys
sys.path.insert(0, sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))
from cyclocert.hunter import verify_certificate
report = verify_certificate(pickle.load(sys.stdin.buffer))
print(report.passed, report.computed_value)
"""


class TestVerifyMemory:
    def test_huge_cluster_prime_verifies_in_bounded_memory(self):
        # t = 1 and p_1 > 10**12: the truncation k + 1 exceeds 10**12, so the
        # coefficient must come from one period of 1/Phi_6, not a dense list
        plan = plan_target(6, 1)
        assert plan.t == 1
        p = 10**12 + 3  # = 1 (mod 6)
        while not is_prime(p):
            p += 6
        n = factor(6) * FactoredInteger(((p, 1),))
        k = p + plan.delta
        cert = Certificate(
            mode="a", m_original=6, v=1, plan=plan, cluster=PrimeCluster(p - 1, (p,)), q=None,
            N=n, k_kernel=k, stretch=1, N_lifted=n, k_lifted=k, truncation=2 * p,
            ratio_num=15, ratio_den=8,
        )
        src = str(Path(cyclocert.__file__).resolve().parent.parent)
        child = subprocess.run(
            [sys.executable, "-c", VERIFY_UNDER_RLIMIT, src],
            input=pickle.dumps(cert), capture_output=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr.decode()
        assert child.stdout.decode().split() == ["True", "1"]


class TestModeDuality:
    def test_series_agree_below_truncation(self):
        for m, v in ((3, 2), (15, -2), (2, 7), (30, -4)):
            cert_a = build_certificate(m, v, "a")
            cert_c = build_certificate(m, v, "c")
            assert cert_a.plan == cert_c.plan
            assert cert_a.cluster == cert_c.cluster
            horizon = cert_a.truncation
            series_a = phi_truncated(cert_a.N, horizon)
            series_c = inverse_phi_truncated(cert_c.N, horizon)
            assert series_a == series_c, (m, v)


class TestLift:
    def test_identity_for_squarefree(self):
        cert = build_certificate(15, -2, "a")
        assert cert.stretch == 1
        assert lift_to_modulus(cert) == (cert.N, cert.k_kernel)

    def test_prime_power_modulus(self):
        cert = build_certificate(4, 1, "a")
        assert cert.plan.kernel == 2
        assert cert.stretch == 2
        lifted_n, lifted_k = lift_to_modulus(cert)
        assert lifted_n == cert.N_lifted
        assert lifted_k == cert.k_lifted == 2 * cert.k_kernel
        assert factor(4).divides(cert.N_lifted)

    def test_lifted_coefficient_matches_exact_polynomial(self):
        # small enough to expand the lifted polynomial exactly
        cert = build_certificate(4, 1, "a")
        value = cert.N_lifted.value()
        assert euler_phi(cert.N_lifted) <= 10**6
        poly = phi_poly(value)
        assert poly.coeffs[cert.k_lifted] == cert.v
        # and through the truncated route, which never expands N
        got = phi_truncated(cert.N_lifted, cert.k_lifted + 1)
        assert got[cert.k_lifted] == cert.v

    def test_lifted_coefficient_mode_c(self):
        cert = build_certificate(12, -3, "c")
        assert cert.stretch == 2
        got = inverse_phi_truncated(cert.N_lifted, cert.k_lifted + 1)
        assert got[cert.k_lifted] == cert.v

    @pytest.mark.parametrize("mode", ["a", "c"])
    @pytest.mark.parametrize(
        "field, tamper",
        [
            ("stretch", lambda cert: 0),
            ("stretch", lambda cert: 1),
            ("stretch", lambda cert: cert.stretch + 1),
            ("N_lifted", lambda cert: cert.N),
            ("N_lifted", lambda cert: cert.N_lifted * factor(5)),
            ("k_lifted", lambda cert: cert.k_lifted + 1),
        ],
    )
    def test_tampered_lift_rejected(self, mode, field, tamper):
        # kernel 6, stretch 2; 5 divides neither the kernel nor a prime = 1 mod 6
        cert = build_certificate(12, -3, mode)
        assert cert.stretch == 2 and 5 not in cert.N.primes()
        report = verify_certificate(replace(cert, **{field: tamper(cert)}))
        assert report.reasons == (REASON_LIFT,), (field, report.reasons)
        assert report.computed_value == -3
