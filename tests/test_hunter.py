import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cyclocert
from cyclocert import arith, cyclo, hunter
from cyclocert.arith import (
    FactoredInteger,
    PrimeCluster,
    euler_phi,
    factor,
    is_prime,
    next_prime_above,
    radical,
)
from cyclocert.cyclo import c_table, inverse_phi_truncated, phi_poly, phi_truncated
from cyclocert.errors import SearchBoundExceededError
from oracles import whole_window_mismatches
from cyclocert.hunter import (
    DEFAULT_RATIO,
    REASON_CLUSTER,
    REASON_COMPOSITION,
    REASON_CONGRUENCE,
    REASON_COPRIMALITY,
    REASON_KERNEL,
    REASON_LIFT,
    REASON_PARITY,
    REASON_PLAN,
    REASON_PRIMALITY,
    REASON_Q_BOUND,
    REASON_VALUE,
    REASON_WINDOW,
    REASON_WINDOW_MISMATCH,
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

    def test_a_plan_always_exists(self):
        # the argument in plan_target: c(K, 0) = 1, c(K, 1) = mu, and for
        # K >= 3 c(K, deg) = -1 and c(K, deg + 1) = 0, deg = K - phi(K), so
        # the offsets 0 and deg give t = 1 - mu*v and t = mu*v; K = 2 gives
        # t = 1 + v and t = 1 - v
        for kernel in range(2, 2000):
            fac = factor(kernel)
            if any(e > 1 for _, e in fac.factors):
                continue
            period = c_table(kernel).period
            mu = -1 if len(fac.factors) % 2 else 1
            deg = kernel - euler_phi(fac)
            assert (period[0], period[1]) == (1, mu), kernel
            if kernel > 2:
                assert (period[deg], period[deg + 1]) == (-1, 0), kernel
            for v in (-7, -1, 0, 1, 2, 11):
                plan = plan_target(kernel, v)
                if kernel == 2:
                    assert plan.t <= max(1 + v, 1 - v)
                else:
                    assert plan.t <= max(1 - mu * v, mu * v), (kernel, v)

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

    def test_mode_and_m_validation(self):
        with pytest.raises(ValueError, match="mode must be"):
            build_certificate(3, 2, "x")
        with pytest.raises(ValueError, match="m must be positive"):
            build_certificate(0, 2, "a")

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
        # one period: min(W, kernel) entries of the window W = 2*31 - 43
        assert len(window) == min(2 * 31 - 43, 3) == 3

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
        # window is read from starts above, between and below them; the
        # predicted period is tiled here, so every index of [p_t, 2*p_1) is
        # compared
        for mode, expand in (("a", phi_truncated), ("c", inverse_phi_truncated)):
            cert = build_certificate(30, 200, mode)
            primes, truncation = cert.cluster.primes, cert.truncation
            assert len(primes) == 200 and 2 * primes[0] == truncation
            period = predict_window(cert)
            p_last = primes[-1]
            width = truncation - p_last
            assert len(period) == min(width, 30)
            window = tuple(period[i % len(period)] for i in range(width))
            for start in (p_last, primes[100], 0):
                got = expand(cert.N, truncation, start)
                assert got[p_last - start :] == window, (mode, start)


def _replace_plan(cert: Certificate, **fields) -> Certificate:
    return replace(cert, plan=replace(cert.plan, **fields))


def _with_prime(cert: Certificate, index: int, shift: int) -> Certificate:
    primes = list(cert.cluster.primes)
    primes[index] += shift
    return replace(cert, cluster=replace(cert.cluster, primes=tuple(primes)))


# single-field tampers of a hunted certificate, each scaled by j >= 1
_TAMPERS = {
    "none": lambda cert, j: cert,
    "v": lambda cert, j: replace(cert, v=cert.v + j),
    "k": lambda cert, j: replace(cert, k_kernel=cert.k_kernel + j),
    "k_periods": lambda cert, j: replace(cert, k_kernel=cert.k_kernel + j * cert.plan.kernel),
    "delta": lambda cert, j: _replace_plan(cert, delta=cert.plan.delta + j),
    "t": lambda cert, j: _replace_plan(cert, t=cert.plan.t + j),
    "mu": lambda cert, j: _replace_plan(cert, mu_kernel=-cert.plan.mu_kernel),
    "kernel": lambda cert, j: _replace_plan(cert, kernel=cert.plan.kernel + j),
    "cluster_n": lambda cert, j: replace(cert, cluster=replace(cert.cluster, n=cert.cluster.n - j)),
    "primes_last": lambda cert, j: _with_prime(cert, -1, 2 * j * cert.plan.kernel),
    "primes_first": lambda cert, j: _with_prime(cert, 0, -2 * j * cert.plan.kernel),
    "primes_negated": lambda cert, j: _with_prime(cert, -1, -2 * cert.cluster.primes[-1]),
    "q": lambda cert, j: replace(
        cert, q=None if cert.q else next_prime_above(2 * cert.cluster.primes[0])
    ),
    "N_extra": lambda cert, j: replace(
        cert, N=cert.N * factor(next_prime_above(cert.plan.kernel + j))
    ),
    "N_dropped": lambda cert, j: replace(cert, N=FactoredInteger(cert.N.factors[1:])),
    "truncation": lambda cert, j: replace(cert, truncation=cert.truncation + j),
    "stretch": lambda cert, j: replace(cert, stretch=cert.stretch + j),
    "mode": lambda cert, j: replace(cert, mode="c" if cert.mode == "a" else "a"),
    "ratio": lambda cert, j: replace(cert, ratio_num=cert.ratio_num - j),
}

# the checks that, when they all pass, pin N to kernel * p_1 ... p_t (* q)
# with every p_i = 1 (mod kernel) and q > 2*p_1
_STRUCTURAL = {
    REASON_KERNEL, REASON_CLUSTER, REASON_CONGRUENCE, REASON_COMPOSITION, REASON_PARITY,
    REASON_Q_BOUND, REASON_COPRIMALITY,
}


class TestVerifyCertificate:
    def test_no_hunted_certificate_takes_the_dense_route(self, monkeypatch):
        # the acceptance grid, deep's six and two wide kernels, in both modes;
        # a cluster prime just above the kernel (3 over 2, or 31 over 30)
        # makes the kernel itself a high divisor, and the product is still
        # read from one period of 1/Phi_kernel
        cases = [(m, v) for m in range(1, 31) for v in range(-10, 11)]
        cases += [(30, v) for v in (300, -300, 1000)]
        cases += [(m, v) for m in (210, 2310) for v in range(-3, 4)]
        certs = [build_certificate(m, v, mode) for m, v in cases for mode in "ac"]

        def refuse(*args):
            raise AssertionError("dense route")

        # the builds above left every kernel's period in c_table's memo
        monkeypatch.setattr(cyclo, "_dense_product", refuse)
        for cert in certs:
            for full_window in (False, True):
                report = verify_certificate(cert, full_window)
                assert report.passed, (cert.m_original, cert.v, cert.mode, full_window)

    @settings(max_examples=60)
    @given(
        st.integers(1, 60), st.integers(-20, 20), st.sampled_from("ac"), st.integers(0, 60)
    )
    @example(30, 0, "a", 1)  # a kernel of 30 that is high, under a budget of 31
    @example(30, 1, "c", 3)
    def test_plain_and_full_window_agree_under_a_budget_from_the_kernel(
        self, m, v, mode, extra
    ):
        cert = build_certificate(m, v, mode)
        kernel = cert.plan.kernel
        budget = kernel + extra % (kernel + 1)  # in [K, 2K]
        plain = verify_certificate(cert, degree_budget=budget)
        full = verify_certificate(cert, True, degree_budget=budget)
        assert plain.passed and full.passed, (plain.reasons, full.reasons)

    @pytest.mark.parametrize("full_window", [False, True])
    def test_a_budget_below_a_high_kernel_is_refused(self, full_window):
        # the other side of the budgets above: m = 30, v = 1 has kernel 30,
        # high at its truncation, so a budget of 29 admits neither c_table(30)
        # for the plan nor the periodic route, and the dense read is refused
        report = verify_certificate(build_certificate(30, 1), full_window, degree_budget=29)
        assert report.reasons == ("plan", "budget", "value-mismatch")
        assert report.computed_value is None

    def test_composite_in_the_window_fails_primality(self, monkeypatch):
        # one cluster prime of m = 30, v = 1000 swapped for a composite = 1
        # (mod 30) between its neighbours, N and its lift rebuilt to match
        cert = build_certificate(30, 1000)
        primes = list(cert.cluster.primes)
        i = 500
        composite = next(
            u for u in range(primes[i - 1] + 30, primes[i + 1], 30) if not is_prime(u)
        )
        primes[i] = composite
        n = FactoredInteger(tuple((p, 1) for p in (2, 3, 5, *primes, cert.q)))
        tampered = replace(
            cert,
            cluster=PrimeCluster(cert.cluster.n, tuple(primes)),
            N=n,
            N_lifted=n,
        )
        calls = []
        monkeypatch.setattr(arith, "is_prime", lambda u: calls.append(u) or is_prime(u))
        for full_window in (False, True):
            report = verify_certificate(tampered, full_window)
            assert not report.passed
            assert "primality" in report.reasons
            assert "composition" not in report.reasons
        assert calls == []  # the window is dense: the sieve proved it

    def test_sparse_window_takes_miller_rabin_in_small_memory(self, monkeypatch):
        # primes [p, p + 2**40], both = 1 (mod 6): sieving their window would
        # need base primes up to 2**20.8 and 2**40 flags
        cert = build_certificate(6, 2, "c")
        p = next_prime_above(2**41)
        while p % 6 != 1:
            p = next_prime_above(p)
        p_last = next_prime_above(p + 2**40)
        while p_last % 6 != 1:
            p_last = next_prime_above(p_last)
        n = factor(6) * FactoredInteger(((p, 1), (p_last, 1)))
        sparse = replace(
            cert,
            cluster=PrimeCluster(p - 1, (p, p_last)),
            N=n,
            N_lifted=n,
            k_kernel=p_last,
            k_lifted=p_last,
            truncation=2 * p,
        )
        calls = []
        monkeypatch.setattr(arith, "is_prime", lambda u: calls.append(u) or is_prime(u))
        tracemalloc.start()
        try:
            report = verify_certificate(sparse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "primality" not in report.reasons
        assert calls[:2] == [p, p_last]
        assert peak < 64 * 1024

    def test_grid_sample_full_window(self):
        for m in (1, 2, 3, 4, 6, 15, 18, 25, 30):
            for v in (-3, 0, 1, 5):
                for mode in ("a", "c"):
                    cert = build_certificate(m, v, mode)
                    report = verify_certificate(cert, full_window=True)
                    assert report.passed, (m, v, mode, report.reasons)
                    assert report.computed_value == v
                    assert report.window_checked

    @pytest.mark.parametrize(
        "m, v, mode, ratio",
        [(3, 2, "a", DEFAULT_RATIO), (30, -7, "c", DEFAULT_RATIO), (210, 3, "a", DEFAULT_RATIO),
         (6, 2000, "a", Fraction(33, 32))],
    )
    def test_full_window_makes_one_read_of_one_period(self, monkeypatch, m, v, mode, ratio):
        cert = build_certificate(m, v, mode, ratio)
        name = "phi_truncated" if mode == "a" else "inverse_phi_truncated"
        expand = getattr(hunter, name)
        reads = []

        def counted(n, truncation, start, **kwargs):
            reads.append((start, truncation))
            return expand(n, truncation, start, **kwargs)

        monkeypatch.setattr(hunter, name, counted)
        report = verify_certificate(cert, full_window=True)
        assert report.passed and report.window_checked
        p_last, width = cert.cluster.primes[-1], cert.truncation - cert.cluster.primes[-1]
        assert reads == [(p_last, p_last + min(width, cert.plan.kernel))]

    def test_full_window_peak_memory_is_that_of_k_alone(self):
        # W = 1,811,599 coefficients, against a kernel of 6
        cert = build_certificate(6, 2000, "a", Fraction(33, 32))
        assert cert.truncation - cert.cluster.primes[-1] > 10**6
        verify_certificate(cert)  # leave nothing to the first call below
        peaks = []
        for full_window in (False, True):
            tracemalloc.start()
            try:
                assert verify_certificate(cert, full_window).passed
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        plain, full = peaks
        assert full <= 1.2 * plain + 64 * 1024, peaks

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 60),
        st.integers(-20, 20),
        st.sampled_from("ac"),
        st.sampled_from(sorted(_TAMPERS)),
        st.integers(1, 4),
    )
    @example(3, -1, "a", "primes_last", 1)  # composition, and the whole window mismatches
    def test_one_period_decides_the_whole_window(self, m, v, mode, tamper, j):
        cert = _TAMPERS[tamper](build_certificate(m, v, mode), j)
        report = verify_certificate(cert, full_window=True)
        mismatched = False
        if report.window_checked:
            plan, primes = cert.plan, cert.cluster.primes
            expand = phi_truncated if cert.mode == "a" else inverse_phi_truncated
            period = c_table(plan.kernel).period
            mismatched = bool(
                whole_window_mismatches(
                    expand, cert.N, primes[0], primes[-1], period, plan.mu_kernel, plan.t
                )
            )
        others = [r for r in report.reasons if r != REASON_WINDOW_MISMATCH]
        # the rule of a whole-window comparison
        assert report.passed == (not others and not mismatched), report.reasons
        if not _STRUCTURAL & set(report.reasons):
            assert (REASON_WINDOW_MISMATCH in report.reasons) == mismatched, report.reasons
        if tamper == "none":
            assert report.passed

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

    @pytest.mark.parametrize("field", ["q", "cluster"])
    @pytest.mark.parametrize("full_window", [False, True])
    def test_prime_beyond_the_document_range_fails_primality(self, field, full_window):
        # psi_13 = 1,287,836,182,261 * 2,575,672,364,521 passes Miller-Rabin
        # to every base up to 41; no document carries a value above
        # MACHINE_INT_MAX, so the library API must not vouch for one
        psi_13 = 3_317_044_064_679_887_385_961_981
        cert = build_certificate(3, 2, "c")
        assert cert.q == 67
        old = 67 if field == "q" else cert.cluster.primes[-1]
        n = FactoredInteger(tuple(sorted((psi_13 if p == old else p, e) for p, e in cert.N.factors)))
        if field == "q":
            bad = replace(cert, q=psi_13, N=n, N_lifted=n)
        else:
            primes = cert.cluster.primes[:-1] + (psi_13,)
            bad = replace(cert, cluster=replace(cert.cluster, primes=primes), N=n, N_lifted=n)
        report = verify_certificate(bad, full_window=full_window)
        assert not report.passed
        assert REASON_PRIMALITY in report.reasons

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

    @pytest.mark.parametrize("full_window", [False, True])
    @pytest.mark.parametrize(
        "field, value, expected",
        [
            *[
                ("m_original", m, {REASON_KERNEL, REASON_LIFT})
                for m in (-(2**70), -1, 0, 2**63, 2**70)
            ],
            *[("kernel", kernel, {REASON_KERNEL}) for kernel in (2**63, 2**70)],
            ("N", FactoredInteger(()), {REASON_COMPOSITION, REASON_VALUE}),
            ("mode", "x", {REASON_PLAN}),
            # no cluster prime: the report ends before anything is expanded
            ("cluster", PrimeCluster(1, ()), {REASON_CLUSTER}),
        ],
    )
    def test_out_of_range_fields_are_flagged_not_raised(self, field, value, expected, full_window):
        # "failures never raise": values that parse_document bounds, but that a
        # certificate built through the API may carry
        cert = build_certificate(6, 2, "a")
        if field == "kernel":
            bad = replace(cert, plan=replace(cert.plan, kernel=value))
        else:
            bad = replace(cert, **{field: value})
        report = verify_certificate(bad, full_window=full_window)
        assert not report.passed
        assert expected <= set(report.reasons), report.reasons
        if field in ("N", "cluster"):
            assert report.computed_value is None and not report.window_checked

    def test_shifted_k_reports_computed_value(self):
        cert = build_certificate(3, 2, "a")
        shifted = replace(cert, k_kernel=cert.k_kernel + 1, k_lifted=cert.k_lifted + 1)
        report = verify_certificate(shifted)
        window = predict_window(cert)
        assert report.computed_value == window[1] == -3
        assert not report.passed


def test_warm_plain_verify_builds_nothing_of_the_kernel_length():
    # with the period of 1/Phi_30030 in the memo, the plan check reads two
    # entries of it and the periodic route two windows of length 1: a padded
    # period would be 30030 pointers, 240 KB
    cert = build_certificate(30030, 3, "a")
    assert verify_certificate(cert).passed
    tracemalloc.start()
    try:
        report = verify_certificate(cert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 64 * 1024


def _clear_caches() -> None:
    cyclo._c_table_cached.cache_clear()
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
# 512 MB; argv[1] is the directory holding the package under test, and a
# second argument asks for the full window
VERIFY_UNDER_RLIMIT = """
import pickle, resource, sys
sys.path.insert(0, sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))
from cyclocert.hunter import verify_certificate
report = verify_certificate(pickle.load(sys.stdin.buffer), len(sys.argv) > 2)
print(report.passed, report.computed_value, report.window_checked)
"""


class TestVerifyMemory:
    def test_huge_cluster_prime_verifies_in_bounded_memory(self):
        # t = 1 and p_1 > 10**12: the truncation k + 1 exceeds 10**12, so the
        # coefficient must come from one period of 1/Phi_6, not a dense list;
        # the window [p, 2p) is as wide, and one period of it decides it
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
        for window, checked in (((), "False"), (("full",), "True")):
            child = subprocess.run(
                [sys.executable, "-c", VERIFY_UNDER_RLIMIT, src, *window],
                input=pickle.dumps(cert), capture_output=True, timeout=120,
            )
            assert child.returncode == 0, child.stderr.decode()
            assert child.stdout.decode().split() == ["True", "1", checked]


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
