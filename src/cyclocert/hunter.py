"""Constructive search for coefficient values at indices divisible by m.

Given any modulus m and target integer v, this module produces a certified
witness: a factored N with m | N and an index k such that a(N, k) = v
(mode "a") or c(N, k) = v (mode "c").  The construction works over the
squarefree kernel of m and lifts back at the end:

  1. plan: pick t >= 1 and an offset delta so that the window identity
         a(M*kernel, p_t + delta) = c(kernel, 1 + delta) - mu * t * c(kernel, delta)
     hits v, where mu = mu(kernel) and the residues are taken mod kernel.
  2. cluster: find t primes p_1 < ... < p_t, all = 1 (mod kernel), inside an
     interval (n, r*n) with r < 2, which forces p_t < 2*p_1.
  3. assemble: M = p_1 * ... * p_t, times one extra prime q > 2*p_1 exactly
     when the parity of t calls for it, so that mu(M) = -1 in mode "a" and
     mu(M) = +1 in mode "c".  Every divisor of N = M*kernel below 2*p_1 is
     then either a divisor of kernel or one of the p_j, which pins the whole
     expansion of Phi_N (or 1/Phi_N) below x**(2*p_1) to
         (1/Phi_kernel) * (1 - mu * (x**p_1 + ... + x**p_t)).
  4. lift: stretch by s = m / kernel using Phi_{n*s}(x) = Phi_n(x**s), which
     multiplies indices by s without changing coefficient values.
  5. verify: recompute the coefficient independently from the truncated
     divisor product over N and revalidate every structural invariant.

The planner reads true inverse-coefficient tables rather than the two or
three hardcoded window values that suffice for the existence argument; that
keeps it correct for every kernel, including even kernels where c(kernel, 2)
vanishes and the classical value 1 - t at offset 1 is unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .arith import (
    DEFAULT_SCAN_CEILING,
    FactoredInteger,
    PrimeCluster,
    PrimeClusterSpec,
    factor,
    find_prime_cluster,
    is_prime,
    mobius,
    next_prime_above,
    radical,
)
from .cyclo import (
    DEFAULT_DEGREE_BUDGET,
    c_table,
    inverse_phi_truncated,
    phi_truncated,
)
from .errors import ArithmeticOverflowError, DegreeBudgetExceededError, NoPlanFoundError
from .series import TruncatedSeries

DEFAULT_RATIO = Fraction(15, 8)

MODE_A = "a"
MODE_C = "c"

# reason codes emitted by verify_certificate; stable across releases
REASON_VALUE = "value-mismatch"
REASON_PRIMALITY = "primality"
REASON_CONGRUENCE = "congruence"
REASON_Q_BOUND = "q-bound"
REASON_WINDOW = "window"
REASON_CLUSTER = "cluster"
REASON_KERNEL = "kernel"
REASON_COPRIMALITY = "coprimality"
REASON_COMPOSITION = "composition"
REASON_PARITY = "parity"
REASON_PLAN = "plan"
REASON_LIFT = "lift"
REASON_TRUNCATION = "truncation"
REASON_RATIO = "ratio"
REASON_WINDOW_MISMATCH = "window-mismatch"
REASON_OVERFLOW = "overflow"


@dataclass(frozen=True)
class TargetPlan:
    """A (t, delta) choice that makes the window identity hit the target.

    predicted_value = c(kernel, 1 + delta) - mu_kernel * t * c(kernel, delta)
    with residues mod kernel and c(kernel, delta) != 0, so the t-term really
    contributes.  q1 < q2 are the two smallest prime divisors of the kernel,
    recorded only when mu_kernel = +1 (they set the interval floor).
    """

    kernel: int
    mu_kernel: int
    t: int
    delta: int
    predicted_value: int
    q1: int | None = None
    q2: int | None = None


@dataclass(frozen=True)
class Certificate:
    """A self-contained witness that a(N, k) = v or c(N, k) = v with m | N.

    All fields are redundant on purpose: any party can recheck the claim from
    the factored N, the index, and the truncation alone.  The container does
    not enforce cross-field invariants so that tampered certificates can be
    held and rejected by verify_certificate with a reason code.
    """

    mode: str
    m_original: int
    v: int
    plan: TargetPlan
    cluster: PrimeCluster
    q: int | None
    N: FactoredInteger
    k_kernel: int
    stretch: int
    N_lifted: FactoredInteger
    k_lifted: int
    truncation: int
    ratio_num: int
    ratio_den: int


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an independent recheck of a certificate."""

    certificate: Certificate
    computed_value: int | None
    window_checked: bool
    passed: bool
    reasons: tuple[str, ...] = ()


def _kernel_of(m: int) -> tuple[FactoredInteger, int, int]:
    fac = radical(factor(m))
    kernel = fac.value()
    return fac, kernel, mobius(fac)


def plan_target(
    m: int, v: int, mode: str = MODE_A, *, degree_budget: int = DEFAULT_DEGREE_BUDGET
) -> TargetPlan:
    """Choose the smallest t >= 1 (ties: smallest delta) whose window hits v.

    Solves t directly from the window identity for every offset delta in
    [0, kernel) with c(kernel, delta) != 0; the mode does not change the
    identity (the same window serves both coefficient families below the
    truncation) and is accepted for interface symmetry.
    """
    if mode not in (MODE_A, MODE_C):
        raise ValueError(f"mode must be '{MODE_A}' or '{MODE_C}', got {mode!r}")
    if m < 2:
        raise ValueError(f"m must be at least 2 after kernel reduction, got {m}")
    kernel_fac, kernel, mu = _kernel_of(m)
    period = c_table(kernel, degree_budget=degree_budget).period
    best: tuple[int, int] | None = None
    for delta in range(kernel):
        c_at = period[delta]
        if c_at == 0:
            continue
        c_next = period[(delta + 1) % kernel]
        spread = mu * (c_next - v)
        if spread % c_at:
            continue
        t = spread // c_at
        if t < 1:
            continue
        if best is None or (t, delta) < best:
            best = (t, delta)
    if best is None:
        raise NoPlanFoundError(f"no (t, delta) reaches value {v} over kernel {kernel}")
    t, delta = best
    predicted = period[(delta + 1) % kernel] - mu * t * period[delta]
    assert predicted == v
    q1 = q2 = None
    if mu == 1:
        primes = kernel_fac.primes()
        q1, q2 = primes[0], primes[1]
    return TargetPlan(kernel, mu, t, delta, predicted, q1, q2)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@lru_cache(maxsize=None)
def _cluster_cached(
    modulus: int, count: int, num: int, den: int, floor_n: int, scan_ceiling: int
) -> PrimeCluster:
    spec = PrimeClusterSpec(modulus, count, num, den, floor_n)
    return find_prime_cluster(spec, scan_ceiling=scan_ceiling)


def build_certificate(
    m: int,
    v: int,
    mode: str = MODE_A,
    ratio: Fraction = DEFAULT_RATIO,
    *,
    scan_ceiling: int = DEFAULT_SCAN_CEILING,
    degree_budget: int = DEFAULT_DEGREE_BUDGET,
) -> Certificate:
    """Run the full construction for (m, v) and return the certificate.

    m = 1 is delegated to m = 2, since every multiple of 2 is a multiple
    of 1; the returned certificate keeps m_original = 1.
    """
    if mode not in (MODE_A, MODE_C):
        raise ValueError(f"mode must be '{MODE_A}' or '{MODE_C}', got {mode!r}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not Fraction(1) < ratio < Fraction(2):
        raise ValueError(f"ratio must lie strictly between 1 and 2, got {ratio}")
    if m == 1:
        inner = build_certificate(
            2, v, mode, ratio, scan_ceiling=scan_ceiling, degree_budget=degree_budget
        )
        return replace(inner, m_original=1, stretch=1, N_lifted=inner.N, k_lifted=inner.k_kernel)

    plan = plan_target(m, v, mode, degree_budget=degree_budget)
    kernel_fac = radical(factor(m))
    num, den = ratio.numerator, ratio.denominator

    # n >= delta / (2 - r) guarantees p_t + delta < 2*p_1; when mu = +1 the
    # classical floor n >= q2 / (2 - r) is kept as well.
    floor_n = 1
    if plan.delta:
        floor_n = max(floor_n, _ceil_div(plan.delta * den, 2 * den - num))
    if plan.mu_kernel == 1:
        floor_n = max(floor_n, _ceil_div(plan.q2 * den, 2 * den - num))

    while True:
        cluster = _cluster_cached(plan.kernel, plan.t, num, den, floor_n, scan_ceiling)
        p_first, p_last = cluster.primes[0], cluster.primes[-1]
        if p_last + plan.delta < 2 * p_first:
            break
        floor_n = cluster.n + 1  # window too tight; push the interval up

    q: int | None = None
    needs_q = (mode == MODE_A) == (plan.t % 2 == 0)
    if needs_q:
        q = next_prime_above(2 * p_first)

    n_value = kernel_fac
    for p in cluster.primes:
        n_value = n_value * FactoredInteger(((p, 1),))
    if q is not None:
        n_value = n_value * FactoredInteger(((q, 1),))

    k = p_last + plan.delta
    stretch = m // plan.kernel
    certificate = Certificate(
        mode=mode,
        m_original=m,
        v=v,
        plan=plan,
        cluster=cluster,
        q=q,
        N=n_value,
        k_kernel=k,
        stretch=stretch,
        N_lifted=n_value * factor(stretch),
        k_lifted=k * stretch,
        truncation=2 * p_first,
        ratio_num=num,
        ratio_den=den,
    )
    return certificate


def lift_to_modulus(certificate: Certificate) -> tuple[FactoredInteger, int]:
    """Re-derive (N_lifted, k_lifted) from the kernel-level fields.

    Stretching by s multiplies every exponent of x, so both coefficient
    families carry over unchanged: a(N*s, k*s) = a(N, k) and
    c(N*s, k*s) = c(N, k) whenever every prime of s divides N.
    """
    s = certificate.stretch
    if s == 1:
        return certificate.N, certificate.k_kernel
    return certificate.N * factor(s), certificate.k_kernel * s


def predict_window(
    certificate: Certificate, *, degree_budget: int = DEFAULT_DEGREE_BUDGET
) -> tuple[int, ...]:
    """Window-identity values for every k in [p_t, 2*p_1).

    Entry i is the predicted coefficient at k = p_t + i, namely
    c(kernel, k) - mu * t * c(kernel, k - 1) read from the periodic table.
    """
    plan = certificate.plan
    period = c_table(plan.kernel, degree_budget=degree_budget).period
    kernel, mu, t = plan.kernel, plan.mu_kernel, plan.t
    p_first = certificate.cluster.primes[0]
    p_last = certificate.cluster.primes[-1]
    return tuple(
        period[k % kernel] - mu * t * period[(k - 1) % kernel]
        for k in range(p_last, 2 * p_first)
    )


def verify_certificate(
    certificate: Certificate,
    full_window: bool = False,
    *,
    degree_budget: int = DEFAULT_DEGREE_BUDGET,
) -> VerificationReport:
    """Independently recheck a certificate, never trusting the planner.

    The claimed coefficient is recomputed from the truncated divisor product
    over N alone; every structural invariant (primality, congruences,
    interval bounds, parity of q, composition of N, the lift arithmetic) is
    revalidated.  With full_window, the window identity is additionally
    checked at every index of [p_t, 2*p_1), not just the target.  Failures
    never raise; they accumulate reason codes and yield passed=False.

    The product is expanded to truncation k + 1 and read at k alone, or with
    full_window to 2*p_1 and read on [min(k, p_t), 2*p_1).  Divisors d of N
    with 2d below that truncation (here the divisors of the kernel) cost
    O(truncation) each; the others (here the cluster primes) cost one step
    per coefficient read, W = 2*p_1 - p_t of them for the full window.  An
    "overflow" reason means a coefficient of the dense low-divisor product,
    after any step, or one of the requested coefficients left the signed
    64-bit range; coefficients outside the requested range are never
    completed, so they are not checked.
    """
    reasons: list[str] = []

    def flag(code: str) -> None:
        if code not in reasons:
            reasons.append(code)

    plan = certificate.plan
    cluster = certificate.cluster
    primes = cluster.primes
    kernel, t = plan.kernel, plan.t
    num, den = certificate.ratio_num, certificate.ratio_den
    mode_a = certificate.mode == MODE_A

    if certificate.mode not in (MODE_A, MODE_C):
        flag(REASON_PLAN)

    if not 0 < den < num < 2 * den:
        flag(REASON_RATIO)

    # kernel: squarefree, matches the original modulus (m = 1 delegates to 2)
    kernel_fac: FactoredInteger | None = None
    if kernel >= 2:
        kernel_fac = factor(kernel)
        squarefree = all(e == 1 for _, e in kernel_fac.factors)
        if certificate.m_original == 1:
            matches = kernel == 2
        else:
            matches = kernel == radical(factor(certificate.m_original)).value()
        if not squarefree or not matches:
            flag(REASON_KERNEL)
        if mobius(kernel_fac) != plan.mu_kernel:
            flag(REASON_KERNEL)
    else:
        flag(REASON_KERNEL)

    # cluster shape and interval bounds
    cluster_ok = bool(primes) and len(primes) == t and cluster.n >= 1
    if cluster_ok:
        cluster_ok = all(primes[i] < primes[i + 1] for i in range(len(primes) - 1))
        cluster_ok = cluster_ok and cluster.n < primes[0]
        cluster_ok = cluster_ok and primes[-1] * den < cluster.n * num
        cluster_ok = cluster_ok and primes[-1] < 2 * primes[0]
    if not cluster_ok:
        flag(REASON_CLUSTER)
    if not primes:
        return VerificationReport(certificate, None, False, False, tuple(reasons))
    p_first, p_last = primes[0], primes[-1]

    if not all(is_prime(p) for p in primes):
        flag(REASON_PRIMALITY)
    if certificate.q is not None and not is_prime(certificate.q):
        flag(REASON_PRIMALITY)

    if kernel >= 1 and any(p % kernel != 1 % kernel for p in primes):
        flag(REASON_CONGRUENCE)

    needs_q = mode_a == (t % 2 == 0)
    if (certificate.q is not None) != needs_q:
        flag(REASON_PARITY)
    if certificate.q is not None and certificate.q <= 2 * p_first:
        flag(REASON_Q_BOUND)

    if kernel_fac is not None:
        kernel_primes = set(kernel_fac.primes())
        if kernel_primes & set(primes) or certificate.q in kernel_primes:
            flag(REASON_COPRIMALITY)
        merged: dict[int, int] = dict(kernel_fac.factors)
        for p in primes:
            merged[p] = merged.get(p, 0) + 1
        if certificate.q is not None:
            merged[certificate.q] = merged.get(certificate.q, 0) + 1
        if certificate.N.factors != tuple(sorted(merged.items())):
            flag(REASON_COMPOSITION)

    # plan consistency against the true table
    period: tuple[int, ...] | None = None
    if plan.predicted_value != certificate.v:
        flag(REASON_PLAN)
    if not 0 <= plan.delta < max(kernel, 1) or t < 1:
        flag(REASON_PLAN)
    elif kernel >= 2:
        try:
            period = c_table(kernel, degree_budget=degree_budget).period
        except DegreeBudgetExceededError:
            flag(REASON_PLAN)
        else:
            c_at = period[plan.delta % kernel]
            c_next = period[(plan.delta + 1) % kernel]
            if c_at == 0 or c_next - plan.mu_kernel * t * c_at != plan.predicted_value:
                flag(REASON_PLAN)

    if not p_last <= certificate.k_kernel < 2 * p_first:
        flag(REASON_WINDOW)
    if certificate.truncation != 2 * p_first:
        flag(REASON_TRUNCATION)

    # lift arithmetic back to the original modulus
    true_kernel = radical(factor(certificate.m_original)).value()
    if certificate.stretch != certificate.m_original // true_kernel:
        flag(REASON_LIFT)
    expected_lift = certificate.N * factor(max(certificate.stretch, 1))
    if certificate.stretch < 1 or certificate.N_lifted != expected_lift:
        flag(REASON_LIFT)
    if certificate.k_lifted != certificate.k_kernel * certificate.stretch:
        flag(REASON_LIFT)
    if not factor(certificate.m_original).divides(certificate.N_lifted):
        flag(REASON_LIFT)

    # the independent recomputation: truncated divisor product over N alone,
    # expanded only as far as the coefficients read below
    horizon = 2 * p_first
    k = certificate.k_kernel
    if full_window:
        start, truncation = max(0, min(k, p_last, horizon - 1)), horizon
    else:
        start, truncation = k, k + 1
    computed: int | None = None
    expansion: TruncatedSeries | None = None
    if 0 <= start < truncation <= horizon:
        expand = phi_truncated if mode_a else inverse_phi_truncated
        try:
            expansion = expand(certificate.N, truncation, start)
        except ArithmeticOverflowError:
            flag(REASON_OVERFLOW)
    if expansion is not None and start <= k < truncation:
        computed = expansion.coeffs[k - start]
    if computed != certificate.v:
        flag(REASON_VALUE)

    window_checked = False
    if full_window and expansion is not None and period is not None:
        window_checked = True
        if expansion.coeffs[p_last - start :] != predict_window(
            certificate, degree_budget=degree_budget
        ):
            flag(REASON_WINDOW_MISMATCH)

    return VerificationReport(
        certificate=certificate,
        computed_value=computed,
        window_checked=window_checked,
        passed=not reasons,
        reasons=tuple(reasons),
    )
