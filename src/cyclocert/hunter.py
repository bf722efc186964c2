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

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from operator import lt

from .arith import (
    DEFAULT_SCAN_CEILING,
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
)
from .cyclo import (
    DEFAULT_DEGREE_BUDGET,
    c_table,
    inverse_phi_truncated,
    phi_truncated,
)
from .errors import ArithmeticOverflowError, DegreeBudgetExceededError, MACHINE_INT_MAX

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
REASON_BUDGET = "budget"


@dataclass(frozen=True)
class TargetPlan:
    """A (t, delta) choice that makes the window identity hit the target.

    predicted_value = c(kernel, 1 + delta) - mu_kernel * t * c(kernel, delta)
    with residues mod kernel and c(kernel, delta) != 0, so the t-term really
    contributes.
    """

    kernel: int
    mu_kernel: int
    t: int
    delta: int
    predicted_value: int


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


def _window_identity(values: tuple[int, ...], step: int) -> tuple[int, ...]:
    """c(K, 1 + d) - step * c(K, d) for each d but the last of consecutive
    values c(K, d), c(K, d + 1), ..., with step = mu(K) * t: the window
    identity's value at offset d."""
    return tuple(after - step * at for at, after in zip(values, values[1:]))


def plan_target(m: int, v: int, *, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> TargetPlan:
    """Choose the smallest t >= 1 (ties: smallest delta) whose window hits v.

    Solves t directly from the window identity for every offset delta with
    c(kernel, delta) != 0, which lie in [0, kernel - phi(kernel)], since
    c(kernel, .) is zero on the rest of its period; so it reads c(kernel,
    0..kernel - phi(kernel) + 1), one window of the table.  The identity is
    the same for both modes, since the same window serves both coefficient
    families below the truncation.
    """
    if m < 2:
        raise ValueError(f"m must be at least 2 after kernel reduction, got {m}")
    kernel_fac = radical(factor(m))
    kernel, mu = kernel_fac.value(), mobius(kernel_fac)
    table = c_table(kernel, degree_budget=degree_budget)
    values = table.window(0, kernel - euler_phi(kernel_fac) + 2)
    best: tuple[int, int] | None = None
    for delta, (c_at, c_next) in enumerate(zip(values, values[1:])):
        if c_at == 0:
            continue
        spread = mu * (c_next - v)
        if spread % c_at:
            continue
        t = spread // c_at
        if t < 1:
            continue
        if best is None or (t, delta) < best:
            best = (t, delta)
    # a plan always exists.  c(K, 0) = 1 and c(K, 1) = mu.  For K = 2 the
    # offsets 0 and 1 give t = 1 + v and t = 1 - v.  For K >= 3, with
    # deg = K - phi(K) >= 1, the anti-palindrome gives c(K, deg) = -1 and
    # the zero window c(K, deg + 1) = 0 (phi(K) >= 2), so the offsets 0 and
    # deg give t = 1 - mu*v and t = mu*v.  Either way one of the two is >= 1.
    t, delta = best
    (predicted,) = _window_identity(values[delta : delta + 2], mu * t)
    assert predicted == v
    return TargetPlan(kernel, mu, t, delta, predicted)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# bounded, since a library loop over v would otherwise keep every cluster it
# finds, t primes each; 512 holds all 371 searches of the acceptance grid
@lru_cache(maxsize=512)
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
    of 1; the returned certificate keeps m_original = 1.  The m = 2
    certificate already has stretch 1, N_lifted = N and k_lifted = k.
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
        return replace(inner, m_original=1)

    plan = plan_target(m, v, degree_budget=degree_budget)
    kernel_fac = radical(factor(m))
    num, den = ratio.numerator, ratio.denominator

    # n >= delta / (2 - r) guarantees p_t + delta < 2*p_1; when mu = +1 the
    # classical floor n >= q2 / (2 - r) is kept as well, q2 the second
    # smallest prime of the kernel (mu = +1 means it has an even number).
    floor_n = 1
    if plan.delta:
        floor_n = max(floor_n, _ceil_div(plan.delta * den, 2 * den - num))
    if plan.mu_kernel == 1:
        floor_n = max(floor_n, _ceil_div(kernel_fac.primes()[1] * den, 2 * den - num))

    # 2*p_1 - p_t > (2 - r)*n >= delta by the floor, so one search suffices
    cluster = _cluster_cached(plan.kernel, plan.t, num, den, floor_n, scan_ceiling)
    p_first, p_last = cluster.primes[0], cluster.primes[-1]

    q: int | None = None
    needs_q = (mode == MODE_A) == (plan.t % 2 == 0)
    if needs_q:
        q = next_prime_above(2 * p_first)

    # the cluster primes ascend and q > 2*p_1 exceeds them all
    extra = cluster.primes if q is None else cluster.primes + (q,)
    n_value = kernel_fac * FactoredInteger(tuple((p, 1) for p in extra))

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
    """One period of the window identity's values on [p_t, 2*p_1).

    Entry i is c(kernel, k) - mu * t * c(kernel, k - 1) at k = p_t + i, for
    the first min(W, kernel) k of the window, W = 2*p_1 - p_t.  It depends
    on k mod kernel alone, so entry (k - p_t) mod kernel predicts every k of
    the window.  It reads one window of min(W, kernel) + 1 values of the
    table from k = p_t - 1: O(min(W, kernel)) steps and memory.
    """
    plan = certificate.plan
    p_first = certificate.cluster.primes[0]
    p_last = certificate.cluster.primes[-1]
    width = max(0, 2 * p_first - p_last)
    table = c_table(plan.kernel, degree_budget=degree_budget)
    values = table.window(p_last - 1, min(width, plan.kernel) + 1)
    return _window_identity(values, plan.mu_kernel * plan.t)


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
    revalidated.  With full_window, the window identity is also checked on
    one period, the first min(W, kernel) indices of [p_t, 2*p_1), against
    predict_window.  Unless a kernel, cluster, congruence, composition,
    parity, q-bound or coprimality reason is flagged, N = kernel * p_1 ...
    p_t (* q > 2*p_1) with every p_i = 1 (mod kernel), so both sides have
    period kernel below x**(2*p_1) and one period decides the window; a
    certificate so flagged need not also carry "window-mismatch".  Failures
    never raise; they accumulate reason codes and yield passed=False.

    The per-prime checks (primality, order, congruence, composition) are
    O(t), with their loops run in C through map and all.  At m = 30, t is
    about |v|, and the cluster's window [p_1, p_t] holds about 100 integers
    per prime, so all_prime proves them prime by one segmented sieve of the
    window, O(p_t - p_1 + isqrt(p_t)) steps at C speed in
    O(isqrt(p_t) + segment) memory; a window too sparse for that (a wide
    kernel, a small cluster, or huge primes) goes to Miller-Rabin, one
    is_prime call per prime, as q always does.  A cluster prime or q above
    MACHINE_INT_MAX, which no document carries, is flagged "primality"
    without a test.

    The product is expanded to truncation k + 1 and read at k alone, or with
    full_window to p_t + len(predict_window) and read on that period, which
    holds k for a valid certificate (k = p_t + delta, delta below W and the
    kernel); a k outside it is read alone.  Low divisors of N (2d below the
    truncation) and high ones (the rest) are taken from N and the
    truncation alone.  For a valid certificate the divisors of the kernel
    are exactly the factors of 1/Phi_kernel, the kernel is the largest low
    divisor or else the least high one (it lies below p_1, so no proper
    divisor of it is high; the plan check holds it within degree_budget,
    as the periodic route requires of a high kernel), and every other
    divisor below the truncation is a cluster prime, high and at or below
    the first coefficient read.  So the product takes its periodic route:
    windows of one period of 1/Phi_kernel, cut from the nonzero part that
    c_table's memo holds (keyed on the kernel as factored off N's own
    primes), built in O(#div(kernel) * kernel) on a miss.  The plan check
    reads two entries of c_table(kernel), on the same memo.  With the memo
    warm, plain verification costs O(t) and builds nothing of the kernel's
    length, and full_window costs O(t + min(W, kernel)).
    Any other N (a tampered one) takes the dense route,
    O(#low * truncation + t).  A "budget" reason means that nothing was
    expanded: the dense route's truncation exceeded degree_budget, or N
    has more divisors with squarefree cofactor below the truncation than
    degree_budget + omega(N), or than the 2**omega(kernel) + t of a valid
    certificate (the kernel's and the cluster primes), or the periodic
    route's half product of 1/Phi_K, (K - phi(K))//2 + 1 entries, exceeds
    degree_budget + omega(N).  An "overflow"
    reason means that a coefficient of the period of 1/Phi_kernel or one
    read (periodic route), or of the product after any step (dense route),
    left the signed 64-bit range.
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

    # kernel: rad(m), or 2 for m = 1 (which delegates to 2), so squarefree;
    # an m outside [1, 2**63) or a kernel outside [2, 2**63) is not factored
    m = certificate.m_original
    m_fac = factor(m) if 1 <= m <= MACHINE_INT_MAX else None
    true_kernel = None if m_fac is None else radical(m_fac).value()
    kernel_fac = factor(kernel) if 2 <= kernel <= MACHINE_INT_MAX else None
    if (
        kernel_fac is None
        or kernel != (2 if m == 1 else true_kernel)
        or mobius(kernel_fac) != plan.mu_kernel
    ):
        flag(REASON_KERNEL)

    # cluster shape and interval bounds
    cluster_ok = bool(primes) and len(primes) == t and cluster.n >= 1
    if cluster_ok:
        cluster_ok = all(map(lt, primes, primes[1:]))
        cluster_ok = cluster_ok and cluster.n < primes[0]
        cluster_ok = cluster_ok and primes[-1] * den < cluster.n * num
        cluster_ok = cluster_ok and primes[-1] < 2 * primes[0]
    if not cluster_ok:
        flag(REASON_CLUSTER)
    if not primes:
        return VerificationReport(certificate, None, False, False, tuple(reasons))
    p_first, p_last = primes[0], primes[-1]

    # no document carries a value above MACHINE_INT_MAX, and is_prime
    # refuses any from 2**64 on
    if max(primes) > MACHINE_INT_MAX or not all_prime(primes):
        flag(REASON_PRIMALITY)
    q = certificate.q
    if q is not None and (q > MACHINE_INT_MAX or not is_prime(q)):
        flag(REASON_PRIMALITY)

    if kernel >= 1 and set(map(kernel.__rmod__, primes)) != {1 % kernel}:
        flag(REASON_CONGRUENCE)

    needs_q = mode_a == (t % 2 == 0)
    if (certificate.q is not None) != needs_q:
        flag(REASON_PARITY)
    if certificate.q is not None and certificate.q <= 2 * p_first:
        flag(REASON_Q_BOUND)

    # N = 1 is not expanded: the product form needs N > 1
    if certificate.N.is_one:
        flag(REASON_COMPOSITION)
    if kernel_fac is not None:
        kernel_primes = set(kernel_fac.primes())
        if kernel_primes & set(primes) or certificate.q in kernel_primes:
            flag(REASON_COPRIMALITY)
        merged = Counter(dict(kernel_fac.factors))
        merged.update(primes)
        if certificate.q is not None:
            merged[certificate.q] += 1
        if certificate.N.factors != tuple(sorted(merged.items())):
            flag(REASON_COMPOSITION)

    # plan consistency against the true table, read at delta and 1 + delta
    pair: tuple[int, ...] | None = None
    if plan.predicted_value != certificate.v:
        flag(REASON_PLAN)
    if not 0 <= plan.delta < max(kernel, 1) or t < 1:
        flag(REASON_PLAN)
    elif kernel_fac is not None:
        try:
            pair = c_table(kernel, degree_budget=degree_budget).window(plan.delta, 2)
        except DegreeBudgetExceededError:
            flag(REASON_PLAN)
        else:
            predicted = _window_identity(pair, plan.mu_kernel * t)
            if pair[0] == 0 or predicted != (plan.predicted_value,):
                flag(REASON_PLAN)

    if not p_last <= certificate.k_kernel < 2 * p_first:
        flag(REASON_WINDOW)
    if certificate.truncation != 2 * p_first:
        flag(REASON_TRUNCATION)

    # lift arithmetic back to m; the stretch is factored only if it is m // rad(m)
    if (
        true_kernel is None
        or certificate.stretch != m // true_kernel
        or lift_to_modulus(certificate) != (certificate.N_lifted, certificate.k_lifted)
        or not m_fac.divides(certificate.N_lifted)
    ):
        flag(REASON_LIFT)

    # the independent recomputation: the truncated divisor product over N
    # alone, expanded only as far as the coefficients read below.  Below
    # 2*p_1 a valid N has exactly 2**omega(kernel) + t divisors with
    # squarefree cofactor, the kernel's and the t = len(primes) cluster
    # primes (each p_i * d with d >= 2, and q, lie above), so an N with more
    # is not expanded; the kernel is rad(m), or 2 for m = 1, whatever the
    # document's kernel field says
    expand = phi_truncated if mode_a else inverse_phi_truncated
    divisor_limit = None
    if m_fac is not None:
        divisor_limit = 2 ** max(len(m_fac.factors), 1) + len(primes)

    def read(start: int, stop: int) -> tuple[int, ...] | None:
        if certificate.N.is_one:
            return None
        try:
            return expand(
                certificate.N, stop, start, degree_budget=degree_budget, divisor_limit=divisor_limit
            )
        except ArithmeticOverflowError:
            flag(REASON_OVERFLOW)
        except DegreeBudgetExceededError:
            flag(REASON_BUDGET)
        return None

    k = certificate.k_kernel
    window: tuple[int, ...] = ()
    expansion: tuple[int, ...] | None = None
    if full_window and pair is not None and p_last >= 0:
        window = predict_window(certificate, degree_budget=degree_budget)
        expansion = read(p_last, p_last + len(window)) if window else ()
    computed: int | None = None
    if p_last <= k < p_last + len(window):
        computed = None if expansion is None else expansion[k - p_last]
    elif 0 <= k < 2 * p_first and (at_k := read(k, k + 1)) is not None:
        computed = at_k[0]
    if computed != certificate.v:
        flag(REASON_VALUE)

    if expansion is not None and expansion != window:
        flag(REASON_WINDOW_MISMATCH)

    return VerificationReport(
        certificate=certificate,
        computed_value=computed,
        window_checked=expansion is not None,
        passed=not reasons,
        reasons=tuple(reasons),
    )
