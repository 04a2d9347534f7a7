"""Generator for bounded almost periodic functions outside the Wiener algebra.

Builds f >= m > 0 whose coefficient-magnitude sum grows without bound as
blocks are added, together with its exact spectral factor s: the half-log
route is blocked for such f, yet f = |s|^2 holds at the coefficient level.

Pipeline: Cesaro sums p_n of the conjugate-log sine series -> a sparse
index sequence n_1 < ... < n_{J+1} pinned by certified sup-norm deviations
-> difference blocks q_j -> incommensurable dilations g_j = q_j(rho_j x)
with exactly disjoint spectra -> g = sum g_j -> a constant lift making the
analytic completion h = c + chi_Delta g satisfy Re h >= sqrt(m) -> f = |h|^2
and s = chi_{-Delta} h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from apspec.certify import certify_lower_bound, integer_lattice_sup, sup_norm_certified
from apspec.checks import CheckResult, FactorizationReport, poisson_eval
from apspec.errors import MalformedInput, OracleTooSmall, SpectraCollision
from apspec.frequency import MAX_RADICAND, ExactFrequency, qlin_independent, rational_ratio
from apspec.trigpoly import ProductPoly, TrigPoly, ray_partition, spectrum

EF = ExactFrequency

DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@dataclass(frozen=True)
class ConstructionParams:
    m: float = 1.0
    blocks: int = 2
    oracle_n: int = 4096
    primes: tuple[int, ...] = DEFAULT_PRIMES

    def __post_init__(self):
        if not (0 < self.m < math.inf):
            raise MalformedInput("m must be positive and finite")
        if self.blocks < 1:
            raise MalformedInput("blocks must be >= 1")
        if self.oracle_n < 4:
            raise MalformedInput("oracle_n too small to mean anything")
        if len(set(self.primes)) < len(self.primes):
            raise MalformedInput("primes must be distinct")
        if len(self.primes) < self.blocks:
            raise MalformedInput("need at least one prime per block")
        if max(self.primes) > MAX_RADICAND:
            raise MalformedInput(f"primes must not exceed {MAX_RADICAND}")


@dataclass
class ConstructionResult:
    params: ConstructionParams
    n_seq: tuple[int, ...]
    rho: tuple[EF, ...]
    q_norms: tuple[float, ...]  # certified sup-norm upper bounds U_j
    wiener_norms: tuple[float, ...]  # exact ||q_j||_A
    g: TrigPoly
    h1: TrigPoly
    h: TrigPoly
    f: ProductPoly
    s: TrigPoly
    delta: EF
    c: float
    certificates: FactorizationReport = field(repr=False)

    @property
    def g_wiener_norm(self) -> float:
        return math.fsum(self.wiener_norms)


@lru_cache(maxsize=16)
def cesaro_p(n: int) -> TrigPoly:
    """Averaged partial sum of sum_k sin(kx)/(k log k), frequencies 2..n.

    Coefficient at +-k is -+(i/2)(n+1-k)/(n k log k); real and odd.
    """
    if n < 2:
        raise MalformedInput("cesaro index must be >= 2")
    terms: dict[EF, complex] = {}
    for k in range(2, n + 1):
        a = (n + 1 - k) / (n * k * math.log(k))
        terms[EF(k)] = complex(0.0, -0.5 * a)
        terms[EF(-k)] = complex(0.0, 0.5 * a)
    return TrigPoly(terms)


@lru_cache(maxsize=8)
def _sine_amplitudes(n: int) -> np.ndarray:
    # amplitude of sin(kx) in p_n at k = 2..n; scalar math matches cesaro_p
    return np.array([(n + 1 - k) / (n * k * math.log(k)) for k in range(2, n + 1)])


def _deviation(big: int, small: int) -> float:
    """Certified sup of |p_big - p_small| without building the polynomials.

    Coefficient-identical to sup_norm_certified(p_big - p_small): same
    amplitudes, same FFT certification; only the dict plumbing is skipped.
    """
    a_big = _sine_amplitudes(big)
    a_small = np.zeros(big - 1)
    a_small[: small - 1] = _sine_amplitudes(small)
    top = -0.5 * a_big + 0.5 * a_small  # imaginary part at +k
    keys = np.concatenate([np.arange(-big, -1), np.arange(2, big + 1)])
    coeffs = np.concatenate([-1j * top[::-1], 1j * top])
    return integer_lattice_sup(keys, coeffs).upper


def safety_margin(oracle_n: int) -> float:
    """Hedge for the distance between the oracle sum and its limit.

    Uses a quarter of the certified doubling increment ||p_2N - p_N||.
    The limit function converges only logarithmically, so any affordable
    oracle leaves a genuine gap; the quarter keeps the hedge positive
    while leaving the documented block budgets reachable.
    """
    return _deviation(2 * oracle_n, oracle_n) / 4.0


def select_n_sequence(params: ConstructionParams) -> tuple[int, ...]:
    """Smallest n_1 < ... < n_{J+1} with certified deviation <= 2^{-j}/3 - margin."""
    margin = safety_margin(params.oracle_n)
    out: list[int] = []
    lo = 2
    for j in range(1, params.blocks + 2):
        budget = 2.0 ** (-j) / 3.0 - margin
        if budget <= 0:
            raise OracleTooSmall(
                f"block {j} needs deviation <= {budget:.3g}; oracle_n={params.oracle_n} cannot reach it"
            )
        # the deviation shrinks as n grows (verified by the backward walk):
        # bisect to the boundary, then step down to the smallest passing n
        hi = params.oracle_n
        a, b = lo, hi
        while a < b:
            mid = (a + b) // 2
            if _deviation(params.oracle_n, mid) <= budget:
                b = mid
            else:
                a = mid + 1
        n = a
        while n - 1 >= lo and _deviation(params.oracle_n, n - 1) <= budget:
            n -= 1
        out.append(n)
        lo = n + 1
    return tuple(out)


def build_q(j: int, n_seq: tuple[int, ...]) -> TrigPoly:
    """Block j of the telescoped Cesaro sequence: q_1 = p_{n_1}, else a difference."""
    if not (1 <= j <= len(n_seq) - 1):
        raise MalformedInput(f"block index {j} outside 1..{len(n_seq) - 1}")
    if j == 1:
        return cesaro_p(n_seq[0])
    return cesaro_p(n_seq[j]) - cesaro_p(n_seq[j - 1])


def choose_rho(n_seq: tuple[int, ...], primes: tuple[int, ...]) -> tuple[EF, ...]:
    """Dilation scales: rho_j = sqrt(prime_j)/D_j in (0, 1/n_{j+1}), Q-independent."""
    J = len(n_seq) - 1
    if len(primes) < J:
        raise MalformedInput("need one prime per block")
    out: list[EF] = []
    for j in range(1, J + 1):
        p = primes[j - 1]
        bound = n_seq[j] + 1
        d = math.isqrt(p * bound * bound) + 1
        rho = EF.sqrt_of(p, Fraction(1, d))
        assert rho * n_seq[j] < EF(1)
        out.append(rho)
    if not qlin_independent(out):
        raise SpectraCollision("chosen dilation scales are not Q-independent")
    return tuple(out)


def build_g(params: ConstructionParams) -> tuple[TrigPoly, tuple[int, ...], tuple[EF, ...], tuple[float, ...], tuple[float, ...]]:
    """Sum of dilated blocks with exactly disjoint spectra.

    Returns (g, n_seq, rho, certified sup bounds U_j, exact ||q_j||_A).
    """
    n_seq = select_n_sequence(params)
    rho = choose_rho(n_seq, params.primes)
    g = TrigPoly()
    total_terms = 0
    sup_bounds: list[float] = []
    wiener: list[float] = []
    for j in range(1, params.blocks + 1):
        q = build_q(j, n_seq)
        b = sup_norm_certified(q)
        if j >= 2 and b.upper > 2.0 ** (-j):
            raise OracleTooSmall(f"||q_{j}|| certificate {b.upper:.4g} exceeds 2^-{j}")
        sup_bounds.append(b.upper)
        wiener.append(q.wiener_norm())
        g = g + q.dilate(rho[j - 1])
        total_terms += q.term_count()
    if g.term_count() != total_terms:
        raise SpectraCollision(
            f"dilated spectra overlap: {g.term_count()} terms != {total_terms} expected"
        )
    assert g.is_real(tol=0.0)
    assert spectrum(g).tau < EF(1)
    return g, n_seq, rho, tuple(sup_bounds), tuple(wiener)


def _check_rays(p: TrigPoly, rho: tuple[EF, ...]) -> None:
    """Refuse a polynomial whose spectrum does not lie on the lattices rho_j * Z.

    This validates a bundle's stored rho against its h and s; it is the only
    use of rho in verify. Each ray has keys with gcd 1, so by Bezout all of
    its frequencies are integer multiples of rho_j exactly when its base is.
    """
    _, rays = ray_partition(p)
    for b in rays:
        ratios = (rational_ratio(b.base, r) for r in rho)
        if not any(q is not None and q.denominator == 1 for q in ratios):
            raise SpectraCollision(f"ray base {b.base!r} fits no block lattice")


def _certificate_battery(
    m: float, h: TrigPoly, s: TrigPoly, f: ProductPoly, delta: EF
) -> tuple[list[CheckResult], float]:
    """Certificates shared by assemble and recheck; returns (checks, residual sup).

    exact_factorization bounds ||f - |s|^2||_A through f's factor u: since
    |u|^2 - |s|^2 = (u - s) conj(u) + s conj(u - s) and ||.||_A is
    submultiplicative, it is at most ||u - s||_A (||u||_A + ||s||_A), which
    is 0 exactly when s is u.
    """
    checks: list[CheckResult] = []
    info_h = spectrum(h)
    checks.append(
        CheckResult(
            "analytic_spectrum", not (info_h.inf_freq < EF(0)), float(info_h.inf_freq), "inf Omega(h) >= 0"
        )
    )
    info_f = spectrum(f)
    info_s = spectrum(s)
    half_ok = info_s.tau + info_s.tau == info_f.tau and info_s.inf_freq == -delta
    checks.append(
        CheckResult("halved_bandwidth", half_ok, float(info_s.tau), "tau(s) = tau(f)/2 exactly")
    )
    u = f.factor
    gap = u - s
    residual = gap.wiener_norm() * (u.wiener_norm() + s.wiener_norm())
    checks.append(
        CheckResult(
            "exact_factorization", gap.is_zero(), residual,
            "f - |s|^2 at the coefficient level",
        )
    )
    lower_ok = certify_lower_bound(f, m)
    checks.append(CheckResult("lower_bound_certified", lower_ok, m))
    # zero-free completion spot check: Re P[h] >= sqrt(m) - 1e-3 in the
    # upper half-plane (harmonic minorant carries the boundary bound inward)
    zs = [complex(0.7 * k - 3.0, 0.4 + 0.45 * k) for k in range(10)]
    worst = min((poisson_eval(h, z).real for z in zs), default=float("inf"))
    checks.append(
        CheckResult(
            "halfplane_real_part", worst >= math.sqrt(m) - 1e-3, worst,
            "min Re P[h] over 10 interior points",
        )
    )
    return checks, residual


def assemble(params: ConstructionParams) -> ConstructionResult:
    """Run the full pipeline and certify every step that admits a certificate."""
    g, n_seq, rho, sup_bounds, wiener = build_g(params)
    delta = -spectrum(g).inf_freq
    h1 = g.modulate(delta)
    # |h1| = |g| <= sum_j U_j pointwise, so ell is a lower bound for Re h1
    # over all of R, not just a scan window
    ell = -math.fsum(sup_bounds)
    c = math.sqrt(params.m) - ell
    h = h1 + c
    s = h.modulate(-delta)
    f = ProductPoly(s)
    checks, residual_sup = _certificate_battery(params.m, h, s, f, delta)
    report = FactorizationReport(
        method="construction",
        factor=s,
        residual_sup=residual_sup,
        bandwidth_ratio=0.5,
        checks=checks,
    )
    return ConstructionResult(
        params=params,
        n_seq=n_seq,
        rho=rho,
        q_norms=sup_bounds,
        wiener_norms=wiener,
        g=g,
        h1=h1,
        h=h,
        f=f,
        s=s,
        delta=delta,
        c=c,
        certificates=report,
    )


def recheck(
    m: float,
    rho: tuple[EF, ...],
    delta: EF,
    c: float,
    g: TrigPoly,
    h1: TrigPoly,
    h: TrigPoly,
    s: TrigPoly,
) -> FactorizationReport:
    """Re-run every certificate on deserialized pipeline output.

    Nothing stored is trusted: f is rebuilt as |u|^2 from u = h shifted
    back by delta, exact_factorization bounds f - |s|^2 for the stored s
    through u - s, and the whole battery is recomputed, plus consistency
    checks tying the stored intermediates to each other. If u or the stored
    s has a spectrum off the lattices rho_j * Z, SpectraCollision is raised
    before f is built.
    """
    checks: list[CheckResult] = []
    checks.append(
        CheckResult(
            "delta_matches_spectrum",
            spectrum(g).inf_freq == -delta,
            float(delta),
            "delta = -inf Omega(g)",
        )
    )
    centred = h.modulate(-delta)
    consistent = h1 == g.modulate(delta) and h == h1 + c and s == centred
    checks.append(
        CheckResult(
            "modulation_consistent",
            consistent,
            1.0 if consistent else 0.0,
            "h1 = g shifted by delta; h = h1 + c; s = h shifted back",
        )
    )
    _check_rays(centred, rho)
    if s != centred:
        _check_rays(s, rho)
    battery, residual_sup = _certificate_battery(m, h, s, ProductPoly(centred), delta)
    checks.extend(battery)
    return FactorizationReport(
        method="construction",
        factor=s,
        residual_sup=residual_sup,
        bandwidth_ratio=0.5,
        checks=checks,
    )


def wiener_growth_table(n_list: list[int]) -> list[tuple[int, float]]:
    """Exact coefficient-magnitude sums of the averaged sine series.

    ||p_n||_A = sum_{k=2}^n (n+1-k)/(n k log k); grows like log log n.
    """
    out: list[tuple[int, float]] = []
    for n in n_list:
        if n < 2:
            raise MalformedInput("table indices must be >= 2")
        total = math.fsum((n + 1 - k) / (n * k * math.log(k)) for k in range(2, n + 1))
        out.append((n, total))
    return out
