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

Every step keeps the construction as what it is: one ray per block j, the
keys and coefficients of q_j on the lattice rho_j * Z (a `DenseBlock` with
base rho_j).  s = g + c chi_{-Delta} is g with c added at its lowest
frequency, which is the first key of one ray; h = chi_Delta s and
f = |s|^2 are read from the same rays (`TrigPoly.from_rays`), so no step
builds an ExactFrequency per term.

`build_instance` derives the instance from (params, n_seq).  `assemble`
calls it after choosing n_seq; `verify_rays` calls it on a bundle's params
and n_seq and compares the stored numbers and factor, kept by ray, against
it.

Every sup bound is taken on one grid per degree: the `ez_points(maxk)`
points, the least power of two >= 16 maxk, with the Ehlich-Zeller bound
sec(pi maxk / N) (grid max) plus the FFT's rounding.  That covers the
n_seq search's deviations, the safety margin, and each block's exact B_j
>= sup|q_j|, of which U_j is the float rounded up.  f >= m is certified on
all of R from the same numbers: c is the least float with
(c - sum_j B_j)^2 >= m, and |s| = |g + c chi_{-Delta}| >= c - sum_j B_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from apspec.certify import ehlich_zeller_floats, ez_points, float_up, ray_sup
from apspec.checks import CheckResult, FactorizationReport, poisson_eval
from apspec.errors import MalformedInput, OracleTooSmall, SpectraCollision
from apspec.frequency import MAX_RADICAND, ONE, ExactFrequency, qlin_independent
from apspec.trigpoly import DenseBlock, ProductPoly, TrigPoly, spectrum

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
        if min(self.primes) < 1:
            raise MalformedInput("primes must be positive")
        if max(self.primes) > MAX_RADICAND:
            raise MalformedInput(f"primes must not exceed {MAX_RADICAND}")


@dataclass
class Instance:
    """Everything (params, n_seq) determine; see `build_instance`."""

    rho: tuple[EF, ...]
    q_norms: tuple[float, ...]  # certified sup-norm upper bounds U_j
    wiener_norms: tuple[float, ...]  # exact ||q_j||_A
    c: float
    g_rays: tuple[DenseBlock, ...]  # g by block: ray j holds q_j with base rho_j
    rays: tuple[DenseBlock, ...]  # s by block: g's rays with c added at the lowest key
    delta: EF
    sup_bounds: tuple[Fraction, ...]  # exact Ehlich-Zeller bounds B_j >= sup|q_j|

    def numbers(self) -> tuple:
        """(rho, U_j, ||q_j||_A, c): what a bundle stores besides n_seq, params, Delta and s."""
        return self.rho, self.q_norms, self.wiener_norms, self.c


@dataclass
class ConstructionResult(Instance):
    params: ConstructionParams
    n_seq: tuple[int, ...]
    g: TrigPoly
    h: TrigPoly
    f: ProductPoly
    s: TrigPoly
    certificates: FactorizationReport = field(repr=False)

    @property
    def g_wiener_norm(self) -> float:
        return math.fsum(self.wiener_norms)


def cesaro_p(n: int) -> TrigPoly:
    """Averaged partial sum of sum_k sin(kx)/(k log k), frequencies 2..n.

    Coefficient at +-k is -+(i/2)(n+1-k)/(n k log k); real and odd.
    """
    if n < 2:
        raise MalformedInput("cesaro index must be >= 2")
    return TrigPoly.from_rays([DenseBlock(ONE, *_block_arrays(n))])


def _log_table(n: int) -> np.ndarray:
    """math.log(k) for k = 2..n: libm's log, which np.log can miss by the last bit."""
    return np.array([math.log(k) for k in range(2, n + 1)])


def _sine_amplitudes(n: int, logs: np.ndarray) -> np.ndarray:
    """Amplitude of sin(kx) in p_n at k = 2..n, from logs = `_log_table(m)` for some m >= n.

    Bit for bit the scalar (n + 1 - k) / (n * k * math.log(k)): n + 1 - k
    and n * k are exact floats, and each array operation rounds once, as
    Python's float operations do.
    """
    ks = np.arange(2, n + 1, dtype=float)
    return (n + 1 - ks) / (n * ks * logs[: n - 1])


def _block_arrays(big: int, small: int = 0, logs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Keys -big..-2, 2..big and coefficients of p_big - p_small (p_0 = 0).

    The coefficient at +k is i*(-a_big/2 + a_small/2) and at -k its
    negation, with real part +0.0: bit for bit what the term-by-term sum
    cesaro_p(big) - cesaro_p(small) of exact frequencies gives.  logs is
    `_log_table(m)` for some m >= big, built here if not given.
    """
    top = _difference_amplitudes(big, small, _log_table(big) if logs is None else logs)
    keys = np.concatenate([np.arange(-big, -1), np.arange(2, big + 1)])
    coeffs = np.zeros(len(keys), dtype=complex)
    coeffs.imag = np.concatenate([-top[::-1], top])
    return keys, coeffs


def _difference_amplitudes(big: int, small: int, logs: np.ndarray) -> np.ndarray:
    """-a_big/2 + a_small/2 at k = 2..big, a_n the amplitudes of p_n (a_0 = 0)."""
    top = -0.5 * _sine_amplitudes(big, logs)
    if small:
        top[: small - 1] += 0.5 * _sine_amplitudes(small, logs)
    return top


def _grid_max(big: int, small: int, logs: np.ndarray, n: int) -> float:
    """Computed max of |p_big - p_small| on the n points 2 pi j / n, n > 2 big, by one real FFT.

    p_big - p_small is the real sine series sum_k -2 t_k sin(kx), so one
    `np.fft.irfft` of the positive half i t_k of its spectrum samples it on
    the same n points as the complex FFT there.  logs is `_log_table(m)`
    for some m >= big.
    """
    top = _difference_amplitudes(big, small, logs)
    half = np.zeros(n // 2 + 1, dtype=complex)
    half.imag[2 : big + 1] = top
    grid = np.fft.irfft(half, n, norm="forward")
    return float(np.max(np.abs(grid)))


def _deviations(big: int, logs: np.ndarray) -> Callable[[int], float]:
    """small -> a certified float bound on sup|p_big - p_small|, for 0 <= small <= big.

    Each call runs `_grid_max` on the N = `ez_points(big)` points of big's
    grid and returns up(up(g A) + B) >= EZ(g) = a g + b
    (`certify.ehlich_zeller_floats`, A >= a and B >= b taken once, every
    step rounded up).  logs is `_log_table(m)` for some m >= big.

    The rounding bound inside b is `certify.fft_rounding` (Higham, Thm
    24.2, for a radix-2 FFT), taken to cover `np.fft.irfft` too: for a
    power-of-two length numpy's pocketfft runs radix-4 and radix-2 passes,
    and a radix-4 butterfly is two radix-2 levels.  It needs l1 >= the
    absolute sum 2 sum_k |t_k| of the coefficients.  Exactly,
    0 <= a_small(k) <= a_big(k), so ||p_big - p_small||_A <= ||p_big||_A.
    In floats each amplitude is that ratio rounded twice, so
    a_small(k) <= a_big(k) (1 + 5u), and |t_k|, one rounded difference of
    two halves, is at most the larger half: l1 = ||p_big||_A (1 + 8u)
    covers every small.
    """
    n = ez_points(big)
    # fsum rounds once and the product once: 8u covers 5u and both
    l1 = math.fsum(_sine_amplitudes(big, logs).tolist()) * (1 + 2.0**-50)
    scale, shift = ehlich_zeller_floats(big, n, l1)

    def deviation(small: int) -> float:
        grid = _grid_max(big, small, logs, n)
        return math.nextafter(math.nextafter(grid * scale, math.inf) + shift, math.inf)

    return deviation


def _deviation(big: int, small: int, logs: np.ndarray) -> float:
    """Certified sup of |p_big - p_small| without building the polynomials (`_deviations`)."""
    return _deviations(big, logs)(small)


def safety_margin(oracle_n: int, logs: np.ndarray) -> float:
    """Hedge for the distance between the oracle sum and its limit.

    Uses a quarter of the certified doubling increment ||p_2N - p_N||.
    The limit function converges only logarithmically, so any affordable
    oracle leaves a genuine gap; the quarter keeps the hedge positive
    while leaving the documented block budgets reachable.  logs is
    `_log_table(m)` for some m >= 2 * oracle_n.
    """
    return _deviation(2 * oracle_n, oracle_n, logs) / 4.0


def select_n_sequence(params: ConstructionParams) -> tuple[int, ...]:
    """Smallest n_1 < ... < n_{J+1} with certified deviation <= 2^{-j}/3 - margin.

    Each query deviation(n) = `_deviation(oracle_n, n)` <= budget runs one
    real FFT on oracle_n's grid of `ez_points(oracle_n)` points.  The
    bisections and the backward walks of later blocks revisit indices;
    each grid runs at most once per n.  The logs behind every amplitude
    are taken once per call, after `ez_points` has accepted the margin's
    grid, so an oracle too large for it is refused before its log table
    is built.
    """
    ez_points(2 * params.oracle_n)
    logs = _log_table(2 * params.oracle_n)
    margin = safety_margin(params.oracle_n, logs)
    deviation = _deviations(params.oracle_n, logs)
    seen: dict[int, float] = {}

    def passes(n: int, budget: float) -> bool:
        if n not in seen:
            seen[n] = deviation(n)
        return seen[n] <= budget

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
            if passes(mid, budget):
                b = mid
            else:
                a = mid + 1
        n = a
        while n - 1 >= lo and passes(n - 1, budget):
            n -= 1
        out.append(n)
        lo = n + 1
    return tuple(out)


def block_sizes(n_seq: tuple[int, ...]) -> list[int]:
    """Term counts 2(n - 1) of q_1 = p_{n_1} and q_j = p_{n_{j+1}} - p_{n_j}, j >= 2."""
    return [2 * (n - 1) for n in (n_seq[0], *n_seq[2:])]


def _q_arrays(j: int, n_seq: tuple[int, ...], logs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    if not (1 <= j <= len(n_seq) - 1):
        raise MalformedInput(f"block index {j} outside 1..{len(n_seq) - 1}")
    return _block_arrays(n_seq[0], 0, logs) if j == 1 else _block_arrays(n_seq[j], n_seq[j - 1], logs)


def build_q(j: int, n_seq: tuple[int, ...]) -> TrigPoly:
    """Block j of the telescoped Cesaro sequence: q_1 = p_{n_1}, else a difference."""
    return TrigPoly.from_rays([DenseBlock(ONE, *_q_arrays(j, n_seq))])


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


def build_instance(params: ConstructionParams, n_seq: tuple[int, ...]) -> Instance:
    """The instance for n_seq: rho, U_j, ||q_j||_A, c, the rays of g and s, Delta and B_j.

    rho comes from `choose_rho`; each block's arrays are built once and give
    B_j (`certify.ray_sup`, exact), U_j = B_j rounded up to a float and
    ||q_j||_A (fsum of np.hypot, as `TrigPoly.wiener_norm`).
    |chi_Delta g| = |g| <= sum_j B_j pointwise, so c, the least float with
    (c - sum_j B_j)^2 >= m (`lift_constant`), makes Re h >= sqrt(m) on all
    of R, not just a scan window.  Delta = -inf Omega(g) is the lowest key
    of one ray, and c lands there.
    """
    rho = choose_rho(n_seq, params.primes)
    logs = _log_table(n_seq[-1])
    g_rays: list[DenseBlock] = []
    bounds: list[Fraction] = []
    uppers: list[float] = []
    wiener: list[float] = []
    for j, r in enumerate(rho, start=1):
        keys, coeffs = _q_arrays(j, n_seq, logs)
        bounds.append(ray_sup(keys, coeffs))
        upper = float_up(bounds[-1])
        if j >= 2 and upper > 2.0 ** (-j):
            raise OracleTooSmall(f"||q_{j}|| certificate {upper:.4g} exceeds 2^-{j}")
        uppers.append(upper)
        wiener.append(math.fsum(np.hypot(coeffs.real, coeffs.imag).tolist()))
        g_rays.append(DenseBlock(r, keys, coeffs))
    c = lift_constant(params.m, sum(bounds, Fraction(0)))
    lows = [r.base * int(r.keys[0]) for r in g_rays]
    j = lows.index(min(lows))
    lifted = g_rays[j].coeffs.copy()
    lifted[0] += c
    rays = list(g_rays)
    rays[j] = DenseBlock(rho[j], g_rays[j].keys, lifted)
    return Instance(
        rho, tuple(uppers), tuple(wiener), c, tuple(g_rays), tuple(rays), -lows[j], tuple(bounds)
    )


def _lift_holds(c: float, bound: Fraction, m: float) -> bool:
    """c - bound >= sqrt(m), decided exactly."""
    slack = Fraction(c) - bound
    return slack >= 0 and slack * slack >= Fraction(m)


def lift_constant(m: float, bound: Fraction) -> float:
    """The least float c with c - bound >= sqrt(m) exactly, for a finite m > 0 and bound >= 0.

    sqrt(m) + bound in floats lies within a few ulps of it; the steps up
    and down settle the last bits by `_lift_holds`.
    """
    c = math.sqrt(m) + float(bound)
    while not _lift_holds(c, bound, m):
        c = math.nextafter(c, math.inf)
    while _lift_holds(below := math.nextafter(c, -math.inf), bound, m):
        c = below
    return c


def build_g(params: ConstructionParams) -> tuple[TrigPoly, tuple[int, ...], tuple[EF, ...], tuple[float, ...], tuple[float, ...]]:
    """Sum of dilated blocks with exactly disjoint spectra.

    Returns (g, n_seq, rho, certified sup bounds U_j, exact ||q_j||_A).
    """
    n_seq = select_n_sequence(params)
    inst = build_instance(params, n_seq)
    # Q-independent rho (choose_rho) puts the rays on distinct directions
    return TrigPoly.from_rays(inst.g_rays), n_seq, inst.rho, inst.q_norms, inst.wiener_norms


def _certificate_battery(
    m: float, h: TrigPoly, s: TrigPoly, f: ProductPoly, delta: EF, checks: list[CheckResult],
    c: float, sup_bounds: Sequence[Fraction],
) -> FactorizationReport:
    """The report of factor s: `checks`, then the certificates shared by assemble and verify_rays.

    exact_factorization bounds ||f - |s|^2||_A through f's factor u: since
    |u|^2 - |s|^2 = (u - s) conj(u) + s conj(u - s) and ||.||_A is
    submultiplicative, it is at most ||u - s||_A (||u||_A + ||s||_A), which
    is 0 exactly when s is u.  lower_bound_certified passes when
    c - bound >= sqrt(m) exactly, for bound = sum_j B_j >= sup|g| over
    the rebuilt block bounds `sup_bounds`: then
    |g + c chi_{-delta}| >= c - bound >= sqrt(m) on all of R, and f = |u|^2
    >= m for the u = g + c chi_{-delta} the checks before it tie to the
    stored numbers.  Its detail, on FAIL, gives b = max(c - bound, 0) and
    b^2 - m.  The tau of f = |u|^2 is u's bandwidth, read from u, so no
    check builds f's autocorrelation.
    """
    info_h = spectrum(h)
    checks.append(
        CheckResult(
            "analytic_spectrum", not (info_h.inf_freq < EF(0)), float(info_h.inf_freq), "inf Omega(h) >= 0"
        )
    )
    u = f.factor
    info_s = spectrum(s)
    half_ok = info_s.tau + info_s.tau == spectrum(u).bandwidth and info_s.inf_freq == -delta
    checks.append(
        CheckResult("halved_bandwidth", half_ok, float(info_s.tau), "tau(s) = tau(f)/2 exactly")
    )
    # u == s compares two polynomials given by rays array by array; only a
    # difference builds their terms
    gap = TrigPoly() if u == s else u - s
    residual = gap.wiener_norm() * (u.wiener_norm() + s.wiener_norm())
    checks.append(
        CheckResult(
            "exact_factorization", gap.is_zero(), residual,
            "f - |s|^2 at the coefficient level",
        )
    )
    bound = sum(sup_bounds, Fraction(0))
    lower_ok = _lift_holds(c, bound, m)
    b = max(Fraction(c) - bound, Fraction(0))
    checks.append(
        CheckResult(
            "lower_bound_certified", lower_ok, m,
            "" if lower_ok else f"f = |u|^2, |u| >= bound = {float(b)!r} on R; bound^2 - m = {float(b * b - Fraction(m))!r}",
        )
    )
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
    return FactorizationReport("construction", s, residual, 0.5, checks)


def assemble(params: ConstructionParams) -> ConstructionResult:
    """Run the full pipeline and certify every step that admits a certificate."""
    n_seq = select_n_sequence(params)
    inst = build_instance(params, n_seq)
    s = TrigPoly.from_rays(inst.rays)
    h = TrigPoly.from_rays(inst.rays, inst.delta)
    f = ProductPoly(s)
    return ConstructionResult(
        **vars(inst), params=params, n_seq=n_seq, g=TrigPoly.from_rays(inst.g_rays), h=h, f=f, s=s,
        certificates=_certificate_battery(params.m, h, s, f, inst.delta, [], inst.c, inst.sup_bounds),
    )


def verify_rays(
    params: ConstructionParams, n_seq: tuple[int, ...], rho: tuple[EF, ...], q_norms: tuple[float, ...],
    wiener_norms: tuple[float, ...], delta: EF, c: float, rays: Sequence[tuple[np.ndarray, np.ndarray]],
) -> FactorizationReport:
    """Re-run every certificate on a stored construction whose s is kept by ray.

    rays[j] holds the keys and coefficients of s on the lattice rho_j * Z.
    Nothing stored is trusted: `build_instance` rebuilds the instance from
    params and n_seq, and factor_rebuilt requires the stored rho, q_norms,
    wiener_norms, c and s to equal the rebuilt ones exactly.  f is rebuilt
    as |u|^2 for the rebuilt s = u, the battery runs on the stored s and
    h = chi_Delta s for the stored Delta, and lower_bound_certified on the
    stored c and the rebuilt B_j.  Raises SpectraCollision, before f is
    built, when the stored rho is not Q-independent, since the rays could
    then share frequencies.
    """
    if not qlin_independent(rho):
        raise SpectraCollision("stored dilation scales are not Q-independent")
    built = build_instance(params, n_seq)
    s_rays = [DenseBlock(r, keys, coeffs) for r, (keys, coeffs) in zip(rho, rays)]
    u = TrigPoly.from_rays(built.rays)
    s = TrigPoly.from_rays(s_rays)
    rebuilt = built.numbers() == (rho, q_norms, wiener_norms, c) and u == s
    checks = [
        CheckResult("delta_matches_spectrum", built.delta == delta, float(delta), "delta = -inf Omega(g)"),
        CheckResult(
            "factor_rebuilt", rebuilt, 1.0 if rebuilt else 0.0,
            "s = g + c chi_{-delta} exactly; rho, q_norms, wiener_norms and c "
            "as rebuilt from params and n_seq",
        ),
    ]
    h = TrigPoly.from_rays(s_rays, delta)
    return _certificate_battery(params.m, h, s, ProductPoly(u), delta, checks, c, built.sup_bounds)


def wiener_growth_table(n_list: list[int]) -> list[tuple[int, float]]:
    """Exact coefficient-magnitude sums of the averaged sine series.

    ||p_n||_A = sum_{k=2}^n (n+1-k)/(n k log k); grows like log log n.
    """
    out: list[tuple[int, float]] = []
    for n in n_list:
        if n < 2:
            raise MalformedInput("table indices must be >= 2")
        out.append((n, math.fsum(_sine_amplitudes(n, _log_table(n)).tolist())))
    return out
