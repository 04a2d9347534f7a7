import importlib
import inspect
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from apspec import construction
from apspec.certify import (
    certify_lower_bound,
    ehlich_zeller_sup,
    ez_points,
    fft_rounding,
    float_up,
    ray_sup,
    sup_norm_certified,
)
from apspec.construction import (
    DEFAULT_PRIMES,
    ConstructionParams,
    _block_arrays,
    _certificate_battery,
    _deviation,
    _deviations,
    _difference_amplitudes,
    _grid_max,
    _log_table,
    _sine_amplitudes,
    assemble,
    build_g,
    build_instance,
    build_q,
    cesaro_p,
    choose_rho,
    lift_constant,
    safety_margin,
    select_n_sequence,
    wiener_growth_table,
)
from apspec.errors import MalformedInput, OracleTooSmall
from apspec.frequency import ExactFrequency, qlin_independent
from apspec.trigpoly import DenseBlock, ProductPoly, TrigPoly, spectrum

EF = ExactFrequency

PINNED = ConstructionParams(m=1.0, blocks=2, oracle_n=4096)


@pytest.fixture(scope="module")
def pinned():
    return assemble(PINNED)


def test_cesaro_minimal_case():
    p2 = cesaro_p(2)
    assert p2.term_count() == 2
    # single sin term: amplitude (1/2)/(2 log 2), coefficient half that
    amp = (2 + 1 - 2) / (2 * 2 * math.log(2))
    assert p2.coefficient(EF(2)) == complex(0.0, -0.5 * amp)
    with pytest.raises(MalformedInput):
        cesaro_p(1)


def test_cesaro_coefficient_formula():
    p5 = cesaro_p(5)
    want = -0.5j * 3 / (5 * 3 * math.log(3))
    assert p5.coefficient(EF(3)) == want
    assert p5.coefficient(EF(-3)) == want.conjugate()
    assert p5.coefficient(EF(1)) == 0
    assert p5.coefficient(EF(0)) == 0


def test_cesaro_real_and_odd():
    p = cesaro_p(40)
    assert p.is_real(tol=0.0)
    xs = np.linspace(0.1, 7.0, 17)
    vals = p.evaluate(xs).real
    neg = p.evaluate(-xs).real
    assert np.allclose(vals, -neg, atol=1e-13)


def test_growth_table_values():
    table = wiener_growth_table([2, 4, 16, 256, 4096])
    assert table[0] == (2, pytest.approx(1 / (4 * math.log(2)), rel=1e-15))
    # independent direct summation
    for n, got in table:
        direct = sum((n + 1 - k) / (n * k * math.log(k)) for k in range(2, n + 1))
        assert got == pytest.approx(direct, abs=1e-9)
    vals = [v for _, v in table]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_growth_table_square_increments_shrink():
    # log log growth: increments along n -> n^2 tend to log 2 from above
    incs = []
    for n in (16, 256, 1024):
        t = dict(wiener_growth_table([n, n * n]))
        inc = t[n * n] - t[n]
        assert inc > 0
        incs.append(inc)
    assert incs[0] > incs[1] > incs[2] > math.log(2)


def test_growth_table_rejects_small_index():
    with pytest.raises(MalformedInput):
        wiener_growth_table([4, 1])


def test_sine_amplitudes_match_the_scalar_expression():
    # one log table serves every n up to its length, bit for bit the scalar
    logs = _log_table(8192)
    for n in (2, 3, 4, 33, 776, 4096, 8192):
        want = [(n + 1 - k) / (n * k * math.log(k)) for k in range(2, n + 1)]
        assert _sine_amplitudes(n, logs).tolist() == want
        assert _sine_amplitudes(n, _log_table(n)).tolist() == want


def test_safety_margin_pinned():
    assert safety_margin(4096, _log_table(8192)) == pytest.approx(0.015378667831690358, rel=1e-12)


def test_select_pinned_sequence():
    n_seq = select_n_sequence(PINNED)
    assert n_seq == (716, 2036, 3132)
    logs = _log_table(8192)
    margin = safety_margin(4096, logs)

    for j, n in enumerate(n_seq, start=1):
        budget = 2.0 ** (-j) / 3.0 - margin
        assert _deviation(4096, n, logs) <= budget <= 2.0 ** (-j) / 3.0
        # minimality: the index below fails the same budget
        assert _deviation(4096, n - 1, logs) > budget
    assert list(n_seq) == sorted(set(n_seq))


def test_select_blocks_are_prefix_stable():
    s1 = select_n_sequence(ConstructionParams(blocks=1, oracle_n=4096))
    s3 = select_n_sequence(ConstructionParams(blocks=3, oracle_n=4096))
    assert s1 == (716, 2036)
    assert s3 == (716, 2036, 3132, 3873)
    assert s3[:2] == s1


def test_select_larger_oracle_shifts_indices_up():
    # a longer oracle reveals more of the remaining distance to the limit,
    # so the same budgets demand larger n: the proxy criterion is honest
    # about its own refinement direction
    small = select_n_sequence(ConstructionParams(blocks=1, oracle_n=4096))
    large = select_n_sequence(ConstructionParams(blocks=1, oracle_n=8192))
    assert large == (1069, 3733)
    assert large[0] > small[0]


def test_select_oracle_too_small():
    with pytest.raises(OracleTooSmall):
        select_n_sequence(ConstructionParams(blocks=4, oracle_n=4096))


def test_params_validation():
    for m in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(MalformedInput):
            ConstructionParams(m=m)
    with pytest.raises(MalformedInput):
        ConstructionParams(blocks=0)
    with pytest.raises(MalformedInput):
        ConstructionParams(primes=(2, 2, 3))
    with pytest.raises(MalformedInput):
        ConstructionParams(blocks=3, primes=(2, 3))


def test_choose_rho_small_case():
    rho = choose_rho((2, 4), (2,))
    assert rho == (EF.sqrt_of(2, Fraction(1, 8)),)
    assert 0 < float(rho[0]) < 0.25


def test_choose_rho_pinned():
    rho = choose_rho((776, 2094, 3174), (2, 3))
    assert rho == (
        EF.sqrt_of(2, Fraction(1, 2963)),
        EF.sqrt_of(3, Fraction(1, 5500)),
    )
    assert qlin_independent(list(rho))
    for r, n_next in zip(rho, (2094, 3174)):
        assert float(r) * n_next < 1.0


def test_build_q_blocks():
    n_seq = (776, 2094, 3174)
    q1 = build_q(1, n_seq)
    assert q1 == cesaro_p(776)
    q2 = build_q(2, n_seq)
    info = spectrum(q2)
    assert info.inf_freq == EF(-3174)
    assert info.sup_freq == EF(3174)
    assert sup_norm_certified(q2).upper <= 0.25
    with pytest.raises(MalformedInput):
        build_q(3, n_seq)


def test_build_g_single_block():
    g, n_seq, rho, sup_bounds, wiener = build_g(ConstructionParams(blocks=1, oracle_n=4096))
    assert n_seq == (716, 2036)
    assert g == cesaro_p(716).dilate(rho[0])
    assert len(sup_bounds) == len(wiener) == 1
    assert wiener[0] == pytest.approx(2.492548623634547, rel=1e-12)


def test_assemble_pinned_sequence_and_scales(pinned):
    assert pinned.n_seq == (716, 2036, 3132)
    assert pinned.rho == (
        EF.sqrt_of(2, Fraction(1, 2881)),
        EF.sqrt_of(3, Fraction(1, 5427)),
    )
    # delta is the edge of block 2: 3132 * sqrt(3)/5427
    assert pinned.delta == EF.sqrt_of(3, Fraction(3132, 5427))
    assert pinned.c == pytest.approx(2.110257907557848, rel=1e-12)
    assert pinned.c == pytest.approx(math.sqrt(1.0) + math.fsum(pinned.q_norms), rel=1e-15)
    # c is the least float with c - sum_j B_j >= sqrt(m), and U_j is B_j rounded up
    bound = sum(pinned.sup_bounds, Fraction(0))
    assert Fraction(pinned.c) - bound >= 1 > Fraction(math.nextafter(pinned.c, 0.0)) - bound
    assert pinned.q_norms == tuple(map(float_up, pinned.sup_bounds))


def test_assemble_exact_factorization(pinned):
    assert isinstance(pinned.f, ProductPoly)
    assert pinned.f.factor == pinned.s
    exact = next(c for c in pinned.certificates.checks if c.name == "exact_factorization")
    assert exact.passed and exact.value == 0.0


def test_assemble_spectra(pinned):
    info_g = spectrum(pinned.g)
    assert -info_g.inf_freq == pinned.delta
    assert info_g.sup_freq == pinned.delta  # real g: symmetric spectrum
    info_h = spectrum(pinned.h)
    assert info_h.inf_freq == EF(0)
    assert info_h.sup_freq == pinned.delta + pinned.delta
    info_s = spectrum(pinned.s)
    assert info_s.inf_freq == -pinned.delta
    assert info_s.tau + info_s.tau == spectrum(pinned.f).tau


def test_assemble_disjoint_spectra(pinned):
    n1, n2, n3 = pinned.n_seq
    expected = 2 * (n1 - 1) + 2 * (n3 - 1)
    assert pinned.g.term_count() == expected
    assert pinned.h.term_count() == expected  # constant merges into the term at frequency 0


def test_assemble_wiener_norm_additive(pinned):
    # same multiset of magnitudes, so fsum agrees exactly
    total = math.fsum(
        abs(c) for q in (build_q(1, pinned.n_seq), build_q(2, pinned.n_seq))
        for _, c in q.sorted_terms()
    )
    assert pinned.g.wiener_norm() == total
    assert pinned.g_wiener_norm == pytest.approx(total, rel=1e-15)


def test_assemble_certificates(pinned):
    rep = pinned.certificates
    assert rep.method == "construction"
    assert rep.bandwidth_ratio == 0.5
    assert rep.residual_sup == 0.0
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert names == [
        "analytic_spectrum",
        "halved_bandwidth",
        "exact_factorization",
        "lower_bound_certified",
        "halfplane_real_part",
    ]


def test_assemble_lower_bound_holds(pinned):
    assert certify_lower_bound(pinned.f, 1.0)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-200, 200, 400)
    vals = pinned.f.evaluate(xs)
    assert float(np.min(vals)) >= 1.0


def test_assemble_wiener_growth_with_blocks(pinned):
    # finite shadow of ||g||_A -> infinity: strictly increasing in J
    g1, *_, w1 = build_g(ConstructionParams(blocks=1, oracle_n=4096))
    norms = [math.fsum(w1), pinned.g_wiener_norm]
    g3, *_, w3 = build_g(ConstructionParams(blocks=3, oracle_n=4096))
    norms.append(math.fsum(w3))
    assert norms[0] < norms[1] < norms[2]
    assert g3.term_count() > pinned.g.term_count()


@pytest.mark.parametrize(
    "module, name",
    [
        ("apspec", "integer_lattice_sup"),
        ("apspec", "recheck"),
        ("apspec.certify", "integer_lattice_sup"),
        ("apspec.certify", "lattice_points"),
        ("apspec.certify", "FP_CUSHION"),
        ("apspec.construction", "recheck"),
        ("apspec.serialize", "construction_format1_from_json"),
    ],
)
def test_format1_and_2_routes_are_gone(module, name):
    # formats 1 and 2 are refused on reading; nothing that only rebuilt them stays
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("func", [construction.build_instance, construction.verify_rays], ids=lambda f: f.__name__)
def test_no_legacy_option(func):
    assert "legacy" not in inspect.signature(func).parameters


def test_build_instance_gives_the_assembled_numbers(pinned):
    inst = build_instance(PINNED, pinned.n_seq)
    assert inst.numbers() == (pinned.rho, pinned.q_norms, pinned.wiener_norms, pinned.c)
    assert TrigPoly.from_rays(inst.rays) == pinned.s and inst.delta == pinned.delta


REFERENCE_DEVIATIONS: dict[tuple[int, int], float] = {}


def _complex_grid_max(keys, coeffs, n):
    """max |sum c_k e^{2 pi i j k / n}| over j, by one complex FFT of n points."""
    bins = np.zeros(n, dtype=complex)
    bins[np.mod(keys, n)] = coeffs
    return float(np.max(np.abs(np.fft.ifft(bins, norm="forward"))))


def reference_deviation(big, small):
    """The complex-FFT deviation: the exact Ehlich-Zeller bound on p_big - p_small's arrays (kept per pair).

    Same grid and same l1 = ||p_big||_A (1 + 8u) as `_deviations`, with the
    grid max from a complex FFT and the bound taken in exact arithmetic.
    """
    if (big, small) not in REFERENCE_DEVIATIONS:
        n = ez_points(big)
        l1 = math.fsum(_sine_amplitudes(big, _log_table(big)).tolist()) * (1 + 2.0**-50)
        grid = _complex_grid_max(*_block_arrays(big, small), n)
        REFERENCE_DEVIATIONS[big, small] = float(ehlich_zeller_sup(grid, big, n, l1))
    return REFERENCE_DEVIATIONS[big, small]


def reference_select(params):
    """The n_seq search as first written, on `reference_deviation`."""
    margin = reference_deviation(2 * params.oracle_n, params.oracle_n) / 4.0
    out, lo = [], 2
    for j in range(1, params.blocks + 2):
        budget = 2.0 ** (-j) / 3.0 - margin
        if budget <= 0:
            raise OracleTooSmall(f"block {j}")
        a, b = lo, params.oracle_n
        while a < b:
            mid = (a + b) // 2
            if reference_deviation(params.oracle_n, mid) <= budget:
                b = mid
            else:
                a = mid + 1
        n = a
        while n - 1 >= lo and reference_deviation(params.oracle_n, n - 1) <= budget:
            n -= 1
        out.append(n)
        lo = n + 1
    return tuple(out)


@pytest.mark.parametrize("oracle_n", [8, 48, 100, 300, 1000, 1024, 4096])
def test_real_fft_selection_matches_the_complex_fft_reference(oracle_n):
    for blocks in (1, 2, 3):
        params = ConstructionParams(blocks=blocks, oracle_n=oracle_n)
        try:
            want = reference_select(params)
        except OracleTooSmall:
            with pytest.raises(OracleTooSmall):
                select_n_sequence(params)
            continue
        assert select_n_sequence(params) == want
    # every deviation the reference searches computed, to 1e-15 relative
    pairs = [(big, small) for big, small in REFERENCE_DEVIATIONS if oracle_n in (big, small)]
    assert (2 * oracle_n, oracle_n) in pairs and len(pairs) > 3
    for big, small in pairs:
        want = REFERENCE_DEVIATIONS[big, small]
        assert abs(_deviation(big, small, _log_table(big)) - want) <= 1e-15 * want


@pytest.mark.parametrize("blocks,oracle_n", [(1, 8), (1, 16), (1, 32), (1, 64), (2, 256)])
def test_lift_bound_lies_below_the_scanned_minimum(blocks, oracle_n):
    for m, primes in ((1e-6, DEFAULT_PRIMES), (1.0, (5, 7)), (7.5, (11, 13)), (1e4, (3, 2))):
        res = assemble(ConstructionParams(m=m, blocks=blocks, oracle_n=oracle_n, primes=primes))
        # |s| >= c - sum_j B_j >= sqrt(m) on R, exactly; c is the least float that gives it
        bound = Fraction(res.c) - sum(res.sup_bounds, Fraction(0))
        assert bound >= 0 and bound**2 >= Fraction(m)
        assert res.c == lift_constant(m, sum(res.sup_bounds, Fraction(0)))
        below = Fraction(math.nextafter(res.c, 0.0)) - sum(res.sup_bounds, Fraction(0))
        assert below < 0 or below**2 < Fraction(m)
        # |s| over two periods of its slowest ray, 64x oversampled
        tau = float(spectrum(res.s).tau)
        half = 4 * math.pi / min(float(r) for r in res.rho)
        xs = np.linspace(-half, half, int(2 * half * 64 * tau / math.pi) + 1)
        assert float(bound) <= float(np.min(np.abs(res.s.evaluate(xs))))
        check = next(c for c in res.certificates.checks if c.name == "lower_bound_certified")
        assert check.passed and check.value == m and check.detail == ""


def test_lift_lowered_by_the_block_bounds_is_refused():
    params = ConstructionParams(m=1.0, blocks=2, oracle_n=256)
    n_seq = select_n_sequence(params)
    inst = build_instance(params, n_seq)
    low_c = inst.c - math.fsum(inst.q_norms)  # the lift is now sqrt(m)
    rays = []
    for g_ray, s_ray in zip(inst.g_rays, inst.rays):
        coeffs = s_ray.coeffs.copy()
        if not np.array_equal(coeffs, g_ray.coeffs):
            coeffs[0] -= math.fsum(inst.q_norms)
        rays.append(DenseBlock(s_ray.base, s_ray.keys, coeffs))
    low = TrigPoly.from_rays(rays)
    report = _certificate_battery(
        1.0, TrigPoly.from_rays(rays, inst.delta), low, ProductPoly(low), inst.delta, [], low_c, inst.sup_bounds
    )
    check = next(c for c in report.checks if c.name == "lower_bound_certified")
    assert not check.passed and check.value == 1.0
    assert check.detail.startswith("f = |u|^2, |u| >= bound = ") and "bound^2 - m = -" in check.detail


def linear_select(params):
    """The n_seq search as a linear scan: block j takes the least n >= n_{j-1} + 1 that passes its budget."""
    logs = _log_table(2 * params.oracle_n)
    margin = safety_margin(params.oracle_n, logs)
    deviation = _deviations(params.oracle_n, logs)
    out, lo = [], 2
    for j in range(1, params.blocks + 2):
        budget = 2.0 ** (-j) / 3.0 - margin
        if budget <= 0:
            raise OracleTooSmall(
                f"block {j} needs deviation <= {budget:.3g}; oracle_n={params.oracle_n} cannot reach it"
            )
        n = lo
        while n < params.oracle_n and deviation(n) > budget:
            n += 1
        out.append(n)
        lo = n + 1
    return tuple(out)


def test_selection_matches_a_linear_scan():
    for oracle_n, blocks in itertools.product(range(8, 257, 4), (1, 2, 3)):
        params = ConstructionParams(blocks=blocks, oracle_n=oracle_n)
        try:
            want = linear_select(params)
        except OracleTooSmall as exc:
            with pytest.raises(OracleTooSmall, match=re.escape(str(exc))):
                select_n_sequence(params)
            continue
        assert select_n_sequence(params) == want, params


def test_search_runs_each_grid_once(monkeypatch):
    calls, real = [], construction._grid_max
    monkeypatch.setattr(construction, "_grid_max", lambda big, small, logs, n: calls.append((big, small, n)) or real(big, small, logs, n))
    assert select_n_sequence(ConstructionParams(blocks=2, oracle_n=1024)) == (285, 600, 845)
    # the margin first, on the grid of its degree 2048, then the queries on the grid of 1024
    assert calls[0] == (2048, 1024, ez_points(2048)) == (2048, 1024, 32768)
    queries = [small for big, small, n in calls[1:]]
    assert all(big == 1024 and n == 16384 for big, _, n in calls[1:])
    assert len(set(queries)) == len(queries) <= 40


def _scan_max(keys, coeffs, degree):
    """max |sum c_k e^{ikt}| on 64 (2 degree + 1) or more equispaced points, by one complex FFT.

    The point count is a power of two >= `ez_points(degree)`, so the scan holds that grid.
    """
    points = max(1 << (64 * (2 * degree + 1)).bit_length(), ez_points(degree))
    return _complex_grid_max(keys, coeffs, points)


@pytest.mark.parametrize("oracle_n", [2, 3, 8, 64, 1000, 1024, 4096])
def test_grid_bracket_holds_the_full_grid_max(oracle_n):
    # the grid max on ez_points(oracle_n) and the bounds from it bracket the
    # max of a 64x-oversampled scan: the deviation and the block bound B_j
    logs = _log_table(2 * oracle_n)
    n = ez_points(oracle_n)
    assert n == max(1024, 1 << (16 * oracle_n - 1).bit_length())
    for small in sorted({0, 2, oracle_n // 3, oracle_n // 2, oracle_n - 1} - {1}):
        keys, coeffs = _block_arrays(oracle_n, small, logs)
        scan = _scan_max(keys, coeffs, oracle_n)
        lower = _grid_max(oracle_n, small, logs, n)
        dev = _deviation(oracle_n, small, logs)
        block = ray_sup(keys, coeffs)
        # the scan's grid holds the coarse one
        assert lower <= scan * (1 + 1e-12) + 1e-15
        assert scan <= dev and Fraction(scan) <= block <= Fraction(float_up(block))
        # no wider than the sec factor needs: the roundings add a few 1e-11
        for upper in (dev, float(block)):
            assert upper <= lower * (1 + 2 * (math.pi * oracle_n / n) ** 2) + 1e-10


def test_fft_rounding_bounds_the_real_fft_error():
    # `_deviations` takes `fft_rounding` to cover np.fft.irfft as it covers ifft
    logs = _log_table(128)
    for big, small, n in ((64, 20, 2048), (64, 20, 8192), (64, 0, 8192)):
        top = _difference_amplitudes(big, small, logs)
        half = np.zeros(n // 2 + 1, dtype=complex)
        half.imag[2 : big + 1] = top
        got = np.fft.irfft(half, n, norm="forward")
        # reference in extended precision: sum_k -2 t_k sin(2 pi j k / n), angles reduced exactly first
        ks = np.arange(2, big + 1)
        phase = np.mod(np.outer(np.arange(n), ks), n).astype(np.longdouble) * (2 * np.pi / np.longdouble(n))
        ref = (np.sin(phase) * (-2 * top.astype(np.longdouble))).sum(axis=1)
        err = float(np.max(np.abs(got - ref)))
        l1 = 2 * math.fsum(np.abs(top).tolist())
        assert Fraction(err) <= fft_rounding(n, l1)
