import math
from fractions import Fraction

import numpy as np
import pytest

from apspec.certify import certify_lower_bound, sup_norm_certified
from apspec.construction import (
    ConstructionParams,
    assemble,
    build_g,
    build_q,
    cesaro_p,
    choose_rho,
    safety_margin,
    select_n_sequence,
    wiener_growth_table,
)
from apspec.errors import MalformedInput, OracleTooSmall
from apspec.frequency import ExactFrequency, qlin_independent
from apspec.trigpoly import ProductPoly, spectrum

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


def test_safety_margin_pinned():
    assert safety_margin(4096) == pytest.approx(0.015872887591845776, rel=1e-12)


def test_select_pinned_sequence():
    n_seq = select_n_sequence(PINNED)
    assert n_seq == (776, 2094, 3174)
    margin = safety_margin(4096)
    from apspec.construction import _deviation

    for j, n in enumerate(n_seq, start=1):
        budget = 2.0 ** (-j) / 3.0 - margin
        assert _deviation(4096, n) <= budget <= 2.0 ** (-j) / 3.0
        # minimality: the index below fails the same budget
        assert _deviation(4096, n - 1) > budget
    assert list(n_seq) == sorted(set(n_seq))


def test_select_blocks_are_prefix_stable():
    s1 = select_n_sequence(ConstructionParams(blocks=1, oracle_n=4096))
    s3 = select_n_sequence(ConstructionParams(blocks=3, oracle_n=4096))
    assert s1 == (776, 2094)
    assert s3 == (776, 2094, 3174, 3899)
    assert s3[:2] == s1


def test_select_larger_oracle_shifts_indices_up():
    # a longer oracle reveals more of the remaining distance to the limit,
    # so the same budgets demand larger n: the proxy criterion is honest
    # about its own refinement direction
    small = select_n_sequence(ConstructionParams(blocks=1, oracle_n=4096))
    large = select_n_sequence(ConstructionParams(blocks=1, oracle_n=8192))
    assert large == (1185, 3858)
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
    assert n_seq == (776, 2094)
    assert g == cesaro_p(776).dilate(rho[0])
    assert len(sup_bounds) == len(wiener) == 1
    assert wiener[0] == pytest.approx(2.5073618241959195, rel=1e-12)


def test_assemble_pinned_sequence_and_scales(pinned):
    assert pinned.n_seq == (776, 2094, 3174)
    assert pinned.rho == (
        EF.sqrt_of(2, Fraction(1, 2963)),
        EF.sqrt_of(3, Fraction(1, 5500)),
    )
    # delta is the edge of block 2: 3174 * sqrt(3)/5500
    assert pinned.delta == EF.sqrt_of(3, Fraction(3174, 5500))
    assert pinned.c == pytest.approx(2.1408582446713353, rel=1e-12)
    assert pinned.c == pytest.approx(math.sqrt(1.0) + math.fsum(pinned.q_norms), rel=1e-15)


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
