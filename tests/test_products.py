import json
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspec import products
from apspec.errors import ApspecError, MalformedInput, OddRealMultiplicity
from apspec.frequency import ExactFrequency
from apspec.products import (
    PAIR_TOL,
    EntireFactor,
    ZeroSet,
    ahiezer_split,
    factor_from_zeros,
    lindelof_check,
    log_integrability,
    product_eval,
    weierstrass_factor,
)
from apspec.trigpoly import TrigPoly

EF = ExactFrequency


def test_zero_set_validation():
    with pytest.raises(MalformedInput):
        ZeroSet(((0j, 1),))
    with pytest.raises(MalformedInput):
        ZeroSet(((1j, 0),))
    with pytest.raises(MalformedInput):
        ZeroSet(((1j, 1),), p=2)
    with pytest.raises(MalformedInput):
        ZeroSet((), m=-1)


def test_zero_set_json_roundtrip():
    zs = ZeroSet(((1 - 2j, 3), (1 + 2j, 3)), m=1, a=0.5, b=-0.25, p=1)
    again = ZeroSet.from_json(zs.to_json())
    assert again == zs
    with pytest.raises(MalformedInput):
        ZeroSet.from_json("{not json")
    with pytest.raises(MalformedInput):
        ZeroSet.from_json('{"m": 0}')


def test_zero_set_dict_forms():
    zs = ZeroSet(((1 - 2j, 3), (1 + 2j, 3), (-0.0 + 1e-300j, 1)), m=1, a=0.5, b=-0.25, p=1)
    assert ZeroSet.from_obj(zs.to_obj()) == zs
    assert json.loads(zs.to_json()) == zs.to_obj()
    assert ZeroSet.from_json(zs.to_json()) == zs
    for bad in [None, [], {"m": 0}, {"m": 0, "a": 0, "b": 0, "p": 0, "zeros": [{"re": 1.0}]}]:
        with pytest.raises(MalformedInput) as from_obj:
            ZeroSet.from_obj(bad)
        with pytest.raises(MalformedInput) as from_json:
            ZeroSet.from_json(json.dumps(bad))
        assert str(from_obj.value) == str(from_json.value)


def test_weierstrass_factor():
    assert weierstrass_factor(0.0, 0) == 1.0
    assert weierstrass_factor(0.0, 1) == 1.0
    assert weierstrass_factor(1.0, 1) == 0.0
    assert weierstrass_factor(0.5, 1) == pytest.approx(0.5 * math.exp(0.5))
    assert weierstrass_factor(2j, 0) == 1 - 2j
    with pytest.raises(MalformedInput):
        weierstrass_factor(0.1, 2)


def test_product_eval_pair_of_i():
    zs = ZeroSet(((1j, 1), (-1j, 1)))
    xs = np.linspace(-3, 3, 25)
    vals = product_eval(zs, xs)
    assert np.allclose(vals, 1 + xs**2, atol=1e-12)
    assert product_eval(zs, 2.0) == pytest.approx(5.0)


def test_product_eval_trivial_cases():
    assert product_eval(ZeroSet(()), 1.7) == pytest.approx(1.0)
    assert product_eval(ZeroSet((), m=1), 3.0) == pytest.approx(9.0)
    assert product_eval(ZeroSet((), a=0.5, b=1.0), 2.0) == pytest.approx(math.exp(2 + 2))


def _odd_pi_zero_set(K: int) -> ZeroSet:
    # genus-1 truncation of 2 + 2cos: double zeros at odd multiples of pi,
    # overall constant 4 = e^(2 log 2)
    zeros = []
    for k in range(-K, K + 1):
        zeros.append((complex((2 * k + 1) * math.pi), 2))
    return ZeroSet(tuple(zeros), b=math.log(2.0), p=1)


def test_product_eval_genus1_truncation():
    zs = _odd_pi_zero_set(2000)
    xs = np.linspace(-math.pi + 1e-3, math.pi - 1e-3, 101)
    vals = product_eval(zs, xs).real
    f = 2 + 2 * np.cos(xs)
    assert np.max(np.abs(vals / f - 1)) <= 1e-3


def test_ahiezer_split_conjugate_pair():
    zs = ZeroSet(((1j, 1), (-1j, 1)), p=1)
    s, gamma = ahiezer_split(zs)
    assert s.zeros == ((-1j, 1),)
    assert gamma == pytest.approx(-1.0)
    s0, gamma0 = ahiezer_split(ZeroSet(((1j, 1), (-1j, 1)), p=0))
    assert s0.zeros == ((-1j, 1),)
    assert gamma0 == 0.0


def test_ahiezer_split_real_zero():
    s, gamma = ahiezer_split(ZeroSet(((complex(math.pi), 2),), p=1))
    assert s.zeros == ((complex(math.pi), 1),)
    assert gamma == 0.0


def test_ahiezer_split_rejects_odd_real():
    with pytest.raises(OddRealMultiplicity):
        ahiezer_split(ZeroSet(((complex(math.pi), 3),)))


def test_ahiezer_split_rejects_asymmetric():
    with pytest.raises(MalformedInput):
        ahiezer_split(ZeroSet(((1 + 1j, 1),)))
    with pytest.raises(MalformedInput):
        ahiezer_split(ZeroSet(((1 + 1j, 1), (1 - 1j, 2))))


def test_random_pairs_modulus_identity():
    rng = np.random.default_rng(23)
    for p in (0, 1):
        zeros = []
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), -rng.uniform(0.2, 3))
            k = int(rng.integers(1, 3))
            zeros += [(z, k), (z.conjugate(), k)]
        zs = ZeroSet(tuple(zeros), a=0.1, b=0.2, p=p)
        S = factor_from_zeros(zs)
        xs = rng.uniform(-5, 5, 100)
        F = product_eval(zs, xs).real
        S2 = np.abs(S(xs)) ** 2
        assert np.max(np.abs(S2 / F - 1)) <= 1e-8


def test_factor_one_plus_z_squared():
    for p in (0, 1):
        zs = ZeroSet(((1j, 1), (-1j, 1)), p=p)
        S = factor_from_zeros(zs)
        pts = np.array([0.0, 1.0, -2.0, 0.5 + 0.5j, -1 + 2j])
        assert np.max(np.abs(S(pts) - (1 - 1j * pts))) <= 1e-12
        xs = np.linspace(-4, 4, 41)
        assert np.max(np.abs(np.abs(S(xs)) ** 2 - (1 + xs**2))) <= 1e-12


def test_factor_constant():
    S = factor_from_zeros(ZeroSet((), b=0.7))
    assert S(1.3) == pytest.approx(math.exp(0.7))
    assert isinstance(S, EntireFactor)


def test_factor_genus1_cosine():
    zs = _odd_pi_zero_set(2000)
    S = factor_from_zeros(zs)
    assert S.gamma == 0.0  # all zeros real
    xs = np.linspace(-math.pi + 1e-3, math.pi - 1e-3, 101)
    f = 2 + 2 * np.cos(xs)
    assert np.max(np.abs(np.abs(S(xs)) ** 2 / f - 1)) <= 1e-3
    # matches |1 + e^{ix}| in modulus
    ref = np.abs(1 + np.exp(1j * xs))
    assert np.max(np.abs(np.abs(S(xs)) - ref)) <= 1e-3


def test_factor_no_upper_half_plane_zeros():
    rng = np.random.default_rng(4)
    zeros = []
    for _ in range(10):
        z = complex(rng.uniform(-3, 3), -rng.uniform(0.2, 2))
        zeros += [(z, 1), (z.conjugate(), 1)]
    S = factor_from_zeros(ZeroSet(tuple(zeros), p=1))
    re, im = np.meshgrid(np.linspace(-10, 10, 41), np.linspace(0.1, 10, 21))
    vals = S((re + 1j * im).ravel())
    assert float(np.min(np.abs(vals))) > 0


def test_lindelof_conjugate_cancellation():
    rep = lindelof_check(ZeroSet(((1j, 1), (-1j, 1))), 1, [0.5, 1.0, 2.0, 4.0])
    assert rep.max_partial_sum == pytest.approx(0.0, abs=1e-15)
    assert rep.density_bounded


def test_lindelof_sin_zeros():
    K = 200
    zeros = tuple((complex(k * math.pi), 1) for k in range(-K, K + 1) if k != 0)
    rep = lindelof_check(ZeroSet(zeros), 1, list(np.linspace(5, K * math.pi, 40)))
    assert rep.max_partial_sum <= 1e-12
    assert rep.density_bounded
    assert rep.density_ratios[-1] == pytest.approx(2 / math.pi, rel=0.02)


def test_lindelof_harmonic_growth():
    grids = {}
    for K in (100, 1000):
        zeros = tuple((1j * n, 1) for n in range(1, K + 1))
        rep = lindelof_check(ZeroSet(zeros), 1, list(np.linspace(1, K, 30)))
        grids[K] = rep.max_partial_sum
    assert grids[1000] > grids[100] + 2.0  # ~ln 10
    assert grids[1000] > 6.5  # harmonic number H_1000


def test_lindelof_validation():
    with pytest.raises(MalformedInput):
        lindelof_check(ZeroSet(()), 0, [1.0])
    with pytest.raises(MalformedInput):
        lindelof_check(ZeroSet(()), 1, [])


def test_log_integrability():
    one = TrigPoly.constant(1.0)
    assert abs(log_integrability(one, 100.0)) <= 1e-9
    e_const = TrigPoly.constant(math.e)
    assert abs(log_integrability(e_const, 1e3) - math.pi) <= 1e-2
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)
    v1 = log_integrability(f, 200.0)
    v2 = log_integrability(f, 400.0)
    assert 0 < v2 < math.pi * math.log(4.0)
    assert abs(v1 - v2) <= 2e-2
    with pytest.raises(MalformedInput):
        log_integrability(f, -1.0)


# -- the zero-product kernel -----------------------------------------------------


def _log_product_direct(zs, mults, p, z):
    """One log per (point, zero), as _log_product did before the far-zero series."""
    total = np.zeros(len(z), dtype=complex)
    if len(zs) == 0:
        return total
    chunk = max(1, 4_000_000 // len(zs))
    for lo in range(0, len(z), chunk):
        pts = z[lo : lo + chunk]
        zeta = pts[:, None] / zs[None, :]
        logs = products._log_primary(zeta, p)
        hit = logs.real.min(axis=1) == -np.inf
        with np.errstate(invalid="ignore"):
            total[lo : lo + chunk] = logs @ mults
        total[lo : lo + chunk][hit] = complex(-np.inf, 0.0)
    return total


def _gamma(k):
    u = 2.0**-53
    return k * u / (1 - k * u)


def _kernel_tolerance(zs, mults, p, z):
    """Per point: the _far_series docstring bound plus both sums' own rounding.

    The near terms are the same numbers on both sides, summed in another
    order; each side's sum is within gamma_(N+8) sum mult (1 + |log E|).
    """
    reach = float(np.max(np.abs(z)))
    far = np.abs(zs) * products._SERIES_RADIUS >= reach
    J = products._SERIES_TERMS
    far_bound = float(mults[far].sum()) * (2.0**-48 / 49 + 2 * _gamma(int(far.sum()) + 8 * J + 8))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.abs(products._log_primary(z[:, None] / zs[None, :], p))
    own = 4 * _gamma(len(zs) + 8) * ((1 + terms) @ mults)
    return far_bound + own


@st.composite
def _kernel_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0, 1]))
    X = draw(st.floats(1e-2, 1e3))
    n_pts = draw(st.integers(1, 300))
    if draw(st.sampled_from(["grid", "halfplane"])) == "grid":
        z = (-X + (2 * X / n_pts) * np.arange(n_pts + 1)).astype(complex)
    else:
        # the halfplane_nonvanishing points: 9 abscissae at heights 0.5 and 2
        xs = np.linspace(-X, X, 9)
        z = np.concatenate([xs + 0.5j, xs + 2j])
    reach = float(np.max(np.abs(z)))
    mode = draw(st.sampled_from(["near", "far", "mixed"]))
    n_zeros = draw(st.integers(0, 120))
    lo, hi = {"near": (0.05, 1.99), "far": (2.0, 60.0), "mixed": (0.05, 60.0)}[mode]
    radii = rng.uniform(lo, hi, n_zeros) * reach
    if mode != "near" and n_zeros:
        radii[0] = 2.0 * reach  # exactly on the far boundary
    zs = radii * np.exp(1j * rng.uniform(-np.pi, np.pi, n_zeros))
    mults = rng.integers(1, 4, n_zeros).astype(float)
    return zs, mults, p, z


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
def test_log_product_matches_direct_sum(case):
    zs, mults, p, z = case
    got = products._log_product(zs, mults, p, z)
    ref = _log_product_direct(zs, mults, p, z)
    ok = np.isfinite(ref.real)
    assert np.all(np.isfinite(got[ok]))
    assert np.all(np.abs(got - ref)[ok] <= _kernel_tolerance(zs, mults, p, z)[ok])


def test_log_product_empty_inputs():
    zs = np.array([1 + 1j, 1 - 1j, 5.0 + 0j])
    mults = np.ones(3)
    for p in (0, 1):
        assert products._log_product(zs, mults, p, np.zeros(0, dtype=complex)).shape == (0,)
        out = products._log_product(np.zeros(0, dtype=complex), np.zeros(0), p, np.array([0.5, 2j]))
        assert np.array_equal(out, np.zeros(2, dtype=complex))
    # every point at the origin: log E(0, p) = 0 for every zero
    assert np.array_equal(products._log_product(zs, mults, 1, np.zeros(4, dtype=complex)), np.zeros(4))


def test_log_product_zero_on_grid_point():
    # the double zeros of 2 + 2cos at -pi and pi are grid points of [-pi, pi];
    # the other 38 are far zeros of that window
    zs = np.array([(2 * k + 1) * math.pi for k in range(-20, 20)], dtype=complex)
    mults = np.full(len(zs), 2.0)
    z = (-math.pi + (math.pi / 512) * np.arange(1025)).astype(complex)
    out = products._log_product(zs, mults, 1, z)
    assert not np.any(np.isnan(out))
    assert out[0] == complex(-np.inf, 0.0) and out[-1] == complex(-np.inf, 0.0)
    assert np.all(np.isfinite(out[1:-1]))


def test_log_product_mpmath_850_pairs():
    # genus-0 pairs x +- iy with |x| ~ 1..850, as the benchmark's zeros sets
    rng = np.random.default_rng(850)
    n = np.arange(1, 851)
    x = (n + rng.uniform(0.0, 1.0, 850)) * rng.choice([-1.0, 1.0], 850)
    y = rng.uniform(0.3, 3.0, 850)
    zs = np.concatenate([x + 1j * y, x - 1j * y])
    mults = np.ones(len(zs))
    z = np.array([-math.pi, -1.3, 0.25, 2.0, math.pi], dtype=complex)
    got = products._log_product(zs, mults, 0, z)
    with mpmath.workdps(40):
        for pt, val in zip(z, got):
            exact = mpmath.fsum(mpmath.log(1 - mpmath.mpc(pt) / mpmath.mpc(w)) for w in zs)
            assert abs(complex(exact) - val) <= 1e-13


# -- conjugate pairing -------------------------------------------------------------


def _ahiezer_split_scan(zero_set):
    """ahiezer_split with the linear partner scan, before the sorted window."""
    real_zeros, lower, upper = [], [], []
    for z, k in zero_set.zeros:
        if abs(z.imag) <= PAIR_TOL * abs(z):
            real_zeros.append((complex(z.real), k))
        elif z.imag < 0:
            lower.append((z, k))
        else:
            upper.append((z, k))
    selected = []
    for z, k in real_zeros:
        if k % 2 != 0:
            raise OddRealMultiplicity(f"real zero {z.real:.6g} has odd multiplicity {k}")
        selected.append((z, k // 2))
    remaining = list(upper)
    for z, k in lower:
        match = None
        for i, (w, kw) in enumerate(remaining):
            if abs(w - z.conjugate()) <= PAIR_TOL * (1 + abs(z)) and kw == k:
                match = i
                break
        if match is None:
            raise MalformedInput(f"zero {z:.6g} has no conjugate partner")
        remaining.pop(match)
        selected.append((z, k))
    if remaining:
        raise MalformedInput(f"{len(remaining)} upper zeros lack conjugate partners")
    gamma = 0.0
    if zero_set.p == 1:
        gamma = -math.fsum(k * (1 / z).imag for z, k in selected if k > 0)
    s_zeros = ZeroSet(
        tuple((z, k) for z, k in selected if k > 0), zero_set.m, zero_set.a, zero_set.b, zero_set.p
    )
    return s_zeros, gamma


def _split_outcome(split, zero_set):
    try:
        s, gamma = split(zero_set)
    except ApspecError as exc:
        return type(exc), str(exc)
    return s, gamma


@st.composite
def _pairing_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = []
    for _ in range(draw(st.integers(0, 12))):
        base = complex(rng.uniform(-5, 5), -rng.uniform(0.1, 5))
        tol = PAIR_TOL * (1 + abs(base))
        # a cluster of near-duplicates within PAIR_TOL, multiplicities 1-3,
        # each with a partner whose offset from the conjugate straddles tol
        for _ in range(int(rng.integers(1, 4))):
            z = base + complex(*rng.uniform(-0.6, 0.6, 2)) * tol
            k = int(rng.integers(1, 4))
            zeros.append((z, k))
            w = z.conjugate() + complex(*rng.uniform(-0.8, 0.8, 2)) * tol
            zeros.append((w, k if rng.uniform() < 0.9 else k % 3 + 1))
    for _ in range(draw(st.integers(0, 3))):
        zeros.append((complex(rng.uniform(-5, 5)), int(rng.integers(1, 3)) * 2))
    defect = draw(st.sampled_from(["none", "none", "missing", "extra", "odd_real"]))
    if defect == "missing" and zeros:
        zeros.pop(int(rng.integers(len(zeros))))
    elif defect == "extra":
        zeros.append((complex(rng.uniform(-5, 5), rng.uniform(0.1, 5)), 1))
    elif defect == "odd_real":
        zeros.append((complex(rng.uniform(-5, 5)), 3))
    order = rng.permutation(len(zeros))
    return ZeroSet(tuple(zeros[i] for i in order), p=draw(st.sampled_from([0, 1])))


@settings(max_examples=200, deadline=None)
@given(_pairing_cases())
def test_ahiezer_split_matches_scan(zero_set):
    assert _split_outcome(ahiezer_split, zero_set) == _split_outcome(_ahiezer_split_scan, zero_set)


def test_ahiezer_split_errors_match_scan():
    a, b = 1.5 - 0.5j, -2.0 - 1.0j
    cases = [
        ZeroSet(((a, 1), (b, 1), (b.conjugate(), 1))),  # missing partner
        ZeroSet(((a, 1), (a.conjugate(), 1), (b.conjugate(), 1), (2j, 1))),  # extra upper zeros
        ZeroSet(((a, 1), (a.conjugate(), 1), (complex(math.pi), 3))),  # odd real multiplicity
        ZeroSet(((a, 1), (a.conjugate(), 2))),  # partner of another multiplicity
    ]
    expected = [
        (MalformedInput, "zero 1.5-0.5j has no conjugate partner"),
        (MalformedInput, "2 upper zeros lack conjugate partners"),
        (OddRealMultiplicity, "real zero 3.14159 has odd multiplicity 3"),
        (MalformedInput, "zero 1.5-0.5j has no conjugate partner"),
    ]
    for zero_set, want in zip(cases, expected):
        assert _split_outcome(ahiezer_split, zero_set) == want
        assert _split_outcome(_ahiezer_split_scan, zero_set) == want


def test_ahiezer_split_takes_earliest_listed_partner():
    # both upper zeros are within PAIR_TOL of conj(z1), only the first of
    # conj(z2): z1 takes the earliest-listed one, so z2 is left without
    tol = PAIR_TOL * 3
    z1 = 2.0 - 1.0j
    z2 = z1 + 1.5 * tol
    w_first, w_second = z1.conjugate() + 0.9 * tol, z1.conjugate() - 0.5 * tol
    broken = ZeroSet(((w_first, 1), (w_second, 1), (z1, 1), (z2, 1)))
    assert _split_outcome(ahiezer_split, broken) == _split_outcome(_ahiezer_split_scan, broken)
    assert _split_outcome(ahiezer_split, broken)[0] is MalformedInput
    swapped = ZeroSet(((w_second, 1), (w_first, 1), (z1, 1), (z2, 1)))
    s, _ = ahiezer_split(swapped)
    assert s.zeros == ((z1, 1), (z2, 1))


@st.composite
def _shared_real_cases(draw):
    # zeros on a few shared real parts (the imaginary axis with both signs
    # of zero among them), each listed several times, some near-duplicates
    # within PAIR_TOL on the imaginary part
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reals = [0.0, -0.0, 1.5, -2.0]
    zeros = []
    for _ in range(draw(st.integers(0, 25))):
        z = complex(reals[int(rng.integers(len(reals)))], -float(rng.integers(1, 6)))
        tol = PAIR_TOL * (1 + abs(z))
        z += 1j * float(rng.choice([0.0, 0.0, 0.7, -0.7])) * tol
        k = int(rng.integers(1, 3))
        w = z.conjugate() + 1j * float(rng.choice([0.0, 0.0, 0.5, 1.2])) * tol
        zeros += [(z, k), (w, k)] * int(rng.integers(1, 4))
    defect = draw(st.sampled_from(["none", "none", "missing", "extra"]))
    if defect == "missing" and zeros:
        zeros.pop(int(rng.integers(len(zeros))))
    elif defect == "extra":
        zeros.append((complex(reals[int(rng.integers(len(reals)))], float(rng.integers(1, 6))), 1))
    order = rng.permutation(len(zeros))
    return ZeroSet(tuple(zeros[i] for i in order), p=draw(st.sampled_from([0, 1])))


@settings(max_examples=200, deadline=None)
@given(_shared_real_cases())
def test_ahiezer_split_shared_real_parts_match_scan(zero_set):
    assert _split_outcome(ahiezer_split, zero_set) == _split_outcome(_ahiezer_split_scan, zero_set)


@pytest.mark.parametrize(
    "zeros",
    [
        # 2000 pairs +-ik on the imaginary axis: one shared real part
        tuple((complex(0.0, s * k), 1) for k in range(1, 2001) for s in (1, -1)),
        # one conjugate pair listed 2000 times
        ((1 + 1j, 1),) * 2000 + ((1 - 1j, 1),) * 2000,
    ],
    ids=["imaginary_axis", "repeated"],
)
def test_ahiezer_split_shared_real_part_is_not_quadratic(zeros):
    # the window scan took 0.45 s on the imaginary axis set and 0.59 s on
    # the repeated pair (2-vCPU VM); the box search takes about 0.015 s
    zero_set = ZeroSet(zeros, p=1)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        split = ahiezer_split(zero_set)
        best = min(best, time.perf_counter() - start)
    assert split == _ahiezer_split_scan(zero_set)
    assert best < 0.09
