import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspec.certify import (
    NormBracket,
    certify_lower_bound,
    integer_lattice_sup,
    sup_norm_certified,
)
from apspec.errors import NonConvergence
from apspec.frequency import ExactFrequency
from apspec.trigpoly import ProductPoly, TrigPoly, modulus_squared, ray_partition

EF = ExactFrequency


def sin_poly():
    return TrigPoly([(EF(1), -0.5j), (EF(-1), 0.5j)])


def test_integer_lattice_sup_sin():
    b = integer_lattice_sup(np.array([1, -1]), np.array([-0.5j, 0.5j]))
    assert b.lower <= 1.0 <= b.upper
    assert b.upper < 1.01
    assert b.lower > 0.99


def test_integer_lattice_sup_tightens_with_gap():
    b = integer_lattice_sup(np.array([1, -1]), np.array([-0.5j, 0.5j]), rel_gap=1e-5)
    assert abs(b.upper - 1.0) < 1e-4
    assert abs(b.lower - 1.0) < 1e-4


def test_integer_lattice_sup_constant():
    b = integer_lattice_sup(np.array([0]), np.array([3 - 4j]))
    assert b.lower == 5.0
    assert b.upper == pytest.approx(5.0, rel=1e-11)


def test_integer_lattice_sup_empty():
    b = integer_lattice_sup(np.array([], dtype=np.int64), np.array([], dtype=complex))
    assert b == NormBracket(0.0, 0.0)


def test_integer_lattice_sup_nonconvergence():
    with pytest.raises(NonConvergence):
        integer_lattice_sup(np.array([10**9]), np.array([1.0 + 0j]), rel_gap=0.999999)


def test_integer_lattice_sup_subnormal():
    # the smallest subnormal must not be rounded away by the FFT scaling
    b = integer_lattice_sup(np.array([1]), np.array([5e-324 + 0j]))
    assert b.upper >= 5e-324
    assert sup_norm_certified(TrigPoly([(EF(1), 5e-324)])).upper >= 5e-324


def test_ray_partition_splits_incommensurables():
    f = TrigPoly.from_cos([(1, 2.0), (EF.sqrt_of(2), 1.0)], constant=5.0)
    const, blocks = ray_partition(f)
    assert const == 5.0
    assert len(blocks) == 2
    bases = sorted(float(b.base) for b in blocks)
    assert bases == pytest.approx([1.0, math.sqrt(2)])


def test_ray_partition_integer_keys_gcd():
    # frequencies 1/2 and 3/2 share the ray; base 1/2, keys (1, 3)
    f = TrigPoly([(EF(1) / 2, 1.0), (EF(3) / 2, 2.0)])
    const, blocks = ray_partition(f)
    assert const == 0
    assert len(blocks) == 1
    b = blocks[0]
    assert b.base == EF(1) / 2
    assert b.keys.tolist() == [1, 3]
    # negative-direction ray still gets a positive base
    g = TrigPoly([(EF(-2), 1.0), (EF(-4), 2.0)])
    _, blocks = ray_partition(g)
    assert blocks[0].base == EF(2)
    assert blocks[0].keys.tolist() == [-2, -1]


def test_sup_norm_certified_periodic():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)  # 2 + 2cos, sup = 4
    b = sup_norm_certified(f)
    assert b.lower <= 4.0 * (1 + 1e-9)
    assert b.upper >= 4.0
    assert b.lower > 3.99
    assert b.upper < 4.05


def test_sup_norm_certified_sin_tight():
    b = sup_norm_certified(sin_poly(), rel_gap=1e-6)
    assert abs(b.lower - 1.0) < 1e-5
    assert abs(b.upper - 1.0) < 1e-5


def test_sup_norm_certified_incommensurable():
    # 2 + cos x + cos(sqrt(2) x): sup over R equals 4, approached not attained
    f = TrigPoly.from_cos([(1, 1.0), (EF.sqrt_of(2), 1.0)], constant=2.0)
    b = sup_norm_certified(f)
    assert b.lower <= b.upper
    assert 3.5 < b.lower <= 4.0 + 1e-9
    assert 4.0 <= b.upper < 4.05
    # bracket must contain a dense independent scan
    xs = np.linspace(-64 * math.pi, 64 * math.pi, 400001)
    dense = float(np.max(np.abs(f.evaluate(xs))))
    assert b.lower <= dense * (1 + 1e-12) and dense <= b.upper


def test_sup_norm_certified_product_form():
    h = TrigPoly([(EF(0), 1.0), (EF(1), 1.0)])
    p = ProductPoly(h)
    b = sup_norm_certified(p)
    # sup |1 + e^{ix}|^2 = 4
    assert b.lower <= 4.0 <= b.upper
    assert b.upper < 4.3


def test_sup_norm_zero():
    assert sup_norm_certified(TrigPoly()) == NormBracket(0.0, 0.0)


def test_certify_lower_bound_periodic():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)  # min 0
    assert certify_lower_bound(f, -0.1)
    assert not certify_lower_bound(f, 0.01)
    g = TrigPoly.from_cos([(1, 1.0)], constant=3.0)  # min 2
    assert certify_lower_bound(g, 1.9)
    assert not certify_lower_bound(g, 2.5)


def test_certify_lower_bound_exact_boundary():
    g = TrigPoly.from_cos([(1, 1.0)], constant=3.0)
    # margin zero cannot be certified by a strict grid certificate
    assert not certify_lower_bound(g, 2.0)


def test_certify_lower_bound_constant():
    assert certify_lower_bound(TrigPoly.constant(2.0), 1.5)
    assert not certify_lower_bound(TrigPoly.constant(2.0), 2.5)


def test_certify_lower_bound_rejects_complex():
    f = TrigPoly([(EF(1), 1.0)])
    with pytest.raises(ValueError):
        certify_lower_bound(f, 0.0)


def test_certify_lower_bound_modulus_squared():
    h = TrigPoly([(EF(0), 2.0), (EF(1), 1.0)])
    f = modulus_squared(h)  # |2 + e^{ix}|^2, min 1
    assert certify_lower_bound(f, 0.9)
    assert not certify_lower_bound(f, 1.2)


@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.floats(-2, 2), st.floats(-2, 2)),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=40, deadline=None)
def test_bracket_contains_scan(data):
    f = TrigPoly([(EF(k), complex(a, b)) for k, a, b in data])
    if f.is_zero():
        return
    b = sup_norm_certified(f)
    assert b.lower <= b.upper
    xs = np.linspace(0, 2 * math.pi, 20001)
    dense = float(np.max(np.abs(f.evaluate(xs))))
    assert dense <= b.upper * (1 + 1e-10)
    assert b.lower >= dense - 1e-6 * max(1.0, dense) or b.lower <= dense
