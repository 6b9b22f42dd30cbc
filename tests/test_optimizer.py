"""Weight triples, class ratios, exact densities, and the grid optimizer."""

import math
from fractions import Fraction

import pytest

from rainbowpack import (WeightTriple, c5_decomposition_coeff, class_ratios,
                         density, maximize_density, reference_triple,
                         solve_abg, upper_bound_coeff)

F = Fraction


def test_weight_triple_validation():
    with pytest.raises(ValueError, match="k must be >= 2"):
        WeightTriple(1, 1, 1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        WeightTriple(3, 0, -1, 1)
    with pytest.raises(ValueError, match="not all be zero"):
        WeightTriple(3, 0, 0, 0)
    with pytest.raises(ValueError, match="unsupported type"):
        WeightTriple(3, "1", 0, 0)
    assert WeightTriple(3, 0.5, F(1, 2), 1).exact() == (F(1, 2), F(1, 2), F(1))


def test_class_ratios_examples():
    assert class_ratios(WeightTriple(3, 0, 1, 1)) == (F(3, 4), F(2, 3))
    assert class_ratios(WeightTriple(2, 1, 1, 1)) == (F(1), F(1))
    for k in (2, 3, 5, 9):
        assert class_ratios(WeightTriple(k, 0, 0, 1)) == (F(1, 2 * k - 3), F(1))


def test_solve_abg_exact():
    shape = solve_abg(WeightTriple(3, 0, 1, 1))
    assert (shape.alpha, shape.beta, shape.gamma) == (F(6, 25), F(9, 50), F(4, 25))
    assert 2 * shape.alpha + 2 * shape.beta + shape.gamma == 1


def test_solve_abg_balanced_at_k2():
    shape = solve_abg(WeightTriple(2, 1, 1, 1))
    assert shape.alpha == shape.beta == shape.gamma == F(1, 5)


def test_density_closed_form_values():
    d = density(WeightTriple(3, 0, 1, 1))
    assert d == 126 / 625 == 0.2016
    assert density(WeightTriple(2, 1, 1, 1)) == 0.2


def test_density_scale_invariance():
    for k in (2, 3, 4, 7):
        base = density(WeightTriple(k, F(1, 3), F(1, 2), F(1, 6)))
        assert density(WeightTriple(k, 2, 3, 1)) == base
        assert density(WeightTriple(k, F(2, 7), F(3, 7), F(1, 7))) == base


def test_density_dual_route_is_always_consistent():
    # every call recomputes via solve_abg and compares exactly
    for k in range(2, 12):
        for lam in range(3):
            for mu in range(3):
                for delta in range(3):
                    if lam == mu == delta == 0:
                        continue
                    d = density(WeightTriple(k, lam, mu, delta))
                    assert 0.0 < d < 0.25


def test_reference_triple():
    w = reference_triple(3)
    assert (w.lam, w.mu, w.delta) == (F(0), F(1), F(1))  # 4k+15 = 27 = 3^3
    assert density(w) == 0.2016
    w4 = reference_triple(4)
    assert isinstance(w4.delta, float)  # 31 is not a cube
    assert w4.delta == pytest.approx((31 ** (1 / 3) - 1) / 2)
    with pytest.raises(ValueError):
        reference_triple(2)


def test_reference_density_grows_toward_quarter():
    prev = 0.0
    for k in range(3, 60):
        d = density(reference_triple(k))
        assert prev < d < 0.25
        prev = d


def test_maximize_density_k3_matches_radical_constant():
    # closed-form optimum for k=3, derived by eliminating one simplex
    # coordinate and solving the resulting cubic critical-point equation
    s = (5865445 + 170859 * math.sqrt(2022)) ** (1.0 / 3.0)
    exact_opt = -(7 * (-350 - 29093 / s + s)) / 8112
    w, d = maximize_density(3)
    assert abs(d - exact_opt) <= 1e-9
    assert w.lam == 0.0  # optimum sits on the lam = 0 face
    assert d == pytest.approx(0.20161490938216667, abs=1e-12)


def test_maximize_density_k2_caps_at_fifth():
    _, d = maximize_density(2)
    assert d <= 0.2 + 1e-12
    assert d >= 0.2 - 1e-9


def test_maximize_density_beats_reference_and_is_monotone():
    prev = 0.0
    for k in range(3, 21):
        _, d = maximize_density(k)
        assert d >= density(reference_triple(k)) - 1e-9
        assert d >= prev - 1e-12
        assert d < 0.25
        prev = d
    with pytest.raises(ValueError):
        maximize_density(1)


def test_maximize_density_is_deterministic():
    a = maximize_density(5)
    b = maximize_density(5)
    assert a[1] == b[1] and a[0].exact() == b[0].exact()


def test_upper_bound_coeff():
    assert upper_bound_coeff(2) == F(1, 25)
    assert upper_bound_coeff(3) == F(3, 98)
    assert upper_bound_coeff(4) == F(2, 81)
    # k * coeff(k) converges to 1/8 from below
    assert abs(float(10 ** 6 * upper_bound_coeff(10 ** 6)) - 0.125) < 1e-6
    with pytest.raises(ValueError):
        upper_bound_coeff(1)


def test_c5_decomposition_coeff():
    assert c5_decomposition_coeff(2) == F(1, 25)
    assert c5_decomposition_coeff(3) == F(1, 35)
    # construction never exceeds the counting bound, tight only at k=2
    assert c5_decomposition_coeff(2) == upper_bound_coeff(2)
    for k in range(3, 40):
        assert c5_decomposition_coeff(k) < upper_bound_coeff(k)
