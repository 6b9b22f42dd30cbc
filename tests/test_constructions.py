"""Generators: graded clique packings, pentagon decompositions, blow-up hosts."""

import dataclasses
import random
from fractions import Fraction

import pytest

from rainbowpack import (BlowupSpec, ColoredPacking, GuardError, PackingError,
                         QFreeSet, SimpleGraph, UnbalancedBlowupShape, WeightTriple,
                         behrend_q_free, blow_up, c5_blowup_packing,
                         find_rainbow, k5_double_pentagon, kt_packing,
                         perfect_decomposition_check, solve_abg,
                         unbalanced_blowup)
from rainbowpack import constructions

K3 = SimpleGraph.complete(3)


def test_kt_single_copy():
    p = kt_packing(1, 3, QFreeSet(1, 1, (1,)))
    assert p.n == 6
    assert len(p) == 1
    # class i holds slots 1..i; the copy sits at slot 1+(i-1) of class i
    assert p.copies[0] == (0, 2, 5)


def test_kt_small_instance_rainbow_free():
    a = QFreeSet(1, 5, (1, 2, 4, 5))
    p = kt_packing(5, 3, a)
    assert p.n == 30
    assert len(p) == 20
    assert find_rainbow(p, K3) is None


def test_kt_copy_count_and_ground_size():
    for t in (3, 4, 5):
        for n in (10, 25):
            a = behrend_q_free(n, t - 2)
            p = kt_packing(n, t, a)
            assert len(p) == n * len(a)
            assert p.n == t * (t + 1) * n // 2


def test_kt_rejects_bad_inputs():
    a = QFreeSet(1, 5, (1, 2, 4, 5))
    with pytest.raises(ValueError, match="t must be"):
        kt_packing(5, 2, a)
    with pytest.raises(ValueError, match="limited-free"):
        kt_packing(5, 4, a)  # t=4 needs q >= 2
    with pytest.raises(ValueError, match="beyond n"):
        kt_packing(3, 3, a)  # elements reach 5 > 3
    with pytest.raises(ValueError, match="n must be"):
        kt_packing(0, 3, QFreeSet(1, 1, (1,)))


def test_kt_random_instances_pass_verifier(seed=6020):
    rng = random.Random(seed)
    for _ in range(8):
        t = rng.choice((3, 4, 5))
        n = rng.randint(1, 60 * 2 // (t * (t + 1)))  # ground set stays <= 60
        a = behrend_q_free(n, t - 2)
        p = kt_packing(n, t, a)
        assert find_rainbow(p, K3) is None


def _kt_rows(n: int, t: int, a: QFreeSet) -> list[tuple[int, ...]]:
    """kt_packing's copies one row at a time: copy (start, diff) takes
    vertex offset(i + 1) - 1 + start + i*diff of class i + 1."""
    return [tuple(n * i * (i + 1) // 2 - 1 + start + i * diff for i in range(t))
            for start in range(1, n + 1) for diff in a.elements]


def _c5_rows(m: int) -> list[tuple[int, ...]]:
    """c5_blowup_packing's copies one row at a time: copy (a, d) takes
    slot a + j*d mod m of class j."""
    return [tuple(j * m + (a + j * d) % m for j in range(5))
            for a in range(m) for d in range(m)]


def test_column_builds_match_the_row_formulas():
    for t in (3, 4, 5):
        for n in (1, 2, 7, 30, 101):
            a = behrend_q_free(n, t - 2)
            assert list(kt_packing(n, t, a).copies) == _kt_rows(n, t, a), (n, t)
    assert list(kt_packing(6, 3, QFreeSet(1, 6, ())).copies) == []
    for m in (1, 3, 5, 9, 15, 31):
        assert list(c5_blowup_packing(m).copies) == _c5_rows(m), m


def test_c5_blowup_identity():
    p = c5_blowup_packing(1)
    assert p.copies == ((0, 1, 2, 3, 4),)
    perfect_decomposition_check(p, SimpleGraph.cycle(5))


def test_c5_blowup_rejects_even():
    with pytest.raises(ValueError, match="invertible"):
        c5_blowup_packing(4)
    with pytest.raises(ValueError):
        c5_blowup_packing(0)


def test_c5_blowup_perfect_decomposition():
    for m in (1, 3, 5, 7, 9, 11, 13, 15):
        p = c5_blowup_packing(m)
        assert len(p) == m * m
        host = blow_up(BlowupSpec(SimpleGraph.cycle(5), (m,) * 5))
        perfect_decomposition_check(p, host)
        assert find_rainbow(p, K3) is None


def test_c5_blowup_m5_copy_count_is_square_of_fifth():
    p = c5_blowup_packing(5)
    assert p.n == 25
    assert len(p) == (p.n // 5) ** 2 == 25


def test_perfect_decomposition_check_reports_gaps():
    p = k5_double_pentagon()
    smaller = ColoredPacking(5, p.pattern, p.copies[:1])
    with pytest.raises(PackingError, match="missing"):
        perfect_decomposition_check(smaller, SimpleGraph.complete(5))
    with pytest.raises(PackingError, match="extra"):
        perfect_decomposition_check(p, SimpleGraph.cycle(5))


def test_k5_double_pentagon():
    p = k5_double_pentagon()
    assert p.copies == ((0, 1, 2, 3, 4), (0, 2, 4, 1, 3))
    perfect_decomposition_check(p, SimpleGraph.complete(5))
    assert find_rainbow(p, K3) is None  # two colors cannot make three


def test_deleting_a_copy_preserves_validity(seed=2310):
    rng = random.Random(seed)
    packs = [c5_blowup_packing(5), k5_double_pentagon(),
             kt_packing(6, 3, behrend_q_free(6, 1))]
    for p in packs:
        drop = rng.randrange(len(p))
        rest = [c for i, c in enumerate(p.copies) if i != drop]
        smaller = ColoredPacking(p.n, p.pattern, rest)
        assert len(smaller) == len(p) - 1
        assert find_rainbow(smaller, K3) is None  # freeness is downward closed


def test_shape_invariant_is_exact():
    UnbalancedBlowupShape(Fraction(1, 4), Fraction(1, 5), Fraction(1, 10))
    with pytest.raises(ValueError, match="expected 1"):
        UnbalancedBlowupShape(Fraction(1, 4), Fraction(1, 4), Fraction(1, 10))
    with pytest.raises(ValueError, match="must be a Fraction"):
        UnbalancedBlowupShape(0.25, 0.2, 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        UnbalancedBlowupShape(Fraction(3, 4), Fraction(-1, 4), Fraction(0))


def test_shape_class_sizes_rounding():
    s = UnbalancedBlowupShape(Fraction(1, 4), Fraction(1, 5), Fraction(1, 10), 21)
    # alpha*21 = 5.25 -> 5, beta*21 = 4.2 -> 4, C takes 21 - 10 - 8 = 3
    assert s.class_sizes() == (5, 5, 4, 4, 3)
    assert sum(s.class_sizes()) == 21

    tiny = UnbalancedBlowupShape(Fraction(1, 2), Fraction(0), Fraction(0), 3)
    with pytest.raises(ValueError, match="exceed"):
        tiny.class_sizes()


def test_unbalanced_balanced_point_is_pentagon_blowup():
    s = UnbalancedBlowupShape(Fraction(1, 5), Fraction(1, 5), Fraction(1, 5), 25)
    g = unbalanced_blowup(s)
    assert g == blow_up(BlowupSpec(SimpleGraph.cycle(5), (5,) * 5))
    assert g.edge_count() == 125 == _five_class_edge_count(s)


def test_unbalanced_degenerate_is_complete_bipartite():
    s = UnbalancedBlowupShape(Fraction(1, 2), Fraction(0), Fraction(0), 10)
    g = unbalanced_blowup(s)
    assert g.n == 10 and g.edge_count() == 25
    a1, a2 = set(range(5)), set(range(5, 10))
    assert all((min(u, v), max(u, v)) in g.edges for u in a1 for v in a2)


def _five_class_edge_count(shape: UnbalancedBlowupShape) -> int:
    """Edge count of unbalanced_blowup from the class sizes alone."""
    a1, a2, b1, b2, c = shape.class_sizes()
    return a1 * a2 + a2 * b2 + b2 * c + c * b1 + b1 * a1


def _has_triangle(g: SimpleGraph) -> bool:
    adj = g.adjacency()
    return any(adj[u] & adj[v] for (u, v) in g.edges)


def test_unbalanced_blowup_triangle_free(seed=7458):
    rng = random.Random(seed)
    for _ in range(12):
        a = Fraction(rng.randint(0, 25), 100)
        b = Fraction(rng.randint(0, (100 - 200 * a.numerator // a.denominator
                                      if a else 100) // 2), 100)
        if 2 * a + 2 * b > 1:
            continue
        g_frac = 1 - 2 * a - 2 * b
        shape = UnbalancedBlowupShape(a, b, g_frac, rng.randint(5, 60))
        try:
            g = unbalanced_blowup(shape)
        except ValueError:
            continue  # rounding pushed C below zero at tiny n
        assert not _has_triangle(g)
        assert g.edge_count() == _five_class_edge_count(shape)


def test_unbalanced_density_tracks_prediction():
    shape = dataclasses.replace(solve_abg(WeightTriple(3, 0, 1, 1)), n=1000)
    g = unbalanced_blowup(shape)
    assert abs(g.edge_count() / 1000**2 - 0.2016) < 2e-3


def test_construction_size_guard_is_exact(monkeypatch):
    a = behrend_q_free(20, 1)
    monkeypatch.setattr(constructions, "_CONSTRUCTION_EDGE_LIMIT", 3 * 20 * len(a))
    assert len(kt_packing(20, 3, a)) == 20 * len(a)
    assert len(c5_blowup_packing(9)) == 81  # 405 edges
    with pytest.raises(GuardError, match="construction limit"):
        kt_packing(21, 3, a)
    with pytest.raises(GuardError, match="construction limit"):
        kt_packing(20, 4, behrend_q_free(20, 2))
    with pytest.raises(GuardError, match="construction limit"):
        c5_blowup_packing(11)  # 605 edges
