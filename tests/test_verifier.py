"""Rainbow detection, order dichotomy, and the pentagon audit ledger."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rainbowpack import (AuditError, ColoredPacking, GuardError, OrderClass,
                         SimpleGraph, behrend_q_free, c5_blowup_packing,
                         classify_order, exists_homomorphism, find_rainbow,
                         k5_double_pentagon, kt_packing, pentagon_audit)
from rainbowpack.solver import enumerate_copies

K3 = SimpleGraph.complete(3)
C5 = SimpleGraph.cycle(5)


def naive_rainbow_exists(packing: ColoredPacking, forbidden: SimpleGraph) -> bool:
    """Check every injective vertex map, the slow and obvious way."""
    col = packing.edge_color
    for verts in itertools.permutations(range(packing.n), forbidden.n):
        used = set()
        for (i, j) in forbidden.edges:
            e = (verts[i], verts[j]) if verts[i] < verts[j] else (verts[j], verts[i])
            c = col.get(e)
            if c is None or c in used:
                break
            used.add(c)
        else:
            return True
    return False


def test_no_rainbow_in_two_color_packing():
    assert find_rainbow(k5_double_pentagon(), K3) is None


def test_three_triangles_make_a_rainbow():
    p = ColoredPacking(6, K3, [(0, 1, 2), (0, 3, 4), (1, 3, 5)])
    w = find_rainbow(p, K3)
    assert w is not None
    assert w.vertices == (0, 1, 3)
    assert w.colors() == (0, 1, 2)
    w.check(p, K3)  # witness must re-verify against the packing


def test_witness_check_rejects_tampering():
    p = ColoredPacking(6, K3, [(0, 1, 2), (0, 3, 4), (1, 3, 5)])
    w = find_rainbow(p, K3)
    bad = type(w)(w.vertices, tuple(
        (ge, he, c + 1) for (ge, he, c) in w.edges))
    with pytest.raises(AuditError):
        bad.check(p, K3)


def test_clique_packing_stays_clean():
    p = kt_packing(20, 3, behrend_q_free(20, 1))
    assert find_rainbow(p, K3) is None


def test_find_rainbow_guards():
    p = k5_double_pentagon()
    with pytest.raises(GuardError, match="> 8 vertices"):
        find_rainbow(p, SimpleGraph.cycle(9))
    with pytest.raises(ValueError, match="connected"):
        find_rainbow(p, SimpleGraph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="at least one edge"):
        find_rainbow(p, SimpleGraph.empty(3))


def _random_packing(rng: random.Random, n: int, pattern: SimpleGraph) -> ColoredPacking:
    """Greedy edge-disjoint packing over a shuffled copy list; may well
    contain rainbow subgraphs, which is the point."""
    copies = list(enumerate_copies(n, pattern))
    rng.shuffle(copies)
    used = set()
    chosen = []
    for emb in copies:
        edges = {tuple(sorted((emb[u], emb[v]))) for (u, v) in pattern.edges}
        if edges & used:
            continue
        used |= edges
        chosen.append(emb)
        if len(chosen) >= rng.randint(1, 6):
            break
    return ColoredPacking(n, pattern, chosen)


def test_find_rainbow_matches_naive_oracle(seed=83190):
    rng = random.Random(seed)
    patterns = [K3, SimpleGraph.path(3), SimpleGraph.cycle(4), C5]
    forbidden_list = [K3, SimpleGraph.path(3), SimpleGraph.cycle(4), C5,
                      SimpleGraph.complete(4)]
    for trial in range(60):
        pattern = rng.choice(patterns)
        n = rng.randint(max(pattern.n, 4), 7)
        p = _random_packing(rng, n, pattern)
        forbidden = rng.choice(forbidden_list)
        if forbidden.n > n:
            continue
        w = find_rainbow(p, forbidden)
        assert (w is not None) == naive_rainbow_exists(p, forbidden), \
            (trial, p.copies)
        if w is not None:
            w.check(p, forbidden)


def test_homomorphism_basics():
    assert exists_homomorphism(K3, K3)
    assert not exists_homomorphism(K3, C5)
    assert exists_homomorphism(C5, K3)
    assert exists_homomorphism(SimpleGraph.cycle(7), C5)
    assert not exists_homomorphism(C5, SimpleGraph.cycle(7))
    assert exists_homomorphism(SimpleGraph.cycle(6), SimpleGraph.complete(2))
    assert exists_homomorphism(SimpleGraph.complete(2), K3)
    assert not exists_homomorphism(SimpleGraph.complete(4), K3)
    assert exists_homomorphism(SimpleGraph.empty(3), SimpleGraph.empty(1))
    assert not exists_homomorphism(K3, SimpleGraph.empty(2))


@st.composite
def _graph(draw, max_n: int) -> SimpleGraph:
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))


@settings(max_examples=150, deadline=None)
@given(g=_graph(5), f=_graph(5))
def test_homomorphism_matches_brute_force(g, f):
    brute = any(all(tuple(sorted((m[u], m[v]))) in f.edges for (u, v) in g.edges)
                for m in itertools.product(range(f.n), repeat=g.n))
    assert exists_homomorphism(g, f) == brute


def test_homomorphism_guard():
    with pytest.raises(GuardError):
        exists_homomorphism(SimpleGraph.empty(13), K3)


def test_classify_order_table():
    assert classify_order(C5, K3) is OrderClass.QUADRATIC_THETA
    assert classify_order(SimpleGraph.complete(2), K3) is OrderClass.QUADRATIC_THETA
    for t in (3, 4, 5):
        assert classify_order(SimpleGraph.complete(t), K3) \
            is OrderClass.SUBQUADRATIC_LITTLE_O
    for t in (3, 4, 5):
        for r in range(3, t + 1):
            assert classify_order(SimpleGraph.complete(t), SimpleGraph.complete(r)) \
                is OrderClass.SUBQUADRATIC_LITTLE_O
    assert OrderClass.QUADRATIC_THETA.value == "QuadraticTheta"
    assert OrderClass.SUBQUADRATIC_LITTLE_O.value == "SubquadraticLittleO"


def test_audit_blowup_numbers():
    a = pentagon_audit(c5_blowup_packing(3))
    assert a.n == 15 and a.t == 9
    assert a.double_sum == 270 == a.half_sum_squares
    assert a.qm_am_bound == Fraction(270)
    assert a.per_copy == ((30, 40),) * 9
    assert a.nstar_total == 0  # the host is triangle-free
    assert a.slack() == [10] * 9


def test_audit_double_pentagon_equalities():
    a = pentagon_audit(k5_double_pentagon())
    assert a.double_sum == 40 == a.half_sum_squares
    assert a.qm_am_bound == Fraction(40)  # 50 * 4 / 5, exactly tight
    assert a.per_copy == ((20, 25), (20, 25))
    assert a.nstar_total == 10 == 5 * a.t
    d = a.to_json_dict()
    assert d["qmAmBound"] == "40/1"
    assert d["doubleSum"] == 40


def test_audit_empty_packing():
    a = pentagon_audit(ColoredPacking(4, C5, []))
    assert a.t == 0 and a.double_sum == 0 and a.qm_am_bound == 0
    assert a.per_copy == ()


def test_audit_rejects_wrong_pattern():
    with pytest.raises(AuditError, match="5-cycle"):
        pentagon_audit(ColoredPacking(3, K3, [(0, 1, 2)]))


def test_audit_rejects_rainbow_triangle():
    copies = [(0, 1, 2, 3, 4), (1, 3, 5, 6, 7), (0, 3, 8, 9, 5)]
    p = ColoredPacking(10, C5, copies)
    assert find_rainbow(p, K3) is not None  # triangle 0-1-3 spans three copies
    with pytest.raises(AuditError, match="rainbow triangle"):
        pentagon_audit(p)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(5, 9), data=st.data())
def test_audit_reports_rainbow_triangle_exactly_when_one_exists(n, data):
    # greedy edge-disjoint packing of random 5-tuples, with no rainbow filter
    tuples = data.draw(st.lists(
        st.permutations(range(n)).map(lambda p: tuple(p[:5])), max_size=12))
    used = set()
    chosen = []
    for emb in tuples:
        edges = {tuple(sorted((emb[u], emb[v]))) for (u, v) in C5.edges}
        if not edges & used:
            used |= edges
            chosen.append(emb)
    p = ColoredPacking(n, C5, chosen)
    if find_rainbow(p, K3) is None:
        pentagon_audit(p)
    else:
        with pytest.raises(AuditError, match="rainbow triangle"):
            pentagon_audit(p)


def test_audit_recomputation_independent(seed=40108):
    # recount both sides of the double-sum identity from the raw copies
    rng = random.Random(seed)
    for m in (3, 5):
        p = c5_blowup_packing(m)
        a = pentagon_audit(p)
        deg = {}
        for (u, v) in p.edge_color:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        lhs = sum(deg[v] for copy in p.copies for v in copy)
        rhs2 = sum(d * d for d in deg.values())
        assert a.double_sum == lhs
        assert 2 * a.half_sum_squares == rhs2
    _ = rng  # reserved for future randomized variants


def test_audit_random_greedy_pentagon_packings(seed=5257):
    rng = random.Random(seed)
    checked = 0
    for _ in range(40):
        n = rng.randint(5, 10)
        copies = list(enumerate_copies(n, C5))
        rng.shuffle(copies)
        used = set()
        chosen = []
        for emb in copies:
            edges = {tuple(sorted((emb[u], emb[v]))) for (u, v) in C5.edges}
            if edges & used:
                continue
            trial = ColoredPacking(n, C5, chosen + [emb])
            if find_rainbow(trial, K3) is None:
                used |= edges
                chosen.append(emb)
        p = ColoredPacking(n, C5, chosen)
        a = pentagon_audit(p)
        assert a.double_sum == a.half_sum_squares
        assert all(lhs <= rhs for (lhs, rhs) in a.per_copy)
        assert a.nstar_total <= 5 * a.t
        assert 50 * a.t * a.t <= (2 * n + 15) * a.t * n  # chained consequence
        checked += 1
    assert checked == 40
