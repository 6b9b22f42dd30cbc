"""Acceptance gate: ten end-to-end checks, one test and one verdict line each.

Run with -s (or -v) to see the per-criterion PASS lines.  Every check
re-derives its expected value independently of the code under test where
an oracle is feasible; tolerances are stated inline.
"""

import math
import random
import time
from fractions import Fraction

from rainbowpack import (OrderClass, SearchConfig, SimpleGraph, blow_up,
                         BlowupSpec, behrend_q_free, c5_blowup_packing,
                         classify_order, density, enumerate_copies,
                         find_rainbow, k5_double_pentagon, kt_packing,
                         lp_fractional_packing, max_q_free_bruteforce,
                         max_rainbow_free_packing, maximize_density,
                         oracle_max_packing, pentagon_audit,
                         perfect_decomposition_check, reference_triple,
                         upper_bound_coeff, verify_q_free)

K2 = SimpleGraph.complete(2)
K3 = SimpleGraph.complete(3)
K4 = SimpleGraph.complete(4)
K5 = SimpleGraph.complete(5)
C5 = SimpleGraph.cycle(5)


def test_criterion_01_clique_packing_family():
    worst = 0.0
    for t in (3, 4, 5):
        for n in (10, 50, 200):
            t0 = time.perf_counter()
            elems = behrend_q_free(n, t - 2)
            packing = kt_packing(n, t, elems)
            assert len(packing) == n * len(elems), (t, n)
            assert find_rainbow(packing, K3) is None, (t, n)
            elapsed = time.perf_counter() - t0
            assert elapsed < 60.0, (t, n, elapsed)
            worst = max(worst, elapsed)
    print(f"\ncriterion 1: PASS — 9 clique-packing instances valid, "
          f"rainbow-triangle-free, worst build+scan {worst:.2f}s (< 60s)")


def test_criterion_02_pentagon_blowup_family():
    for m in (1, 3, 5, 7, 9, 11, 13, 15):
        packing = c5_blowup_packing(m)
        host = blow_up(BlowupSpec(C5, (m,) * 5))
        perfect_decomposition_check(packing, host)
        assert len(packing) == m * m, m
        assert find_rainbow(packing, K3) is None, m
    assert len(c5_blowup_packing(5)) == 25 == (25 / 5) ** 2
    print("criterion 2: PASS — perfect rainbow-free decompositions for all "
          "odd m <= 15; m=5 gives (n/5)^2 = 25 copies")


def test_criterion_03_five_vertex_linear_term():
    res = max_rainbow_free_packing(SearchConfig(n=5, pattern=C5, forbidden=K3))
    assert res.value == 2 and res.optimal
    assert res.value > (5 / 5) ** 2
    oval, opack = oracle_max_packing(5, C5, K3)
    assert oval == res.value and opack.copies == res.packing.copies
    print("criterion 3: PASS — exact solver gives 2 > (n/5)^2 = 1 on five "
          "vertices, oracle agrees with identical witness")


def _audit_invariants(packing):
    audit = pentagon_audit(packing)
    assert audit.double_sum == audit.half_sum_squares
    assert audit.qm_am_bound <= audit.double_sum
    assert all(lhs <= rhs for (lhs, rhs) in audit.per_copy)
    assert audit.nstar_total <= 5 * audit.t
    assert audit.qm_am_bound <= (2 * audit.n + 15) * audit.t
    return audit


def test_criterion_04_pentagon_inequality_audit():
    for m in (1, 3, 5, 7, 9, 11, 13, 15):
        _audit_invariants(c5_blowup_packing(m))
    k5 = _audit_invariants(k5_double_pentagon())
    assert k5.double_sum == 40 and k5.qm_am_bound == Fraction(40)
    rng = random.Random(20260815)
    audited = 0
    for _ in range(100):
        n = rng.randint(5, 9)
        edges = frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.55)
        host = SimpleGraph(n, edges)
        res = max_rainbow_free_packing(SearchConfig(
            n=n, pattern=C5, forbidden=K3, host=host, node_budget=200_000))
        assert find_rainbow(res.packing, K3) is None
        _audit_invariants(res.packing)
        audited += 1
    assert audited == 100
    print("criterion 4: PASS — audit identities and bounds hold on 8 blow-up "
          "packings, the 5-vertex double pentagon (40 = 40 equality), and "
          "100 solver packings on random hosts")


def test_criterion_05_density_numerics():
    t0 = time.perf_counter()
    assert abs(density(reference_triple(3)) - 0.2016) <= 5e-5
    _, best3 = maximize_density(3)
    assert abs(best3 - 0.201615) <= 1e-5
    s = (5865445 + 170859 * math.sqrt(2022)) ** (1.0 / 3.0)
    radical = -(7 * (-350 - 29093 / s + s)) / 8112
    assert abs(best3 - radical) <= 1e-9
    prev = 0.0
    for k in range(3, 201):
        d = density(reference_triple(k))
        assert prev < d < 0.25, k
        prev = d
    assert density(reference_triple(10 ** 4)) > 0.24
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 5: PASS — 0.2016 exact, optimum matches the radical "
          f"closed form to 1e-9, strictly increasing on [3,200] below 0.25, "
          f"k=10^4 exceeds 0.24, in {elapsed:.2f}s (< 10s)")


def test_criterion_06_counting_bound_consistency():
    assert upper_bound_coeff(2) == Fraction(1, 25)
    for k in range(3, 51):
        _, best = maximize_density(k)
        implied = best / (2 * k + 1)
        assert implied <= float(upper_bound_coeff(k)) * (1 + 1e-6), k
    print("criterion 6: PASS — k=2 coefficient is 1/25 exactly; implied "
          "copy coefficient stays below the counting bound for k in [3,50]")


def test_criterion_07_progression_free_soundness():
    for n in (100, 1000, 10000):
        for q in (1, 2, 3):
            qset = behrend_q_free(n, q)
            assert qset.certified
            assert verify_q_free(qset.elements, q).ok(), (n, q)
    for n in range(1, 31):
        for q in (1, 2, 3):
            built = behrend_q_free(n, q)
            size, best = max_q_free_bruteforce(n, q)
            assert len(built) == size, (n, q)  # construction achieves the optimum
            assert verify_q_free(best, q).ok(), (n, q)
    assert verify_q_free((1, 2, 4, 5, 10, 11, 13, 14), 1).ok()
    cert = verify_q_free((1, 2, 3), 1)
    assert not cert.ok()
    assert cert.payload["witness"] == {"a": 1, "b": 3, "c": 2, "lam": 1, "mu": 1}
    print("criterion 7: PASS — 9 large sets certified and re-verified, "
          "construction matches the exhaustive oracle on all n <= 30, "
          "classic 8-element set passes, {1,2,3} fails with witness")


def test_criterion_08_order_dichotomy():
    quad = OrderClass.QUADRATIC_THETA
    sub = OrderClass.SUBQUADRATIC_LITTLE_O
    assert classify_order(C5, K3) is quad
    assert classify_order(K2, K3) is quad
    for t in (3, 4, 5):
        assert classify_order(SimpleGraph.complete(t), K3) is sub
    for t in (3, 4, 5):
        for r in range(3, t + 1):
            got = classify_order(SimpleGraph.complete(t), SimpleGraph.complete(r))
            assert got is sub, (t, r)
    print("criterion 8: PASS — homomorphism dichotomy sorts all listed "
          "pattern/forbidden pairs into the right growth class")


def test_criterion_09_lp_certificates():
    host = blow_up(BlowupSpec(C5, (3,) * 5))
    value, problem = lp_fractional_packing(host, C5)
    assert value == Fraction(9)
    assert len(c5_blowup_packing(3)) == 9
    problem.validate()
    rng = random.Random(702)
    for _ in range(50):
        n = rng.randint(4, 8)
        edges = frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5)
        small = SimpleGraph(n, edges)
        nu_star, prob = lp_fractional_packing(small, K3)
        nu = max_rainbow_free_packing(SearchConfig(
            n=n, pattern=K3, forbidden=None, host=small)).value
        assert nu <= nu_star <= Fraction(small.edge_count(), 3)
        prob.validate()
    print("criterion 9: PASS — fractional optimum 9 equals the integral "
          "decomposition on the pentagon blow-up; packing sandwich holds "
          "on 50 random hosts")


def test_criterion_10_solver_oracle_equivalence():
    checked = 0
    for pattern in (K3, K4, C5):
        for n in range(3, 6):
            if n < pattern.n:
                continue
            if len(enumerate_copies(n, pattern)) > 24:
                continue
            res = max_rainbow_free_packing(SearchConfig(
                n=n, pattern=pattern, forbidden=K3))
            assert res.optimal, (pattern.n, n)
            oval, opack = oracle_max_packing(n, pattern, K3)
            assert res.value == oval and res.packing.copies == opack.copies
            checked += 1
    assert checked == 6
    print("criterion 10: PASS — solver equals the subset-enumeration oracle "
          "with identical witnesses on all 6 small instances")
