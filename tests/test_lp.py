"""Exact fractional packing LP: values, certificates, guards."""

import dataclasses
import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rainbowpack import (FractionalPackingProblem, GuardError, SearchConfig,
                         SimpleGraph, blow_up, BlowupSpec, c5_blowup_packing,
                         lp_fractional_packing, max_rainbow_free_packing)
from rainbowpack.graphs import canonical_json

K3 = SimpleGraph.complete(3)
K4 = SimpleGraph.complete(4)
C4 = SimpleGraph.cycle(4)
C5 = SimpleGraph.cycle(5)


def _blowup(base: SimpleGraph, size: int) -> SimpleGraph:
    return blow_up(BlowupSpec(base, (size,) * base.n))


def test_single_copy_host():
    value, problem = lp_fractional_packing(C5, C5)
    assert value == Fraction(1)
    assert problem.weights == (Fraction(1),)
    problem.validate()


def test_k4_triangles_with_dual_certificate():
    value, problem = lp_fractional_packing(K4, K3)
    assert value == Fraction(2)
    # the emitted duals price the host edges in sorted order; they must be a
    # fractional triangle cover of K4 whose total matches the primal value
    assert len(problem.duals) == K4.edge_count()
    price = dict(zip(K4.sorted_edges(), problem.duals))
    assert all(y >= 0 for y in problem.duals)
    for emb in problem.copy_list:
        covered = sum(price[tuple(sorted((emb[u], emb[v])))] for (u, v) in K3.edges)
        assert covered >= 1
    assert sum(problem.duals) == value == problem.value()
    problem.validate()


def test_pentagon_blowup_lp_equals_integral_decomposition():
    host = blow_up(BlowupSpec(C5, (3, 3, 3, 3, 3)))
    packing = c5_blowup_packing(3)
    value, problem = lp_fractional_packing(host, C5)
    assert value == Fraction(9)
    assert len(packing) == 9  # fractional optimum met by an integral packing
    assert problem.value() == value


def test_petersen_integrality_gap():
    pet = SimpleGraph.petersen()
    value, problem = lp_fractional_packing(pet, C5)
    # 12 pentagons, each edge lying on 4 of them: uniform weight 1/4 is
    # feasible and saturates all 15 edges, so nu* = 15/5 = 3
    assert value == Fraction(3)
    integral = max_rainbow_free_packing(
        SearchConfig(n=10, pattern=C5, forbidden=None, host=pet)).value
    assert integral == 2 < value


def test_sandwich_on_random_hosts():
    rng = random.Random(411)
    for _ in range(12):
        n = rng.randint(4, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.6]
        if not edges:
            continue
        host = SimpleGraph(n, frozenset(edges))
        value, problem = lp_fractional_packing(host, K3)
        integral = max_rainbow_free_packing(
            SearchConfig(n=n, pattern=K3, forbidden=None, host=host)).value
        assert integral <= value <= Fraction(host.edge_count(), 3)
        problem.validate()


def test_no_copies():
    value, problem = lp_fractional_packing(C5, K4)
    assert value == Fraction(0)
    assert problem.copy_list == () and problem.weights == ()
    assert problem.duals == (Fraction(0),) * C5.edge_count()
    assert problem.edge_loads() == {}
    problem.validate()


def test_validate_rejects_bad_weights():
    copies = ((0, 1, 2),)
    with pytest.raises(ValueError, match="outside"):
        FractionalPackingProblem(K3, K3, copies, (Fraction(2),)).validate()
    with pytest.raises(ValueError, match="one weight per copy"):
        FractionalPackingProblem(K3, K3, copies, ())
    doubled = FractionalPackingProblem(
        K4, K3, ((0, 1, 2), (0, 1, 3)), (Fraction(2, 3), Fraction(2, 3)))
    with pytest.raises(ValueError, match="overloaded"):
        doubled.validate()


def test_edgeless_pattern_rejected():
    with pytest.raises(ValueError, match="at least one edge"):
        lp_fractional_packing(K4, SimpleGraph.empty(3))


def test_copy_guard():
    with pytest.raises(GuardError, match="copies exceed"):
        lp_fractional_packing(SimpleGraph.complete(25), K3)


def test_copy_guard_stops_before_enumerating_everything():
    # K30 passes the edge guard but holds about 1.7M pentagon embeddings
    started = time.perf_counter()
    with pytest.raises(GuardError, match="copies exceed 2000"):
        lp_fractional_packing(SimpleGraph.complete(30), C5)
    assert time.perf_counter() - started < 1.0


def test_validate_rejects_copies_outside_the_host():
    path = SimpleGraph.path(3)
    triangle = ((0, 1, 2),)
    problem = FractionalPackingProblem(path, K3, triangle, (Fraction(1),))
    with pytest.raises(ValueError, match="not a host edge"):
        problem.validate()
    with_duals = FractionalPackingProblem(path, K3, triangle, (Fraction(1),),
                                          (Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="not a host edge"):
        with_duals.validate()


def test_edge_guard():
    with pytest.raises(GuardError, match="edges exceed"):
        lp_fractional_packing(SimpleGraph.complete(70), K3)


def test_json_weights_are_exact_strings():
    _, problem = lp_fractional_packing(K4, K3)
    blob = problem.to_json_dict()
    assert all("/" in w for w in blob["weights"])
    total = sum(Fraction(w) for w in blob["weights"])
    assert total == Fraction(2)
    assert len(blob["duals"]) == K4.edge_count()
    assert sum(Fraction(y) for y in blob["duals"]) == Fraction(2)


def test_tampered_dual_is_rejected():
    _, problem = lp_fractional_packing(SimpleGraph.petersen(), C5)
    problem.validate()
    for i in range(len(problem.duals)):
        lowered = list(problem.duals)
        lowered[i] -= Fraction(1, 7)
        with pytest.raises(ValueError, match="dual"):
            dataclasses.replace(problem, duals=tuple(lowered)).validate()


def test_dual_checks_each_fail_on_their_own():
    copies = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    half = (Fraction(1, 2),) * 4

    def problem(duals):
        return FractionalPackingProblem(K4, K3, copies, half, tuple(map(Fraction, duals)))

    problem((0, 0, 1, 1, 0, 0)).validate()
    with pytest.raises(ValueError, match="negative"):
        problem((-1, 1, 1, 1, 0, 0)).validate()
    with pytest.raises(ValueError, match="covered only"):
        problem((0, 0, 2, 0, 0, 0)).validate()
    with pytest.raises(ValueError, match="dual value"):
        problem((0, 0, 1, 1, 1, 0)).validate()
    with pytest.raises(ValueError, match="one dual per host edge"):
        problem((1, 1))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 8), pattern=st.sampled_from([K3, C4, C5]), data=st.data())
def test_lp_certificate_on_random_hosts(n, pattern, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    host = SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    value, problem = lp_fractional_packing(host, pattern)
    edges = host.sorted_edges()
    price = dict(zip(edges, problem.duals))
    assert len(problem.duals) == len(edges)
    # primal feasibility, checked here without the library's validate()
    load = dict.fromkeys(edges, Fraction(0))
    for emb, wt in zip(problem.copy_list, problem.weights):
        assert 0 <= wt <= 1
        for (u, v) in pattern.edges:
            load[tuple(sorted((emb[u], emb[v])))] += wt
    assert all(x <= 1 for x in load.values())
    # the duals are a fractional cover of every copy
    assert all(y >= 0 for y in problem.duals)
    for emb in problem.copy_list:
        assert sum(price[tuple(sorted((emb[u], emb[v])))] for (u, v) in pattern.edges) >= 1
    # equal objectives: by weak duality both are optimal
    assert sum(problem.weights) == sum(problem.duals) == value


# sha256 of the canonical (nuStar, weights) payload, recorded from the
# Fraction-tableau simplex that preceded the integer one.  Bland's rule fixes
# the pivot sequence, so any change of pivot rule that moves the returned
# vertex shows up here.
GOLDEN_LP = {
    "c5[3]/c5": (_blowup(C5, 3), C5,
                 "292d834f57bed08aebff6b467f099c55725e4ccd1c38210845129c437b071a8d"),
    "k3[3]/c4": (_blowup(K3, 3), C4,
                 "4fdd5f8443b1e8b31f40dd2bdb6705abc8f80a4559ecb96950c41199ba8a0376"),
    "k4[2]/c4": (_blowup(K4, 2), C4,
                 "8a89387be27c00e78bec9a26a0fa20c87cdc9005a609a98a490f24357674305e"),
    "petersen/c5": (SimpleGraph.petersen(), C5,
                    "521e4685c735b8a9ba96cc99553814e55a466ef7162a9a0d64b5b5f36f58dc1e"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LP))
def test_lp_payload_golden_bytes(name):
    host, pattern, digest = GOLDEN_LP[name]
    value, problem = lp_fractional_packing(host, pattern)
    payload = canonical_json({
        "nuStar": f"{value.numerator}/{value.denominator}",
        "weights": [f"{w.numerator}/{w.denominator}" for w in problem.weights]})
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
