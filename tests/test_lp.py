"""Exact fractional packing LP: values, certificates, guards."""

import dataclasses
import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rainbowpack import (FractionalPackingProblem, GuardError, SearchConfig,
                         SimpleGraph, blow_up, BlowupSpec, c5_blowup_packing,
                         lp_fractional_packing, max_rainbow_free_packing)
from rainbowpack.graphs import canonical_json
from rainbowpack.lp import _simplex_max

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


def _fraction_validate(problem: FractionalPackingProblem) -> None:
    """validate() as first written, in Fractions, one check after another:
    the reference for the one-pass integer check."""
    def edges(emb):
        return sorted(tuple(sorted((emb[u], emb[v]))) for (u, v) in problem.pattern.edges)

    for emb in problem.copy_list:
        for e in edges(emb):
            if e not in problem.host.edges:
                raise ValueError(f"copy {emb} uses {e}, which is not a host edge")
    for wt in problem.weights:
        if not 0 <= wt <= 1:
            raise ValueError(f"weight {wt} outside [0, 1]")
    loads = {}
    for emb, wt in zip(problem.copy_list, problem.weights):
        for e in edges(emb):
            loads[e] = loads.get(e, Fraction(0)) + wt
    for e, load in loads.items():
        if load > 1:
            raise ValueError(f"edge {e} overloaded: {load}")
    if not problem.duals:
        return
    price = dict(zip(problem.host.sorted_edges(), problem.duals))
    for e, y in price.items():
        if y < 0:
            raise ValueError(f"dual {y} on edge {e} is negative")
    for emb in problem.copy_list:
        covered = sum(price[e] for e in edges(emb))
        if covered < 1:
            raise ValueError(f"copy {emb} covered only {covered} by the duals")
    dual_value = sum(problem.duals, Fraction(0))
    if dual_value != problem.value():
        raise ValueError(f"dual value {dual_value} != primal value {problem.value()}")


def _tampered(problem: FractionalPackingProblem, rng: random.Random):
    """Copies of a solved problem with one part changed: a copy, a weight,
    a dual, or all weights or duals at once."""
    weights, duals = list(problem.weights), list(problem.duals)
    j, e = rng.randrange(len(weights)), rng.randrange(len(duals))
    stray = tuple(rng.sample(range(problem.host.n), problem.pattern.n))
    yield dataclasses.replace(
        problem, copy_list=problem.copy_list[:j] + (stray,) + problem.copy_list[j + 1:])
    for wt in (Fraction(-1, 3), Fraction(4, 3), weights[j] + Fraction(1, 2)):
        yield dataclasses.replace(problem, weights=tuple(weights[:j] + [wt] + weights[j + 1:]))
    for dy in (-duals[e] - Fraction(1, 5), -duals[e], Fraction(1, 7)):
        yield dataclasses.replace(
            problem, duals=tuple(duals[:e] + [duals[e] + dy] + duals[e + 1:]))
    yield dataclasses.replace(problem, weights=tuple(min(Fraction(1), 2 * w) for w in weights))
    yield dataclasses.replace(problem, duals=tuple(d * Fraction(5, 6) for d in duals))


def _outcome(check, problem):
    try:
        check(problem)
    except ValueError as exc:
        return str(exc)
    return None


def test_integer_validate_matches_the_fraction_checks_on_tampered_problems():
    rng = random.Random(1413)
    hosts = [(K4, K3), (SimpleGraph.petersen(), C5), (_blowup(K3, 3), C4),
             (SimpleGraph.complete(6), C4)]
    for _ in range(6):
        n = rng.randint(5, 7)
        hosts.append((SimpleGraph(n, frozenset(
            e for e in itertools.combinations(range(n), 2) if rng.random() < 0.7)), K3))
    kinds = ("not a host edge", "outside", "overloaded", "negative", "covered only",
             "dual value")
    seen = set()
    for host, pattern in hosts:
        _, problem = lp_fractional_packing(host, pattern)
        if not problem.copy_list:
            continue
        assert _outcome(FractionalPackingProblem.validate, problem) is None
        for _ in range(4):
            for bad in _tampered(problem, rng):
                want = _outcome(_fraction_validate, bad)
                assert _outcome(FractionalPackingProblem.validate, bad) == want
                seen.update(k for k in kinds if want is not None and k in want)
    assert seen == set(kinds)


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


def _dense_bland(a: list[list[int]]):
    """Maximize sum(x) subject to a.x <= 1, x >= 0 on a dense Fraction
    tableau: the textbook simplex with Bland's rule (structural columns
    before slacks, lowest entering index, ratio ties to the lowest basic
    index).  Returns (value, x, y), y the dual prices of the rows."""
    m, nvars = len(a), len(a[0]) if a else 0
    tab = [[Fraction(v) for v in a[i]] + [Fraction(int(i == k)) for k in range(m)]
           + [Fraction(1)] for i in range(m)]
    obj = [Fraction(-1)] * nvars + [Fraction(0)] * (m + 1)
    basis = list(range(nvars, nvars + m))
    while True:
        enter = next((j for j in range(nvars + m) if obj[j] < 0), None)
        if enter is None:
            break
        ratios = [(tab[r][-1] / tab[r][enter], basis[r], r)
                  for r in range(m) if tab[r][enter] > 0]
        _, _, leave = min(ratios)
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for row in tab[:leave] + tab[leave + 1:] + [obj]:
            f = row[enter]
            if f:
                row[:] = [v - f * w for v, w in zip(row, tab[leave])]
        basis[leave] = enter
    x = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            x[b] = tab[r][-1]
    return obj[-1], x, obj[nvars:nvars + m]


@st.composite
def _random_hosts(draw):
    n = draw(st.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))


# complete hosts are the most degenerate LPs, with ties in every ratio test;
# they stop at K6, where the Fraction oracle needs about 0.6 s for C5.  The
# two pinned hosts move the vertex if ratio ties ignore the basic index (K6/C4)
# or if slacks are priced before copies (K6/K3).
@settings(max_examples=40, deadline=None)
@example(host=SimpleGraph.complete(6), pattern=C4)
@example(host=SimpleGraph.complete(6), pattern=K3)
@given(host=st.one_of(_random_hosts(), st.integers(3, 6).map(SimpleGraph.complete)),
       pattern=st.sampled_from([K3, C4, C5]))
def test_simplex_matches_dense_bland_oracle(host, pattern):
    edges = host.sorted_edges()
    copies = [[tuple(sorted((emb[u], emb[v]))) for (u, v) in pattern.edges]
              for emb in lp_fractional_packing(host, pattern)[1].copy_list]
    a = [[int(e in copy) for copy in copies] for e in edges]
    want = _dense_bland(a)
    rows = [[edges.index(e) for e in copy] for copy in copies]
    value, x, y = _simplex_max(rows, len(edges))
    # the same vertex and the same duals, not only the same optimum
    assert (value, x, y) == want


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
    # 1,512 columns, nu* = 36/5; recorded from the dense integer tableau,
    # which took about 27 s on it on a 2-vCPU VM
    "k9/c5": (SimpleGraph.complete(9), C5,
              "61575167563502220cad0465c67993bfc709f051dfdd5017b3d5cab3e688cb76"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LP))
def test_lp_payload_golden_bytes(name):
    host, pattern, digest = GOLDEN_LP[name]
    value, problem = lp_fractional_packing(host, pattern)
    payload = canonical_json({
        "nuStar": f"{value.numerator}/{value.denominator}",
        "weights": [f"{w.numerator}/{w.denominator}" for w in problem.weights]})
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
