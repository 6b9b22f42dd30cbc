"""Exact fractional packing LP: values, certificates, guards."""

import dataclasses
import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rainbowpack import (FractionalPackingProblem, GuardError, SearchConfig,
                         SimpleGraph, blow_up, BlowupSpec, c5_blowup_packing,
                         lp_fractional_packing, max_rainbow_free_packing)
from rainbowpack.graphs import canonical_json
from rainbowpack import cli, lp
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
    zero = Fraction(0)
    with pytest.raises(ValueError, match="outside"):
        FractionalPackingProblem(K3, K3, copies, (Fraction(2),), (zero,) * 3).validate()
    with pytest.raises(ValueError, match="one weight per copy"):
        FractionalPackingProblem(K3, K3, copies, (), (zero,) * 3)
    doubled = FractionalPackingProblem(
        K4, K3, ((0, 1, 2), (0, 1, 3)), (Fraction(2, 3), Fraction(2, 3)), (zero,) * 6)
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
    problem = FractionalPackingProblem(path, K3, triangle, (Fraction(1),),
                                       (Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="not a host edge"):
        problem.validate()


def test_edge_guard():
    with pytest.raises(GuardError, match="edges exceed"):
        lp_fractional_packing(SimpleGraph.complete(70), K3)


def test_json_weights_are_exact_strings(capsys):
    assert cli.main(["lp", "--host", "k4", "--pattern", "k3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert all("/" in w for w in blob["weights"] + blob["duals"])
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


def _dense_oracle(a: list[list[int]]):
    """Maximize sum(x) subject to a.x <= 1, x >= 0 on a dense Fraction
    tableau: the textbook simplex with Dantzig's rule (most negative reduced
    cost, lowest index on ties, structural columns before slacks), switching
    to Bland's rule (lowest index with a negative reduced cost) after a
    degenerate pivot until the next non-degenerate one; ratio ties go to
    the lowest basic index.  Returns ((value, x, y), pivots, overridden):
    y the dual prices of the rows, overridden the Bland pivots whose
    entering column is not the one Dantzig's rule would take."""
    m, nvars = len(a), len(a[0]) if a else 0
    tab = [[Fraction(v) for v in a[i]] + [Fraction(int(i == k)) for k in range(m)]
           + [Fraction(1)] for i in range(m)]
    obj = [Fraction(-1)] * nvars + [Fraction(0)] * (m + 1)
    basis = list(range(nvars, nvars + m))
    bland, pivots, overridden = False, 0, 0
    while True:
        costs = obj[:nvars + m]
        low = min(costs, default=0)
        if low >= 0:
            break
        enter = costs.index(low)
        if bland:
            first = next(j for j, c in enumerate(costs) if c < 0)
            overridden += first != enter
            enter = first
        ratios = [(tab[r][-1] / tab[r][enter], basis[r], r)
                  for r in range(m) if tab[r][enter] > 0]
        _, _, leave = min(ratios)
        bland = tab[leave][-1] == 0
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for row in tab[:leave] + tab[leave + 1:] + [obj]:
            f = row[enter]
            if f:
                row[:] = [v - f * w for v, w in zip(row, tab[leave])]
        basis[leave] = enter
        pivots += 1
    x = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            x[b] = tab[r][-1]
    return (obj[-1], x, obj[nvars:nvars + m]), pivots, overridden


def _lp_rows(host: SimpleGraph, pattern: SimpleGraph):
    """The LP of lp_fractional_packing as the simplex gets it: each copy's
    host-edge row indices, and the dense constraint matrix."""
    edges = host.sorted_edges()
    copies = [[tuple(sorted((emb[u], emb[v]))) for (u, v) in pattern.edges]
              for emb in lp_fractional_packing(host, pattern)[1].copy_list]
    a = [[int(e in copy) for copy in copies] for e in edges]
    return [[edges.index(e) for e in copy] for copy in copies], a


@st.composite
def _random_hosts(draw):
    n = draw(st.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))


# complete hosts are the most degenerate LPs, with ties in every ratio test;
# they stop at K6, where the Fraction oracle needs about 0.1 s for C5.  The
# two pinned hosts move the vertex if ratio ties ignore the basic index (K6/C4)
# or if slacks are priced before copies (K6/K3).
@settings(max_examples=40, deadline=None)
@example(host=SimpleGraph.complete(6), pattern=C4)
@example(host=SimpleGraph.complete(6), pattern=K3)
@given(host=st.one_of(_random_hosts(), st.integers(3, 6).map(SimpleGraph.complete)),
       pattern=st.sampled_from([K3, C4, C5]))
def test_simplex_matches_dense_bland_oracle(host, pattern):
    rows, a = _lp_rows(host, pattern)
    want, pivots, _ = _dense_oracle(a)
    # the same vertex and the same duals, not only the same optimum
    assert _simplex_max(rows, len(a)) == (*want, pivots)


@pytest.mark.parametrize("n, pattern", [(5, C4), (5, C5), (6, K3)],
                         ids=["k5-c4", "k5-c5", "k6-k3"])
def test_degenerate_start_switches_to_bland(n, pattern):
    # the first pivot takes a copy into the basis, and its other edges keep
    # their slacks at right side 0, so on K_n degenerate pivots follow, and
    # at some of them Bland's rule enters a column that Dantzig's would not
    rows, a = _lp_rows(SimpleGraph.complete(n), pattern)
    want, pivots, overridden = _dense_oracle(a)
    assert overridden > 0
    assert _simplex_max(rows, len(a)) == (*want, pivots)


def test_pivot_counts():
    # Bland's rule alone took 3,652 pivots on K9/C5 and 342 on C5[3]/C5
    for host, pivots in ((SimpleGraph.complete(9), 71), (_blowup(C5, 3), 107)):
        rows, a = _lp_rows(host, C5)
        assert _simplex_max(rows, len(a))[3] == pivots


def test_simplex_work_guard(monkeypatch):
    # 150 disjoint K4 with pattern K3: 600 copies on 900 edges.  det B grows
    # block by block, and each pivot that changes it rewrites all 900 rows
    host = SimpleGraph.from_edges(600, [(4 * i + u, 4 * i + v) for i in range(150)
                                        for u, v in itertools.combinations(range(4), 2)])
    with pytest.raises(GuardError, match="pivot 147 on 900 edges exceeds"):
        lp_fractional_packing(host, K3)
    # 30 disjoint triangles beside a 1,909-edge path: 30 unit pivots with
    # d = 1 that rewrite 2 rows and obj each, 180,000 cells on 2,000 rows
    triangles = [(3 * i + u, 3 * i + v) for i in range(30) for u, v in ((0, 1), (0, 2), (1, 2))]
    path = [(90 + i, 91 + i) for i in range(1909)]
    sparse = SimpleGraph.from_edges(2000, triangles + path)
    assert sparse.edge_count() == 1999
    assert lp_fractional_packing(sparse, K3)[0] == 30
    monkeypatch.setattr(lp, "_LP_WORK_LIMIT", 180_000 - 1)
    with pytest.raises(GuardError, match="pivot 30 on 1999 edges"):
        lp_fractional_packing(sparse, K3)
    # K9/C5 runs 71 pivots on 36 edges: admitted at its 83,472 cells, not at one fewer
    monkeypatch.setattr(lp, "_LP_WORK_LIMIT", 83_472)
    assert lp_fractional_packing(SimpleGraph.complete(9), C5)[0] == Fraction(36, 5)
    monkeypatch.setattr(lp, "_LP_WORK_LIMIT", 83_472 - 1)
    with pytest.raises(GuardError, match="pivot 71 on 36 edges"):
        lp_fractional_packing(SimpleGraph.complete(9), C5)


# sha256 of the canonical (nuStar, weights) payload, recorded from
# _dense_oracle, which also gave the same duals.  The pivot rule fixes the
# pivot sequence, so any change of rule that moves the returned vertex shows
# up here.
GOLDEN_LP = {
    "c5[3]/c5": (_blowup(C5, 3), C5,
                 "675bba36d5b17f12540a07a4c7e3abe144d1a89c8f8fbe0a713c6cbba95919b6"),
    "k3[3]/c4": (_blowup(K3, 3), C4,
                 "0a16b9b66e9bd6554c1c433090e8d20e9ec49a1df6bffa87b1ce45dbba4759b7"),
    "k4[2]/c4": (_blowup(K4, 2), C4,
                 "81d4514bba89203dbb2f43747152a01d789264ed863b1b3514b9b204e2cdf293"),
    "petersen/c5": (SimpleGraph.petersen(), C5,
                    "521e4685c735b8a9ba96cc99553814e55a466ef7162a9a0d64b5b5f36f58dc1e"),
    # 1,512 columns, nu* = 36/5, 71 pivots; _dense_oracle takes about 21 s
    # on it on a 2-vCPU VM
    "k9/c5": (SimpleGraph.complete(9), C5,
              "35cfd508dc7dfb10d3dd953c6a114901fbc91f98d440b67cff7f8c845db01efa"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LP))
def test_lp_payload_golden_bytes(name):
    host, pattern, digest = GOLDEN_LP[name]
    value, problem = lp_fractional_packing(host, pattern)
    payload = canonical_json({
        "nuStar": f"{value.numerator}/{value.denominator}",
        "weights": [f"{w.numerator}/{w.denominator}" for w in problem.weights]})
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
