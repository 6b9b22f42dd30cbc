"""Rainbow detection and the pentagon audit ledger."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rainbowpack import (AuditError, BlowupSpec, ColoredPacking, GuardError,
                         PackingError, SimpleGraph, behrend_q_free, blow_up,
                         c5_blowup_packing, find_rainbow, k5_double_pentagon,
                         kt_packing, pentagon_audit)
from rainbowpack.constructions import perfect_decomposition_check
from rainbowpack import graphs
from rainbowpack.graphs import bitmask_rows, embeddings
from rainbowpack.solver import enumerate_copies
from rainbowpack.verifier import RainbowWitness, _find_rainbow_triangle

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


def naive_rainbow_triangle(packing: ColoredPacking):
    """The lexicographically smallest rainbow triangle (u, v, z) with u < v,
    and its three edge colors, or None; every triple is tried in order."""
    col = packing.edge_color
    n = packing.n
    for u in range(n):
        for v in range(u + 1, n):
            for z in range(n):
                cs = (col.get((u, v)), col.get((min(u, z), max(u, z))),
                      col.get((min(v, z), max(v, z))))
                if z not in (u, v) and None not in cs and len(set(cs)) == 3:
                    return (u, v, z), cs
    return None


def naive_closing_colors(packing: ColoredPacking) -> list[int]:
    """Per color c, the triangles with two edges of one other color and the
    third of color c; every vertex triple is tried."""
    col = packing.edge_color
    closing = [0] * len(packing)
    for (a, b, c) in itertools.combinations(range(packing.n), 3):
        cs = [col.get((a, b)), col.get((a, c)), col.get((b, c))]
        if None not in cs and len(set(cs)) == 2:
            closing[min(cs, key=cs.count)] += 1
    return closing


def _greedy_packing(n: int, pattern: SimpleGraph, maps) -> ColoredPacking:
    """Keep each vertex map (a tuple of distinct vertices) whose pattern
    edges miss every edge kept so far; no rainbow filter."""
    used = set()
    chosen = []
    for emb in maps:
        edges = {tuple(sorted((emb[u], emb[v]))) for (u, v) in pattern.edges}
        if not edges & used:
            used |= edges
            chosen.append(emb)
    return ColoredPacking(n, pattern, chosen)


def test_no_rainbow_in_two_color_packing():
    assert find_rainbow(k5_double_pentagon(), K3) is None


def test_three_triangles_make_a_rainbow():
    p = ColoredPacking(6, K3, [(0, 1, 2), (0, 3, 4), (1, 3, 5)])
    w = find_rainbow(p, K3)
    assert w is not None
    assert w.vertices == (0, 1, 3)
    assert sorted(c for (_, _, c) in w.edges) == [0, 1, 2]
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


def test_a_counted_pass_never_builds_the_color_map():
    kt = kt_packing(60, 4, behrend_q_free(60, 2))
    assert len(kt.edge_color) == 6 * len(kt) > 0
    for forbidden in (K3, SimpleGraph.complete(4)):
        assert find_rainbow(kt, forbidden) is None
    pent = c5_blowup_packing(9)
    assert find_rainbow(pent, K3) is None
    assert pentagon_audit(pent).nstar_total == 0
    assert len(list(pent.union_edges())) == len(pent.edge_color) == 5 * 81
    perfect_decomposition_check(pent, blow_up(BlowupSpec(SimpleGraph.cycle(5), (9,) * 5)))
    assert "key_color" not in kt.__dict__ and "key_color" not in pent.__dict__


def test_a_fail_scan_names_the_lex_min_witness():
    rng = random.Random(6113)
    maps = [tuple(rng.sample(range(12), 3)) for _ in range(60)]
    p = _greedy_packing(12, K3, maps)
    (u, v, z), _ = naive_rainbow_triangle(ColoredPacking(p.n, K3, p.copies))
    assert "key_color" not in p.__dict__
    w = find_rainbow(p, K3)
    assert "key_color" in p.__dict__
    assert w.vertices == (u, v, z)
    w.check(p, K3)


def test_find_rainbow_guards():
    p = k5_double_pentagon()
    with pytest.raises(GuardError, match="> 8 vertices"):
        find_rainbow(p, SimpleGraph.cycle(9))
    with pytest.raises(ValueError, match="connected"):
        find_rainbow(p, SimpleGraph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="at least one edge"):
        find_rainbow(p, SimpleGraph.empty(3))


def test_find_rainbow_refuses_sparse_hosts_with_oversized_kernel_rows():
    # 10^5 disjoint triangles on 3 * 10^5 vertices: the kernel's bitmask rows
    # would need about 5 GiB, so the C4 search is refused before it starts
    p = ColoredPacking(300_000, K3, [(3 * i, 3 * i + 1, 3 * i + 2)
                                     for i in range(100_000)])
    with pytest.raises(GuardError, match="embeddings guard"):
        find_rainbow(p, SimpleGraph.cycle(4))


def test_find_rainbow_guards_the_rows_before_building_the_color_map(monkeypatch):
    # 100 disjoint triangles over 3,000 vertices: the rows need about 56 KB
    p = ColoredPacking(3000, K3, [(30 * i, 30 * i + 1, 30 * i + 29)
                                  for i in range(100)])
    monkeypatch.setattr(graphs, "_ROW_BYTES_LIMIT", 1000)
    with pytest.raises(GuardError, match="embeddings guard"):
        find_rainbow(p, SimpleGraph.cycle(4))
    assert "key_color" not in p.__dict__


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


TRIANGLE_ORACLE_PATTERNS = [
    K3, SimpleGraph.path(3), SimpleGraph.cycle(4), C5, SimpleGraph.complete(4),
    SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),  # K3 + pendant
    SimpleGraph.from_edges(4, [(0, 1), (2, 3)]),                  # 2K2
]


@settings(max_examples=300, deadline=None)
@given(pattern=st.sampled_from(TRIANGLE_ORACLE_PATTERNS), n=st.integers(5, 10),
       data=st.data())
def test_find_rainbow_triangle_matches_lex_min_oracle(pattern, n, data):
    maps = data.draw(st.lists(
        st.permutations(range(n)).map(lambda p: tuple(p[:pattern.n])), max_size=20))
    p = _greedy_packing(n, pattern, maps)
    w = find_rainbow(p, K3)
    want = naive_rainbow_triangle(p)
    # the triangle count alone decides a PASS, so it must be exact
    col = p.edge_color
    assert p.union_triangles == sum(
        1 for (a, b, c) in itertools.combinations(range(n), 3)
        if (a, b) in col and (a, c) in col and (b, c) in col)
    if want is None:
        assert w is None
    else:
        (u, v, z), (c_uv, c_uz, c_vz) = want
        assert w is not None and w.vertices == (u, v, z)
        assert w.edges == (((0, 1), (u, v), c_uv),
                           ((0, 2), (min(u, z), max(u, z)), c_uz),
                           ((1, 2), (min(v, z), max(v, z)), c_vz))
        w.check(p, K3)


P3 = SimpleGraph.path(3)
# four with a triangle, which the count may decide, then three without
CENSUS_FORBIDDEN = [
    SimpleGraph.complete(4),
    SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),          # paw
    SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),  # diamond
    SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]),  # bull
    SimpleGraph.cycle(4), P3, C5,
]
# a triangle-free P3 packing, so its count matches, holding a rainbow path
# and the rainbow 4-cycle 0-1-2-3: a count would wrongly pass them
RAINBOW_WITHOUT_TRIANGLES = [(0, 1, 5), (1, 2, 6), (2, 3, 7), (3, 0, 8)]


@settings(max_examples=200, deadline=None)
@given(pattern=st.sampled_from(TRIANGLE_ORACLE_PATTERNS),
       forbidden=st.sampled_from(CENSUS_FORBIDDEN), n=st.integers(5, 9),
       perms=st.lists(st.permutations(range(9)), max_size=16))
@example(pattern=P3, forbidden=P3, n=9, perms=RAINBOW_WITHOUT_TRIANGLES)
@example(pattern=P3, forbidden=SimpleGraph.cycle(4), n=9, perms=RAINBOW_WITHOUT_TRIANGLES)
def test_find_rainbow_matches_kernel_and_naive_oracle(pattern, forbidden, n, perms):
    # each map is the first pattern.n entries of a permutation below n
    maps = [tuple(v for v in perm if v < n)[:pattern.n] for perm in perms]
    p = _greedy_packing(n, pattern, maps)
    w = find_rainbow(p, forbidden)
    if not naive_rainbow_exists(p, forbidden):
        assert w is None
        return
    # a witness is the kernel's first rainbow map, whether or not a count ran
    col = p.edge_color
    rows = bitmask_rows(n, list(p.union_edges()))
    key_color = {u * n + v: c for (u, v), c in col.items()}
    verts = next(embeddings(forbidden, rows, color=key_color))
    want = []
    for (gu, gv) in forbidden.sorted_edges():
        e = tuple(sorted((verts[gu], verts[gv])))
        want.append(((gu, gv), e, col[e]))
    assert w == RainbowWitness(verts, tuple(want))
    w.check(p, forbidden)


@settings(max_examples=100, deadline=None)
@given(pattern=st.sampled_from([K3, P3, SimpleGraph.cycle(4), C5]),
       forbidden=st.sampled_from([SimpleGraph.cycle(4), C5, SimpleGraph.path(4),
                                  SimpleGraph.complete(4), CENSUS_FORBIDDEN[1]]),
       n=st.integers(5, 9), perms=st.lists(st.permutations(range(9)), max_size=16),
       ids=st.sets(st.integers(0, 10 ** 6 - 1), min_size=9, max_size=9))
@example(pattern=P3, forbidden=SimpleGraph.cycle(4), n=9,
         perms=RAINBOW_WITHOUT_TRIANGLES, ids=set(range(10 ** 6 - 9, 10 ** 6)))
def test_find_rainbow_names_the_same_witness_on_high_ids(pattern, forbidden, n, perms, ids):
    # the packing moved onto ascending ids among 10^6 vertices: the kernel
    # walks the union's vertices renumbered, and names the moved witness
    maps = [tuple(v for v in perm if v < n)[:pattern.n] for perm in perms]
    p = _greedy_packing(n, pattern, maps)
    ids = sorted(ids)[:n]
    moved = ColoredPacking(10 ** 6, pattern, [tuple(ids[v] for v in emb) for emb in p.copies])
    w, w_moved = find_rainbow(p, forbidden), find_rainbow(moved, forbidden)
    if w is None:
        assert w_moved is None
        return
    assert w_moved.vertices == tuple(ids[v] for v in w.vertices)
    assert [c for (_, _, c) in w_moved.edges] == [c for (_, _, c) in w.edges]
    w_moved.check(moved, forbidden)


def test_find_rainbow_rows_cover_only_the_union_vertices(monkeypatch):
    # 200 disjoint triangles on the top ids of 10^6 vertices: the C4 search
    # builds rows for the 600 vertices on a copy, not for the largest id
    sizes = []

    def recording(n, edges):
        sizes.append(n)
        return bitmask_rows(n, edges)

    monkeypatch.setattr(graphs, "bitmask_rows", recording)
    n = 10 ** 6
    p = ColoredPacking(n, K3, [(n - 600 + 3 * i, n - 599 + 3 * i, n - 598 + 3 * i)
                               for i in range(200)])
    assert find_rainbow(p, SimpleGraph.cycle(4)) is None
    assert sizes == [600]


@settings(max_examples=200, deadline=None)
@given(pattern=st.sampled_from([K3, P3, SimpleGraph.cycle(4), C5]),
       forbidden=st.sampled_from([K3, SimpleGraph.cycle(4), C5, SimpleGraph.path(4),
                                  SimpleGraph.complete(4)]),
       n=st.integers(5, 9), perms=st.lists(st.permutations(range(9)), max_size=16),
       data=st.data())
@example(pattern=P3, forbidden=SimpleGraph.cycle(4), n=9,
         perms=RAINBOW_WITHOUT_TRIANGLES, data=None)
def test_find_rainbow_needs_as_many_copies_as_g_has_edges(pattern, forbidden, n,
                                                          perms, data):
    # packings of 0 to e(G) copies: below e(G) there are too few colors for
    # a rainbow G, and at e(G) find_rainbow names what the search names
    maps = [tuple(v for v in perm if v < n)[:pattern.n] for perm in perms]
    whole = _greedy_packing(n, pattern, maps)
    size = forbidden.edge_count()
    if data is not None:
        size = data.draw(st.integers(0, size))
    p = ColoredPacking(n, pattern, whole.copies[:size])
    w = find_rainbow(p, forbidden)
    if forbidden.is_cycle(3):
        want = _find_rainbow_triangle(p)
    else:
        want = next(embeddings(forbidden, bitmask_rows(n, list(p.union_edges())),
                               color=p.key_color), None)
    w = None if w is None else w.vertices
    if len(p) < forbidden.edge_count():
        assert want is None
    assert w == want


def test_audit_blowup_numbers():
    a = pentagon_audit(c5_blowup_packing(3))
    assert a.n == 15 and a.t == 9
    assert a.double_sum == 270 == a.half_sum_squares
    assert a.qm_am_bound == Fraction(270)
    assert a.per_copy == ((30, 40),) * 9
    assert a.nstar_total == 0  # the host is triangle-free
    assert [rhs - lhs for (lhs, rhs) in a.per_copy] == [10] * 9


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
    p = _greedy_packing(n, C5, tuples)
    want = naive_rainbow_triangle(p)
    if want is None:
        pentagon_audit(p)
    else:
        # the message names the lexicographically smallest rainbow triangle
        with pytest.raises(AuditError, match=re.escape(f"rainbow triangle: {want[0]}")):
            pentagon_audit(p)


def _naive_audit_counts(p: ColoredPacking) -> tuple[list[tuple[int, int]], int]:
    """per_copy and nstar_total recounted from the raw copies and all vertex
    triples."""
    deg = [0] * p.n
    for (u, v) in p.edge_color:
        deg[u] += 1
        deg[v] += 1
    local = naive_closing_colors(p)
    per_copy = [(sum(deg[v] for v in copy), 2 * p.n + 10 + local[ci])
                for ci, copy in enumerate(p.copies)]
    return per_copy, sum(local)


def test_audit_recomputation_independent(seed=40108):
    # recount both sides of the double-sum identity from the raw copies
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
    # recount per_copy and nstar_total on random rainbow-free packings,
    # filtered by the naive oracle; half of them label the pentagon
    # 0-2-4-1-3, so its cherries are not read off consecutive labels
    shuffled = SimpleGraph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    rng = random.Random(seed)
    corrected = 0
    for trial_no in range(30):
        pattern = (C5, shuffled)[trial_no % 2]
        n = rng.randint(5, 9)
        maps = [tuple(rng.sample(range(n), 5)) for _ in range(40)]
        chosen = []
        for emb in maps:
            try:
                trial = ColoredPacking(n, pattern, chosen + [emb])
            except PackingError:
                continue
            if naive_rainbow_triangle(trial) is None:
                chosen.append(emb)
        p = ColoredPacking(n, pattern, chosen)
        a = pentagon_audit(p)
        per_copy, nstar_total = _naive_audit_counts(p)
        assert list(a.per_copy) == per_copy
        assert a.nstar_total == nstar_total
        corrected += nstar_total > 0
    assert corrected > 0  # the correction term is exercised, not always 0


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
