"""Exact branch-and-bound solver, checked against the naive oracle of naive_oracle.py."""

import hashlib
import itertools
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from rainbowpack import (GuardError, SearchConfig, SimpleGraph,
                         enumerate_copies, find_rainbow, graphs,
                         max_rainbow_free_packing, solver)
from rainbowpack.graphs import (bitmask_rows, canonical_json, embedded_edges,
                                embeddings)
from naive_oracle import (ORACLE_COPY_LIMIT, naive_copies, naive_rainbow_scan,
                          oracle_max_packing)

K3 = SimpleGraph.complete(3)
K4 = SimpleGraph.complete(4)
C4 = SimpleGraph.cycle(4)
C5 = SimpleGraph.cycle(5)
P3 = SimpleGraph.path(3)
P4 = SimpleGraph.path(4)
PAW = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
K3_PLUS_VERTEX = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
VERTEX_PLUS_K3 = SimpleGraph.from_edges(4, [(1, 2), (1, 3), (2, 3)])
# a path with a pendant edge at its third vertex: no automorphism but the identity
TREE = SimpleGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
TWO_K2 = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
THREE_K2 = SimpleGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])


def test_enumerate_copies_counts():
    assert len(enumerate_copies(4, K3)) == 4
    assert len(enumerate_copies(5, K3)) == 10
    assert len(enumerate_copies(5, C5)) == 12
    assert len(enumerate_copies(5, K4)) == 5
    assert len(enumerate_copies(4, SimpleGraph.cycle(4))) == 3
    assert len(enumerate_copies(4, SimpleGraph.path(3))) == 12
    assert enumerate_copies(2, C5) == []


def test_enumerate_copies_is_canonical():
    copies = enumerate_copies(5, C5)
    assert copies[0] == (0, 1, 3, 4, 2)  # smallest edge set is (0,1),(0,2),...
    assert copies == sorted(copies, key=lambda emb: sorted(
        tuple(sorted((emb[u], emb[v]))) for (u, v) in C5.edges))
    # one representative per edge set, no automorphic duplicates
    edge_sets = {frozenset(tuple(sorted((emb[u], emb[v]))) for (u, v) in C5.edges)
                 for emb in copies}
    assert len(edge_sets) == len(copies)


def test_enumerate_copies_respects_host():
    assert len(enumerate_copies(5, K3, host=SimpleGraph.cycle(5))) == 0
    assert len(enumerate_copies(5, C5, host=SimpleGraph.cycle(5))) == 1
    assert len(enumerate_copies(10, C5, host=SimpleGraph.petersen())) == 12


def test_enumerate_copies_guard():
    # the vertex limit belongs to the solver; enumeration only caps its walk
    assert len(enumerate_copies(13, K3)) == 286
    with pytest.raises(GuardError, match="solver guard"):
        max_rainbow_free_packing(SearchConfig(n=13, pattern=K3, forbidden=K3))


def test_enumerate_copies_embedding_cap(monkeypatch):
    # K3 in K5: 10 copies, one embedding walked per copy; the lower of the
    # cap and max_copies applies
    monkeypatch.setattr(solver, "_COPY_LIMIT", 10)
    assert len(enumerate_copies(5, K3)) == 10
    monkeypatch.setattr(solver, "_COPY_LIMIT", 9)
    with pytest.raises(GuardError, match="copies exceed 9"):
        enumerate_copies(5, K3)
    with pytest.raises(GuardError, match="copies exceed 9"):
        enumerate_copies(5, K3, max_copies=20)


def test_enumerate_copies_walks_one_embedding_per_copy(monkeypatch):
    walked = []

    def counting(*args, **kwargs):
        for emb in embeddings(*args, **kwargs):
            walked.append(emb)
            yield emb

    monkeypatch.setattr(solver, "embeddings", counting)
    k8 = SimpleGraph.complete(8)
    # |Aut(F)| embeddings per copy without the symmetry break
    for (pattern, automorphisms) in ((C5, 10), (K4, 24), (PAW, 2), (TREE, 1)):
        walked.clear()
        copies = enumerate_copies(8, pattern)
        assert len(walked) == len(copies), pattern
        rows = bitmask_rows(8, k8.edges)
        assert len(list(embeddings(pattern, rows))) == len(copies) * automorphisms
        assert copies == naive_copies(pattern, k8), pattern
    # isolated vertices: the walk covers the pattern without them
    for pattern in (K3_PLUS_VERTEX, VERTEX_PLUS_K3, TWO_K2, THREE_K2):
        walked.clear()
        copies = enumerate_copies(8, pattern)
        assert len(walked) == len(copies), pattern
        assert copies == naive_copies(pattern, k8), pattern


def test_enumerate_copies_unpatched_cap():
    # C7 in K12: 285,120 copies, refused once the 100,001st turns up
    started = time.perf_counter()
    with pytest.raises(GuardError, match="copies exceed 100000"):
        enumerate_copies(12, SimpleGraph.cycle(7))
    assert time.perf_counter() - started < 1.0


def test_solver_copy_cap(monkeypatch):
    # K3 in K5 has 10 copies; the solver takes as many as enumeration keeps
    cfg = SearchConfig(n=5, pattern=K3, forbidden=K3)
    monkeypatch.setattr(solver, "_COPY_LIMIT", 10)
    assert max_rainbow_free_packing(cfg).value == 2
    monkeypatch.setattr(solver, "_COPY_LIMIT", 9)
    with pytest.raises(GuardError, match="copies exceed 9"):
        max_rainbow_free_packing(cfg)


def test_enumerate_copies_copy_cap():
    assert len(enumerate_copies(5, K3, max_copies=10)) == 10
    with pytest.raises(GuardError, match="copies exceed 9"):
        enumerate_copies(5, K3, max_copies=9)


K5 = SimpleGraph.complete(5)
K6 = SimpleGraph.complete(6)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8),
       pattern=st.sampled_from([K3, P3, C4, C5, K4, K3_PLUS_VERTEX, VERTEX_PLUS_K3,
                                TWO_K2, THREE_K2, TREE, K5, K6]),
       data=st.data())
def test_enumerate_copies_matches_naive_enumeration(n, pattern, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if data.draw(st.booleans()):
        # K_n less at most one edge, where K_k in K_(k+2) leaves the lex-min
        # chains of K_k no spare host ids
        removed = data.draw(st.sampled_from([None, *pairs]))
        keep = [e != removed for e in pairs]
    else:
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    host = SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    assert enumerate_copies(n, pattern, host) == naive_copies(pattern, host)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_enumerate_copies_of_k_k_in_k_k_plus_2(k):
    # K_k's lex-min pairs chain all k vertices, so the chain prune leaves
    # vertex i of K_k only the host ids i, i + 1 and i + 2
    host = SimpleGraph.complete(k + 2)
    assert enumerate_copies(k + 2, SimpleGraph.complete(k)) == naive_copies(
        SimpleGraph.complete(k), host)
    minus = SimpleGraph(k + 2, host.edges - {(0, k + 1)})
    assert enumerate_copies(k + 2, SimpleGraph.complete(k), minus) == naive_copies(
        SimpleGraph.complete(k), minus)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 11),
       pattern=st.sampled_from([K3, P3, C4, C5, TWO_K2, K3_PLUS_VERTEX, VERTEX_PLUS_K3]),
       data=st.data())
def test_renumbered_enumeration_matches_naive_enumeration(n, pattern, data):
    # edges only among a drawn set of vertices that holds the top id, so the
    # others are isolated and the kernel walks the host renumbered
    verts = sorted(set(data.draw(st.lists(st.integers(0, n - 2), max_size=n - 2))) | {n - 1})
    pairs = list(itertools.combinations(verts, 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    host = SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    assert enumerate_copies(n, pattern, host) == naive_copies(pattern, host)


def test_enumeration_rows_cover_only_the_non_isolated_vertices(monkeypatch):
    # a triangle on the top three ids of 10^6 vertices: the kernel's rows
    # are built for three vertices, not for the largest id
    sizes = []

    def recording(n, edges):
        sizes.append(n)
        return bitmask_rows(n, edges)

    monkeypatch.setattr(graphs, "bitmask_rows", recording)
    n = 10 ** 6
    host = SimpleGraph.from_edges(n, [(n - 3, n - 2), (n - 3, n - 1), (n - 2, n - 1)])
    assert enumerate_copies(n, K3, host) == [(n - 3, n - 2, n - 1)]
    assert enumerate_copies(n, K3_PLUS_VERTEX, host) == [(n - 3, n - 2, n - 1, 0)]
    assert sizes == [3, 3]
    # a host with no isolated vertex keeps its ids
    assert len(enumerate_copies(5, K3)) == 10 and sizes[-1] == 5


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=-1, pattern=K3, forbidden=K3)
    with pytest.raises(ValueError):
        SearchConfig(n=4, pattern=K3, forbidden=K3, node_budget=0)


def test_single_triangle():
    res = max_rainbow_free_packing(SearchConfig(n=3, pattern=K3, forbidden=K3))
    assert res.value == 1 and res.optimal
    assert res.packing.copies == ((0, 1, 2),)


def test_triangle_table_small_n():
    expected = {3: 1, 4: 1, 5: 2, 6: 2, 7: 3}
    values = {}
    for n, want in expected.items():
        res = max_rainbow_free_packing(SearchConfig(n=n, pattern=K3, forbidden=K3))
        assert res.optimal
        values[n] = res.value
        assert res.value == want, n
        assert find_rainbow(res.packing, K3) is None
    # growing the ground set never hurts
    ns = sorted(values)
    assert all(values[a] <= values[b] for a, b in zip(ns, ns[1:]))


def test_double_pentagon_value():
    res = max_rainbow_free_packing(SearchConfig(n=5, pattern=C5, forbidden=K3))
    assert res.value == 2 and res.optimal
    edge_sets = [frozenset(embedded_edges(C5, emb)) for emb in res.packing.copies]
    assert edge_sets[0] | edge_sets[1] == SimpleGraph.complete(5).edges
    assert not edge_sets[0] & edge_sets[1]


def test_solver_equals_oracle_with_identical_witness():
    # symmetry off walks every first copy from the root against one
    # incumbent; the witness must still be the oracle's lex-min packing
    for pattern in (K3, K4, C5):
        for n in range(pattern.n, 6):
            oval, opack = oracle_max_packing(n, pattern, K3)
            for sym in (True, False):
                res = max_rainbow_free_packing(SearchConfig(
                    n=n, pattern=pattern, forbidden=K3, symmetry_breaking=sym))
                assert res.value == oval, (pattern.n, n, sym)
                assert res.packing.copies == opack.copies, (pattern.n, n, sym)


def test_oracle_shares_no_enumeration_with_the_solver(monkeypatch):
    def fast_path(*args, **kwargs):
        raise AssertionError("the oracle called the solver's copy enumeration")

    monkeypatch.setattr(solver, "enumerate_copies", fast_path)
    monkeypatch.setattr(solver, "embeddings", fast_path)
    monkeypatch.setattr(solver, "plan_embeddings", fast_path)
    value, packing = oracle_max_packing(5, C5, K3)
    assert value == 2
    assert packing.copies == ((0, 1, 3, 4, 2), (0, 3, 2, 1, 4))


def test_oracle_guard():
    with pytest.raises(GuardError, match="oracle guard"):
        oracle_max_packing(7, K3, K3)  # 35 copies


def test_symmetry_setting_does_not_change_witness():
    for n in (5, 6, 7):
        on = max_rainbow_free_packing(
            SearchConfig(n=n, pattern=K3, forbidden=K3, symmetry_breaking=True))
        off = max_rainbow_free_packing(
            SearchConfig(n=n, pattern=K3, forbidden=K3, symmetry_breaking=False))
        assert on.value == off.value
        assert on.packing.copies == off.packing.copies
        assert on.nodes <= off.nodes  # breaking symmetry can only shrink the tree


def _stabilizer_orbit_minimal(n, pattern):
    # the copies disjoint from copy 0 that no permutation of K_n keeping
    # copy 0's edge set sends to a lower index, by trying every permutation
    copies = naive_copies(pattern, SimpleGraph.complete(n))
    edge_sets = [frozenset(embedded_edges(pattern, emb)) for emb in copies]
    index = {edges: i for i, edges in enumerate(edge_sets)}

    def moved(perm, edges):
        return frozenset(tuple(sorted((perm[u], perm[v]))) for (u, v) in edges)

    stabilizer = [perm for perm in itertools.permutations(range(n))
                  if moved(perm, edge_sets[0]) == edge_sets[0]]
    disjoint = [i for i, edges in enumerate(edge_sets) if not edges & edge_sets[0]]
    minimal = [i for i in disjoint
               if all(index[moved(perm, edge_sets[i])] >= i for perm in stabilizer)]
    return copies, disjoint, minimal


@pytest.mark.parametrize("pattern", [K3, P3, C4, C5, TWO_K2, K3_PLUS_VERTEX, VERTEX_PLUS_K3, PAW])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_orbit_minimal_second_copies_against_permutations(n, pattern):
    copies, disjoint, minimal = _stabilizer_orbit_minimal(n, pattern)
    copy_edges = [embedded_edges(pattern, emb) for emb in copies]
    got = solver._orbit_minimal(n, pattern, copies[0], copy_edges,
                                sum(1 << i for i in disjoint))
    assert got == sum(1 << i for i in minimal)


def _without_orbits(mp):
    # the depth-1 walk keeps every copy disjoint from copy 0
    mp.setattr(solver, "_orbit_minimal",
               lambda n, pattern, first, copy_edges, disjoint: disjoint)


def _without_untouched_vertices(mp):
    # the walk starts with no vertex untouched, so the untouched-vertex step
    # skips none
    init = solver._Search.__init__

    def no_untouched_vertices(self, *args):
        init(self, *args)
        self.untouched = 0

    mp.setattr(solver._Search, "__init__", no_untouched_vertices)


def _without_either(mp):
    _without_orbits(mp)
    _without_untouched_vertices(mp)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 8),
       pattern=st.sampled_from([K3, C4, C5, P3, TWO_K2, K3_PLUS_VERTEX]),
       forbidden=st.sampled_from([K3, C4, C5, P4, None]),
       budget=st.sampled_from([3_000, 50_000]),
       without=st.sampled_from([_without_orbits, _without_untouched_vertices,
                                _without_either]))
def test_orbit_pruning_keeps_values_and_witnesses(n, pattern, forbidden, budget, without):
    # the reference walks with the orbit step, the untouched-vertex step or
    # both patched off
    cfg = SearchConfig(n=n, pattern=pattern, forbidden=forbidden, node_budget=budget)
    res = max_rainbow_free_packing(cfg)
    with pytest.MonkeyPatch.context() as mp:
        without(mp)
        plain = max_rainbow_free_packing(cfg)
    assert res.optimal >= plain.optimal
    if res.optimal and plain.optimal:
        assert (res.value, _fingerprint(res)[3]) == (plain.value, _fingerprint(plain)[3])
    if res.optimal:
        assert res.value >= plain.value
    if len(enumerate_copies(n, pattern)) <= 16:
        assert res.optimal
        value, packing = oracle_max_packing(n, pattern, forbidden)
        assert (res.value, res.packing.copies) == (value, packing.copies)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(4, 8),
       pattern=st.sampled_from([K3, P3, C4, C5, TWO_K2, K3_PLUS_VERTEX, PAW]),
       data=st.data())
def test_untouched_vertex_step_skips_only_copies_a_swap_lowers(n, pattern, data):
    # a random edge-disjoint prefix of copies, chosen in ascending order;
    # the walk after it must skip only copies that some transposition of
    # two vertices no chosen copy touches sends to a lower index
    copies = naive_copies(pattern, SimpleGraph.complete(n))
    if not copies:
        return
    copy_edges = [embedded_edges(pattern, emb) for emb in copies]
    index = {frozenset(edges): i for i, edges in enumerate(copy_edges)}
    picks = data.draw(st.sets(st.integers(0, len(copies) - 1), min_size=1, max_size=5))
    prefix, taken = [], set()
    for i in sorted(picks):
        if not taken & set(copy_edges[i]):
            prefix.append(i)
            taken |= set(copy_edges[i])
    # a symmetric search, though its second copies are never asked for
    sub = solver._Search(n, None, len(copies), copy_edges, 10 ** 9, lambda walk: walk)
    for i in prefix:
        assert sub._include(i)
    untouched = sorted(set(range(n)).difference(*taken))
    # every copy the walk offers is refused, so the walk stays at this node
    offered = []
    sub._include = lambda idx: offered.append(idx) or False
    sub.best_value = len(prefix)
    sub._dfs(prefix[-1] + 1, sum(1 << h for h in untouched))
    fits = [i for i in range(prefix[-1] + 1, len(copies)) if not taken & set(copy_edges[i])]
    assert set(offered) <= set(fits)

    def swapped(edges, a, b):
        swap = {a: b, b: a}
        return frozenset(tuple(sorted((swap.get(u, u), swap.get(v, v)))) for (u, v) in edges)

    for i in set(fits) - set(offered):
        assert any(index[swapped(copy_edges[i], a, b)] < i
                   for a, b in itertools.combinations(untouched, 2)), (prefix, i)


def test_clique_monotonicity():
    # every K4 packing contains a K3 packing of the same size
    for n in (4, 5, 6):
        v4 = max_rainbow_free_packing(
            SearchConfig(n=n, pattern=K4, forbidden=K3)).value
        v3 = max_rainbow_free_packing(
            SearchConfig(n=n, pattern=K3, forbidden=K3)).value
        assert v4 <= v3


def test_pure_packing_mode():
    # forbidden=None asks for the plain maximum edge-disjoint packing
    assert max_rainbow_free_packing(
        SearchConfig(n=5, pattern=K3, forbidden=None)).value == 2
    assert max_rainbow_free_packing(
        SearchConfig(n=6, pattern=K3, forbidden=None)).value == 4
    assert max_rainbow_free_packing(
        SearchConfig(n=7, pattern=K3, forbidden=None)).value == 7  # Steiner triple


def test_explicit_host():
    pet = SimpleGraph.petersen()
    res = max_rainbow_free_packing(
        SearchConfig(n=10, pattern=C5, forbidden=K3, host=pet))
    # 3 edge-disjoint pentagons would give some vertex odd leftover degree
    assert res.value == 2 and res.optimal
    for emb in res.packing.copies:
        assert set(embedded_edges(C5, emb)) <= pet.edges


def test_small_host_is_proved_within_one_budget():
    # every first copy of this 24-copy host is walked against the one
    # budget, so the whole search, 3,641 nodes, fits into 20,000
    host = SimpleGraph.from_edges(7, [(0, 6), (1, 2), (1, 5), (2, 3), (2, 4), (2, 5),
                                      (3, 4), (3, 5), (4, 5), (5, 6)])
    res = max_rainbow_free_packing(SearchConfig(n=7, pattern=P3, forbidden=K3, host=host,
                                                node_budget=20_000))
    assert (res.value, res.optimal, res.nodes) == (4, True, 3_641)
    value, packing = oracle_max_packing(7, P3, K3, host)
    assert (res.value, res.packing.copies) == (value, packing.copies)


def test_whole_budget_is_spent():
    # symmetry breaking walks copy 0 alone from the root, with all of the
    # budget
    res = max_rainbow_free_packing(SearchConfig(n=9, pattern=C5, forbidden=K3,
                                                node_budget=20_000))
    assert (res.optimal, res.nodes) == (False, 20_001)


def test_budget_exhaustion_degrades_to_lower_bound():
    res = max_rainbow_free_packing(
        SearchConfig(n=7, pattern=K3, forbidden=K3, node_budget=1))
    assert not res.optimal
    assert 0 <= res.value <= 3
    assert find_rainbow(res.packing, K3) is None or res.value == 0


def test_budget_cut_keeps_the_copy_it_just_accepted():
    # the one copy of K3 in K3 is included on node 1, and the budget runs
    # out on node 2, the root walk's step past it, after the incumbent has
    # taken it
    res = max_rainbow_free_packing(SearchConfig(n=3, pattern=K3, forbidden=K3, node_budget=1))
    assert (res.value, res.optimal, res.nodes) == (1, False, 2)
    assert res.packing.copies == ((0, 1, 2),)


def test_solver_guard():
    with pytest.raises(GuardError, match="solver guard"):
        max_rainbow_free_packing(SearchConfig(n=13, pattern=K3, forbidden=K3))


def test_no_copies_fit():
    res = max_rainbow_free_packing(SearchConfig(n=4, pattern=C5, forbidden=K3))
    assert res.value == 0 and res.optimal and len(res.packing) == 0


# the clique cap for t = 3, 4, 5 on N = t..12 vertices; it equals the
# optimum K_t/K3 value on K_N for every N <= 10 (test_clique_cap_is_tight)
CLIQUE_CAPS = {
    3: [1, 1, 2, 2, 3, 4, 6, 6, 8, 9],
    4: [1, 1, 1, 2, 2, 2, 3, 3, 4],
    5: [1, 1, 1, 1, 2, 2, 2, 2],
}


def _balanced_squares(total, n):
    # the least sum of squares of n nonnegative integers summing to total,
    # built up one unit at a time on a smallest part
    parts = [0] * n
    for _ in range(total):
        parts[parts.index(min(parts))] += 1
    return sum(x * x for x in parts)


@pytest.mark.parametrize("t", sorted(CLIQUE_CAPS))
def test_clique_cap_table(t):
    assert [solver._clique_cap(t, n) for n in range(t, 13)] == CLIQUE_CAPS[t]
    for n in range(t, 13):
        limit = (n + t * (t - 2)) // (t - 1)
        passes = [_balanced_squares(t * copies, n) <= copies * limit
                  for copies in range(n * n)]
        # the passing counts are 0..cap, with no gap
        assert passes.index(False) == solver._clique_cap(t, n) + 1 == sum(passes), (t, n)


def test_clique_cap_is_tight():
    for t, caps in CLIQUE_CAPS.items():
        for n in range(t, 11):
            res = max_rainbow_free_packing(
                SearchConfig(n=n, pattern=SimpleGraph.complete(t), forbidden=K3))
            assert res.optimal and res.value == caps[n - t], (t, n)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 8), pattern=st.sampled_from([K3, K4]), data=st.data())
def test_clique_cap_keeps_values_and_witnesses(n, pattern, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    host = SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    cfg = SearchConfig(n=n, pattern=pattern, forbidden=K3, host=host, node_budget=20_000)
    capped = max_rainbow_free_packing(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_clique_cap", lambda t, vertices: vertices * vertices)
        uncapped = max_rainbow_free_packing(cfg)
    assert capped.value == uncapped.value
    assert capped.nodes <= uncapped.nodes
    if capped.optimal and uncapped.optimal:
        assert _fingerprint(capped)[3] == _fingerprint(uncapped)[3]
    assert not naive_rainbow_scan(n, capped.packing.edge_color, K3)


def _without_counting_facts(mp):
    # the edge cap alone for the vertex cap, and a rainbow check on every
    # include, however few copies the packing holds
    mp.setattr(solver, "_vertex_cap", lambda pattern, host: host.edge_count())
    init = solver._Search.__init__

    def check_every_include(self, *args):
        init(self, *args)
        self.rainbow_edges = 0

    mp.setattr(solver._Search, "__init__", check_every_include)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(3, 8), pattern=st.sampled_from([K3, C4, C5, P3]),
       forbidden=st.sampled_from([K3, C4, C5, P4, None]), data=st.data())
def test_vertex_cap_and_color_gate_keep_values_and_witnesses(n, pattern, forbidden, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    host = SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    cfg = SearchConfig(n=n, pattern=pattern, forbidden=forbidden, host=host,
                       node_budget=20_000)
    res = max_rainbow_free_packing(cfg)
    with pytest.MonkeyPatch.context() as mp:
        _without_counting_facts(mp)
        plain = max_rainbow_free_packing(cfg)
    # the walk is the same up to where the incumbent meets the cap, so a
    # budget can cut only the plain run short; it then keeps the same best
    assert (res.value, _fingerprint(res)[3]) == (plain.value, _fingerprint(plain)[3])
    assert res.optimal >= plain.optimal and res.nodes <= plain.nodes
    # the oracle extends subsets only by disjoint copies, so it takes every
    # input its 24-copy guard admits
    if len(enumerate_copies(n, pattern, host)) <= ORACLE_COPY_LIMIT:
        assert res.optimal
        value, packing = oracle_max_packing(n, pattern, forbidden, host)
        assert (res.value, res.packing.copies) == (value, packing.copies)


# (value, optimal, nodes, sha256 of the packing JSON).  Nodes count every
# copy index the include/exclude walk passes, and every run walks from the
# root against its whole budget.  Rows with symmetry off or an explicit
# host walk every first copy, and the root's walk ends once the incumbent
# meets the cap; rows with symmetry on and a complete host take copy 0
# alone first, walk only orbit-minimal second copies past the first, and
# skip the later copies that a swap of two untouched vertices would lower.
# The budget-cut rows stop inside a run of clashing copies, so they pin the
# bulk node count and the position of the cut exactly.  The K3/K3 and K4/K3
# rows end where the incumbent reaches the clique cap, the K3/K3 n = 8 rows
# and the _HOST8 row well inside their budgets.  The K3/none n = 8, K3/C5
# n = 6 and Petersen rows end at the vertex cap (8, 4 and 2); the K3/C5 row
# runs no rainbow check at all, as a rainbow C5 needs five copies.
_HOST8 = SimpleGraph.from_edges(
    8, [(u, v) for u in range(8) for v in range(u + 1, 8) if (5 * u + 3 * v) % 7])
GOLDEN_SOLVES = [
    (dict(n=8, pattern=K3, forbidden=K3, node_budget=500),
     (4, True, 93, "39431d151fcc23dbd544217724212c293e0904b1d586d63fae60297ce6d9d620")),
    (dict(n=8, pattern=K3, forbidden=K3, node_budget=2000),
     (4, True, 93, "39431d151fcc23dbd544217724212c293e0904b1d586d63fae60297ce6d9d620")),
    (dict(n=7, pattern=K3, forbidden=K3),
     (3, True, 18, "330e2e5c86b14f7e68822ff1a696f6ad7c0ff7be91512ebb1f72358d57171a82")),
    (dict(n=7, pattern=K3, forbidden=K3, symmetry_breaking=False),
     (3, True, 18, "330e2e5c86b14f7e68822ff1a696f6ad7c0ff7be91512ebb1f72358d57171a82")),
    (dict(n=7, pattern=C5, forbidden=K3, node_budget=3000, symmetry_breaking=False),
     (3, False, 3001, "1ca1bab77af22b25d3095e50211824650e37c3933b389311f837103230005946")),
    (dict(n=8, pattern=C5, forbidden=K3),
     (3, True, 17875, "54601c268590b2f5314427ab670e13a8c24e9c378910ca42385f933bda18371d")),
    (dict(n=8, pattern=C5, forbidden=K3, node_budget=5000),
     (3, False, 5001, "54601c268590b2f5314427ab670e13a8c24e9c378910ca42385f933bda18371d")),
    (dict(n=7, pattern=K3, forbidden=C4, node_budget=700),
     (4, True, 249, "b17b01d6bd8ec1366caf8ff5830a9b2562a4c7859f0eac351e344f87d4a568e7")),
    (dict(n=6, pattern=K3, forbidden=C5),
     (4, True, 23, "3acddfa608ecfb3d5297842d09ff5997f6ede0934d73cc05f92a02ba8f81bf90")),
    (dict(n=7, pattern=K3, forbidden=P4),
     (3, True, 83, "330e2e5c86b14f7e68822ff1a696f6ad7c0ff7be91512ebb1f72358d57171a82")),
    (dict(n=7, pattern=K3, forbidden=PAW, node_budget=3000),
     (4, True, 208, "42315dc0b617f2bc8a7ff37491aae09f0eef8e3944e5c33bae8e424260541ae5")),
    (dict(n=8, pattern=K3, forbidden=None, node_budget=1000),
     (8, True, 390, "86cbc5bbb57f6a9d63e46cd3f1865ba264fe185bccb933e7ec6c903dbd3f9294")),
    (dict(n=7, pattern=K4, forbidden=K3),
     (2, True, 22, "388de8ac22b5494c75dfada1f56e88a222e17d1fb18168ed99d2f4737f17e90e")),
    (dict(n=7, pattern=C4, forbidden=K3),
     (2, True, 338, "f258a0f60e824ed114dbeef3a1010e90a25e4286ecdd70408bb9dafbbd0761ad")),
    (dict(n=10, pattern=C5, forbidden=K3, host=SimpleGraph.petersen()),
     (2, True, 14, "fc9b351bceff287fb62c78d4c230f7d9a5f542afb61ad7cb651464161c2f8c2a")),
    (dict(n=8, pattern=K3, forbidden=K3, host=_HOST8, node_budget=4000),
     (4, True, 54, "39431d151fcc23dbd544217724212c293e0904b1d586d63fae60297ce6d9d620")),
    # without the clique cap these took 85,804 and 2,082,057 nodes
    (dict(n=9, pattern=K3, forbidden=K3),
     (6, True, 314, "b22244a938e18e37d162de2d2012ea8422039181682135b8d1f7db1cfddad60c")),
    (dict(n=10, pattern=K3, forbidden=K3),
     (6, True, 831, "8949ca00230c9ce917fd432c38e27f5c0ebff2a8e003a11227379729ebfa5a24")),
]


def _fingerprint(res):
    digest = hashlib.sha256(canonical_json(res.packing.to_json_dict()).encode()).hexdigest()
    return (res.value, res.optimal, res.nodes, digest)


@pytest.mark.parametrize("kwargs, want", GOLDEN_SOLVES,
                         ids=[f"case{i}" for i in range(len(GOLDEN_SOLVES))])
def test_golden_solver_table(kwargs, want):
    assert _fingerprint(max_rainbow_free_packing(SearchConfig(**kwargs))) == want


def _stack_depth() -> int:
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


@pytest.mark.parametrize("n", [9, 10, 12])
def test_deep_search_needs_no_deep_stack(n):
    # K9 has 1,512 pentagons and K12 9,504; a walk that recursed once per
    # copy would need that many frames, this one needs at most value + 1
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        res = max_rainbow_free_packing(
            SearchConfig(n=n, pattern=C5, forbidden=K3, node_budget=20_000))
    finally:
        sys.setrecursionlimit(old)
    assert not res.optimal and res.value >= 1
    assert not naive_rainbow_scan(n, res.packing.edge_color, K3)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 7), pattern=st.sampled_from([K3, C4, C5]), data=st.data())
def test_triangle_check_matches_the_embedding_kernel(n, pattern, data):
    # with K3 not recognized as a triangle the solver checks every include
    # with the embedding kernel; the search tree must not change.  That also
    # drops the clique cap, so both runs go without it
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    host = SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    cfg = SearchConfig(n=n, pattern=pattern, forbidden=K3, host=host, node_budget=3000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_clique_cap", lambda t, vertices: vertices * vertices)
        fast = max_rainbow_free_packing(cfg)
        mp.setattr(SimpleGraph, "is_cycle", lambda self, k: False)
        generic = max_rainbow_free_packing(cfg)
    assert _fingerprint(fast) == _fingerprint(generic)
    assert not naive_rainbow_scan(n, fast.packing.edge_color, K3)


BULL = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
STAR4 = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
DIAMOND = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def _whole_union_check(self, edges):
    # the kernel over the whole union, with no pin
    return next(embeddings(self.forbidden, self.nbr, color=self.col), None) is not None


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 7), pattern=st.sampled_from([K3, P3, C4, C5]),
       forbidden=st.sampled_from([SimpleGraph.complete(2), P3, P4, PAW, BULL,
                                  STAR4, DIAMOND, C4, C5, K4]),
       data=st.data())
def test_anchored_check_matches_the_whole_union_check(n, pattern, forbidden, data):
    # the solver pins each arc-orbit representative of G to each new edge;
    # searching the whole union instead must give the same search tree
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    host = SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    cfg = SearchConfig(n=n, pattern=pattern, forbidden=forbidden, host=host,
                       node_budget=2000)
    anchored = max_rainbow_free_packing(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._Search, "_makes_rainbow", _whole_union_check)
        whole = max_rainbow_free_packing(cfg)
    assert _fingerprint(anchored) == _fingerprint(whole)
    assert not naive_rainbow_scan(n, anchored.packing.edge_color, forbidden)



def _undo_with_sentinels(mp):
    # every undo leaves a fresh color in each removed key, one no copy has
    # and no other key shares, so a read of a stale color changes a verdict
    undo = solver._Search._undo
    fresh = itertools.count(-1, -1)

    def undo_and_scribble(self, idx):
        undo(self, idx)
        for (u, v) in self.copy_edges[idx]:
            self.col[u * self.n + v] = next(fresh)

    mp.setattr(solver._Search, "_undo", undo_and_scribble)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(5, 8), pattern=st.sampled_from([K3, C4, C5, P3]),
       forbidden=st.sampled_from([K3, C4, C5, P4, PAW, None]), data=st.data())
def test_stale_colors_are_never_read(n, pattern, forbidden, data):
    # an undo clears a removed edge's row bits but keeps its color; the
    # triangle test and the kernel read colors only under set row bits
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    host = SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    cfg = SearchConfig(n=n, pattern=pattern, forbidden=forbidden, host=host,
                       node_budget=5000)
    plain = max_rainbow_free_packing(cfg)
    with pytest.MonkeyPatch.context() as mp:
        _undo_with_sentinels(mp)
        scribbled = max_rainbow_free_packing(cfg)
    assert _fingerprint(scribbled) == _fingerprint(plain)


def test_forbidden_graph_guards():
    with pytest.raises(GuardError, match="9 > 8 vertices"):
        max_rainbow_free_packing(
            SearchConfig(n=6, pattern=K3, forbidden=SimpleGraph.cycle(9)))
    two_edges = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        max_rainbow_free_packing(SearchConfig(n=6, pattern=K3, forbidden=two_edges))
    # checked before the search, so also when no copy fits
    with pytest.raises(GuardError):
        max_rainbow_free_packing(
            SearchConfig(n=4, pattern=C5, forbidden=SimpleGraph.cycle(9)))
