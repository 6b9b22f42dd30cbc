"""Data model: graphs, packings, blow-ups, the embedding kernel."""

import itertools
import json
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from rainbowpack import (BlowupSpec, ColoredPacking, GuardError, PackingError,
                         SimpleGraph, blow_up, canonical_json, union_graph)
from rainbowpack import graphs
from rainbowpack.constructions import c5_blowup_packing, k5_double_pentagon
from rainbowpack.graphs import (_JSON_N_LIMIT, arc_orbit_representatives,
                                 embeddings, lex_min_conditions, placement,
                                 plan_embeddings)


def test_edge_normalization_and_value_equality():
    g1 = SimpleGraph.from_edges(4, [(2, 0), (1, 3)])
    g2 = SimpleGraph.from_edges(4, [(0, 2), (3, 1)])
    assert g1 == g2
    assert g1.sorted_edges() == [(0, 2), (1, 3)]


def test_loops_and_out_of_range_rejected():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(2, 1)}))  # stored pairs must be (min,max)


def test_factories():
    assert SimpleGraph.complete(5).edge_count() == 10
    assert SimpleGraph.cycle(7).edge_count() == 7
    assert SimpleGraph.path(4).edge_count() == 3
    assert SimpleGraph.empty(6).edge_count() == 0
    pet = SimpleGraph.petersen()
    assert pet.n == 10 and pet.edge_count() == 15
    assert all(d == 3 for d in pet.degrees())


def test_json_round_trip_is_canonical():
    g = SimpleGraph.from_edges(5, [(4, 0), (1, 2)])
    s = g.to_json()
    assert s == '{"edges":[[0,4],[1,2]],"n":5}'
    assert SimpleGraph.from_json_dict(json.loads(s)) == g


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_packing_rejects_edge_clash_naming_both_copies():
    tri = SimpleGraph.complete(3)
    with pytest.raises(PackingError, match=r"copies 0 and 2 both use edge \(0, 1\)"):
        ColoredPacking(6, tri, [(0, 1, 2), (3, 4, 5), (0, 1, 5)])


def test_packing_rejects_non_injective_copy():
    tri = SimpleGraph.complete(3)
    with pytest.raises(PackingError, match="not injective"):
        ColoredPacking(4, tri, [(0, 1, 1)])


def test_packing_rejects_vertex_outside_ground():
    tri = SimpleGraph.complete(3)
    with pytest.raises(PackingError, match="outside ground set"):
        ColoredPacking(3, tri, [(0, 1, 3)])


def test_packing_rejects_duplicate_copy():
    # same edge set twice can never be edge-disjoint
    tri = SimpleGraph.complete(3)
    with pytest.raises(PackingError):
        ColoredPacking(3, tri, [(0, 1, 2), (0, 2, 1)])


def test_packing_rejects_edgeless_pattern():
    with pytest.raises(PackingError):
        ColoredPacking(3, SimpleGraph.empty(2), [(0, 1)])


def test_union_graph_counts():
    k5 = k5_double_pentagon()
    u = union_graph(k5)
    assert u == SimpleGraph.complete(5)
    assert u.edge_count() == 10

    empty = ColoredPacking(4, SimpleGraph.complete(3), [])
    assert union_graph(empty) == SimpleGraph.empty(4)

    p3 = c5_blowup_packing(3)
    u3 = union_graph(p3)
    assert u3.n == 15 and u3.edge_count() == 45


def test_union_edge_count_formula_random(seed=4021):
    # e(union) = e(pattern) * copies for every valid packing
    rng = random.Random(seed)
    tri = SimpleGraph.complete(3)
    for _ in range(40):
        n = rng.randint(3, 9)
        copies = []
        used = set()
        for _ in range(rng.randint(0, 4)):
            v = rng.sample(range(n), 3)
            edges = {tuple(sorted(p)) for p in
                     [(v[0], v[1]), (v[0], v[2]), (v[1], v[2])]}
            if edges & used:
                continue
            used |= edges
            copies.append(tuple(v))
        p = ColoredPacking(n, tri, copies)
        assert union_graph(p).edge_count() == 3 * len(copies)


def test_pentagon_packing_degrees_all_even():
    for m in (1, 3, 5):
        u = union_graph(c5_blowup_packing(m))
        assert all(d % 2 == 0 for d in u.degrees())
    assert all(d % 2 == 0 for d in union_graph(k5_double_pentagon()).degrees())


def test_copy_edges_sorted():
    p = k5_double_pentagon()
    assert p.copy_edges(0) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert p.copy_edges(1) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


def test_is_cycle():
    assert SimpleGraph.complete(3).is_cycle(3)
    assert SimpleGraph.cycle(5).is_cycle(5)
    assert not SimpleGraph.complete(5).is_cycle(5)
    assert not SimpleGraph.cycle(5).is_cycle(4)
    assert not SimpleGraph.path(5).is_cycle(5)
    two_triangles = SimpleGraph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not two_triangles.is_cycle(6)


def _bfs_order(g: SimpleGraph, first=()) -> list[int]:
    # the first vertices, then BFS from them, then BFS from each smallest
    # vertex not yet reached
    adj = g.adjacency()
    order: list[int] = []
    for roots in [list(first)] + [[v] for v in range(g.n)]:
        if any(r in order for r in roots):
            continue
        order += roots
        queue = list(roots)
        while queue:
            for w in sorted(adj[queue.pop(0)]):
                if w not in order:
                    order.append(w)
                    queue.append(w)
    return order


@st.composite
def _graph(draw, max_n: int) -> SimpleGraph:
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))


def _brute_force_maps(small, host, color=None):
    maps = []
    for m in itertools.permutations(range(host.n), small.n):
        images = [tuple(sorted((m[u], m[v]))) for (u, v) in small.edges]
        if not all(e in host.edges for e in images):
            continue
        if color is not None and len({color[e] for e in images}) < len(images):
            continue
        maps.append(m)
    return maps


def _random_colors(host, data):
    edges = host.sorted_edges()
    return dict(zip(edges, data.draw(st.lists(
        st.integers(0, 3), min_size=len(edges), max_size=len(edges)))))


@settings(max_examples=150, deadline=None)
@given(small=_graph(4), host=_graph(6), colored=st.booleans(), data=st.data())
def test_embedding_kernel_matches_brute_force(small, host, colored, data):
    color = _random_colors(host, data) if colored else None
    expected = _brute_force_maps(small, host, color)
    # ascending candidates: maps come out sorted by their images in BFS order
    order = _bfs_order(small)
    expected.sort(key=lambda m: [m[v] for v in order])
    got = list(embeddings(small, host.adjacency(), color))
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(small=_graph(5), host=_graph(6), colored=st.booleans(), data=st.data())
def test_pinned_embedding_kernel_matches_filtered_brute_force(
        small, host, colored, data):
    assume(small.edges and host.n >= 2)
    (a, b) = data.draw(st.sampled_from(small.sorted_edges()))
    if data.draw(st.booleans()):
        (a, b) = (b, a)
    (u, v) = data.draw(st.sampled_from(list(itertools.permutations(range(host.n), 2))))
    color = _random_colors(host, data) if colored else None
    expected = [m for m in _brute_force_maps(small, host, color)
                if m[a] == u and m[b] == v]
    # the pinned arc is placed first, then BFS runs from both its ends
    order, anchors = placement(small, (a, b))
    assert order == _bfs_order(small, (a, b))
    expected.sort(key=lambda m: [m[v] for v in order])
    # pinned as the solver pins: one host vertex at each pinned position,
    # every host vertex at the others
    nbr = [sum(1 << w for w in nb) for nb in host.adjacency()]
    start = [1 << u, 1 << v] + [(1 << host.n) - 1] * (small.n - 2)
    got = list(plan_embeddings(order, anchors, nbr, start, color))
    assert got == expected


def _automorphisms(g: SimpleGraph) -> list[tuple[int, ...]]:
    return [p for p in itertools.permutations(range(g.n))
            if all(tuple(sorted((p[u], p[v]))) in g.edges for (u, v) in g.edges)]


def test_arc_orbit_representatives_against_permutations():
    # every connected labeled graph on at most 5 vertices: the
    # representatives are exactly the smallest arc of each Aut(G)-orbit
    graphs = 0
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for keep in itertools.product((False, True), repeat=len(pairs)):
            g = SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
            if not g.edges or not g.is_connected():
                continue
            graphs += 1
            autos = _automorphisms(g)
            arcs = [(u, v) for (u, v) in g.edges] + [(v, u) for (u, v) in g.edges]
            smallest = {min((p[x], p[y]) for p in autos) for (x, y) in arcs}
            assert arc_orbit_representatives(g) == sorted(smallest), g
    assert graphs == 1 + 4 + 38 + 728


def test_arc_orbit_representatives_of_large_symmetric_graphs():
    # K8 has 40,320 automorphisms; no list of them is built
    assert arc_orbit_representatives(SimpleGraph.complete(8)) == [(0, 1)]
    assert arc_orbit_representatives(SimpleGraph.cycle(8)) == [(0, 1)]
    assert arc_orbit_representatives(SimpleGraph.path(4)) == [(0, 1), (1, 0), (1, 2)]
    assert arc_orbit_representatives(SimpleGraph.petersen()) == [(0, 1)]


def test_lex_min_conditions_against_permutations():
    # every labeled graph on at most 5 vertices, isolated vertices included:
    # the pairs are the stabilizer-chain orbits, and the only self-map that
    # meets them is the identity, the smallest automorphism
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for keep in itertools.product((False, True), repeat=len(pairs)):
            g = SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
            autos = _automorphisms(g)
            want = sorted({(i, p[i]) for p in autos for i in range(n)
                           if p[:i] == tuple(range(i)) and p[i] != i})
            conditions = lex_min_conditions(g)
            assert list(conditions) == want, g
            assert list(embeddings(g, g.adjacency(), less=conditions)) == [tuple(range(n))]


@st.composite
def _graph_with_symmetry(draw) -> SimpleGraph:
    # the union of the orbits of a few edges under a drawn permutation, so
    # Aut(g) holds that permutation; isolated vertices are kept
    n = draw(st.integers(6, 7))
    sigma = draw(st.permutations(range(n)))
    pairs = list(itertools.combinations(range(n), 2))
    edges = set()
    for (u, v) in draw(st.lists(st.sampled_from(pairs), max_size=6)):
        while (u, v) not in edges:
            edges.add((u, v))
            u, v = sorted((sigma[u], sigma[v]))
    return SimpleGraph(n, frozenset(edges))


@settings(max_examples=100, deadline=None)
@given(g=_graph_with_symmetry())
def test_automorphism_searches_against_permutations_beyond_five_vertices(g):
    autos = _automorphisms(g)
    want = sorted({(i, p[i]) for p in autos for i in range(g.n)
                   if p[:i] == tuple(range(i)) and p[i] != i})
    assert list(lex_min_conditions(g)) == want
    assert list(embeddings(g, g.adjacency(), less=lex_min_conditions(g))) == [
        tuple(range(g.n))]
    if g.edges and g.is_connected():
        arcs = [(u, v) for (u, v) in g.edges] + [(v, u) for (u, v) in g.edges]
        smallest = {min((p[x], p[y]) for p in autos) for (x, y) in arcs}
        assert arc_orbit_representatives(g) == sorted(smallest)


def test_embedding_kernel_roots_skip_isolated_host_vertices():
    # a root tries only host vertices of enough degree; trying all of them
    # made the search quadratic in the isolated vertices, tens of seconds
    # at this size
    adj = SimpleGraph.from_edges(300_000, [(0, 1), (1, 2), (0, 2)]).adjacency()
    t0 = time.perf_counter()
    copies = list(embeddings(SimpleGraph.complete(3), adj))
    assert time.perf_counter() - t0 < 5.0
    assert copies == list(itertools.permutations(range(3)))


def test_embedding_row_guard_is_exact(monkeypatch):
    # the estimate is the sum of each vertex's largest neighbor id, over 8
    adj = SimpleGraph.from_edges(800, [(0, 799)]).adjacency()
    monkeypatch.setattr(graphs, "_ROW_BYTES_LIMIT", 99)
    assert list(embeddings(SimpleGraph.complete(2), adj)) == [(0, 799), (799, 0)]
    monkeypatch.setattr(graphs, "_ROW_BYTES_LIMIT", 98)
    with pytest.raises(GuardError, match="embeddings guard"):
        embeddings(SimpleGraph.complete(2), adj)


def test_packing_json_round_trip():
    p = c5_blowup_packing(3)
    q = ColoredPacking.from_json_dict(json.loads(p.to_json()))
    assert q.copies == p.copies and q.n == p.n and q.pattern == p.pattern


def test_json_vertex_count_guard():
    k3 = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
    for n in (_JSON_N_LIMIT, _JSON_N_LIMIT + 1):
        graph = dict(k3, n=n)
        packing = {"n": n, "pattern": k3, "copies": [[0, 1, 2]]}
        if n > _JSON_N_LIMIT:
            with pytest.raises(GuardError, match="vertex limit"):
                SimpleGraph.from_json_dict(graph)
            with pytest.raises(GuardError, match="vertex limit"):
                ColoredPacking.from_json_dict(packing)
        else:
            assert SimpleGraph.from_json_dict(graph).n == n
            assert ColoredPacking.from_json_dict(packing).n == n
    # the pattern inside a packing is a JSON graph too
    with pytest.raises(GuardError, match="vertex limit"):
        ColoredPacking.from_json_dict(
            {"n": 3, "pattern": dict(k3, n=_JSON_N_LIMIT + 1), "copies": []})


def test_blow_up_identity_when_all_sizes_one():
    for base in (SimpleGraph.cycle(5), SimpleGraph.complete(4), SimpleGraph.path(3)):
        assert blow_up(BlowupSpec(base, (1,) * base.n)) == base


def test_blow_up_counts():
    c5 = SimpleGraph.cycle(5)
    for m in (2, 3, 4):
        g = blow_up(BlowupSpec(c5, (m,) * 5))
        assert g.n == 5 * m and g.edge_count() == 5 * m * m
    g = blow_up(BlowupSpec(SimpleGraph.complete(3), (1, 1, 2)))
    assert g.n == 4 and g.edge_count() == 5


def test_blow_up_classes_independent():
    g = blow_up(BlowupSpec(SimpleGraph.cycle(5), (3,) * 5))
    for cls in range(5):
        block = range(3 * cls, 3 * cls + 3)
        for u in block:
            for v in block:
                if u < v:
                    assert not g.has_edge(u, v)


def _has_triangle(g: SimpleGraph) -> bool:
    adj = g.adjacency()
    return any(adj[u] & adj[v] for (u, v) in g.edges)


def test_blow_up_of_triangle_free_base_is_triangle_free(seed=919):
    rng = random.Random(seed)
    bases = [SimpleGraph.cycle(5), SimpleGraph.cycle(7), SimpleGraph.path(4)]
    for base in bases:
        for _ in range(5):
            sizes = tuple(rng.randint(1, 60 // base.n) for _ in range(base.n))
            g = blow_up(BlowupSpec(base, sizes))
            assert g.n <= 60
            assert not _has_triangle(g)


def test_blowup_spec_length_mismatch():
    with pytest.raises(ValueError):
        BlowupSpec(SimpleGraph.cycle(5), (1, 1, 1))
