"""Data model: graphs, packings, blow-ups, chromatic number, girth."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rainbowpack import (BlowupSpec, ColoredPacking, PackingError, SimpleGraph,
                         blow_up, canonical_json, chromatic_number, girth,
                         union_graph)
from rainbowpack.constructions import c5_blowup_packing, k5_double_pentagon
from rainbowpack.graphs import embeddings


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


def _bfs_order(g: SimpleGraph) -> list[int]:
    adj = g.adjacency()
    order: list[int] = []
    for root in range(g.n):
        if root in order:
            continue
        queue = [root]
        order.append(root)
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


@settings(max_examples=150, deadline=None)
@given(small=_graph(4), host=_graph(6), injective=st.booleans(),
       colored=st.booleans(), data=st.data())
def test_embedding_kernel_matches_brute_force(small, host, injective, colored, data):
    edges = host.sorted_edges()
    color = None
    if colored:
        color = dict(zip(edges, data.draw(st.lists(
            st.integers(0, 3), min_size=len(edges), max_size=len(edges)))))
    expected = []
    for m in itertools.product(range(host.n), repeat=small.n):
        if injective and len(set(m)) < small.n:
            continue
        images = [tuple(sorted((m[u], m[v]))) for (u, v) in small.edges]
        if not all(e in host.edges for e in images):
            continue
        if color is not None and len({color[e] for e in images}) < len(images):
            continue
        expected.append(m)
    # ascending candidates: maps come out sorted by their images in BFS order
    order = _bfs_order(small)
    expected.sort(key=lambda m: [m[v] for v in order])
    got = list(embeddings(small, host.adjacency(), injective, color))
    assert got == expected


def test_packing_json_round_trip():
    p = c5_blowup_packing(3)
    q = ColoredPacking.from_json_dict(json.loads(p.to_json()))
    assert q.copies == p.copies and q.n == p.n and q.pattern == p.pattern


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


def test_chromatic_number_known_values():
    assert chromatic_number(SimpleGraph.cycle(5)) == 3
    assert chromatic_number(SimpleGraph.complete(4)) == 4
    assert chromatic_number(SimpleGraph.petersen()) == 3
    assert chromatic_number(SimpleGraph.empty(5)) == 1
    assert chromatic_number(SimpleGraph.empty(0)) == 0
    assert chromatic_number(SimpleGraph.path(2)) == 2
    assert chromatic_number(SimpleGraph.cycle(6)) == 2


def test_chromatic_number_guard():
    from rainbowpack import GuardError
    with pytest.raises(GuardError):
        chromatic_number(SimpleGraph.empty(17))


def test_girth_known_values():
    assert girth(SimpleGraph.complete(3)) == 3
    assert girth(SimpleGraph.cycle(7)) == 7
    assert girth(SimpleGraph.path(4)) == math.inf
    assert girth(SimpleGraph.petersen()) == 5
    assert girth(blow_up(BlowupSpec(SimpleGraph.cycle(5), (2,) * 5))) == 4
    assert girth(SimpleGraph.complete(5)) == 3
    assert girth(SimpleGraph.empty(3)) == math.inf
