"""Data model: graphs, packings, blow-ups, the embedding kernel."""

import itertools
import json
import random
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rainbowpack import (BlowupSpec, ColoredPacking, GuardError, PackingError,
                         SimpleGraph, blow_up, canonical_json)
from rainbowpack import graphs
from rainbowpack.constructions import c5_blowup_packing, k5_double_pentagon
from rainbowpack.graphs import (_JSON_N_LIMIT, arc_orbit_representatives,
                                 automorphism_generators, bitmask_rows,
                                 count_triangles, embedded_edges, embeddings,
                                 lex_min_conditions, placement, plan_embeddings)


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


def _loop_validated(n: int, pattern: SimpleGraph, copies) -> dict:
    """Edge -> color the way the per-copy loop builds it, raising the first
    PackingError it meets: the reference for the bulk validation."""
    color: dict[tuple[int, int], int] = {}
    k = pattern.n
    for ci, copy in enumerate(copies):
        if len(copy) != k:
            raise PackingError(f"copy {ci} has {len(copy)} vertices, expected {k}")
        if len(set(copy)) != k:
            raise PackingError(f"copy {ci} is not injective: {copy}")
        for x in copy:
            if not (0 <= x < n):
                raise PackingError(f"copy {ci} uses vertex {x} outside ground set")
        for (i, j) in pattern.edges:
            e = (min(copy[i], copy[j]), max(copy[i], copy[j]))
            if e in color:
                raise PackingError(f"copies {color[e]} and {ci} both use edge {e}")
            color[e] = ci
    return color


def _entries(n: int, pattern: SimpleGraph, copies) -> list:
    """The packing's builds: from its rows and, when the copies have one
    length, from their columns (pattern.n empty ones for no copies)."""
    entries = [lambda: ColoredPacking(n, pattern, copies)]
    if len(set(map(len, copies))) <= 1:
        cols = list(zip(*copies)) if copies else [()] * pattern.n
        entries.append(lambda: ColoredPacking.from_columns(n, pattern, cols))
    return entries


VALIDATION_PATTERNS = [
    SimpleGraph.complete(2), SimpleGraph.complete(3), SimpleGraph.complete(4),
    SimpleGraph.path(3), SimpleGraph.cycle(4),
    SimpleGraph.cycle(5), SimpleGraph.from_edges(4, [(0, 1), (2, 3)]),
    SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2)]),  # K3 and an isolated vertex
]


@st.composite
def _copy_lists(draw):
    """A ground size, a pattern and an edge-disjoint list of copies, maybe
    empty, drawn in one orientation: every copy's vertices ascending,
    every copy's descending, or each copy in a random order, so that each
    pattern edge's two columns are below, above or mixed.  Copies are
    inserted that may have the wrong length, repeat a vertex at adjacent
    or non-adjacent positions, leave the ground set or reuse an edge."""
    pattern = draw(st.sampled_from(VALIDATION_PATTERNS))
    k = pattern.n
    n = draw(st.integers(0, 9))
    injective = st.permutations(range(max(n, k))).map(lambda p: list(p[:k]))
    order = draw(st.sampled_from(["ascending", "descending", "mixed"]))
    copies: list[tuple[int, ...]] = []
    used: set[tuple[int, int]] = set()
    for m in draw(st.lists(injective, max_size=10)):
        if order != "mixed":
            m.sort(reverse=order == "descending")
        edges = {(min(m[i], m[j]), max(m[i], m[j])) for (i, j) in pattern.edges}
        if max(m) < n and not edges & used:
            used |= edges
            copies.append(tuple(m))
    for _ in range(draw(st.integers(0, 2))):
        bad = draw(injective)
        if order != "mixed":
            bad.sort(reverse=order == "descending")
        kind = draw(st.sampled_from(["length", "repeat", "range", "clash"]))
        if kind == "length":
            bad = bad + bad[:1] if draw(st.booleans()) else bad[:-1]
        elif kind == "repeat":
            i, j = draw(st.permutations(range(k)))[:2]
            bad[j] = bad[i]
        elif kind == "range":
            bad[draw(st.integers(0, k - 1))] = draw(st.sampled_from([-1, n, n + 1]))
        copies.insert(draw(st.integers(0, len(copies))), tuple(bad))
    return n, pattern, copies


@settings(max_examples=400, deadline=None)
@given(case=_copy_lists())
# a repeat at non-adjacent positions that no shared edge gives away: only
# the per-copy sets see it
@example(case=(4, SimpleGraph.from_edges(4, [(0, 1), (2, 3)]), [(0, 1, 0, 2)]))
@example(case=(4, SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2)]), [(0, 1, 2, 0)]))
@example(case=(3, SimpleGraph.path(3), [(0, 1, 0)]))
# a repeat on an edge whose column is otherwise ascending or descending
@example(case=(3, SimpleGraph.complete(2), [(0, 1), (2, 2)]))
@example(case=(3, SimpleGraph.complete(2), [(2, 1), (1, 1)]))
# both orientations in one column pair, and zero copies
@example(case=(4, SimpleGraph.complete(2), [(0, 1), (3, 2)]))
@example(case=(5, SimpleGraph.complete(3), []))
def test_bulk_packing_validation_matches_the_per_copy_loop(case):
    n, pattern, copies = case
    try:
        want = _loop_validated(n, pattern, copies)
    except PackingError as exc:
        for entry in _entries(n, pattern, copies):
            with pytest.raises(PackingError) as got:
                entry()
            assert str(got.value) == str(exc)
        return
    p, q = (entry() for entry in _entries(n, pattern, copies))
    assert (q.forward, q.key_color, q.copies, len(q)) == (
        p.forward, p.key_color, p.copies, len(p))
    assert p.copies == tuple(map(tuple, copies)) and len(p) == len(copies)
    naive: list[set[int]] = [set() for _ in range(n)]
    for (u, v) in want:
        naive[u].add(v)
    assert p.forward == naive
    assert [p.column(i) for i in range(pattern.n)] == [
        tuple(c[i] for c in copies) for i in range(pattern.n)]
    assert dict(p.edge_color) == want and len(p.edge_color) == len(want)
    assert p.key_color == {u * n + v: c for (u, v), c in want.items()}
    # u*n + v names another edge when u >= v, u < 0 or v >= n
    for u, v in itertools.product(range(-2, n + 2), repeat=2):
        assert ((u, v) in p.edge_color) == ((u, v) in want)
        assert p.edge_color.get((u, v)) == want.get((u, v))
    assert p.edge_color.get(0) is None and (0, 1, 2) not in p.edge_color


@st.composite
def _packings_with_one_corruption(draw):
    """An edge-disjoint packing of K3, C4 or C5, and the kind of the one
    corruption, if any, made to it: a later copy that repeats an edge of
    an earlier one, a copy that repeats a vertex, a vertex >= n, or a
    short copy."""
    pattern = draw(st.sampled_from([SimpleGraph.complete(3), SimpleGraph.cycle(4),
                                    SimpleGraph.cycle(5)]))
    k = pattern.n
    n = draw(st.integers(k, 10))
    perms = st.permutations(range(n))
    copies: list[tuple[int, ...]] = []
    used: set[tuple[int, int]] = set()
    for m in draw(st.lists(perms.map(lambda p: tuple(p[:k])), max_size=8)):
        edges = {(min(m[i], m[j]), max(m[i], m[j])) for (i, j) in pattern.edges}
        if not edges & used:
            used |= edges
            copies.append(m)
    kind = draw(st.sampled_from(["none", "edge", "vertex", "range", "short"]))
    if kind == "none" or not copies:
        return n, pattern, copies, None
    ci = draw(st.integers(0, len(copies) - 1))
    bad = list(copies[ci])
    if kind == "edge":
        # a copy inserted after ci, with one of its pattern edges on a
        # host edge of copy ci
        i, j = draw(st.sampled_from(sorted(pattern.edges)))
        p, q = draw(st.sampled_from(sorted(pattern.edges)))
        m = list(draw(perms))
        for pos, x in ((p, bad[i]), (q, bad[j])):
            at = m.index(x)
            m[pos], m[at] = m[at], m[pos]
        copies.insert(draw(st.integers(ci + 1, len(copies))), tuple(m[:k]))
        return n, pattern, copies, kind
    if kind == "vertex":
        i, j = draw(st.permutations(range(k)))[:2]
        bad[j] = bad[i]
    elif kind == "range":
        bad[draw(st.integers(0, k - 1))] = n + draw(st.integers(0, 2))
    else:
        bad.pop()
    copies[ci] = tuple(bad)
    return n, pattern, copies, kind


@settings(max_examples=300, deadline=None)
@given(case=_packings_with_one_corruption())
def test_forward_set_validation_matches_the_first_packing_error(case):
    n, pattern, copies, corruption = case
    if corruption is not None:
        with pytest.raises(PackingError) as want:
            graphs._raise_first_packing_error(n, pattern, copies)
        for entry in _entries(n, pattern, copies):
            with pytest.raises(PackingError) as got:
                entry()
            assert str(got.value) == str(want.value)
        return
    for p in (entry() for entry in _entries(n, pattern, copies)):
        # a packing holds its columns alone, and its length and its edge
        # count read them without building the rows or the color map
        assert "copies" not in vars(p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ColoredPacking, "copies", property(
                lambda self: pytest.fail("the rows were built")))
            assert len(p.edge_color) == pattern.edge_count() * len(copies)
            assert len(p) == len(copies)
        assert "key_color" not in vars(p)
        assert p.key_color == {min(c[i], c[j]) * n + max(c[i], c[j]): ci
                               for ci, c in enumerate(copies) for (i, j) in pattern.edges}
        assert p.forward == graphs.forward_sets(n, itertools.chain.from_iterable(
            embedded_edges(pattern, c) for c in copies))
        assert json.loads(p.to_json())["copies"] == list(map(list, copies))
        assert "copies" not in vars(p)


def test_packing_edge_color_is_a_read_only_view():
    p = ColoredPacking(5, SimpleGraph.complete(3), [(0, 1, 2), (4, 0, 3)])
    assert dict(p.edge_color) == {(0, 1): 0, (0, 2): 0, (1, 2): 0,
                                  (0, 3): 1, (0, 4): 1, (3, 4): 1}
    assert p.edge_color[(3, 4)] == 1 and len(p.edge_color) == 6
    with pytest.raises(KeyError):
        p.edge_color[(4, 3)]
    with pytest.raises(TypeError):
        p.edge_color[(2, 3)] = 1


def test_count_triangles_reads_its_edges_once():
    # a one-shot iterator of K4's edges still gives every triangle
    k4 = SimpleGraph.complete(4)
    assert count_triangles(4, iter(k4.sorted_edges())) == 4


def _union_graph(packing: ColoredPacking) -> SimpleGraph:
    """The union of all copy edges, read off the packing's forward sets."""
    return SimpleGraph(packing.n, frozenset(packing.union_edges()))


def test_union_graph_counts():
    k5 = k5_double_pentagon()
    u = _union_graph(k5)
    assert u == SimpleGraph.complete(5)
    assert u.edge_count() == 10

    empty = ColoredPacking(4, SimpleGraph.complete(3), [])
    assert _union_graph(empty) == SimpleGraph.empty(4)

    p3 = c5_blowup_packing(3)
    u3 = _union_graph(p3)
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
        assert _union_graph(p).edge_count() == 3 * len(copies)


def test_pentagon_packing_degrees_all_even():
    for m in (1, 3, 5):
        u = _union_graph(c5_blowup_packing(m))
        assert all(d % 2 == 0 for d in u.degrees())
    assert all(d % 2 == 0 for d in _union_graph(k5_double_pentagon()).degrees())


def test_copy_edges_sorted():
    p = k5_double_pentagon()
    assert embedded_edges(p.pattern, p.copies[0]) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert embedded_edges(p.pattern, p.copies[1]) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


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


def _list_placement(small: SimpleGraph, first=()) -> tuple[list[int], list[list[int]]]:
    """placement with membership tested by scanning lists: the reference for
    placement's position dict."""
    s_adj = small.adjacency()
    order = list(first)
    roots = iter(range(small.n))
    head = 0
    while len(order) < small.n:
        if head == len(order):
            order.append(next(r for r in roots if r not in order))
        order += [w for w in sorted(s_adj[order[head]]) if w not in order]
        head += 1
    anchors = [[u for u in sorted(s_adj[v]) if u in order[:i]]
               for i, v in enumerate(order)]
    return order, anchors


def test_placement_matches_the_list_scan_on_every_graph_up_to_six_vertices():
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = frozenset(e for b, e in enumerate(pairs) if mask >> b & 1)
            g = SimpleGraph(n, edges)
            # no pin, an arc pinned as the solver pins, and a prefix pinned
            # as lex_min_conditions pins
            firsts = [(), tuple(range(n // 2))]
            if edges:
                a, b = min(edges)
                firsts.append((b, a))
            for first in firsts:
                assert placement(g, first) == _list_placement(g, first), (g, first)


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


def _kernel_host(host, color):
    """The kernel's form of a host and its tuple-keyed colors: bitmask rows
    built bit by bit, and colors keyed by u*n + v."""
    rows = [sum(1 << w for w in range(host.n) if (min(h, w), max(h, w)) in host.edges)
            for h in range(host.n)]
    if color is not None:
        color = {u * host.n + v: c for (u, v), c in color.items()}
    return rows, color


@settings(max_examples=150, deadline=None)
@given(small=_graph(4), host=_graph(6), colored=st.booleans(), data=st.data())
def test_embedding_kernel_matches_brute_force(small, host, colored, data):
    color = _random_colors(host, data) if colored else None
    expected = _brute_force_maps(small, host, color)
    # ascending candidates: maps come out sorted by their images in BFS order
    order = _bfs_order(small)
    expected.sort(key=lambda m: [m[v] for v in order])
    rows, key_color = _kernel_host(host, color)
    assert rows == bitmask_rows(host.n, host.edges)
    got = list(embeddings(small, rows, key_color))
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
    nbr, key_color = _kernel_host(host, color)
    start = [1 << u, 1 << v] + [(1 << host.n) - 1] * (small.n - 2)
    got = list(plan_embeddings(order, anchors, nbr, start, key_color))
    assert got == expected


def _automorphisms(g: SimpleGraph) -> list[tuple[int, ...]]:
    return [p for p in itertools.permutations(range(g.n))
            if all(tuple(sorted((p[u], p[v]))) in g.edges for (u, v) in g.edges)]


def _generated_group(n: int, gens) -> set[tuple[int, ...]]:
    # every product of the generators, from the identity
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        p = stack.pop()
        for g in gens:
            q = tuple(g[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                stack.append(q)
    return group


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
    # the pairs are the stabilizer-chain orbits, the only self-map that
    # meets them is the identity, the smallest automorphism, and the kept
    # generators still generate every automorphism
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for keep in itertools.product((False, True), repeat=len(pairs)):
            g = SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
            autos = _automorphisms(g)
            want = sorted({(i, p[i]) for p in autos for i in range(n)
                           if p[:i] == tuple(range(i)) and p[i] != i})
            conditions = lex_min_conditions(g)
            assert list(conditions) == want, g
            rows = bitmask_rows(n, g.edges)
            assert list(embeddings(g, rows, less=conditions)) == [tuple(range(n))]
            assert _generated_group(n, automorphism_generators(g)) == set(autos), g


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
    assert list(embeddings(g, bitmask_rows(g.n, g.edges),
                           less=lex_min_conditions(g))) == [tuple(range(g.n))]
    assert _generated_group(g.n, automorphism_generators(g)) == set(autos)
    if g.edges and g.is_connected():
        arcs = [(u, v) for (u, v) in g.edges] + [(v, u) for (u, v) in g.edges]
        smallest = {min((p[x], p[y]) for p in autos) for (x, y) in arcs}
        assert arc_orbit_representatives(g) == sorted(smallest)


def test_embedding_kernel_roots_skip_isolated_host_vertices():
    # a root tries only host vertices of enough degree; trying all of them
    # made the search quadratic in the isolated vertices, tens of seconds
    # at this size
    rows = bitmask_rows(300_000, [(0, 1), (1, 2), (0, 2)])
    t0 = time.perf_counter()
    copies = list(embeddings(SimpleGraph.complete(3), rows))
    assert time.perf_counter() - t0 < 5.0
    assert copies == list(itertools.permutations(range(3)))


def test_embedding_row_guard_is_exact(monkeypatch):
    # the estimate is the sum of each vertex's largest neighbor id, over 8
    monkeypatch.setattr(graphs, "_ROW_BYTES_LIMIT", 99)
    rows = bitmask_rows(800, [(0, 799)])
    assert list(embeddings(SimpleGraph.complete(2), rows)) == [(0, 799), (799, 0)]
    monkeypatch.setattr(graphs, "_ROW_BYTES_LIMIT", 98)
    with pytest.raises(GuardError, match="embeddings guard"):
        bitmask_rows(800, [(0, 799)])


def test_packing_json_round_trip():
    p = c5_blowup_packing(3)
    q = ColoredPacking.from_json_dict(json.loads(p.to_json()))
    assert q.copies == p.copies and q.n == p.n and q.pattern == p.pattern
    # constructed and decoded packings alike keep no per-copy rows
    assert "copies" not in vars(p) and "copies" not in vars(q)
    # decoded rows are lists, and the errors name them as tuples
    k3 = SimpleGraph.complete(3).to_json_dict()
    for rows, message in (([[0, 1, 1]], "copy 0 is not injective: (0, 1, 1)"),
                          ([[0, 1, 2], [0, 1]], "copy 1 has 2 vertices, expected 3"),
                          ([[0, 1, 2], [2, 0, 3]], "copies 0 and 1 both use edge (0, 2)")):
        with pytest.raises(PackingError) as got:
            ColoredPacking.from_json_dict({"n": 4, "pattern": k3, "copies": rows})
        assert str(got.value) == message


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
                    assert (u, v) not in g.edges


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
