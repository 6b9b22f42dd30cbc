"""Exact branch-and-bound solver and its naive cross-check oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from rainbowpack import (GuardError, SearchConfig, SimpleGraph,
                         enumerate_copies, find_rainbow,
                         max_rainbow_free_packing, oracle_max_packing, solver)
from rainbowpack.solver import _naive_copies

K3 = SimpleGraph.complete(3)
K4 = SimpleGraph.complete(4)
C4 = SimpleGraph.cycle(4)
C5 = SimpleGraph.cycle(5)
P3 = SimpleGraph.path(3)


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
    with pytest.raises(GuardError):
        enumerate_copies(13, K3)
    assert len(enumerate_copies(13, K3, limit=13)) == 286


def test_enumerate_copies_copy_cap():
    assert len(enumerate_copies(5, K3, max_copies=10)) == 10
    with pytest.raises(GuardError, match="copies exceed 9"):
        enumerate_copies(5, K3, max_copies=9)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), pattern=st.sampled_from([K3, P3, C4, C5, K4]),
       data=st.data())
def test_enumerate_copies_matches_naive_enumeration(n, pattern, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    host = SimpleGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    assert enumerate_copies(n, pattern, host) == _naive_copies(pattern, host)


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
    edge_sets = [frozenset(res.packing.copy_edges(i)) for i in range(2)]
    assert edge_sets[0] | edge_sets[1] == SimpleGraph.complete(5).edges
    assert not edge_sets[0] & edge_sets[1]


def test_solver_equals_oracle_with_identical_witness():
    for pattern in (K3, K4, C5):
        for n in range(pattern.n, 6):
            res = max_rainbow_free_packing(
                SearchConfig(n=n, pattern=pattern, forbidden=K3))
            oval, opack = oracle_max_packing(n, pattern, K3)
            assert res.value == oval, (pattern.n, n)
            assert res.packing.copies == opack.copies, (pattern.n, n)


def test_oracle_shares_no_enumeration_with_the_solver(monkeypatch):
    def fast_path(*args, **kwargs):
        raise AssertionError("the oracle called the solver's copy enumeration")

    monkeypatch.setattr(solver, "enumerate_copies", fast_path)
    monkeypatch.setattr(solver, "embeddings", fast_path)
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
    for i in range(2):
        for (u, v) in res.packing.copy_edges(i):
            assert pet.has_edge(u, v)


def test_budget_exhaustion_degrades_to_lower_bound():
    res = max_rainbow_free_packing(
        SearchConfig(n=7, pattern=K3, forbidden=K3, node_budget=1))
    assert not res.optimal
    assert 0 <= res.value <= 3
    assert find_rainbow(res.packing, K3) is None or res.value == 0


def test_solver_guard():
    with pytest.raises(GuardError, match="solver guard"):
        max_rainbow_free_packing(SearchConfig(n=13, pattern=K3, forbidden=K3))


def test_no_copies_fit():
    res = max_rainbow_free_packing(SearchConfig(n=4, pattern=C5, forbidden=K3))
    assert res.value == 0 and res.optimal and len(res.packing) == 0
