"""Ratio-limited triples and progression-free set construction."""

import bisect
import functools
import itertools
import math
import operator
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from naive_oracle import is_q_limited_triple
from rainbowpack import (GuardError, QFreeSet, behrend_q_free, gadgets,
                         max_q_free_bruteforce, verify_q_free)
from rainbowpack.gadgets import _digit_sphere_candidates

CLASSIC_AP_FREE = (1, 2, 4, 5, 10, 11, 13, 14)


def test_triple_detection_basics():
    assert is_q_limited_triple(1, 3, 2, 1)          # plain 3-term progression
    assert not is_q_limited_triple(5, 5, 5, 3)      # not pairwise distinct
    assert is_q_limited_triple(1, 7, 3, 2)          # 2*1 + 1*7 = 3*3
    assert not is_q_limited_triple(1, 7, 3, 1)
    with pytest.raises(ValueError):
        is_q_limited_triple(1, 2, 3, 0)


def test_q1_matches_direct_progression_test():
    for a in range(1, 51):
        for b in range(1, 51):
            for c in range(1, 51):
                expect = len({a, b, c}) == 3 and a + b == 2 * c
                assert is_q_limited_triple(a, b, c, 1) == expect


def test_verify_q_free_pass_and_fail():
    assert verify_q_free((1, 2, 4, 8), 1) is None
    assert verify_q_free((1, 2, 3), 1) == (1, 3, 2, 1, 1)
    assert verify_q_free((1, 3, 7), 2) == (1, 7, 3, 2, 1)
    assert verify_q_free((1, 3, 7), 1) is None


def test_verify_q_free_small_and_invalid_inputs():
    assert verify_q_free((), 1) is None
    assert verify_q_free((5, 9), 3) is None
    with pytest.raises(ValueError, match="distinct"):
        verify_q_free((1, 1, 2), 1)
    with pytest.raises(ValueError):
        verify_q_free((1, 2, 3), 0)


def test_verify_q_free_big_integers_use_exact_path():
    # beyond the int64 window; 4x + 8x = 12x = 2 * 6x is a progression
    x = 1 << 61
    assert verify_q_free((4 * x, 6 * x, 8 * x), 1) == (4 * x, 8 * x, 6 * x, 1, 1)
    assert verify_q_free((x, 2 * x, 5 * x), 1) is None


def _lexmin_witness(elems, q):
    """Brute force: the first q-limited (a, b, c) over all ordered triples,
    with its smallest (lam, mu)."""
    for a, b, c in itertools.product(sorted(elems), repeat=3):
        if is_q_limited_triple(a, b, c, q):
            lam, mu = min((lam, mu) for lam in range(1, q + 1) for mu in range(1, q + 1)
                          if lam * a + mu * b == (lam + mu) * c)
            return (a, b, c, lam, mu)
    return None


_SCAN_ELEMENTS = st.one_of(
    st.integers(-40, -1),
    st.integers(0, 40),
    st.integers(2**61, 2**61 + 40),             # products overflow int64
    st.integers(1, 8).map(lambda k: k << 61),
)


@settings(max_examples=300, deadline=None)
@given(elems=st.sets(_SCAN_ELEMENTS, max_size=12), q=st.sampled_from([1, 2, 3]))
@example(elems={1, 2, 4, 7}, q=2)  # a = 1 hits (7, 4, 1, 1) before the smaller (4, 2, 2, 1)
def test_verify_q_free_matches_brute_force(elems, q):
    assert verify_q_free(elems, q) == _lexmin_witness(elems, q)


def test_q_past_the_span_is_clamped(seed=4242):
    # a triple's least (lam, mu) lies below the span, so a huge q finds what
    # the unclamped oracle finds at q = span + 1, and ends as fast
    rng = random.Random(seed)
    for _ in range(60):
        elems = rng.sample(range(-6, 7), rng.randint(0, 6))
        span = max(elems) - min(elems) if elems else 0
        assert verify_q_free(elems, 10 ** 9) == _lexmin_witness(elems, span + 1)
    for n in range(1, 9):
        assert max_q_free_bruteforce(n, 10 ** 9)[0] == _max_q_free_exhaustive(n, n)
    started = time.perf_counter()
    assert behrend_q_free(30, 10 ** 6).elements == (1, 2)
    assert time.perf_counter() - started < 5.0


def test_import_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rainbowpack; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_q_monotonicity(seed=3314):
    rng = random.Random(seed)
    for _ in range(20):
        n = rng.randint(8, 60)
        q = rng.randint(2, 3)
        s = behrend_q_free(n, q)
        for lower in range(1, q):
            assert verify_q_free(s.elements, lower) is None


def test_affine_invariance(seed=1209):
    rng = random.Random(seed)
    base = behrend_q_free(120, 2).elements
    for _ in range(15):
        m = rng.randint(1, 9)
        shift = rng.randint(0, 50)
        moved = tuple(m * z + shift for z in base)
        assert verify_q_free(moved, 2) is None


def test_qfreeset_invariants():
    s = QFreeSet(1, 10, (2, 4, 9))
    assert len(s) == 3
    with pytest.raises(ValueError):
        QFreeSet(1, 10, (4, 2, 9))
    with pytest.raises(ValueError):
        QFreeSet(1, 8, (2, 4, 9))
    with pytest.raises(ValueError, match="not 1-limited-free"):
        QFreeSet.certified(1, 10, (1, 2, 3))


def test_behrend_degenerate_and_tiny():
    assert behrend_q_free(1, 1).elements == (1,)
    with pytest.raises(ValueError, match="n >= 1"):
        behrend_q_free(0, 2)
    assert len(behrend_q_free(14, 1)) == 8  # exact optimum via tiny-n fallback


def test_behrend_n_guard(monkeypatch):
    # refused before the search starts: nothing is built or allocated
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match="exceeds limit=1000000"):
            behrend_q_free(10 ** 8, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    monkeypatch.setattr(gadgets, "_BEHREND_N_LIMIT", 100)
    assert behrend_q_free(100, 1).n == 100
    with pytest.raises(GuardError):
        behrend_q_free(101, 1)


def test_behrend_always_certified(seed=9001):
    rng = random.Random(seed)
    for _ in range(12):
        n = rng.randint(2, 400)
        q = rng.randint(1, 4)
        s = behrend_q_free(n, q)
        assert s.q == q and s.n == n
        assert all(1 <= z <= n for z in s.elements)
        assert verify_q_free(s.elements, q) is None


@functools.lru_cache(maxsize=None)
def _digit_vectors(dim: int, d: int, s: int) -> list[tuple[int, int]]:
    """(value, squared norm) of every base-d digit vector of length dim
    with digits below s, as itertools.product lists them, in ascending
    value; the zero vector comes first."""
    weights = [d ** (dim - 1 - i) for i in range(dim)]
    return sorted((sum(map(operator.mul, digits, weights)),
                   sum(map(operator.mul, digits, digits)))
                  for digits in itertools.product(range(s), repeat=dim))


def _naive_sphere_grid(n: int, q: int) -> list[tuple[int, int, list[int]]]:
    """(dim, d, fullest sphere) for each point of the generator's grid:
    every digit vector in [1, n] that _digit_vectors lists, no pruning,
    ties to the smallest squared norm; the sphere is empty when no vector
    lies in [1, n]."""
    out = []
    max_dim = max(2, int(math.log2(n)) + 1) if n >= 4 else 2
    for dim in range(2, max_dim + 1):
        root = math.ceil(n ** (1.0 / dim))
        for d in (root, root + 1):
            if d < 2 * q + 1:
                continue
            vectors = _digit_vectors(dim, d, (d - 1) // (2 * q) + 1)
            spheres: dict[int, list[int]] = {}
            for val, norm in vectors[1:bisect.bisect(vectors, (n, math.inf))]:
                spheres.setdefault(norm, []).append(val)
            best: list[int] = []
            if spheres:
                size = max(map(len, spheres.values()))
                best = spheres[min(r for r in spheres if len(spheres[r]) == size)]
            out.append((dim, d, best))
    return out


def _naive_sphere_candidates(n: int, q: int) -> list[list[int]]:
    """The non-empty spheres of _naive_sphere_grid, less each (dim, d) with
    d**(dim - 1) > n whose (dim - 1, d) is on the grid too."""
    grid = _naive_sphere_grid(n, q)
    points = {(dim, d) for dim, d, _ in grid}
    return [sphere for dim, d, sphere in grid
            if sphere and not (d ** (dim - 1) > n and (dim - 1, d) in points)]


def test_digit_spheres_match_product_reference_small_n():
    for q in (1, 2, 3):
        for n in range(1, 401):
            assert list(_digit_sphere_candidates(n, q)) == \
                _naive_sphere_candidates(n, q), (n, q)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(401, 50_000), q=st.sampled_from([1, 2, 3]))
def test_digit_spheres_match_product_reference(n, q):
    assert list(_digit_sphere_candidates(n, q)) == _naive_sphere_candidates(n, q)


def test_skipped_grid_points_never_change_the_set():
    # the first strictly fullest sphere of the whole grid, skipped points
    # included, is what behrend_q_free returns
    for q in (1, 2, 3):
        for n in range(1, 2001):
            best = [1]
            for _, _, sphere in _naive_sphere_grid(n, q):
                if len(sphere) > len(best):
                    best = sphere
            if n <= 30:
                exact = max_q_free_bruteforce(n, q)[1]
                if len(exact) > len(best):
                    best = list(exact)
            assert behrend_q_free(n, q).elements == tuple(best), (n, q)


def _all_bad_masks(n: int, q: int) -> list[int]:
    masks = []
    for (a, b, c) in itertools.combinations(range(1, n + 1), 3):
        for (x, y, z) in itertools.permutations((a, b, c)):
            if x < y and is_q_limited_triple(x, y, z, q):
                masks.append((1 << (a - 1)) | (1 << (b - 1)) | (1 << (c - 1)))
                break
    return masks


def _max_q_free_exhaustive(n: int, q: int) -> int:
    """Independent route: scan all 2^n subsets against precomputed triples."""
    bad = _all_bad_masks(n, q)
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        if all((mask & t) != t for t in bad):
            best = mask.bit_count()
    return best


def test_bruteforce_against_exhaustive_subsets():
    for q in (1, 2, 3):
        for n in range(1, 13):
            size, elems = max_q_free_bruteforce(n, q)
            assert size == _max_q_free_exhaustive(n, q), (n, q)
            assert verify_q_free(elems, q) is None
            assert len(elems) == size
    assert max_q_free_bruteforce(14, 1)[0] == _max_q_free_exhaustive(14, 1)


def test_bruteforce_known_values():
    assert max_q_free_bruteforce(3, 1)[0] == 2
    assert max_q_free_bruteforce(5, 1) == (4, (1, 2, 4, 5))
    assert max_q_free_bruteforce(5, 2)[0] == 3
    assert max_q_free_bruteforce(14, 1) == (8, CLASSIC_AP_FREE)
    assert max_q_free_bruteforce(8, 3) == (4, (1, 2, 6, 7))
    assert max_q_free_bruteforce(0, 1) == (0, ())


def test_bruteforce_guard():
    with pytest.raises(GuardError):
        max_q_free_bruteforce(61, 1)


def test_bruteforce_node_budget(monkeypatch):
    # the budget error is a GuardError like the n guard, and names the budget
    monkeypatch.setattr(gadgets, "_BRUTEFORCE_NODE_BUDGET", 100)
    with pytest.raises(GuardError, match="exceeded 100 nodes"):
        max_q_free_bruteforce(30, 1)


def test_bruteforce_dominates_construction():
    for q in (1, 2, 3):
        for n in range(2, 31, 7):
            assert max_q_free_bruteforce(n, q)[0] >= len(behrend_q_free(n, q))
