"""Ratio-limited triples and progression-free set machinery.

A triple (a, b, c) of pairwise distinct integers is q-limited when
lam*a + mu*b = (lam+mu)*c for some integers 1 <= lam, mu <= q.  With q = 1
this is exactly the 3-term arithmetic progression condition a + b = 2c.

The constructive side produces large q-limited-free subsets of [1, n] by
the digit-sphere method: write candidates in base d with digits below s
where 2q(s-1) < d, so the defining equation has no carries and forces a
convex combination of digit vectors, impossible on a sphere unless the
endpoints coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GuardError

_BRUTEFORCE_N_LIMIT = 60
_BRUTEFORCE_NODE_BUDGET = 20_000_000
# behrend_q_free takes about 1.2 s and 38 MB at n = 10^6, and its memory
# grows about 22 MB per further 10^6 (the dimension-2 spheres hold ~n/4)
_BEHREND_N_LIMIT = 10 ** 6


def verify_q_free(elements, q: int):
    """Scan all ordered pairs and coefficient choices for a q-limited triple.

    Returns the lexicographically smallest witness (a, b, c, lam, mu), or
    None when the elements are q-limited-free.  Cost is O(|Z|^2 q^2)
    membership tests, with q clamped as in _scan.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    elems = sorted(elements)
    if len(set(elems)) != len(elems):
        raise ValueError("elements must be distinct")
    return _scan(elems, q)


def _scan(elems: list[int], q: int):
    """Smallest (a, b, c, lam, mu) with lam*a + mu*b = (lam+mu)*c, or None.

    For fixed a, lam and mu the b's are the values (lam+mu)*c - lam*a with
    c != a that lie in {mu*b}.  c != a is the whole distinctness test: if
    any two of a, b, c were equal, all three would be.  lam*(a - c) =
    mu*(c - b) puts c strictly between a and b, and the least (lam, mu) of
    a triple, (|c - b|, |a - c|) over their gcd, lies below the span
    max - min; every other pair is a multiple of it.  So clamping q to the
    span loses no triple and changes no witness.
    """
    q = min(q, max(1, elems[-1] - elems[0])) if elems else 1
    mu_multiples = {mu: {mu * b for b in elems} for mu in range(1, q + 1)}
    for a in elems:
        hits = []
        for lam in range(1, q + 1):
            t = lam * a
            for mu in range(1, q + 1):
                s = lam + mu
                for v in mu_multiples[mu].intersection(
                        [s * c - t for c in elems if c != a]):
                    hits.append((v // mu, (v + t) // s, lam, mu))
        if hits:
            return (a,) + min(hits)
    return None


@dataclass(frozen=True)
class QFreeSet:
    """Subset of [1, n] with no q-limited triple, elements sorted ascending."""

    q: int
    n: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if list(self.elements) != sorted(set(self.elements)):
            raise ValueError("elements must be sorted and distinct")
        if self.elements and not (1 <= self.elements[0] and self.elements[-1] <= self.n):
            raise ValueError(f"elements must lie in [1, {self.n}]")

    @classmethod
    def certified(cls, q: int, n: int, elements) -> "QFreeSet":
        """Construct after an oracle scan; raises on any q-limited triple."""
        witness = verify_q_free(elements, q)
        if witness is not None:
            raise ValueError(f"set is not {q}-limited-free: "
                             f"(a, b, c, lam, mu) = {witness}")
        return cls(q, n, tuple(sorted(elements)))

    def __len__(self) -> int:
        return len(self.elements)


def _digit_sphere_candidates(n: int, q: int):
    """Yield the elements of the fullest sphere for each (dimension, base).

    Digit vectors grow one digit a level, leading digit first, as (value,
    squared norm) pairs in ascending value; a prefix goes once it exceeds
    n // d**k with k digits still to come, and the last digit streams
    straight into the spheres, so no full vector list is held.
    """
    max_dim = max(2, int(math.log2(n)) + 1) if n >= 4 else 2
    for dim in range(2, max_dim + 1):
        root = math.ceil(n ** (1.0 / dim))
        for d in (root, root + 1):
            if d < 2 * q + 1:
                continue  # digit bound needs room: 2q(s-1) < d with s >= 2
            s = (d - 1) // (2 * q) + 1
            assert 2 * q * (s - 1) < d
            by_norm: dict[int, list[int]] = {}
            prefixes = [(0, 0)]
            for k in range(dim - 1, 0, -1):
                cap = n // d ** k
                prefixes = [(v, r + t * t) for (u, r) in prefixes
                            for t in range(s) if (v := u * d + t) <= cap]
            squares = [t * t for t in range(s)]
            for (u, r) in prefixes:
                u *= d
                for t in range(min(s, n - u + 1)):
                    by_norm.setdefault(r + squares[t], []).append(u + t)
            del by_norm[0]  # the zero vector, the only one of norm 0
            if not by_norm:
                continue
            best_r = max(sorted(by_norm), key=lambda r: len(by_norm[r]))
            yield by_norm[best_r]  # ascending, like the vectors


def behrend_q_free(n: int, q: int) -> QFreeSet:
    """Large q-limited-free subset of [1, n] by the digit-sphere method.

    Sweeps a small grid of dimensions and bases, keeps the digit vectors
    on the best squared-norm sphere, and certifies the winner with
    verify_q_free before returning.  Falls back to the exact brute-force
    optimum at tiny n.  ValueError for n < 1, GuardError for n above
    _BEHREND_N_LIMIT, both before any work.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if n < 1:
        raise ValueError(f"behrend_q_free needs n >= 1, got {n}")
    if n > _BEHREND_N_LIMIT:
        raise GuardError(f"behrend_q_free guard: n={n} exceeds "
                         f"limit={_BEHREND_N_LIMIT}")
    best = [1]
    for cand in _digit_sphere_candidates(n, q):
        if len(cand) > len(best):
            best = cand
    if n <= 30:
        _, exact = max_q_free_bruteforce(n, q)
        if len(exact) > len(best):
            best = list(exact)
    return QFreeSet.certified(q, n, best)


def _bad_triples(n: int, q: int) -> dict[tuple[int, int], set[int]]:
    """Map each unordered pair to the elements completing a q-limited triple.

    As in _scan, no triple in [1, n] needs a coefficient past n - 1.
    """
    q = min(q, max(1, n - 1))
    comp: dict[tuple[int, int], set[int]] = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for lam in range(1, q + 1):
                for mu in range(1, q + 1):
                    for (x, y) in ((a, b), (b, a)):
                        num = lam * x + mu * y
                        div = lam + mu
                        if num % div:
                            continue
                        c = num // div
                        if 1 <= c <= n and c != x and c != y:
                            for (u, v, w) in ((a, b, c), (min(a, c), max(a, c), b),
                                              (min(b, c), max(b, c), a)):
                                comp.setdefault((u, v), set()).add(w)
    return comp


def max_q_free_bruteforce(n: int, q: int) -> tuple[int, tuple[int, ...]]:
    """Exact maximum q-limited-free subset of [1, n] by branch and bound.

    Scans elements in ascending order, include branch first, so the first
    optimum found is the lexicographically smallest one.  Guarded to
    n <= _BRUTEFORCE_N_LIMIT; raises GuardError if the tree outgrows
    _BRUTEFORCE_NODE_BUDGET nodes.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if n > _BRUTEFORCE_N_LIMIT:
        raise GuardError(f"max_q_free_bruteforce guard: n={n} exceeds "
                         f"limit={_BRUTEFORCE_N_LIMIT}")
    if n < 1:
        return (0, ())
    comp = _bad_triples(n, q)
    best_size = 0
    best_set: tuple[int, ...] = ()
    nodes = 0

    def search(idx: int, chosen: list[int], banned: frozenset[int],
               candidates: list[int]) -> None:
        nonlocal best_size, best_set, nodes
        nodes += 1
        if nodes > _BRUTEFORCE_NODE_BUDGET:
            raise GuardError(
                f"max_q_free_bruteforce exceeded {_BRUTEFORCE_NODE_BUDGET} nodes")
        if len(chosen) > best_size:
            best_size = len(chosen)
            best_set = tuple(chosen)
        if idx == len(candidates):
            return
        remaining = [x for x in candidates[idx:] if x not in banned]
        if len(chosen) + len(remaining) <= best_size:
            return
        x = candidates[idx]
        if x not in banned:
            extra: set[int] = set()
            for c in chosen:
                pair = (c, x) if c < x else (x, c)
                extra |= comp.get(pair, set())
            chosen.append(x)
            search(idx + 1, chosen, banned | frozenset(extra), candidates)
            chosen.pop()
        search(idx + 1, chosen, banned, candidates)

    search(0, [], frozenset(), list(range(1, n + 1)))
    return (best_size, best_set)
