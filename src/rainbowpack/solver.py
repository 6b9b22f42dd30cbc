"""Exact maximum rainbow-free packing by branch and bound.

The search enumerates every copy of the pattern in the host (complete
graph by default), then walks include/exclude decisions in a fixed copy
order.  Branches that would create a rainbow copy of the forbidden graph
are rejected incrementally, and value pruning uses the free-edge budget.
The tree is split into independent subproblems keyed by the first
included copy; subproblems are solved in order and merged with a fixed
tie-break, so the result is bitwise identical from run to run.

oracle_max_packing is the deliberately naive cross-check: copies from
plain vertex permutations, full subset enumeration and a from-scratch
rainbow scan, no shared code with the branch-and-bound path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GuardError
from .graphs import (ColoredPacking, SimpleGraph, _norm_edge, embedded_edges,
                     embeddings)
from .verifier import find_rainbow

_SOLVER_N_LIMIT = 12
_ORACLE_COPY_LIMIT = 24


def enumerate_copies(n: int, pattern: SimpleGraph,
                     host: SimpleGraph | None = None,
                     limit: int = _SOLVER_N_LIMIT,
                     max_copies: int | None = None) -> list[tuple[int, ...]]:
    """All copies of the pattern in the host (K_n when host is None).

    One embedding per copy (per distinct edge set): the lexicographically
    smallest vertex tuple realizing it.  Copies are sorted by their sorted
    edge tuple, so the order is canonical.  GuardError as soon as more than
    max_copies distinct copies turn up, before the rest are enumerated.
    """
    if n > limit:
        raise GuardError(f"enumerate_copies guard: n={n} exceeds {limit}")
    if pattern.edge_count() == 0:
        raise ValueError("pattern needs at least one edge")
    if host is None:
        host = SimpleGraph.complete(n)
    if host.n != n:
        raise ValueError(f"host has {host.n} vertices, expected n={n}")
    found: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {}
    for emb in embeddings(pattern, host.adjacency()):
        key = tuple(embedded_edges(pattern, emb))
        old = found.get(key)
        if old is None:
            if len(found) == max_copies:
                raise GuardError(
                    f"enumerate_copies guard: copies exceed {max_copies}")
            found[key] = emb
        elif emb < old:
            found[key] = emb
    return [found[key] for key in sorted(found)]


@dataclass(frozen=True)
class SearchConfig:
    """Inputs for max_rainbow_free_packing.

    forbidden=None disables the rainbow constraint (pure packing mode).
    host=None means the complete graph on n vertices; an explicit host
    also disables first-copy symmetry breaking, which is only sound when
    the ground is vertex-transitive under relabeling.
    """

    n: int
    pattern: SimpleGraph
    forbidden: SimpleGraph | None
    host: SimpleGraph | None = None
    node_budget: int = 10_000_000
    symmetry_breaking: bool = True

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.node_budget < 1:
            raise ValueError("node_budget must be positive")


@dataclass
class SearchResult:
    value: int
    packing: ColoredPacking
    optimal: bool
    nodes: int


class _BudgetUp(Exception):
    pass


class _SubSolver:
    """Subproblem search: run(first) covers the packings whose first
    included copy is ``first`` and resets all search state, so one
    instance serves every subproblem in turn."""

    def __init__(self, n: int, pattern: SimpleGraph, forbidden: SimpleGraph | None,
                 embeddings: list[tuple[int, ...]],
                 copy_edges: list[list[tuple[int, int]]],
                 masks: list[int], total_edges: int, budget: int):
        self.n = n
        self.pattern = pattern
        self.forbidden = forbidden
        self.embeddings = embeddings
        self.copy_edges = copy_edges
        self.masks = masks
        self.total_edges = total_edges
        self.budget = budget
        self.e_f = pattern.edge_count()
        self.fast_triangle = forbidden is not None and forbidden.is_cycle(3)

    def run(self, first: int):
        """Returns (value, chosen index tuple or None, optimal, nodes)."""
        self.nodes = 0
        self.best_value = 0
        self.best_chosen: tuple[int, ...] | None = None
        self.chosen: list[int] = []
        self.used = 0
        self.adj: list[set[int]] = [set() for _ in range(self.n)]
        self.col: dict[tuple[int, int], int] = {}
        optimal = True
        try:
            self.nodes += 1
            if self._include(first):
                self._dfs(first + 1)
                self._undo(first)
        except _BudgetUp:
            optimal = False
        return (self.best_value, self.best_chosen, optimal, self.nodes)

    def _dfs(self, idx: int) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BudgetUp
        if len(self.chosen) > self.best_value:
            self.best_value = len(self.chosen)
            self.best_chosen = tuple(self.chosen)
        if idx == len(self.embeddings):
            return
        free = self.total_edges - self.used.bit_count()
        bound = len(self.chosen) + min(len(self.embeddings) - idx, free // self.e_f)
        if bound <= self.best_value:
            return
        if not (self.masks[idx] & self.used) and self._include(idx):
            self._dfs(idx + 1)
            self._undo(idx)
        self._dfs(idx + 1)

    def _include(self, idx: int) -> bool:
        color = len(self.chosen)
        edges = self.copy_edges[idx]
        for (u, v) in edges:
            self.col[(u, v)] = color
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.used |= self.masks[idx]
        self.chosen.append(idx)
        if self.forbidden is None:
            return True
        if self.fast_triangle:
            ok = not self._new_rainbow_triangle(edges, color)
        else:
            packing = ColoredPacking(
                self.n, self.pattern, [self.embeddings[i] for i in self.chosen])
            ok = find_rainbow(packing, self.forbidden) is None
        if not ok:
            self._undo(idx)
        return ok

    def _new_rainbow_triangle(self, new_edges, color: int) -> bool:
        # any rainbow triangle in the extended union must use a new edge
        for (u, v) in new_edges:
            for z in self.adj[u] & self.adj[v]:
                cu = self.col[_norm_edge(u, z)]
                cv = self.col[_norm_edge(v, z)]
                if cu != cv and cu != color and cv != color:
                    return True
        return False

    def _undo(self, idx: int) -> None:
        self.chosen.pop()
        self.used &= ~self.masks[idx]
        for (u, v) in self.copy_edges[idx]:
            del self.col[(u, v)]
            self.adj[u].discard(v)
            self.adj[v].discard(u)


def max_rainbow_free_packing(cfg: SearchConfig) -> SearchResult:
    """Maximum number of edge-disjoint pattern copies with no rainbow
    forbidden copy, plus a witness packing.

    Deterministic: the witness is the lexicographically smallest optimal
    set of copy indices.  optimal=False means the node budget ran out and
    value is only a certified lower bound.
    """
    if cfg.n > _SOLVER_N_LIMIT:
        raise GuardError(f"solver guard: n={cfg.n} exceeds {_SOLVER_N_LIMIT}")
    host = cfg.host if cfg.host is not None else SimpleGraph.complete(cfg.n)
    copies = enumerate_copies(cfg.n, cfg.pattern, host)
    host_edges = host.sorted_edges()
    edge_index = {e: i for i, e in enumerate(host_edges)}
    copy_edges = [embedded_edges(cfg.pattern, emb) for emb in copies]
    masks = []
    for edges in copy_edges:
        m = 0
        for e in edges:
            m |= 1 << edge_index[e]
        masks.append(m)

    symmetric_ground = cfg.host is None and cfg.symmetry_breaking
    firsts = ([0] if copies else []) if symmetric_ground else list(range(len(copies)))
    budget_per = max(1, cfg.node_budget // max(1, len(firsts) + 1))

    sub = _SubSolver(cfg.n, cfg.pattern, cfg.forbidden, copies,
                     copy_edges, masks, len(host_edges), budget_per)
    best_value = 0
    best_chosen: tuple[int, ...] = ()
    optimal = True
    nodes = 0
    for first in firsts:
        (value, chosen, sub_optimal, sub_nodes) = sub.run(first)
        nodes += sub_nodes
        optimal = optimal and sub_optimal
        if chosen is not None and value > best_value:
            best_value = value
            best_chosen = chosen
    packing = ColoredPacking(cfg.n, cfg.pattern, [copies[i] for i in best_chosen])
    return SearchResult(best_value, packing, optimal, nodes)


def _naive_copies(pattern: SimpleGraph, host: SimpleGraph) -> list[tuple[int, ...]]:
    """Unoptimized copy enumeration used only by the oracle.

    Tries every injective vertex tuple in lexicographic order and keeps the
    first, hence smallest, tuple per edge set; sorted like enumerate_copies.
    """
    first: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {}
    for perm in itertools.permutations(range(host.n), pattern.n):
        key = tuple(sorted(_norm_edge(perm[u], perm[v]) for (u, v) in pattern.edges))
        if key not in first and all(e in host.edges for e in key):
            first[key] = perm
    return [first[key] for key in sorted(first)]


def _naive_rainbow_scan(n: int, col: dict, forbidden: SimpleGraph) -> bool:
    """Unoptimized rainbow check used only by the oracle."""
    f_edges = forbidden.sorted_edges()
    for perm in itertools.permutations(range(n), forbidden.n):
        colors = []
        ok = True
        for (u, v) in f_edges:
            e = _norm_edge(perm[u], perm[v])
            if e not in col:
                ok = False
                break
            colors.append(col[e])
        if ok and len(set(colors)) == len(colors):
            return True
    return False


def oracle_max_packing(n: int, pattern: SimpleGraph,
                       forbidden: SimpleGraph | None) -> tuple[int, ColoredPacking]:
    """Reference answer by full subset enumeration, guarded to 24 copies.

    Scans subset sizes from largest to smallest in lexicographic order and
    returns the first feasible subset, which is also the lexicographically
    smallest optimal witness.
    """
    if n > _SOLVER_N_LIMIT:
        raise GuardError(f"oracle guard: n={n} exceeds {_SOLVER_N_LIMIT}")
    if pattern.edge_count() == 0:
        raise ValueError("pattern needs at least one edge")
    copies = _naive_copies(pattern, SimpleGraph.complete(n))
    if len(copies) > _ORACLE_COPY_LIMIT:
        raise GuardError(
            f"oracle guard: {len(copies)} copies exceed {_ORACLE_COPY_LIMIT}")
    copy_edges = [
        sorted(_norm_edge(emb[u], emb[v]) for (u, v) in pattern.edges)
        for emb in copies
    ]
    for r in range(len(copies), 0, -1):
        for combo in itertools.combinations(range(len(copies)), r):
            col: dict[tuple[int, int], int] = {}
            clash = False
            for ci in combo:
                for e in copy_edges[ci]:
                    if e in col:
                        clash = True
                        break
                    col[e] = ci
                if clash:
                    break
            if clash:
                continue
            if forbidden is not None and _naive_rainbow_scan(n, col, forbidden):
                continue
            return (r, ColoredPacking(n, pattern, [copies[i] for i in combo]))
    return (0, ColoredPacking(n, pattern, []))
