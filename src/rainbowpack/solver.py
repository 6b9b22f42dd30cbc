"""Exact maximum rainbow-free packing by branch and bound.

The search enumerates every copy of the pattern in the host (complete
graph by default), then walks include/exclude decisions in a fixed copy
order.  It recurses only on include and walks the excludes in a loop, so
the stack depth is at most the packing size plus one.  A bitmask of the
copies that share no edge with the packing lets the walk jump to the next
copy that fits; every copy index it passes still counts as one node.
A copy that would create a rainbow copy of the forbidden graph G is
rejected when it is included.  Value pruning stops the walk once the
incumbent reaches the cap: the copies that fit into the host's edges and,
for F = K_t under G = K3, the clique cap of _clique_cap.
The check looks only at the new copy's edges: every accepted include
passed it, so the union had no rainbow G before; the new edges share one
color, so a new rainbow G uses exactly one of them; and pinning one arc
from each Aut(G)-orbit of G's arcs to each new edge (u, v), u < v, finds
it.  A triangle is tested before the copy is placed, through the common
neighbors of each new edge's ends; any other G runs the embedding kernel
with the pin.
The tree is split into subproblems keyed by the first included copy, each
of the k of them with budget // (k + 1) nodes, so a search stops after
about k/(k + 1) of the budget (half under symmetry breaking, which keeps
one subproblem).  They are solved in order against one incumbent that
only a strictly larger packing replaces, so the result is bitwise
identical from run to run.

oracle_max_packing is the deliberately naive cross-check: copies from
plain vertex permutations, full subset enumeration and a from-scratch
rainbow scan, no shared code with the branch-and-bound path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import GuardError
from .graphs import (ColoredPacking, SimpleGraph, _norm_edge,
                     arc_orbit_representatives, embedded_edges, embeddings,
                     lex_min_conditions, placement, plan_embeddings)
from .verifier import check_forbidden

_SOLVER_N_LIMIT = 12
_ORACLE_COPY_LIMIT = 24
# copies enumerate_copies finds before it gives up, also the cap on
# max_copies: the kernel walks one embedding per copy, so C12 in K12 (about
# 2*10^7 copies) is refused after 10^6.  The largest inputs the tests and
# benchmark use have under 10^4 (C5 in K12: 9,504).
_EMBEDDING_LIMIT = 1_000_000


def enumerate_copies(n: int, pattern: SimpleGraph,
                     host: SimpleGraph | None = None,
                     max_copies: int | None = None) -> list[tuple[int, ...]]:
    """The copies of enumerate_copy_edges, without their edge lists."""
    return [emb for emb, _ in enumerate_copy_edges(n, pattern, host, max_copies)]


def enumerate_copy_edges(n: int, pattern: SimpleGraph,
                         host: SimpleGraph | None = None,
                         max_copies: int | None = None
                         ) -> list[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """All copies of the pattern in the host (K_n when host is None), each
    with its sorted host edges.

    One embedding per copy (per distinct edge set): the lexicographically
    smallest vertex tuple realizing it.  The kernel walks only those,
    through lex_min_conditions of the pattern without its isolated
    vertices; Aut(F) does not reach the isolated vertices, as a copy is its
    edge set, so they take the smallest host vertices outside the copy, in
    ascending order.  Copies are sorted by their sorted edge list, so the
    order is canonical.  GuardError as soon as more than max_copies (at
    most _EMBEDDING_LIMIT) copies turn up, before the rest are enumerated.
    """
    if pattern.edge_count() == 0:
        raise ValueError("pattern needs at least one edge")
    if host is None:
        host = SimpleGraph.complete(n)
    if host.n != n:
        raise ValueError(f"host has {host.n} vertices, expected n={n}")
    limit = _EMBEDDING_LIMIT if max_copies is None else min(max_copies, _EMBEDDING_LIMIT)
    if pattern.n > n:
        return []
    deg = pattern.degrees()
    spots = [v for v in range(pattern.n) if deg[v]]
    core = pattern
    if len(spots) < pattern.n:
        index = {v: j for j, v in enumerate(spots)}
        core = SimpleGraph(len(spots), frozenset(
            (index[u], index[v]) for (u, v) in pattern.edges))
    walk = embeddings(core, host.adjacency(), less=lex_min_conditions(core))
    copies = list(itertools.islice(walk, limit))
    if next(walk, None) is not None:
        raise GuardError(f"enumerate_copies guard: copies exceed {limit}")
    if core is not pattern:
        isolated = [v for v in range(pattern.n) if not deg[v]]
        copies = [_with_isolated(emb, spots, isolated, n) for emb in copies]
    return sorted([(emb, embedded_edges(pattern, emb)) for emb in copies], key=itemgetter(1))


def _with_isolated(emb: tuple[int, ...], spots: list[int], isolated: list[int],
                   n: int) -> tuple[int, ...]:
    """The pattern tuple of a core embedding: core vertex j at pattern
    vertex spots[j], and the isolated vertices on the smallest free host
    vertices in ascending order."""
    full = [0] * (len(spots) + len(isolated))
    for v, h in zip(spots, emb):
        full[v] = h
    free = (h for h in range(n) if h not in emb)
    for v in isolated:
        full[v] = next(free)
    return tuple(full)


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
    included copy is ``first``.  It resets the union but keeps the
    incumbent (best_value, best_chosen), so each subproblem in turn prunes
    against the best packing found so far.

    ``avail`` is a bitmask over copy indices: the copies that share no edge
    with the current union.  ``keep[e]`` clears the copies through host edge
    e, so an include costs e(F) ANDs and the exclude walk can jump to the
    next set bit instead of visiting each clashing copy.  The union itself,
    read only by the rainbow checks, is ``nbr[u]`` (a bitmask of u's union
    neighbors) plus ``col`` (union edge to the index of its copy in the
    packing).
    """

    def __init__(self, n: int, forbidden: SimpleGraph | None, cap: int,
                 copy_edges: list[list[tuple[int, int]]],
                 edge_ids: list[list[int]], total_edges: int, budget: int):
        self.n = n
        self.forbidden = forbidden
        self.copy_edges = copy_edges
        self.edge_ids = edge_ids
        self.budget = budget
        self.n_copies = len(copy_edges)
        self.cap = cap  # no packing has more copies
        self.fast_triangle = forbidden is not None and forbidden.is_cycle(3)
        self.generic = forbidden is not None and not self.fast_triangle
        if self.generic:
            # one placement plan per Aut(G)-orbit of G's arcs, with the
            # orbit's representative arc in the first two positions; the
            # later positions start from every host vertex
            self.plans = [placement(forbidden, arc)
                          for arc in arc_orbit_representatives(forbidden)]
            self.tail = [(1 << n) - 1] * (forbidden.n - 2)
        self.everything = (1 << self.n_copies) - 1
        through = [0] * total_edges
        for i, ids in enumerate(edge_ids):
            for e in ids:
                through[e] |= 1 << i
        self.keep = [self.everything & ~m for m in through]
        self.best_value = 0
        self.best_chosen: tuple[int, ...] = ()

    def run(self, first: int) -> tuple[bool, int]:
        """Returns (optimal, nodes) of this subproblem."""
        self.nodes = 0
        self.chosen: list[int] = []
        self.avail = self.everything
        self.avail_stack: list[int] = []
        self.nbr = [0] * self.n
        self.col: dict[tuple[int, int], int] = {}
        optimal = True
        try:
            self.nodes += 1
            if self._include(first):
                self._dfs(first + 1)
                self._undo(first)
        except _BudgetUp:
            optimal = False
        return (optimal, self.nodes)

    def _dfs(self, idx: int) -> None:
        """Node idx with the current union, then its exclude successors.

        Recurses only on include, so the depth is at most value + 1.  Every
        position the exclude walk passes still counts as one node: a copy
        that clashes with the union is a node with no include branch.
        """
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BudgetUp
        c = len(self.chosen)
        if c > self.best_value:
            self.best_value = c
            self.best_chosen = tuple(self.chosen)
        # node p passes the bound c + min(copies left, free edges // e(F))
        # > best exactly when p < end, so the walk stops at end
        last = self.n_copies
        cap = self.cap
        end = last + c - self.best_value if cap > self.best_value else 0
        while idx < end:
            if (self.avail >> idx) & 1 and self._include(idx):
                self._dfs(idx + 1)
                self._undo(idx)
                best = self.best_value
                end = last + c - best if cap > best else 0
            # exclude idx: count every position up to the next disjoint copy,
            # or up to the first one whose bound fails
            nxt = end if end > idx else idx + 1
            rest = self.avail >> (idx + 1)
            if rest:
                low = idx + (rest & -rest).bit_length()
                if low < nxt:
                    nxt = low
            self.nodes += nxt - idx
            if self.nodes > self.budget:
                self.nodes = self.budget + 1
                raise _BudgetUp
            idx = nxt

    def _include(self, idx: int) -> bool:
        edges = self.copy_edges[idx]
        nbr = self.nbr
        col = self.col
        if self.fast_triangle:
            # a rainbow triangle through a new edge has its other two edges
            # already placed, in two different colors
            for (u, v) in edges:
                common = nbr[u] & nbr[v]
                while common:
                    low = common & -common
                    common ^= low
                    z = low.bit_length() - 1
                    if (col[(u, z) if u < z else (z, u)]
                            != col[(v, z) if v < z else (z, v)]):
                        return False
        if self.forbidden is not None:  # the union is read only by the checks
            color = len(self.chosen)
            for (u, v) in edges:
                col[(u, v)] = color
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
        self.avail_stack.append(self.avail)
        for e in self.edge_ids[idx]:
            self.avail &= self.keep[e]
        self.chosen.append(idx)
        if self.generic and self._makes_rainbow(edges):
            self._undo(idx)
            return False
        return True

    def _makes_rainbow(self, edges: list[tuple[int, int]]) -> bool:
        """Whether the union, with the new copy's edges placed, holds a
        rainbow copy of the forbidden graph G (see the module docstring for
        why the pinned searches find every one).  Some arc of G lands on
        the new edge it uses as (u, v), u < v, and an automorphism of G
        moves that arc to its orbit's representative.
        """
        nbr = self.nbr
        col = self.col
        for (u, v) in edges:
            start = [1 << u, 1 << v, *self.tail]
            for (order, anchors) in self.plans:
                if next(plan_embeddings(order, anchors, nbr, start, color=col),
                        None) is not None:
                    return True
        return False

    def _undo(self, idx: int) -> None:
        self.chosen.pop()
        self.avail = self.avail_stack.pop()
        if self.forbidden is not None:
            nbr = self.nbr
            for (u, v) in self.copy_edges[idx]:
                del self.col[(u, v)]
                nbr[u] &= ~(1 << v)
                nbr[v] &= ~(1 << u)


def max_rainbow_free_packing(cfg: SearchConfig) -> SearchResult:
    """Maximum number of edge-disjoint pattern copies with no rainbow
    forbidden copy, plus a witness packing.

    Deterministic: the witness is the lexicographically smallest optimal
    set of copy indices.  optimal=False means the node budget ran out and
    value is only a certified lower bound.
    """
    if cfg.n > _SOLVER_N_LIMIT:
        raise GuardError(f"solver guard: n={cfg.n} exceeds {_SOLVER_N_LIMIT}")
    if cfg.forbidden is not None:
        check_forbidden(cfg.forbidden)
    host = cfg.host if cfg.host is not None else SimpleGraph.complete(cfg.n)
    found = enumerate_copy_edges(cfg.n, cfg.pattern, host)
    copies = [emb for emb, _ in found]
    copy_edges = [edges for _, edges in found]
    host_edges = host.sorted_edges()
    edge_index = {e: i for i, e in enumerate(host_edges)}
    edge_ids = [[edge_index[e] for e in edges] for edges in copy_edges]

    symmetric_ground = cfg.host is None and cfg.symmetry_breaking
    firsts = ([0] if copies else []) if symmetric_ground else list(range(len(copies)))
    budget_per = max(1, cfg.node_budget // (len(firsts) + 1))

    t, e_f = cfg.pattern.n, cfg.pattern.edge_count()
    cap = len(host_edges) // e_f
    # F = K_t and G = K3
    if (t >= 3 and e_f == t * (t - 1) // 2 and copies and cfg.forbidden is not None
            and cfg.forbidden.is_cycle(3)):
        cap = min(cap, _clique_cap(t, len({v for emb in copies for v in emb})))
    sub = _SubSolver(cfg.n, cfg.forbidden, cap, copy_edges,
                     edge_ids, len(host_edges), budget_per)
    runs = [sub.run(first) for first in firsts]
    optimal = all(ok for (ok, _) in runs)
    nodes = sum(sub_nodes for (_, sub_nodes) in runs)
    packing = ColoredPacking(cfg.n, cfg.pattern, [copies[i] for i in sub.best_chosen])
    return SearchResult(sub.best_value, packing, optimal, nodes)


def _clique_cap(t: int, n: int) -> int:
    """Most copies of K_t, t >= 3, in a packing on n vertices with no
    rainbow triangle (the Ruzsa-Szemeredi degree count).

    A vertex w outside a copy C has at most one union neighbor in C: two,
    x and y, close a triangle wxy that is rainbow unless wx and wy share a
    copy, and that copy, a clique, would hold xy too.  So the union degrees
    over C sum to at most t(t-1) + (n - t) = n + t(t-2).  A vertex on e(v)
    copies has degree (t-1)e(v), so each copy has sum of e(v) over C at most
    L = (n + t(t-2)) // (t-1), and summing over the T copies gives
    sum of e(v)^2 <= T*L.  With sum of e(v) = tT over n vertices, the
    balanced split has the least sum of squares, and it exceeds T*L for
    every T past the first that fails, since it is convex in T.
    """
    limit = (n + t * (t - 2)) // (t - 1)
    copies = 0
    while True:
        q, r = divmod(t * (copies + 1), n)
        if r * (q + 1) ** 2 + (n - r) * q * q > (copies + 1) * limit:
            return copies
        copies += 1


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
