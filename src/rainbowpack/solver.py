"""Exact maximum rainbow-free packing by branch and bound.

The search enumerates every copy of the pattern in the host (complete
graph by default), then walks include/exclude decisions in a fixed copy
order.  It recurses only on include and walks the excludes in a loop, so
the stack depth is at most the packing size plus one.  A bitmask of the
copies that share no edge with the packing lets the walk jump to the next
copy that fits; every copy index it passes still counts as one node.
A copy that would create a rainbow copy of the forbidden graph G is
rejected when it is included.  Value pruning stops the walk once the
incumbent reaches the cap of _value_cap: the copies that fit into the
host's edges, the vertex cap, and, for F = K_t under G = K3, the clique
cap of _clique_cap.  The incumbent is replaced only by a strictly larger
packing and the cap is at least the optimum, so the cap never changes
the value or the witness, only where the walk may stop.
The check looks only at the new copy's edges: every accepted include
passed it, so the union had no rainbow G before; the new edges share one
color, so a new rainbow G uses exactly one of them; and pinning one arc
from each Aut(G)-orbit of G's arcs to each new edge (u, v), u < v, finds
it.  A triangle is tested before the copy is placed, through the common
neighbors of each new edge's ends; any other G runs the embedding kernel
with the pin.  A rainbow G has e(G) edges of distinct colors, so neither
check runs while the packing, new copy included, has fewer than e(G)
copies.
The whole tree is one walk from the root, the empty packing, against the
whole node budget; the root is no copy position, so it is not a node.
Symmetry breaking, on a complete host only, takes three steps.  The root's
walk takes copy 0 alone: every copy of the pattern in K_n lies in copy 0's
Sym(n)-orbit, so some relabeling of any optimum holds it.  The second copy
walks only the copies that are the smallest of their orbit under the
stabilizer of copy 0 in Sym(n).  That keeps every value and witness: the
witness is the lexicographically smallest optimum S, and a stabilizer
element g that moved the second copy of S lower would make g(S) a smaller
one.  The orbits are found once the walk passes its first second copy.
The untouched-vertex step then skips, at every later include, a copy that
touches a vertex b no chosen copy touches while a lower such vertex a
stays off it (orbital branching: Ostrowski, Linderoth, Rossi and Smriglio
2011).  The transposition (a b) fixes every chosen copy and
sends each edge of the copy through b to a lower edge through a, so it
sends the copy to one with a smaller sorted edge list, a lower index; if
S held the copy as its next one, (a b)S would be a smaller optimum.  The
walk hands the bitmask of the untouched vertices down the recursion, and
a copy passes when the untouched vertices it touches are the lowest ones.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from operator import itemgetter

from .errors import GuardError
from .graphs import (ColoredPacking, SimpleGraph, arc_orbit_representatives,
                     automorphism_generators, compact_rows, embedded_edges,
                     embeddings, lex_min_conditions, orbit_minima, placement,
                     plan_embeddings)
from .verifier import check_forbidden

_SOLVER_N_LIMIT = 12
# copies enumerate_copies finds before it gives up, also the cap on
# max_copies: the kernel walks one embedding per copy, and the solver's keep
# bitsets cost n^2 x copies bits, so C12 in K12 (about 2*10^7 copies) is
# refused after 10^5.  C6 in K12, the largest pattern the solver is known to
# take, has 55,440; the benchmark's inputs have under 10^4 (C5 in K12: 9,504).
_COPY_LIMIT = 100_000


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
    most _COPY_LIMIT) copies turn up, before the rest are enumerated.
    """
    if pattern.edge_count() == 0:
        raise ValueError("pattern needs at least one edge")
    if host is None:
        host = SimpleGraph.complete(n)
    if host.n != n:
        raise ValueError(f"host has {host.n} vertices, expected n={n}")
    limit = _COPY_LIMIT if max_copies is None else min(max_copies, _COPY_LIMIT)
    if pattern.n > n:
        return []
    core, spots = _core(pattern)
    # the kernel walks the host's non-isolated vertices renumbered in
    # ascending order, which keeps every order the walk uses
    used, rows = compact_rows(n, host.edges)
    walk = embeddings(core, rows, less=lex_min_conditions(core))
    copies = list(itertools.islice(walk, limit))
    if next(walk, None) is not None:
        raise GuardError(f"enumerate_copies guard: copies exceed {limit}")
    if used is not None:
        copies = [tuple([used[j] for j in emb]) for emb in copies]
    if core is not pattern:
        deg = pattern.degrees()
        isolated = [v for v in range(pattern.n) if not deg[v]]
        copies = [_with_isolated(emb, spots, isolated, n) for emb in copies]
    return sorted([(emb, embedded_edges(pattern, emb)) for emb in copies], key=itemgetter(1))


def _core(pattern: SimpleGraph) -> tuple[SimpleGraph, list[int]]:
    """The pattern without its isolated vertices, and the pattern vertex
    that each core vertex stands for, in ascending order; the pattern
    itself when it has none."""
    deg = pattern.degrees()
    spots = [v for v in range(pattern.n) if deg[v]]
    if len(spots) == pattern.n:
        return pattern, spots
    index = {v: j for j, v in enumerate(spots)}
    return SimpleGraph(len(spots), frozenset(
        (index[u], index[v]) for (u, v) in pattern.edges)), spots


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
    also disables symmetry breaking, whose three steps are only sound when
    every relabeling of the vertices keeps the host.
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


class _Search:
    """The walk from the root: run() covers every packing, and the
    incumbent (best_value, best_chosen) is replaced only by a strictly
    larger packing, so the result is the same from run to run.

    The union is kept in every mode by the kernel's edge key u*n + v,
    u < v, and an include or an undo is one pass over the copy's edges.
    ``avail`` is a bitmask over copy indices: the copies that share no edge
    with the union.  ``keep[key]`` clears the copies through that edge, so
    an include costs e(F) ANDs and the exclude walk can jump to the next
    set bit.  The rainbow checks read ``nbr[u]`` (a bitmask of u's union
    neighbors) and ``col[key]`` (the index in the packing of the edge's
    copy).  An undo clears only the row bits: every color read is of an
    edge under set row bits, so a stale color is never read.
    """

    def __init__(self, n: int, forbidden: SimpleGraph | None, cap: int,
                 copy_edges: list[list[tuple[int, int]]], budget: int,
                 second_copies: Callable[[int], int] | None = None):
        self.n = n
        # given exactly under symmetry breaking: maps the copies disjoint
        # from copy 0 to those the second include may take; asked only once
        # the depth-1 walk needs it
        self.second_copies = second_copies
        # the vertices the untouched-vertex step starts from: all of them
        # under symmetry breaking, else none, which turns the step off
        self.untouched = (1 << n) - 1 if second_copies is not None else 0
        self.forbidden = forbidden
        self.copy_edges = copy_edges
        self.budget = budget
        self.n_copies = len(copy_edges)
        # the copies the root's walk may take first: copy 0 alone under
        # symmetry breaking
        self.root_end = 1 if second_copies is not None else self.n_copies
        self.cap = cap  # no packing has more copies
        # a rainbow G takes one edge from each of e(G) copies
        self.rainbow_edges = forbidden.edge_count() if forbidden is not None else 0
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
        through = [0] * (n * n)
        for i, edges in enumerate(copy_edges):
            bit = 1 << i
            for (u, v) in edges:
                through[u * n + v] |= bit
        self.keep = [self.everything & ~m for m in through]
        # touched[i]: the bitmask of the vertices on copy i's edges, which
        # only the untouched-vertex step reads
        self.touched = []
        if self.untouched:
            vertex = [1 << h for h in range(n)]
            for edges in copy_edges:
                mask = 0
                for (u, v) in edges:
                    mask |= vertex[u] | vertex[v]
                self.touched.append(mask)
        self.best_value = 0
        self.best_chosen: tuple[int, ...] = ()
        self.nodes = 0
        self.chosen: list[int] = []
        self.avail = self.everything
        self.avail_stack: list[int] = []
        self.nbr = [0] * n
        self.col = [0] * (n * n)

    def run(self) -> bool:
        """Walks the tree; False when the budget ran out first."""
        try:
            self._dfs(0, self.untouched)
        except _BudgetUp:
            return False
        return True

    def _dfs(self, idx: int, free: int) -> None:
        """Node idx with the current union, the root when it is empty, then
        its exclude successors.

        Recurses only on include, so the depth is at most value + 1.  Each
        include counts the node it leads to, and every position the exclude
        walk passes counts as one node: a copy that clashes with the union
        is a node with no include branch, and so is a copy the
        untouched-vertex step skips.  ``free`` is the bitmask of the
        vertices no chosen copy touches under symmetry breaking, else 0;
        each include hands its children their own.
        """
        c = len(self.chosen)
        if c > self.best_value:
            self.best_value = c
            self.best_chosen = tuple(self.chosen)
        if self.nodes > self.budget:
            raise _BudgetUp
        # while the cap is unmet, node p passes the bound c + copies left
        # > best exactly when p < end, so the walk stops at end
        last = self.n_copies if c else self.root_end
        cap = self.cap
        end = last + c - self.best_value if cap > self.best_value else 0
        # avail is the same again after every undo, so the walk reads it once
        walk = self.avail
        # the depth-1 walk takes only orbit-minimal second copies past its
        # first candidate, which is one: its orbit lies among the copies
        # disjoint from copy 0, and it is the lowest of those.  The orbits
        # are found only if the walk has a second candidate before end
        orbits = self.second_copies if c == 1 else None
        touched = self.touched
        while idx < end:
            if (walk >> idx) & 1:
                # the untouched-vertex step skips the copy unless u, the
                # untouched vertices it touches, are the lowest untouched ones
                if ((not free or free & ((1 << (u := touched[idx] & free).bit_length()) - 1) == u)
                        and self._include(idx)):
                    self.nodes += 1
                    self._dfs(idx + 1, free and free ^ u)
                    self._undo(idx)
                    best = self.best_value
                    end = last + c - best if cap > best else 0
                if orbits is not None and (walk & ((1 << end) - 1)) >> (idx + 1):
                    walk = orbits(walk)
                    orbits = None
            # exclude idx: count every position up to the next disjoint copy,
            # or up to the first one whose bound fails
            nxt = end if end > idx else idx + 1
            rest = walk >> (idx + 1)
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
        n = self.n
        nbr = self.nbr
        col = self.col
        check = len(self.chosen) + 1 >= self.rainbow_edges
        if self.fast_triangle and check:
            # a rainbow triangle through a new edge has its other two edges
            # already placed, in two different colors
            for (u, v) in edges:
                common = nbr[u] & nbr[v]
                while common:
                    low = common & -common
                    common ^= low
                    z = low.bit_length() - 1
                    if (col[u * n + z if u < z else z * n + u]
                            != col[v * n + z if v < z else z * n + v]):
                        return False
        self.avail_stack.append(self.avail)
        avail, keep, color = self.avail, self.keep, len(self.chosen)
        for (u, v) in edges:
            key = u * n + v
            avail &= keep[key]
            col[key] = color
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        self.avail = avail
        self.chosen.append(idx)
        if self.generic and check and self._makes_rainbow(edges):
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
        nbr = self.nbr
        for (u, v) in self.copy_edges[idx]:
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

    symmetric_ground = cfg.host is None and cfg.symmetry_breaking
    second_copies = (functools.partial(_orbit_minimal, cfg.n, cfg.pattern, copies[0], copy_edges)
                     if symmetric_ground and copies else None)

    cap = _value_cap(cfg.pattern, cfg.forbidden, host, copies)
    search = _Search(cfg.n, cfg.forbidden, cap, copy_edges, cfg.node_budget, second_copies)
    optimal = search.run()
    packing = ColoredPacking(cfg.n, cfg.pattern, [copies[i] for i in search.best_chosen])
    return SearchResult(search.best_value, packing, optimal, search.nodes)


def _orbit_minimal(n: int, pattern: SimpleGraph, first: tuple[int, ...],
                   copy_edges: list[list[tuple[int, int]]], disjoint: int) -> int:
    """The copies in the bitmask ``disjoint``, the copies of the pattern in
    K_n that share no edge with copy 0 (embedded at ``first``), that have
    the lowest index in their orbit under the stabilizer of copy 0 in
    Sym(n), as a bitmask.

    A permutation keeps copy 0's edge set exactly when it acts on the
    copy's non-isolated vertices as an automorphism of the pattern's core
    and permutes the other host vertices at will.  So automorphism
    generators of the core, carried onto copy 0, with one transposition and
    one cycle of the other vertices generate the stabilizer, and an orbit
    is the closure of one copy under them (McKay and Piperno 2014).  The
    stabilizer keeps the disjoint copies among themselves, so a table from
    their edge-key sets u*n + v, u < v, to their positions finds each image
    for orbit_minima.
    """
    core, spots = _core(pattern)
    on = [first[v] for v in spots]
    rest = [h for h in range(n) if h not in on]
    perms = []
    for t in automorphism_generators(core):
        perm = list(range(n))
        for j, h in enumerate(on):
            perm[h] = on[t[j]]
        perms.append(perm)
    if len(rest) >= 2:
        # a transposition and a cycle generate the symmetric group
        swap = list(range(n))
        swap[rest[0]], swap[rest[1]] = rest[1], rest[0]
        cycle = list(range(n))
        for h, k in zip(rest, rest[1:] + rest[:1]):
            cycle[h] = k
        perms += [swap, cycle]
    ids = [i for i, bit in enumerate(reversed(bin(disjoint)[2:])) if bit == "1"]
    keys = [[u * n + v for (u, v) in copy_edges[i]] for i in ids]
    position = {frozenset(ks): p for p, ks in enumerate(keys)}
    # images[g][p]: the position of the image of copy ids[p] under generator g
    images = []
    for perm in perms:
        moved = [0] * (n * n)
        for u in range(n):
            a = perm[u]
            for v in range(u + 1, n):
                b = perm[v]
                moved[u * n + v] = a * n + b if a < b else b * n + a
        images.append([position[frozenset(map(moved.__getitem__, ks))] for ks in keys])
    least = orbit_minima(len(ids), images)
    return sum(1 << ids[p] for p in range(len(ids)) if least[p] == p)


def _value_cap(pattern: SimpleGraph, forbidden: SimpleGraph | None,
               host: SimpleGraph, copies: list[tuple[int, ...]]) -> int:
    """No rainbow-free packing of the pattern's copies in the host has
    more copies than this: the least of the edge cap e(H) // e(F), the
    vertex cap of _vertex_cap and, for F = K_t (t >= 3) under G = K3, the
    clique cap of _clique_cap on the vertices that lie on some copy."""
    t, e_f = pattern.n, pattern.edge_count()
    cap = min(host.edge_count() // e_f, _vertex_cap(pattern, host))
    if (t >= 3 and e_f == t * (t - 1) // 2 and copies and forbidden is not None
            and forbidden.is_cycle(3)):
        cap = min(cap, _clique_cap(t, len({v for emb in copies for v in emb})))
    return cap


def _vertex_cap(pattern: SimpleGraph, host: SimpleGraph) -> int:
    """Most edge-disjoint copies of the pattern F in the host H by the
    degree count (Schonheim 1966 for K3 in K_n).

    Each copy puts its f non-isolated vertices on f distinct host vertices,
    and each of them takes at least delta, the least positive degree of F,
    of that host vertex's edges.  So host vertex v lies on at most
    d_H(v) // delta copies, and f * T <= sum of d_H(v) // delta.  For K3 in
    K_n this is floor(n/3 * floor((n - 1)/2)).  For regular F it is never
    above the edge cap, and bounding a node by its free degrees instead
    gives the same cap at every node, so the static cap loses nothing.
    """
    deg = [d for d in pattern.degrees() if d]
    least = min(deg)
    return sum(d // least for d in host.degrees()) // len(deg)


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
