"""Core graph and packing data model.

Vertices are integers 0..n-1.  Edges are stored as (u, v) pairs with u < v,
so every edge has exactly one representation and graphs compare by value.
A ColoredPacking is a list of edge-disjoint copies of one pattern graph;
the copy index doubles as the color of every edge inside that copy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import GuardError, PackingError


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"loop edge ({u},{u}) not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertex set {0,...,n-1}."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for (u, v) in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges) -> "SimpleGraph":
        """Build a graph, normalizing each pair to (min, max)."""
        return SimpleGraph(n, frozenset(_norm_edge(u, v) for (u, v) in edges))

    @staticmethod
    def complete(n: int) -> "SimpleGraph":
        return SimpleGraph(n, frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n)))

    @staticmethod
    def cycle(n: int) -> "SimpleGraph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return SimpleGraph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))

    @staticmethod
    def path(n: int) -> "SimpleGraph":
        return SimpleGraph.from_edges(n, ((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def empty(n: int) -> "SimpleGraph":
        return SimpleGraph(n, frozenset())

    @staticmethod
    def petersen() -> "SimpleGraph":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        return SimpleGraph.from_edges(10, outer + inner + spokes)

    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for (u, v) in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_cycle(self, k: int) -> bool:
        """True when this graph is the k-cycle C_k, up to relabeling."""
        return (self.n == k and self.edge_count() == k and self.is_connected()
                and all(d == 2 for d in self.degrees()))

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}

    @staticmethod
    def from_json_dict(obj: dict) -> "SimpleGraph":
        return SimpleGraph.from_edges(int(obj["n"]), [tuple(e) for e in obj["edges"]])

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def embedded_edges(pattern: SimpleGraph, emb) -> list[tuple[int, int]]:
    """Sorted host edges of the pattern copy with pattern vertex i at emb[i].

    emb must be injective on every pattern edge; callers either built it
    that way or check the result against a host edge set.
    """
    return sorted([(emb[u], emb[v]) if emb[u] < emb[v] else (emb[v], emb[u])
                   for (u, v) in pattern.edges])


def canonical_json(obj) -> str:
    """One fixed byte representation per value, for certificate diffing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ColoredPacking:
    """Edge-disjoint copies of a pattern graph inside {0,...,n-1}.

    ``copies[c][i]`` is the ground vertex hosting pattern vertex ``i`` in
    copy ``c``.  Copy index c is the color of every edge of that copy.
    Construction validates injectivity of each embedding and pairwise
    edge-disjointness; the offending pair of copies is reported on clash.
    """

    def __init__(self, n: int, pattern: SimpleGraph, copies) -> None:
        if pattern.edge_count() == 0:
            raise PackingError("pattern graph must have at least one edge")
        self.n = n
        self.pattern = pattern
        self.copies: tuple[tuple[int, ...], ...] = tuple(tuple(c) for c in copies)
        self.edge_color: dict[tuple[int, int], int] = {}
        k = pattern.n
        for ci, copy in enumerate(self.copies):
            if len(copy) != k:
                raise PackingError(f"copy {ci} has {len(copy)} vertices, expected {k}")
            if len(set(copy)) != k:
                raise PackingError(f"copy {ci} is not injective: {copy}")
            for x in copy:
                if not (0 <= x < n):
                    raise PackingError(f"copy {ci} uses vertex {x} outside ground set")
            for (i, j) in pattern.edges:
                e = _norm_edge(copy[i], copy[j])
                prev = self.edge_color.get(e)
                if prev is not None:
                    raise PackingError(
                        f"copies {prev} and {ci} both use edge {e}")
                self.edge_color[e] = ci

    def __len__(self) -> int:
        return len(self.copies)

    def copy_edges(self, ci: int) -> list[tuple[int, int]]:
        """Ground edges of copy ci, sorted."""
        return embedded_edges(self.pattern, self.copies[ci])

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern.to_json_dict(),
            "copies": [list(c) for c in self.copies],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "ColoredPacking":
        return ColoredPacking(
            int(obj["n"]),
            SimpleGraph.from_json_dict(obj["pattern"]),
            [tuple(c) for c in obj["copies"]],
        )

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


@dataclass(frozen=True)
class BlowupSpec:
    """Replace vertex i of ``base`` by an independent class of ``class_sizes[i]``
    vertices; base edges become complete bipartite blocks."""

    base: SimpleGraph
    class_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.class_sizes) != self.base.n:
            raise ValueError("need one class size per base vertex")
        if any(s < 0 for s in self.class_sizes):
            raise ValueError("class sizes must be nonnegative")


def union_graph(packing: ColoredPacking) -> SimpleGraph:
    """Union of all copy edges; exactly e(pattern) * len(copies) edges."""
    return SimpleGraph(packing.n, frozenset(packing.edge_color))


def blow_up(spec: BlowupSpec) -> SimpleGraph:
    """Blow-up graph with class-major vertex numbering.

    Class i occupies the contiguous block starting at
    offset(i) = class_sizes[0] + ... + class_sizes[i-1].
    """
    offsets = [0]
    for s in spec.class_sizes:
        offsets.append(offsets[-1] + s)
    edges = []
    for (i, j) in spec.base.edges:
        for a in range(spec.class_sizes[i]):
            for b in range(spec.class_sizes[j]):
                edges.append((offsets[i] + a, offsets[j] + b))
    return SimpleGraph.from_edges(offsets[-1], edges)


def embeddings(small: SimpleGraph, host_adj: list[set[int]],
               injective: bool = True, color: dict | None = None):
    """Yield every edge-preserving map of ``small`` into a host, as a tuple
    whose entry i is the host vertex carrying small-graph vertex i.

    The host is given by its adjacency sets.  ``injective`` asks for copies
    rather than homomorphisms.  With ``color`` (host edge (u, v), u < v, to
    color) only maps whose edges get pairwise distinct colors are yielded.

    Small-graph vertices are placed in component-wise BFS order, each
    component rooted at its smallest vertex and neighbors queued in
    ascending order, so every vertex after a root has a placed neighbor and
    its candidates are the common host neighbors of all placed neighbors.
    Candidates are tried in ascending order, so maps come out in a fixed
    order, and the search keeps an explicit stack instead of recursing.
    """
    s_adj = small.adjacency()
    order: list[int] = []
    for root in range(small.n):
        if root not in order:
            head = len(order)
            order.append(root)
            while head < len(order):
                order += [w for w in sorted(s_adj[order[head]]) if w not in order]
                head += 1
    if not order:
        yield ()
        return
    anchors = [[u for u in sorted(s_adj[v]) if u in order[:i]]
               for i, v in enumerate(order)]
    # candidate sets are bitmasks, so the lowest set bit is the next host
    # vertex in ascending order and intersections are single integer ANDs
    nbr = [sum(1 << w for w in nb) for nb in host_adj]
    everything = (1 << len(host_adj)) - 1
    last = len(order) - 1
    image = [-1] * small.n
    used = 0
    used_colors: set[int] = set()
    # per depth: untried candidates, and with a color map the anchor images
    # and the colors the current choice added
    rest = [0] * len(order)
    placed: list = [()] * len(order)
    added: list = [()] * len(order)
    rest[0] = everything
    i = 0
    while i >= 0:
        v = order[i]
        r = rest[i]
        if image[v] >= 0:
            used &= ~(1 << image[v])
            used_colors.difference_update(added[i])
            image[v] = -1
        pl = placed[i]
        while r:
            low = r & -r
            r ^= low
            h = low.bit_length() - 1
            if color is not None:
                new = {color[(a, h) if a < h else (h, a)] for a in pl}
                if len(new) < len(pl) or not used_colors.isdisjoint(new):
                    continue
            if i == last:
                image[v] = h
                yield tuple(image)
                continue
            break
        else:
            image[v] = -1
            i -= 1
            continue
        rest[i] = r
        image[v] = h
        if injective:
            used |= low
        if color is not None:
            added[i] = new
            used_colors |= new
        i += 1
        m = everything & ~used
        for u in anchors[i]:
            m &= nbr[image[u]]
        rest[i] = m
        if color is not None:
            placed[i] = [image[u] for u in anchors[i]]


def _greedy_clique(adj: list[set[int]], order: list[int]) -> list[int]:
    clique: list[int] = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def chromatic_number(g: SimpleGraph, limit: int = 16) -> int:
    """Exact chromatic number by branch and bound.

    Vertices are colored in descending degree order; a greedy clique gives
    the lower bound and a fresh color is opened only one at a time, which
    kills color-permutation symmetry.  Guarded to n <= limit.
    """
    if g.n > limit:
        raise GuardError(f"chromatic_number guard: n={g.n} exceeds limit={limit}")
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    adj = g.adjacency()
    deg_order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    lower = len(_greedy_clique(adj, deg_order))

    def colorable(k: int) -> bool:
        color = [-1] * g.n

        def place(idx: int, used: int) -> bool:
            if idx == len(deg_order):
                return True
            v = deg_order[idx]
            taken = {color[u] for u in adj[v] if color[u] >= 0}
            # trying at most one brand-new color keeps the search canonical
            for c in range(min(used + 1, k)):
                if c in taken:
                    continue
                color[v] = c
                if place(idx + 1, max(used, c + 1)):
                    return True
                color[v] = -1
            return False

        return place(0, 0)

    k = lower
    while not colorable(k):
        k += 1
    return k


def girth(g: SimpleGraph):
    """Length of a shortest cycle, or math.inf for forests.

    BFS from every vertex; a non-tree edge closing two root paths of depths
    d1 and d2 witnesses a closed walk of length d1+d2+1, and the minimum of
    those over all roots is the girth.
    """
    adj = g.adjacency()
    best = math.inf
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w:
                        cyc = dist[u] + dist[w] + 1
                        if cyc < best:
                            best = cyc
            frontier = nxt
        if best == 3:
            break
    return best
