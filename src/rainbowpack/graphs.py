"""Core graph and packing data model.

Vertices are integers 0..n-1.  Edges are stored as (u, v) pairs with u < v,
so every edge has exactly one representation and graphs compare by value.
A ColoredPacking is a list of edge-disjoint copies of one pattern graph;
the copy index doubles as the color of every edge inside that copy.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from .errors import GuardError, PackingError

# Every command builds per-vertex adjacency, about 250 bytes a vertex, so a
# JSON graph or packing may name at most this many vertices (about 250 MB).
_JSON_N_LIMIT = 1_000_000
# The embedding kernel keeps one bitmask row per host vertex, about
# (largest neighbor id) / 8 bytes each, so sparse hosts with high ids cost
# memory quadratic in n; 10^5 disjoint triangles would need about 5 GiB.
_ROW_BYTES_LIMIT = 1 << 30


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"loop edge ({u},{u}) not allowed")
    return (u, v) if u < v else (v, u)


def _json_fields(obj, what: str, *keys: str) -> list:
    """The named fields of a decoded JSON object; ValueError otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{what} lacks the field(s) {', '.join(missing)}")
    return [obj[k] for k in keys]


def _json_int(x, what: str) -> int:
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _json_vertex_count(x, what: str) -> int:
    n = _json_int(x, what)
    if n > _JSON_N_LIMIT:
        raise GuardError(f"{what} = {n} exceeds the vertex limit {_JSON_N_LIMIT}")
    return n


def _json_int_rows(rows, what: str) -> list[tuple[int, ...]]:
    """A decoded JSON list of integer lists, as tuples; ValueError otherwise."""
    # whole-list type sets keep the check cheap on packings with many copies
    if (type(rows) is not list or not set(map(type, rows)) <= {list}
            or not set(map(type, itertools.chain.from_iterable(rows))) <= {int}):
        raise ValueError(f"{what} must be a list of integer lists")
    return [tuple(row) for row in rows]


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
        return adjacency(self.n, self.edges)

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
        n, edges = _json_fields(obj, "graph", "n", "edges")
        n = _json_vertex_count(n, "graph n")
        pairs = _json_int_rows(edges, "graph edges")
        if any(len(e) != 2 for e in pairs):
            raise ValueError("each of the graph edges must have two vertices")
        return SimpleGraph.from_edges(n, pairs)

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def embedded_edges(pattern: SimpleGraph, emb) -> list[tuple[int, int]]:
    """Sorted host edges of the pattern copy with pattern vertex i at emb[i].

    emb must be injective on every pattern edge; callers either built it
    that way or check the result against a host edge set.
    """
    return sorted([(emb[u], emb[v]) if emb[u] < emb[v] else (emb[v], emb[u])
                   for (u, v) in pattern.edges])


def adjacency(n: int, edges) -> list[set[int]]:
    """Neighbor sets of the graph on 0..n-1 with these edges."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def count_triangles(n: int, edges) -> tuple[list[int], int]:
    """Degrees and triangle count of the graph on 0..n-1 with these edges.

    Each edge points toward its endpoint of larger (degree, id), so a
    triangle is met once, at the out-edge between its two lower endpoints,
    and no vertex has more than sqrt(2m) out-neighbors.
    """
    deg = [0] * n
    for (u, v) in edges:
        deg[u] += 1
        deg[v] += 1
    out: list[set[int]] = [set() for _ in range(n)]
    for (u, v) in edges:
        if deg[u] < deg[v] or (deg[u] == deg[v] and u < v):
            out[u].add(v)
        else:
            out[v].add(u)
    return deg, sum(len(out[u] & out[v]) for u in range(n) for v in out[u])


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
        if n < 0:
            raise PackingError(f"vertex count must be nonnegative, got {n}")
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

    @functools.cached_property
    def union_triangles(self) -> tuple[list[int], int]:
        """Degrees and triangle count of the union, counted on first use
        and kept, so find_rainbow and pentagon_audit count once."""
        return count_triangles(self.n, self.edge_color)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern.to_json_dict(),
            "copies": [list(c) for c in self.copies],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "ColoredPacking":
        n, pattern, copies = _json_fields(obj, "packing", "n", "pattern", "copies")
        return ColoredPacking(
            _json_vertex_count(n, "packing n"),
            SimpleGraph.from_json_dict(pattern),
            _json_int_rows(copies, "packing copies"),
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


def placement(small: SimpleGraph, first=()) -> tuple[list[int], list[list[int]]]:
    """The embedding kernel's placement plan for ``small``: its vertices in
    placement order, and for each position the earlier-placed neighbors.

    The ``first`` vertices take the leading positions in the given order.
    The rest follow in component-wise BFS order: the queue starts with the
    first vertices, a component with nothing placed yet is rooted at its
    smallest vertex, and neighbors are queued in ascending order.  So every
    position after a root has a placed neighbor, and when first is an
    arc, its second vertex has the first as one.
    """
    s_adj = small.adjacency()
    order = list(first)
    roots = iter(range(small.n))
    head = 0
    while len(order) < small.n:
        if head == len(order):  # the queue ran dry: root the next component
            order.append(next(r for r in roots if r not in order))
        order += [w for w in sorted(s_adj[order[head]]) if w not in order]
        head += 1
    anchors = [[u for u in sorted(s_adj[v]) if u in order[:i]]
               for i, v in enumerate(order)]
    return order, anchors


def embeddings(small: SimpleGraph, host_adj: list[set[int]],
               color: dict | None = None, less=()):
    """Every injective edge-preserving map of ``small`` into a host, as an
    iterator of tuples whose entry i is the host vertex carrying small-graph
    vertex i.

    The host is given by its adjacency sets.  With ``color`` (host edge
    (u, v), u < v, to color) only maps whose edges get pairwise distinct
    colors are yielded.  Each pair (a, b) in ``less`` keeps only the maps
    that send a below b (see lex_min_conditions).  Small-graph vertices are
    placed in the order of ``placement`` and candidates are tried in
    ascending order, so maps come out in a fixed order.  GuardError when
    the host's bitmask rows would need more than _ROW_BYTES_LIMIT bytes.
    """
    rows = sum(max(nb) for nb in host_adj if nb) // 8
    if rows > _ROW_BYTES_LIMIT:
        raise GuardError(f"embeddings guard: host bitmask rows need about "
                         f"{rows >> 20} MiB, over {_ROW_BYTES_LIMIT >> 20} MiB")
    order, anchors = placement(small)
    # candidate sets are bitmasks, so the lowest set bit is the next host
    # vertex in ascending order and intersections are single integer ANDs
    nbr = [sum(1 << w for w in nb) for nb in host_adj]
    everything = (1 << len(host_adj)) - 1
    # a position with no placed neighbor tries only host vertices of at
    # least its degree, so isolated host vertices cost nothing; the mask is
    # read from a bit string, which takes linear time where summing shifts
    # is quadratic
    start = [everything] * len(order)
    deg = small.degrees()
    for i, v in enumerate(order):
        if not anchors[i]:
            start[i] = int("".join("1" if len(nb) >= deg[v] else "0"
                                   for nb in reversed(host_adj)) or "0", 2)
    bounds = None
    if less:
        # each pair bounds the later-placed of its two vertices
        at = {v: i for i, v in enumerate(order)}
        bounds = [([], []) for _ in order]
        for (a, b) in less:
            if at[a] < at[b]:
                bounds[at[b]][0].append(a)
            else:
                bounds[at[a]][1].append(b)
    return plan_embeddings(order, anchors, nbr, start, color, bounds)


def plan_embeddings(order: list[int], anchors: list[list[int]], nbr: list[int],
                    start: list[int], color: dict | None = None, bounds=None):
    """The embedding kernel: yield every injective map of a placement plan
    (see placement) into a host given by bitmask rows, ``nbr[h]`` holding
    the neighbors of host vertex h.

    Position i tries the unused host vertices in ``start[i]`` that are
    adjacent to the images of all its anchors, in ascending order;
    ``color`` is as in embeddings.  With ``bounds``, position i also takes
    only host vertices above the images of the earlier-placed vertices in
    ``bounds[i][0]`` and below those in ``bounds[i][1]``.  The search keeps
    an explicit stack instead of recursing.
    """
    if not order:
        yield ()
        return
    last = len(order) - 1
    image = [-1] * len(order)
    used = 0
    used_colors: set[int] = set()
    # per depth: untried candidates, and with a color map the anchor images
    # and the colors the current choice added
    rest = [0] * len(order)
    placed: list = [()] * len(order)
    added: list = [()] * len(order)
    rest[0] = start[0]
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
        used |= low
        if color is not None:
            added[i] = new
            used_colors |= new
        i += 1
        m = start[i] & ~used
        for u in anchors[i]:
            m &= nbr[image[u]]
        if bounds is not None:
            above, below = bounds[i]
            for u in above:
                m &= -(2 << image[u])
            for u in below:
                m &= (1 << image[u]) - 1
        rest[i] = m
        if color is not None:
            placed[i] = [image[u] for u in anchors[i]]


def _automorphism_sends(g: SimpleGraph, first, images) -> bool:
    """Whether some automorphism of g sends first[i] to images[i] for
    every i.

    One search of g into itself with the first vertices pinned: an
    injective edge-preserving map of a finite graph to itself is an
    automorphism.  Only the first such map is asked for, so Aut(g) is never
    listed (K8 has 40,320 automorphisms).  An automorphism keeps every
    degree, so each other vertex starts from the vertices of its degree.
    """
    adj = g.adjacency()
    deg = [len(nb) for nb in adj]
    if any(deg[v] != deg[h] for v, h in zip(first, images)):
        return False
    same_degree: dict[int, int] = {}
    for v, d in enumerate(deg):
        same_degree[d] = same_degree.get(d, 0) | 1 << v
    pinned = dict(zip(first, images))
    order, anchors = placement(g, first)
    start = [1 << pinned[v] if v in pinned else same_degree[deg[v]] for v in order]
    nbr = [sum(1 << w for w in nb) for nb in adj]
    return next(plan_embeddings(order, anchors, nbr, start), None) is not None


def arc_orbit_representatives(g: SimpleGraph) -> list[tuple[int, int]]:
    """One arc from each orbit of Aut(g) on g's arcs, the two orientations
    (u, v) and (v, u) of every edge; each representative is the smallest
    arc of its orbit, and they come in ascending order.  An arc joins the
    orbit of a representative when _automorphism_sends maps one to the
    other.
    """
    arcs = sorted(itertools.chain(g.edges, ((v, u) for (u, v) in g.edges)))
    reps: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for arc in arcs:
        if arc in seen:
            continue
        reps.append(arc)
        for other in arcs:
            if other not in seen and _automorphism_sends(g, arc, other):
                seen.add(other)
    return reps


@functools.lru_cache(maxsize=256)
def lex_min_conditions(g: SimpleGraph) -> tuple[tuple[int, int], ...]:
    """The symmetry-breaking pairs of g (Grochow and Kellis 2007): (i, v),
    i < v, whenever some automorphism of g fixes each of 0..i-1 and maps i
    to v, that is v lies in the orbit of i under the pointwise stabilizer
    of 0..i-1 (McKay and Piperno 2014).

    Of the maps of g into a host that differ by an automorphism of g,
    exactly one puts the image of i below that of v for every pair: the
    lexicographically smallest.  A map m that fails a pair (i, v) loses to
    m after t, t such an automorphism, which agrees with m before i and
    sends i to m(v) < m(i).  A map that meets every pair beats m after any
    other automorphism t at the first vertex j that t moves, since t(j) is
    in the orbit of j.

    Each pair is asked of _automorphism_sends, with 0..i-1 pinned to
    themselves and i to v.  Cached, as the searches cost more than a small
    solve.
    """
    return tuple((i, v) for i in range(g.n) for v in range(i + 1, g.n)
                 if _automorphism_sends(g, range(i + 1), (*range(i), v)))
