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
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from operator import lt, ne

from .errors import GuardError, PackingError

# verify keeps one forward-set slot per vertex, 8 bytes, and a set only
# where a vertex has a forward neighbor (see forward_sets); a JSON graph or
# packing may name at most this many vertices, and one triangle naming
# them all peaks at about 25 MB under verify.
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


def _json_int_rows(rows, what: str) -> list[list[int]]:
    """A decoded JSON list of integer lists, as it is; ValueError otherwise."""
    # whole-list type sets keep the check cheap on packings with many copies
    if (type(rows) is not list or not set(map(type, rows)) <= {list}
            or not set(map(type, itertools.chain.from_iterable(rows))) <= {int}):
        raise ValueError(f"{what} must be a list of integer lists")
    return rows


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


def bitmask_rows(n: int, edges) -> list[int]:
    """Bitmask rows (row h: h's neighbors) of the graph on 0..n-1 with these
    edges; GuardError before any row is built if they pass _ROW_BYTES_LIMIT."""
    edges = list(edges)
    top = [0] * n
    for (u, v) in edges:
        top[u], top[v] = max(top[u], v), max(top[v], u)
    if sum(top) // 8 > _ROW_BYTES_LIMIT:
        raise GuardError(f"embeddings guard: host bitmask rows need about "
                         f"{sum(top) >> 23} MiB, over {_ROW_BYTES_LIMIT >> 20} MiB")
    rows = [0] * n
    for (u, v) in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def compact_rows(n: int, edges) -> tuple[list[int] | None, list[int]]:
    """The graph on 0..n-1 with these edges, as its non-isolated vertices in
    ascending order and bitmask rows (see bitmask_rows) on them renumbered
    0, 1, ...; None and rows on 0..n-1 when no vertex is isolated.

    The renumbering keeps the order of any two vertices, so the embedding
    kernel meets its maps in the same order on either rows, and a sparse
    graph with high ids costs its edges, not its largest id.  The edges
    are read more than once, so they come as a collection.
    """
    # a byte per vertex, not a set of ids: less time on a small host, and
    # about 70 MB less on a million vertices
    seen = bytearray(n)
    for (u, v) in edges:
        seen[u] = seen[v] = 1
    if 0 not in seen:
        return None, bitmask_rows(n, edges)
    used = list(itertools.compress(range(n), seen))
    index = {h: j for j, h in enumerate(used)}
    return used, bitmask_rows(len(used), [(index[u], index[v]) for (u, v) in edges])


def count_triangles(n: int, edges) -> int:
    """Triangle count of the graph on 0..n-1 with these edges (u, v), u < v,
    in one pass."""
    return forward_triangles(forward_sets(n, edges))


_NO_FORWARD: frozenset[int] = frozenset()


def forward_sets(n: int, edges) -> list[set[int] | frozenset[int]]:
    """Per vertex u of 0..n-1, its neighbors above u, from edges (u, v) with
    u < v.  Only a vertex with a forward neighbor gets a set of its own; the
    others share one empty frozenset, so a vertex costs a list slot and not
    a set (about 216 bytes)."""
    fwd: list[set[int] | frozenset[int]] = [_NO_FORWARD] * n
    for (u, v) in edges:
        fwd_u = fwd[u]
        if fwd_u:
            fwd_u.add(v)
        else:
            fwd[u] = {v}
    return fwd


def forward_triangles(fwd: list[set[int] | frozenset[int]]) -> int:
    """Triangle count from forward_sets: triangle a < b < c is met once, at
    edge (a, b), where c lies in both forward sets.  A set intersection
    costs the smaller set's size, at most min(deg a, deg b), so the count
    takes O(m^1.5) steps in all (Chiba and Nishizeki 1985)."""
    total = 0
    for fwd_u in fwd:
        for v in fwd_u:
            total += len(fwd_u & fwd[v])
    return total


def canonical_json(obj) -> str:
    """One fixed byte representation per value, for certificate diffing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _raise_first_packing_error(n: int, pattern: SimpleGraph, copies) -> None:
    """Raise the PackingError of the first copy, in copy order, that has the
    wrong length, repeats a vertex, leaves 0..n-1 or reuses an edge of an
    earlier copy."""
    seen: dict[tuple[int, int], int] = {}
    k = pattern.n
    for ci, copy in enumerate(copies):
        if len(copy) != k:
            raise PackingError(f"copy {ci} has {len(copy)} vertices, expected {k}")
        if len(set(copy)) != k:
            raise PackingError(f"copy {ci} is not injective: {tuple(copy)}")
        for x in copy:
            if not (0 <= x < n):
                raise PackingError(f"copy {ci} uses vertex {x} outside ground set")
        for (i, j) in pattern.edges:
            e = _norm_edge(copy[i], copy[j])
            prev = seen.get(e)
            if prev is not None:
                raise PackingError(f"copies {prev} and {ci} both use edge {e}")
            seen[e] = ci
    raise AssertionError("the bulk packing checks failed where the per-copy loop passed")


class EdgeColors(Mapping):
    """Read-only view of a packing's edge colors keyed by (u, v), u < v.
    Its length is e(pattern) times the copy count; a lookup or a walk reads
    the packing's key_color, which builds it on first use.  Any other key,
    (v, u) included, is missing: u*n + v would name another edge."""

    __slots__ = ("_packing",)

    def __init__(self, packing: "ColoredPacking") -> None:
        self._packing = packing

    def __getitem__(self, edge) -> int:
        n = self._packing.n
        try:
            u, v = edge
            if 0 <= u < v < n:
                return self._packing.key_color[u * n + v]
        except (TypeError, ValueError, KeyError):
            pass
        raise KeyError(edge)

    def __iter__(self):
        n = self._packing.n
        return (divmod(key, n) for key in self._packing.key_color)

    def __len__(self) -> int:
        return self._packing.pattern.edge_count() * len(self._packing)


class ColoredPacking:
    """Edge-disjoint copies of a pattern graph inside {0,...,n-1}.

    ``copies[c][i]`` is the ground vertex hosting pattern vertex ``i`` in
    copy ``c``.  Copy index c is the color of every edge of that copy.

    A packing stores only its columns: column i (see column) holds the
    host vertex of pattern vertex i in every copy; ``copies`` reads the
    rows off them.  ``ColoredPacking(n, pattern, copies)`` transposes a
    sequence of rows once and ``from_columns`` takes columns; both run one
    body of bulk checks over all copies: lengths, then the range of the
    columns, then injectivity, where each pattern edge's two columns are
    oriented, the lower end first in every copy, which also tells them
    apart; only a pattern with a non-adjacent pair also checks each copy's
    vertex set.  The oriented columns give the one index of the union,
    ``forward``, the forward sets (see forward_sets) of all copy edges, and
    edge-disjointness is checked by their size, which is e(pattern) times
    the copy count exactly when no edge repeats.  Only when a bulk check
    fails does the per-copy loop run, to name the first offending copy or
    the clashing pair.  ``key_color``, the map from the key u*n + v, u < v,
    to the color of edge (u, v), is built on first read, and ``edge_color``
    is a read-only view of it keyed by (u, v) whose length needs no map.
    """

    def __init__(self, n: int, pattern: SimpleGraph, copies) -> None:
        # copies of two lengths stop the strict zip, and copies all of one
        # wrong length give the wrong number of columns
        copies = tuple(copies)
        try:
            cols = tuple(zip(*copies, strict=True)) if copies else ((),) * pattern.n
        except ValueError:
            cols = None
        self._check_and_index(n, pattern, cols, copies)

    @classmethod
    def from_columns(cls, n: int, pattern: SimpleGraph, columns) -> "ColoredPacking":
        """The packing whose column i is columns[i]; ValueError unless all have one length."""
        if len(set(map(len, columns))) != 1:
            raise ValueError("a packing needs one or more columns of one length")
        packing = cls.__new__(cls)
        packing._check_and_index(n, pattern, tuple(columns), None)
        return packing

    def _check_and_index(self, n: int, pattern: SimpleGraph, cols, rows) -> None:
        """Check and index cols (None: rows of two lengths); a failed check
        names the first offending copy of rows, or of cols' rows if none."""
        if pattern.edge_count() == 0:
            raise PackingError("pattern graph must have at least one edge")
        if n < 0:
            raise PackingError(f"vertex count must be nonnegative, got {n}")
        self.n, self.pattern, self._columns = n, pattern, cols
        k = pattern.n
        # the pairs of pattern vertices that are edges are told apart below,
        # as their columns are oriented, so only a pattern with a
        # non-adjacent pair needs the per-copy sets
        if cols is None or len(cols) != k or cols[0] and not (
                0 <= min(itertools.chain.from_iterable(cols))
                and max(itertools.chain.from_iterable(cols)) < n
                and (pattern.edge_count() == k * (k - 1) // 2
                     or set(map(len, map(set, zip(*cols)))) == {k})):
            _raise_first_packing_error(n, pattern, rows or self.copies)
        # each pattern edge's two columns, the lower end of every copy edge
        # first; a kt or blow-up packing has each edge's ends in one order
        ends = []
        for (i, j) in pattern.edges:
            a, b = cols[i], cols[j]
            if all(map(lt, a, b)):
                ends.append(zip(a, b))
            elif all(map(ne, a, b)):
                ends.append(zip(map(min, a, b), map(max, a, b)))
            else:
                _raise_first_packing_error(n, pattern, rows or self.copies)
        # within an injective copy the pattern's edges stay distinct, so
        # only an edge shared by two copies can shrink the forward sets
        self.forward = forward_sets(n, itertools.chain.from_iterable(ends))
        if sum(map(len, self.forward)) != pattern.edge_count() * len(self):
            _raise_first_packing_error(n, pattern, rows or self.copies)

    @property
    def copies(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self._columns))

    def __len__(self) -> int:
        return len(self._columns[0])

    def column(self, i: int) -> tuple[int, ...]:
        """The host vertex of pattern vertex i in each copy, in copy order."""
        return self._columns[i]

    def union_edges(self):
        """The union's edges (u, v), u < v, read off the forward sets."""
        return ((u, v) for u, fwd_u in enumerate(self.forward) for v in fwd_u)

    @property
    def edge_color(self) -> EdgeColors:
        """Edge colors keyed by (u, v), u < v; see EdgeColors."""
        return EdgeColors(self)

    @functools.cached_property
    def key_color(self) -> dict[int, int]:
        """Color of each edge (u, v), u < v, keyed by u*n + v; built on
        first read and kept."""
        n, cols = self.n, self._columns
        # pattern edge e of copy c sits at keys[e * len(self) + c]
        keys = [a * n + b if a < b else b * n + a
                for (i, j) in self.pattern.edges for a, b in zip(cols[i], cols[j])]
        return dict(zip(keys, itertools.chain.from_iterable(
            itertools.repeat(range(len(self)), self.pattern.edge_count()))))

    def union_degrees(self) -> list[int]:
        """Degrees of the union: the pattern degree of each position a
        vertex fills, summed over the copies."""
        deg = [0] * self.n
        for i, d in enumerate(self.pattern.degrees()):
            if d:
                for v, times in Counter(self.column(i)).items():
                    deg[v] += d * times
        return deg

    @functools.cached_property
    def union_triangles(self) -> int:
        """Triangle count of the union, counted on first use and kept, so
        find_rainbow and pentagon_audit count once."""
        return forward_triangles(self.forward)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern.to_json_dict(),
            # not self.copies: zip reuses each row tuple once list drops it
            "copies": list(map(list, zip(*self._columns))),
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
    at = {v: i for i, v in enumerate(order)}  # position of each placed vertex
    roots = iter(range(small.n))
    head = 0
    while len(order) < small.n:
        if head == len(order):  # the queue ran dry: root the next component
            root = next(r for r in roots if r not in at)
            at[root] = len(order)
            order.append(root)
        for w in sorted(s_adj[order[head]]):
            if w not in at:
                at[w] = len(order)
                order.append(w)
        head += 1
    anchors = [[u for u in sorted(s_adj[v]) if at[u] < i]
               for i, v in enumerate(order)]
    return order, anchors


def embeddings(small: SimpleGraph, rows: list[int],
               color: Sequence[int] | Mapping[int, int] | None = None, less=()):
    """Every injective edge-preserving map of ``small`` into a host, as an
    iterator of tuples whose entry i is the host vertex carrying small-graph
    vertex i.

    The host is given by its bitmask rows (see bitmask_rows).  With ``color``
    (any sequence or mapping from edge key a*n + h, a < h, n = len(rows), to
    color, read only at host edges) only maps whose edges get pairwise
    distinct colors are yielded.  Each pair (a, b) in ``less`` keeps only
    the maps that send a below b (see lex_min_conditions); a vertex that
    chains of pairs put below j vertices and above i others only tries host
    vertices with at least j ids above and i below it.  Small-graph vertices
    are placed in the order of ``placement`` and candidates are tried in
    ascending order, so maps come out in a fixed order.
    """
    order, anchors = placement(small)
    # candidate sets are bitmasks, so the lowest set bit is the next host
    # vertex in ascending order and intersections are single integer ANDs
    everything = (1 << len(rows)) - 1
    # a position with no placed neighbor tries only host vertices of at
    # least its degree, so isolated host vertices cost nothing; the mask is
    # read from a bit string, which takes linear time where summing shifts
    # is quadratic
    start = [everything] * len(order)
    deg = small.degrees()
    for i, v in enumerate(order):
        if not anchors[i]:
            start[i] = int("".join("1" if row.bit_count() >= deg[v] else "0"
                                   for row in reversed(rows)) or "0", 2)
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
        # a vertex that chains of pairs force below `up` others and above
        # `down` others takes only the host ids that leave room for them
        room = _chain_room(tuple(less))
        for i, v in enumerate(order):
            up, down = room.get(v, (0, 0))
            start[i] &= ((1 << max(0, len(rows) - up)) - 1) & -(1 << down)
    return plan_embeddings(order, anchors, rows, start, color, bounds)


@functools.lru_cache(maxsize=256)
def _chain_room(less: tuple) -> dict[int, tuple[int, int]]:
    """For each vertex named in the pairs ``less``, how many vertices
    chains of one or more pairs put above it and how many below it.
    Cached, as enumerate_copies asks it of the same pairs on every call."""
    above: dict[int, list[int]] = {}
    below: dict[int, list[int]] = {}
    for (a, b) in less:
        above.setdefault(a, []).append(b)
        below.setdefault(b, []).append(a)
    return {v: (_reach(above, v), _reach(below, v)) for v in above.keys() | below.keys()}


def _reach(step: dict[int, list[int]], v: int) -> int:
    """How many vertices the lists ``step`` lead to from v, in one or more
    steps."""
    seen: set[int] = set()
    stack = [v]
    while stack:
        for w in step.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def plan_embeddings(order: list[int], anchors: list[list[int]], nbr: list[int],
                    start: list[int],
                    color: Sequence[int] | Mapping[int, int] | None = None, bounds=None):
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
    n = len(nbr)
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
                new = {color[a * n + h] if a < h else color[h * n + a] for a in pl}
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


def _automorphism_sending(g: SimpleGraph, first, images) -> tuple[int, ...] | None:
    """Some automorphism of g that sends first[i] to images[i] for every
    i, as the tuple of each vertex's image, or None if there is none.

    One search of g into itself with the first vertices pinned: an
    injective edge-preserving map of a finite graph to itself is an
    automorphism.  Only the first such map is asked for, so Aut(g) is never
    listed (K8 has 40,320 automorphisms).  An automorphism keeps every
    degree, so each other vertex starts from the vertices of its degree.
    """
    deg = g.degrees()
    if any(deg[v] != deg[h] for v, h in zip(first, images)):
        return None
    same_degree: dict[int, int] = {}
    for v, d in enumerate(deg):
        same_degree[d] = same_degree.get(d, 0) | 1 << v
    pinned = dict(zip(first, images))
    order, anchors = placement(g, first)
    start = [1 << pinned[v] if v in pinned else same_degree[deg[v]] for v in order]
    return next(plan_embeddings(order, anchors, bitmask_rows(g.n, g.edges), start), None)


def arc_orbit_representatives(g: SimpleGraph) -> list[tuple[int, int]]:
    """One arc from each orbit of Aut(g) on g's arcs, the two orientations
    (u, v) and (v, u) of every edge; each representative is the smallest
    arc of its orbit, and they come in ascending order.  An arc joins the
    orbit of a representative when _automorphism_sending maps one to the
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
            if other not in seen and _automorphism_sending(g, arc, other) is not None:
                seen.add(other)
    return reps


@functools.lru_cache(maxsize=256)
def _stabilizer_chain(g: SimpleGraph) -> tuple[tuple[tuple[int, int], tuple[int, ...]], ...]:
    """Each pair (i, v), i < v, such that some automorphism of g fixes each
    of 0..i-1 and maps i to v, that is v lies in the orbit of i under the
    pointwise stabilizer of 0..i-1 (McKay and Piperno 2014), with one such
    automorphism as the tuple of each vertex's image.

    For each i, these automorphisms and the identity are one of each coset
    of the stabilizer of 0..i in that of 0..i-1, so together they generate
    Aut(g) (a strong generating set, Sims 1970).  Each pair is one search
    of _automorphism_sending, with 0..i-1 pinned to themselves and i to v.
    Cached, as the searches cost more than a small solve.
    """
    return tuple(((i, v), t) for i in range(g.n) for v in range(i + 1, g.n)
                 if (t := _automorphism_sending(g, range(i + 1), (*range(i), v)))
                 is not None)


@functools.lru_cache(maxsize=256)
def lex_min_conditions(g: SimpleGraph) -> tuple[tuple[int, int], ...]:
    """The symmetry-breaking pairs of g (Grochow and Kellis 2007): the
    pairs (i, v) of _stabilizer_chain.

    Of the maps of g into a host that differ by an automorphism of g,
    exactly one puts the image of i below that of v for every pair: the
    lexicographically smallest.  A map m that fails a pair (i, v) loses to
    m after t, t such an automorphism, which agrees with m before i and
    sends i to m(v) < m(i).  A map that meets every pair beats m after any
    other automorphism t at the first vertex j that t moves, since t(j) is
    in the orbit of j.
    """
    return tuple(pair for pair, _ in _stabilizer_chain(g))


def automorphism_generators(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Automorphisms of _stabilizer_chain(g) that still generate Aut(g),
    each as the tuple of each vertex's image.

    Walking the pairs (i, v) from the last i down, the automorphism of a
    pair is kept only when v is not yet in the orbit of i under those kept
    so far.  Those all fix 0..i-1 and, by induction, generate the
    pointwise stabilizer of 0..i; once the orbit of i is whole they
    generate that of 0..i-1, by the orbit-stabilizer count.  C5 keeps 2 of
    its 5 and K4 3 of its 6.
    """
    kept: list[tuple[int, ...]] = []
    for (i, v), t in reversed(_stabilizer_chain(g)):
        orbit, stack = {i}, [i]
        while stack:
            w = stack.pop()
            for k in kept:
                if k[w] not in orbit:
                    orbit.add(k[w])
                    stack.append(k[w])
        if v not in orbit:
            kept.append(t)
    return kept
