"""Rainbow-copy detection and the pentagon audit.

A copy of G inside the union graph of a packing is rainbow when its edges
all come from pairwise different copies of the pattern.  find_rainbow
returns the first witness in lexicographic scan order or None.

For any G that contains a triangle a PASS is decided by counting, not by
checking colors.  A rainbow copy of G contains a rainbow triangle, since
the edges of any subgraph of a rainbow copy have distinct colors too; so
a packing with no rainbow triangle has no rainbow G.  This is why one
progression-free set serves every pair of cliques K_t, K_s (the
Alon-Shapira extension of Ruzsa-Szemeredi).  Copies are edge-disjoint, so
the t_F triangles of the pattern F inside each copy are distinct
monochromatic triangles of the union.  The union's triangles are counted
once each by degree ordering (Chiba and Nishizeki 1985); when there are no
more than t_F per copy, none is rainbow.  Otherwise the search runs as if
there were no count: the lexicographic triangle scan for a triangle G,
the embedding kernel for any other G, and either names a witness or finds
none.

pentagon_audit recomputes, on a rainbow-triangle-free pentagon packing,
the exact degree double counting, the quadratic-mean lower bound, and the
per-copy degree-sum inequality with its same-colored-cherry correction
term, raising AuditError if any of them fails.  A 5-cycle has no
triangle, so every non-rainbow triangle of a pentagon packing is a cherry
of one copy closed by an edge of another; the audit counts those closed
cherries and decides that no triangle is rainbow when they number all the
union's triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AuditError, GuardError
from .graphs import (ColoredPacking, SimpleGraph, _norm_edge, adjacency,
                     count_triangles, embeddings)


@dataclass(frozen=True)
class RainbowWitness:
    """Embedding of the forbidden graph with pairwise distinct edge colors.

    vertices[i] is the host vertex carrying forbidden-graph vertex i;
    edges lists ((gu, gv), (hu, hv), color) per forbidden-graph edge.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], tuple[int, int], int], ...]

    def colors(self) -> tuple[int, ...]:
        return tuple(sorted(c for (_, _, c) in self.edges))

    def check(self, packing: ColoredPacking, forbidden: SimpleGraph) -> None:
        """Raise unless this witness is a genuine rainbow copy."""
        if len(set(self.vertices)) != len(self.vertices):
            raise AuditError("witness embedding is not injective")
        if len(self.edges) != forbidden.edge_count():
            raise AuditError("witness edge count does not match forbidden graph")
        seen_colors = set()
        listed = set()
        for ((gu, gv), (hu, hv), color) in self.edges:
            listed.add(_norm_edge(gu, gv))
            if _norm_edge(self.vertices[gu], self.vertices[gv]) != _norm_edge(hu, hv):
                raise AuditError(f"edge ({gu},{gv}) maps inconsistently")
            if packing.edge_color.get(_norm_edge(hu, hv)) != color:
                raise AuditError(f"host edge ({hu},{hv}) does not have color {color}")
            if color in seen_colors:
                raise AuditError(f"color {color} repeats, copy is not rainbow")
            seen_colors.add(color)
        if listed != set(forbidden.edges):
            raise AuditError("witness edges do not cover the forbidden graph")

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"patternEdge": list(ge), "hostEdge": list(he), "color": c}
                      for (ge, he, c) in self.edges],
        }


def check_forbidden(forbidden: SimpleGraph) -> None:
    """Reject a forbidden graph the rainbow search does not take: more than
    8 vertices (GuardError), no edges or disconnected (ValueError)."""
    if forbidden.n > 8:
        raise GuardError(f"forbidden graph has {forbidden.n} > 8 vertices (limit 8)")
    if forbidden.edge_count() == 0:
        raise ValueError("forbidden graph needs at least one edge")
    if not forbidden.is_connected():
        raise ValueError("forbidden graph must be connected")


def find_rainbow(packing: ColoredPacking, forbidden: SimpleGraph):
    """First rainbow copy of the forbidden graph, or None.

    The forbidden graph must be connected with at most 8 vertices.  When
    it contains a triangle, None comes without a search when the union has
    no triangles besides the t_F triangles of each copy: every rainbow copy
    of G holds a rainbow triangle, and there is none (see the module
    docstring).  Otherwise, for a triangle, a scan walks host edges in
    sorted order and intersects neighborhoods, so the witness is the
    lexicographically smallest rainbow triangle, and the scan returns None
    if there is none.  Any other graph takes the first map of the
    embedding kernel, which tries host vertices in ascending order and
    raises GuardError when the union is too sparse and wide for its
    bitmask rows; the count never changes which witness is named.
    """
    check_forbidden(forbidden)
    col = packing.edge_color
    if count_triangles(forbidden.n, forbidden.edges)[1] > 0:
        pattern = packing.pattern
        if packing.union_triangles[1] == (
                count_triangles(pattern.n, pattern.edges)[1] * len(packing)):
            return None
    if forbidden.is_cycle(3):
        return _find_rainbow_triangle(packing)
    verts = next(embeddings(forbidden, adjacency(packing.n, col), color=col), None)
    if verts is None:
        return None
    edges = []
    for (gu, gv) in forbidden.sorted_edges():
        e = _norm_edge(verts[gu], verts[gv])
        edges.append(((gu, gv), e, col[e]))
    return RainbowWitness(verts, tuple(edges))


def _find_rainbow_triangle(packing: ColoredPacking):
    col = packing.edge_color
    adj = adjacency(packing.n, col)
    for (u, v) in sorted(col):
        c_uv = col[(u, v)]
        for z in sorted(adj[u] & adj[v]):
            c_uz = col[_norm_edge(u, z)]
            c_vz = col[_norm_edge(v, z)]
            if c_uv != c_uz and c_uv != c_vz and c_uz != c_vz:
                return RainbowWitness(
                    (u, v, z),
                    (((0, 1), (u, v), c_uv),
                     ((0, 2), _norm_edge(u, z), c_uz),
                     ((1, 2), _norm_edge(v, z), c_vz)))
    return None


@dataclass(frozen=True)
class PentagonAudit:
    """Exact numbers backing the quadratic upper bound argument.

    double_sum (sum over copies of their vertex degree sum) must equal
    half_sum_squares (half the sum of squared degrees) because every vertex
    lies in exactly deg/2 pentagons.  qm_am_bound = 50 t^2 / n is the
    quadratic-mean lower bound on double_sum.  per_copy lists
    (degree sum, 2n + 10 + local cherry correction) per copy, and
    nstar_total, the total correction, is at most 5t.
    """

    n: int
    t: int
    double_sum: int
    half_sum_squares: int
    qm_am_bound: Fraction
    per_copy: tuple[tuple[int, int], ...]
    nstar_total: int

    def slack(self) -> list[int]:
        return [rhs - lhs for (lhs, rhs) in self.per_copy]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "doubleSum": self.double_sum,
            "halfSumSquares": self.half_sum_squares,
            "qmAmBound": f"{self.qm_am_bound.numerator}/{self.qm_am_bound.denominator}",
            "perCopy": [{"lhs": lhs, "rhs": rhs} for (lhs, rhs) in self.per_copy],
            "nStarTotal": self.nstar_total,
        }


def pentagon_audit(packing: ColoredPacking) -> PentagonAudit:
    """Audit a rainbow-triangle-free pentagon packing.

    Raises AuditError when the pattern is not a 5-cycle, when a rainbow
    triangle exists (the inequalities assume there is none), or when any
    recomputed identity or inequality fails.  A rainbow triangle is
    reported before any inequality is judged; the message names the
    lexicographically smallest one, as find_rainbow would.

    The correction term of copy ci counts the triangles formed by an edge
    of ci and a same-colored cherry of another copy, that is the cherries
    whose closing edge has color ci.  Every non-rainbow triangle is one
    such closed cherry (see the module docstring), so the union has no
    rainbow triangle exactly when the corrections sum to its triangle
    count.
    """
    pattern = packing.pattern
    if not pattern.is_cycle(5):
        raise AuditError("pentagon_audit needs a 5-cycle pattern")

    n, t = packing.n, len(packing)
    col = packing.edge_color
    deg, triangles = packing.union_triangles
    # the two ends of the cherry centred at each pattern vertex
    ends = [tuple(nb) for nb in pattern.adjacency()]
    local = [0] * t
    for copy in packing.copies:
        for (i, j) in ends:
            a, b = copy[i], copy[j]
            c = col.get((a, b) if a < b else (b, a))
            if c is not None:
                local[c] += 1
    nstar_total = sum(local)
    if triangles != nstar_total:
        raise AuditError("packing contains a rainbow triangle: "
                         f"{_find_rainbow_triangle(packing).vertices}")
    per_copy = [(sum(deg[v] for v in copy), 2 * n + 10 + local[ci])
                for ci, copy in enumerate(packing.copies)]

    double_sum = sum(lhs for (lhs, _) in per_copy)
    sq = sum(d * d for d in deg)
    if sq % 2:
        raise AuditError("odd sum of squared degrees, packing is corrupt")
    half_sum_squares = sq // 2
    if double_sum != half_sum_squares:
        raise AuditError(
            f"double counting failed: {double_sum} != {half_sum_squares}")

    qm_am_bound = Fraction(50 * t * t, n) if n > 0 else Fraction(0)
    if double_sum < qm_am_bound:
        raise AuditError(
            f"quadratic mean bound failed: {double_sum} < {qm_am_bound}")

    for ci, (lhs, rhs) in enumerate(per_copy):
        if lhs > rhs:
            raise AuditError(f"per-copy bound failed on copy {ci}: {lhs} > {rhs}")
    if nstar_total > 5 * t:
        raise AuditError(f"cherry correction total {nstar_total} > 5t = {5 * t}")
    if t > 0 and qm_am_bound > (2 * n + 15) * t:
        raise AuditError("chained bound 50 t^2 / n <= (2n + 15) t failed")

    return PentagonAudit(n, t, double_sum, half_sum_squares, qm_am_bound,
                         tuple(per_copy), nstar_total)
