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
once each, at their lowest edge, on the packing's forward sets (Chiba and
Nishizeki 1985); when there are no more than t_F per copy, none is
rainbow.  Otherwise the search runs as if there were no count: the
lexicographic triangle scan for a triangle G, the embedding kernel for any
other G, and either names a witness or finds none.

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
from .graphs import (ColoredPacking, SimpleGraph, _norm_edge, compact_rows,
                     count_triangles, embeddings)


@dataclass(frozen=True)
class RainbowWitness:
    """Embedding of the forbidden graph with pairwise distinct edge colors.

    vertices[i] is the host vertex carrying forbidden-graph vertex i;
    edges lists ((gu, gv), (hu, hv), color) per forbidden-graph edge.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], tuple[int, int], int], ...]

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

    The forbidden graph must be connected with at most 8 vertices.  A
    packing with fewer copies than G has edges holds no rainbow G, as a
    rainbow copy shows e(G) distinct colors, so it gets None at once.
    When G contains a triangle, None comes without a search when the union
    has no triangles besides the t_F triangles of each copy: every rainbow
    copy of G holds a rainbow triangle, and there is none (see the module
    docstring).  Otherwise, for a triangle, a scan walks the union's edges
    in ascending order on the packing's forward sets, so the witness
    is the lexicographically smallest rainbow triangle, and the scan
    returns None if there is none.  Any other graph takes the first map of
    the embedding kernel, which tries host vertices in ascending order on
    the union's non-isolated vertices (see compact_rows, whose renumbering
    keeps that order) and raises GuardError when the union is too sparse
    and wide for its bitmask rows; the count never changes which witness
    is named.  Both name vertices, whose edges are listed in G's sorted
    edge order.
    """
    check_forbidden(forbidden)
    if len(packing) < forbidden.edge_count():  # fewer colors than a rainbow G has
        return None
    if count_triangles(forbidden.n, forbidden.edges) > 0:
        pattern = packing.pattern
        if packing.union_triangles == (
                count_triangles(pattern.n, pattern.edges) * len(packing)):
            return None
    if forbidden.is_cycle(3):
        verts = _find_rainbow_triangle(packing)
    else:
        union = list(packing.union_edges())
        used, rows = compact_rows(packing.n, union)  # guarded before colors
        color = packing.key_color
        if used is not None:
            # the kernel reads colors by the renumbered edge keys
            n, m = packing.n, len(used)
            index = {h: j for j, h in enumerate(used)}
            color = {index[a] * m + index[b]: color[a * n + b] for (a, b) in union}
        verts = next(embeddings(forbidden, rows, color=color), None)
        if verts is not None and used is not None:
            verts = tuple([used[j] for j in verts])
    if verts is None:
        return None
    edges = []
    for (gu, gv) in forbidden.sorted_edges():
        (a, b) = _norm_edge(verts[gu], verts[gv])
        edges.append(((gu, gv), (a, b), packing.key_color[a * packing.n + b]))
    return RainbowWitness(verts, tuple(edges))


def _find_rainbow_triangle(packing: ColoredPacking) -> tuple[int, int, int] | None:
    """The lexicographically smallest rainbow triangle (a, b, c), a < b < c,
    or None.  Edges (a, b) are walked in ascending order on the packing's
    forward sets, each with its common forward neighbors c in ascending
    order, and colors are read by edge key."""
    n = packing.n
    col = packing.key_color
    fwd = packing.forward
    for a, fwd_a in enumerate(fwd):
        for b in sorted(fwd_a):
            c_ab = col[a * n + b]
            for c in sorted(fwd_a & fwd[b]):
                c_ac = col[a * n + c]
                c_bc = col[b * n + c]
                if c_ab != c_ac and c_ab != c_bc and c_ac != c_bc:
                    return (a, b, c)
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
    fwd = packing.forward
    local = [0] * t
    # the two ends of the cherry centred at each pattern vertex; a color is
    # read only for a cherry that an edge closes
    for (i, j) in map(tuple, pattern.adjacency()):
        for a, b in zip(packing.column(i), packing.column(j)):
            if a > b:
                a, b = b, a
            if b in fwd[a]:
                local[packing.key_color[a * n + b]] += 1
    nstar_total = sum(local)
    if packing.union_triangles != nstar_total:
        raise AuditError("packing contains a rainbow triangle: "
                         f"{_find_rainbow_triangle(packing)}")
    deg = packing.union_degrees()
    copy_degrees = zip(*(map(deg.__getitem__, packing.column(i)) for i in range(pattern.n)))
    per_copy = [(sum(d), 2 * n + 10 + c) for d, c in zip(copy_degrees, local)]

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
