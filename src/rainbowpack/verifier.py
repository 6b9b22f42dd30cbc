"""Rainbow-copy detection, order classification, and the pentagon audit.

A copy of G inside the union graph of a packing is rainbow when its edges
all come from pairwise different copies of the pattern.  find_rainbow
returns the first witness in lexicographic scan order or None.

pentagon_audit recomputes, on a rainbow-triangle-free pentagon packing,
the exact degree double counting, the quadratic-mean lower bound, and the
per-copy degree-sum inequality with its same-colored-cherry correction
term, raising AuditError if any of them fails.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import AuditError, GuardError
from .graphs import ColoredPacking, SimpleGraph, _norm_edge, embeddings

_TRIANGLE = SimpleGraph.complete(3)
_HOMOMORPHISM_N_LIMIT = 12


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

    The forbidden graph must be connected with at most 8 vertices.  For a
    triangle the scan walks host edges in sorted order and intersects
    neighborhoods, so the witness is the lexicographically smallest
    rainbow triangle; any other graph takes the first map of the embedding
    kernel, which tries host vertices in ascending order.
    """
    check_forbidden(forbidden)
    col = packing.edge_color
    adj: list[set[int]] = [set() for _ in range(packing.n)]
    for (u, v) in col:
        adj[u].add(v)
        adj[v].add(u)

    if forbidden.is_cycle(3):
        return _find_rainbow_triangle(adj, col)
    verts = next(embeddings(forbidden, adj, color=col), None)
    if verts is None:
        return None
    edges = []
    for (gu, gv) in forbidden.sorted_edges():
        e = _norm_edge(verts[gu], verts[gv])
        edges.append(((gu, gv), e, col[e]))
    return RainbowWitness(verts, tuple(edges))


def _find_rainbow_triangle(adj: list[set[int]], col: dict):
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


def exists_homomorphism(g: SimpleGraph, f: SimpleGraph) -> bool:
    """Edge-preserving (not necessarily injective) map V(g) -> V(f)?"""
    if g.n > _HOMOMORPHISM_N_LIMIT or f.n > _HOMOMORPHISM_N_LIMIT:
        raise GuardError(f"exists_homomorphism guard: sizes exceed "
                         f"limit={_HOMOMORPHISM_N_LIMIT}")
    if g.edge_count() > 0 and f.edge_count() == 0:
        return False
    return next(embeddings(g, f.adjacency(), injective=False), None) is not None


class OrderClass(enum.Enum):
    QUADRATIC_THETA = "QuadraticTheta"
    SUBQUADRATIC_LITTLE_O = "SubquadraticLittleO"


def classify_order(pattern: SimpleGraph, forbidden: SimpleGraph) -> OrderClass:
    """Growth class of the extremal copy count as a function of n.

    Quadratically many edge-disjoint pattern copies can avoid a rainbow
    forbidden graph exactly when the forbidden graph admits no homomorphism
    into the pattern (monochromatic blow-ups then work); otherwise the
    count is subquadratic.
    """
    if exists_homomorphism(forbidden, pattern):
        return OrderClass.SUBQUADRATIC_LITTLE_O
    return OrderClass.QUADRATIC_THETA


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
    recomputed identity or inequality fails.
    """
    if not packing.pattern.is_cycle(5):
        raise AuditError("pentagon_audit needs a 5-cycle pattern")
    bad = find_rainbow(packing, _TRIANGLE)
    if bad is not None:
        raise AuditError(f"packing contains a rainbow triangle: {bad.vertices}")

    n, t = packing.n, len(packing)
    col = packing.edge_color
    adj: list[set[int]] = [set() for _ in range(n)]
    deg = [0] * n
    for (u, v) in col:
        adj[u].add(v)
        adj[v].add(u)
        deg[u] += 1
        deg[v] += 1

    double_sum = sum(deg[v] for copy in packing.copies for v in copy)
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

    per_copy = []
    nstar_total = 0
    for ci in range(t):
        lhs = sum(deg[v] for v in packing.copies[ci])
        local = 0
        for (u, v) in packing.copy_edges(ci):
            for z in adj[u] & adj[v]:
                cu = col[_norm_edge(u, z)]
                cv = col[_norm_edge(v, z)]
                if cu == cv and cu != ci:
                    local += 1
        rhs = 2 * n + 10 + local
        if lhs > rhs:
            raise AuditError(f"per-copy bound failed on copy {ci}: {lhs} > {rhs}")
        per_copy.append((lhs, rhs))
        nstar_total += local

    if nstar_total > 5 * t:
        raise AuditError(f"cherry correction total {nstar_total} > 5t = {5 * t}")
    if t > 0 and qm_am_bound > (2 * n + 15) * t:
        raise AuditError("chained bound 50 t^2 / n <= (2n + 15) t failed")

    return PentagonAudit(n, t, double_sum, half_sum_squares, qm_am_bound,
                         tuple(per_copy), nstar_total)
