"""Explicit packings and extremal host graphs.

kt_packing places n*|A| edge-disjoint t-cliques on classes of sizes
n, 2n, ..., tn using a progression-free difference set A, so that no
triangle picks up three distinct colors.  c5_blowup_packing decomposes the
balanced pentagon blow-up into m^2 pentagons.  unbalanced_blowup builds the
five-class triangle-free host whose edge density the weight optimizer
predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GuardError, PackingError
from .gadgets import QFreeSet
from .graphs import BlowupSpec, ColoredPacking, SimpleGraph, blow_up

# `construct` peaks at 200-230 bytes an edge while it builds a packing and
# prints it, so a construction may hold at most this many edges (about 230 MB).
_CONSTRUCTION_EDGE_LIMIT = 1_000_000


def _check_size(copies: int, pattern_edges: int) -> None:
    if copies * pattern_edges > _CONSTRUCTION_EDGE_LIMIT:
        raise GuardError(
            f"{copies} copies of {pattern_edges} edges exceed the construction "
            f"limit of {_CONSTRUCTION_EDGE_LIMIT} edges")


def kt_packing(n: int, t: int, a: QFreeSet) -> ColoredPacking:
    """Pack n*|A| copies of K_t with one vertex in each of t size-graded classes.

    Class i (1-based) holds vertices (i, 1..i*n), flattened to
    offset(i) + slot - 1 with offset(i) = n*(i-1)*i/2.  The copy for
    (start, diff) takes vertex (i, start + (i-1)*diff); diff runs over A.
    A must be free of (t-2)-limited triples, otherwise two same-colored
    edges could close a rainbow triangle.  GuardError before building when
    the copies hold more than _CONSTRUCTION_EDGE_LIMIT edges.
    """
    if t < 3:
        raise ValueError("t must be >= 3")
    if n < 1:
        raise ValueError("n must be >= 1")
    if a.q < t - 2:
        raise ValueError(f"need a (t-2)={t - 2} limited-free set, got q={a.q}")
    if a.elements and a.elements[-1] > n:
        raise ValueError(f"difference set reaches {a.elements[-1]}, beyond n={n}")
    _check_size(n * len(a), t * (t - 1) // 2)

    # (offset(i + 1) - 1, i): vertex i of a copy is o + start + i*diff
    offs = [(n * i * (i + 1) // 2 - 1, i) for i in range(t)]
    total = n * t * (t + 1) // 2
    copies = [tuple([o + start + k * diff for o, k in offs])
              for start in range(1, n + 1) for diff in a.elements]
    return ColoredPacking(total, SimpleGraph.complete(t), copies)


def c5_blowup_packing(m: int) -> ColoredPacking:
    """Decompose the pentagon blow-up C5[m] into m^2 edge-disjoint pentagons.

    Vertex (class j, slot x) is j*m + x.  The copy for (a, d) visits slot
    a + j*d mod m in class j.  Every block edge is covered exactly once:
    recovering d from an edge between classes 4 and 0 divides by 4 mod m,
    so m must be odd.  GuardError before building when 5m^2 edges exceed
    _CONSTRUCTION_EDGE_LIMIT.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m % 2 == 0:
        raise ValueError(
            f"m={m} is even: 4 is not invertible mod m and the pentagon "
            "slopes no longer cover each class-4/class-0 edge exactly once")
    _check_size(m * m, 5)
    pentagon = SimpleGraph.cycle(5)
    copies = []
    for a in range(m):
        for d in range(m):
            copies.append(tuple(j * m + (a + j * d) % m for j in range(5)))
    return ColoredPacking(5 * m, pentagon, copies)


def k5_double_pentagon() -> ColoredPacking:
    """K5 as two edge-disjoint pentagons: the outer cycle and the pentagram."""
    pentagon = SimpleGraph.cycle(5)
    return ColoredPacking(5, pentagon, [(0, 1, 2, 3, 4), (0, 2, 4, 1, 3)])


def _round_half_up(x: Fraction) -> int:
    return int((x + Fraction(1, 2)).__floor__())


@dataclass(frozen=True)
class UnbalancedBlowupShape:
    """Target class fractions for the five-class host; 2a + 2b + g = 1 exactly."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    n: int = 0

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta),
                            ("gamma", self.gamma)):
            if not isinstance(value, Fraction):
                raise ValueError(f"{name} must be a Fraction, got {type(value).__name__}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
        total = 2 * self.alpha + 2 * self.beta + self.gamma
        if total != 1:
            raise ValueError(f"2*alpha + 2*beta + gamma = {total}, expected 1")

    def class_sizes(self) -> tuple[int, int, int, int, int]:
        """Ordered sizes (|A1|, |A2|, |B1|, |B2|, |C|); C absorbs rounding."""
        a = _round_half_up(self.alpha * self.n)
        b = _round_half_up(self.beta * self.n)
        c = self.n - 2 * a - 2 * b
        if c < 0:
            raise ValueError(
                f"rounded classes 2*{a} + 2*{b} exceed n={self.n}")
        return (a, a, b, b, c)


def unbalanced_blowup(shape: UnbalancedBlowupShape) -> SimpleGraph:
    """Five-class host with blocks A1-A2, A2-B2, B2-C, C-B1, B1-A1.

    The classes sit around a pentagon, so the graph is triangle-free.
    Vertex blocks are laid out contiguously in the order A1, A2, B2, C, B1.
    """
    a1, a2, b1, b2, c = shape.class_sizes()
    return blow_up(BlowupSpec(SimpleGraph.cycle(5), (a1, a2, b2, c, b1)))


def perfect_decomposition_check(packing: ColoredPacking,
                                host: SimpleGraph) -> None:
    """Raise unless the packing's copies tile the host's edge set exactly."""
    covered = set(packing.union_edges())
    if covered != host.edges:
        missing = sorted(host.edges - covered)[:5]
        extra = sorted(covered - host.edges)[:5]
        raise PackingError(
            f"not a perfect decomposition: missing={missing} extra={extra}")
