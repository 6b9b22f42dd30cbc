"""Exact fractional relaxation of the pattern packing problem.

Variables are weights in [0, 1] on every copy of the pattern in the host;
each host edge may carry total weight at most 1.  The optimum nu* sits
between the integral packing number and e(host)/e(pattern).  The x <= 1
bounds are implied by the edge rows (every copy covers at least one edge)
and are not added as rows.

The solver is a revised simplex in fraction-free integer arithmetic
(Edmonds 1967, Bareiss 1968).  It stores d·B⁻¹ and the scaled right side
and duals, d = det B, about m² integers for m host edges whatever the copy
count, and sums a copy's column from them only when it is needed.  Each
pivot divides exactly.  The entering column is the most negative reduced
cost (Dantzig), except right after a degenerate pivot, where it is the
lowest improving index (Bland 1977) until a pivot raises the objective
again; a cycle would consist of Bland pivots only, so the method terminates
(see ``_simplex_max``).  It makes the pivots a dense tableau would make
under the same rule, and the optimum is exact.  The work, the stored
integers the pivots rewrite, is bounded like the copy and edge counts.

The optimal basis also yields dual prices, one per host edge.  They are
a fractional cover: non-negative, at least 1 in total on every copy, and
summing to nu*.  By weak duality that proves the weights optimal, and
``validate`` checks it exactly on every solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import GuardError
from .graphs import SimpleGraph, embedded_edges
from .solver import enumerate_copy_edges

_LP_COPY_LIMIT = 2000
_LP_EDGE_LIMIT = 2000
# the stored integers the pivots rewrite, m + 1 per row, summed over the
# pivots.  C5[4]/C5, the largest LP kept on purpose, needs 971,514, K9/C5
# 83,472 and every lp benchmark LP at most 164,496; 333 disjoint K4 with
# pattern K3, whose det B grows with every block, took 82 s in all and stops
# at pivot 31, about 2 s in.
_LP_WORK_LIMIT = 3 * 10 ** 7


@dataclass(frozen=True)
class FractionalPackingProblem:
    """A host, a pattern, the enumerated copy list, per-copy weights, and
    optionally per-edge dual prices (in ``host.sorted_edges()`` order)."""

    host: SimpleGraph
    pattern: SimpleGraph
    copy_list: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]
    duals: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if len(self.copy_list) != len(self.weights):
            raise ValueError("one weight per copy required")
        if self.duals and len(self.duals) != self.host.edge_count():
            raise ValueError("one dual per host edge required")

    def value(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def validate(self) -> None:
        """Copies inside the host and primal feasibility; with duals, also
        the optimality certificate.

        One pass over the copies, in integers: weights and loads over the
        weights' common denominator, duals and covers over the duals'.
        """
        scale = math.lcm(*(w.denominator for w in self.weights))
        ints = [w.numerator * (scale // w.denominator) for w in self.weights]
        if self.duals:
            dual_scale = math.lcm(*(y.denominator for y in self.duals))
            prices = [y.numerator * (dual_scale // y.denominator) for y in self.duals]
            price = dict(zip(self.host.sorted_edges(), prices))
        host_edges = self.host.edges
        loads: dict[tuple[int, int], int] = {}
        short = None  # the first copy the duals cover less than 1, and by how much
        for emb, w in zip(self.copy_list, ints):
            edges = embedded_edges(self.pattern, emb)
            for e in edges:
                if e not in host_edges:
                    raise ValueError(f"copy {emb} uses {e}, which is not a host edge")
                loads[e] = loads.get(e, 0) + w
            if self.duals and short is None:
                covered = sum([price[e] for e in edges])
                if covered < dual_scale:
                    short = (emb, covered)
        for wt, w in zip(self.weights, ints):
            if not 0 <= w <= scale:
                raise ValueError(f"weight {wt} outside [0, 1]")
        for e, load in loads.items():
            if load > scale:
                raise ValueError(f"edge {e} overloaded: {Fraction(load, scale)}")
        if not self.duals:
            return
        for e, y in zip(self.host.sorted_edges(), self.duals):
            if y < 0:
                raise ValueError(f"dual {y} on edge {e} is negative")
        if short is not None:
            emb, covered = short
            raise ValueError(f"copy {emb} covered only {Fraction(covered, dual_scale)} "
                             f"by the duals")
        if sum(prices) * scale != sum(ints) * dual_scale:
            raise ValueError(f"dual value {sum(self.duals, Fraction(0))} "
                             f"!= primal value {self.value()}")


def _pivot(row: list[int], prow: list[int], f: int, p: int, d: int) -> list[int]:
    """One row of a fraction-free pivot; the division is always exact."""
    if f == 0:
        return row if p == d else [x * p // d for x in row]
    return [(p * x - f * y) // d for x, y in zip(row, prow)]


def _simplex_max(copies: list[list[int]], m: int):
    """Maximize the total weight of the copies, copy j covering the rows
    ``copies[j]``, with each of the m rows carrying at most 1; returns
    (value, x, y, pivots), y the dual prices of the rows.

    Stored: ``rows[r] = [d·B⁻¹ row r | (d·B⁻¹·1)[r]]`` and ``obj = [d·y |
    d·nu]``, updated by the Bareiss step.  Priced when needed: copy j has
    reduced cost Σ_{e ∈ copy j} d·y_e − d and column Σ_{e ∈ copy j} column
    e of d·B⁻¹; the slack of row i has d·y_i and column i of d·B⁻¹.  These
    are the cells of the dense tableau [A | I | 1], each d times its true
    value, so copies and slacks compare directly and the pivots are the
    ones the dense simplex makes under the same rule.

    Entering column: after a non-degenerate pivot (and at the start),
    Dantzig's rule, the most negative reduced cost, ties to the lowest
    index with copies before slacks.  After a degenerate pivot, one whose
    leaving row has right side 0, Bland's rule, the lowest index with a
    negative reduced cost, until the next non-degenerate pivot.  The ratio
    test always breaks ties to the lowest basic index.

    Termination: a non-degenerate pivot raises the objective, so a cycle of
    bases consists of degenerate pivots only.  From its second pass on,
    each of those pivots follows a degenerate pivot and so is a Bland
    pivot, and Bland's rule (Bland 1977) never cycles.

    The all-slack start is feasible as the right side is all ones, and d
    stays positive because every pivot is.  GuardError once the cells the
    pivots rewrite exceed _LP_WORK_LIMIT: all m rows but the leaving one and
    obj when d changes, else only the rows whose entering coefficient is not 0.
    """
    n = len(copies)
    # an itemgetter of one index returns that item, of a slice a list
    takes = [itemgetter(*es) if len(es) > 1 else itemgetter(slice(es[0], es[0] + 1))
             for es in copies]
    rows = [[0] * r + [1] + [0] * (m - 1 - r) + [1] for r in range(m)]
    obj = [0] * (m + 1)
    basis = list(range(n, n + m))
    d = 1
    bland = False
    pivots = cells = 0

    while True:
        # Bland's scan stops at the first improving column; pricing them all
        # on every pivot cost about a tenth more simplex time on the lp
        # benchmark's LPs
        if bland:  # the first improving column, copies before slacks
            enter = next((j for j, take in enumerate(takes) if sum(take(obj)) < d), None)
            if enter is None:
                enter = next((n + i for i in range(m) if obj[i] < 0), None)
        else:  # the most improving column, the first one on ties
            costs = [sum(take(obj)) - d for take in takes] + obj[:m]
            low = min(costs, default=0)
            enter = costs.index(low) if low < 0 else None
        if enter is None:
            break
        if enter < n:
            take = takes[enter]
            col, f = [sum(take(row)) for row in rows], sum(take(obj)) - d
        else:
            col, f = [row[enter - n] for row in rows], obj[enter - n]
        leave = None
        for r, coef in enumerate(col):
            # rhs_r / coef against rhs_leave / coef_leave, cross-multiplied;
            # ties go to the lower basic index
            if coef > 0 and (leave is None or (rows[r][-1] * col[leave], basis[r])
                             < (rows[leave][-1] * coef, basis[leave])):
                leave = r
        if leave is None:
            raise ArithmeticError("LP claims unbounded, model must be wrong")
        prow, p = rows[leave], col[leave]
        pivots += 1
        # _pivot rewrites every row but the leaving one when d changes, else
        # the rows with col[r] != 0; obj always (f < 0), standing in for the
        # leaving row in the count
        cells += (m if p != d else sum(1 for c in col if c)) * (m + 1)
        if cells > _LP_WORK_LIMIT:
            raise GuardError(f"lp guard: pivot {pivots} on {m} edges exceeds "
                             f"{_LP_WORK_LIMIT} cells of simplex work")
        bland = prow[-1] == 0
        for r in range(m):
            if r != leave:
                rows[r] = _pivot(rows[r], prow, col[r], p, d)
        obj = _pivot(obj, prow, f, p, d)
        d = p
        basis[leave] = enter

    rhs = {j: row[-1] for j, row in zip(basis, rows)}
    x = [Fraction(rhs.get(j, 0), d) for j in range(n)]
    y = [Fraction(obj[i], d) for i in range(m)]
    return (Fraction(obj[-1], d), x, y, pivots)


def lp_fractional_packing(host: SimpleGraph, pattern: SimpleGraph
                          ) -> tuple[Fraction, FractionalPackingProblem]:
    """Exact nu*: maximum total copy weight under unit edge capacities.

    The returned problem carries the dual certificate and has passed
    ``validate``, so the value is proved optimal, not just feasible.
    """
    if pattern.edge_count() == 0:
        raise ValueError("pattern needs at least one edge")
    if host.edge_count() > _LP_EDGE_LIMIT:
        raise GuardError(f"lp guard: {host.edge_count()} edges exceed {_LP_EDGE_LIMIT}")
    found = enumerate_copy_edges(host.n, pattern, host, max_copies=_LP_COPY_LIMIT)
    host_edges = host.sorted_edges()
    edge_row = {e: i for i, e in enumerate(host_edges)}
    copy_rows = [[edge_row[e] for e in edges] for _, edges in found]
    value, x, y, _ = _simplex_max(copy_rows, len(host_edges))
    copies = tuple(emb for emb, _ in found)
    problem = FractionalPackingProblem(host, pattern, copies, tuple(x), tuple(y))
    problem.validate()
    return (value, problem)
