"""Exact fractional relaxation of the pattern packing problem.

Variables are weights in [0, 1] on every copy of the pattern in the host;
each host edge may carry total weight at most 1.  The optimum nu* sits
between the integral packing number and e(host)/e(pattern).  The x <= 1
bounds are implied by the edge rows (every copy covers at least one edge)
and are not added as rows.

The solver is a dense simplex on a fraction-free integer tableau (Edmonds
1967, Bareiss 1968): every cell is an integer over one common denominator,
the determinant of the current basis, and each pivot divides exactly.
Bland's rule picks the pivots, so it terminates and the optimum is exact.

The optimal tableau also yields dual prices, one per host edge.  They are
a fractional cover: non-negative, at least 1 in total on every copy, and
summing to nu*.  By weak duality that proves the weights optimal, and
``validate`` checks it exactly on every solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GuardError
from .graphs import SimpleGraph, embedded_edges
from .solver import enumerate_copies

_LP_COPY_LIMIT = 2000
_LP_EDGE_LIMIT = 2000


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

    def edge_loads(self) -> dict[tuple[int, int], Fraction]:
        loads: dict[tuple[int, int], Fraction] = {}
        for emb, wt in zip(self.copy_list, self.weights):
            for e in embedded_edges(self.pattern, emb):
                loads[e] = loads.get(e, Fraction(0)) + wt
        return loads

    def validate(self) -> None:
        """Copies inside the host and primal feasibility; with duals, also
        the optimality certificate."""
        for emb in self.copy_list:
            for e in embedded_edges(self.pattern, emb):
                if e not in self.host.edges:
                    raise ValueError(f"copy {emb} uses {e}, which is not a host edge")
        for wt in self.weights:
            if not 0 <= wt <= 1:
                raise ValueError(f"weight {wt} outside [0, 1]")
        for e, load in self.edge_loads().items():
            if load > 1:
                raise ValueError(f"edge {e} overloaded: {load}")
        if self.duals:
            self._validate_duals()

    def _validate_duals(self) -> None:
        price = dict(zip(self.host.sorted_edges(), self.duals))
        for e, y in price.items():
            if y < 0:
                raise ValueError(f"dual {y} on edge {e} is negative")
        for emb in self.copy_list:
            covered = sum(price[e] for e in embedded_edges(self.pattern, emb))
            if covered < 1:
                raise ValueError(f"copy {emb} covered only {covered} by the duals")
        dual_value = sum(self.duals, Fraction(0))
        if dual_value != self.value():
            raise ValueError(f"dual value {dual_value} != primal value {self.value()}")

    def to_json_dict(self) -> dict:
        return {
            "host": self.host.to_json_dict(),
            "pattern": self.pattern.to_json_dict(),
            "copies": [list(c) for c in self.copy_list],
            "weights": [f"{w.numerator}/{w.denominator}" for w in self.weights],
            "duals": [f"{y.numerator}/{y.denominator}" for y in self.duals],
        }


def _eliminate(row: list[int], prow: list[int], enter: int, p: int, d: int
               ) -> list[int]:
    """One row of a fraction-free pivot; the division is always exact."""
    f = row[enter]
    if f == 0:
        return row if p == d else [x * p // d for x in row]
    return [(p * x - f * y) // d for x, y in zip(row, prow)]


def _simplex_max(a: list[list[int]], c: list[int]):
    """Maximize c.x subject to a.x <= 1, x >= 0; returns (value, x, y).

    y holds the dual prices of the rows.  The all-slack basis is feasible
    because the right side is all ones.  Entering and leaving variables
    follow Bland's rule, which cannot cycle.  Every tableau cell is an
    integer; the true entry is the cell over d, the basis determinant,
    which stays positive because every pivot is.
    """
    m = len(a)
    nvars = len(c)
    width = nvars + m + 1
    rows = []
    for i in range(m):
        row = list(a[i]) + [0] * m + [1]
        row[nvars + i] = 1
        rows.append(row)
    obj = [-x for x in c] + [0] * (m + 1)
    basis = list(range(nvars, nvars + m))
    d = 1

    while True:
        enter = next((j for j in range(width - 1) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for r in range(m):
            coef = rows[r][enter]
            if coef > 0:
                if leave is None:
                    leave = r
                    continue
                # rhs_r / coef against rhs_leave / coef_leave, cross-multiplied
                lhs = rows[r][-1] * rows[leave][enter]
                rhs = rows[leave][-1] * coef
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave is None:
            raise ArithmeticError("LP claims unbounded, model must be wrong")
        prow = rows[leave]
        p = prow[enter]
        for r in range(m):
            if r != leave:
                rows[r] = _eliminate(rows[r], prow, enter, p, d)
        obj = _eliminate(obj, prow, enter, p, d)
        d = p
        basis[leave] = enter

    x = [Fraction(0)] * nvars
    for r in range(m):
        if basis[r] < nvars:
            x[basis[r]] = Fraction(rows[r][-1], d)
    y = [Fraction(obj[nvars + i], d) for i in range(m)]
    return (Fraction(obj[-1], d), x, y)


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
    copies = enumerate_copies(host.n, pattern, host, limit=host.n,
                              max_copies=_LP_COPY_LIMIT)
    host_edges = host.sorted_edges()
    if not copies:
        zeros = (Fraction(0),) * len(host_edges)
        problem = FractionalPackingProblem(host, pattern, (), (), zeros)
        return (Fraction(0), problem)

    edge_row = {e: i for i, e in enumerate(host_edges)}
    a = [[0] * len(copies) for _ in host_edges]
    for ci, emb in enumerate(copies):
        for e in embedded_edges(pattern, emb):
            a[edge_row[e]][ci] = 1
    value, x, y = _simplex_max(a, [1] * len(copies))
    problem = FractionalPackingProblem(host, pattern, tuple(copies), tuple(x), tuple(y))
    problem.validate()
    return (value, problem)
