"""Weight triples for the unbalanced blow-up and their edge densities.

A triple (lam, mu, delta) of nonnegative weights determines the class
ratios of the five-class host via

    beta/alpha  = (lam + (k-1) mu + delta) / (lam + mu + (2k-3) delta)
    gamma/alpha = ((k-1) lam + mu + delta) / (lam + (k-1) mu + delta)

and alpha = 1 / (2 + 2 beta/alpha + gamma/alpha).  The resulting edge
density alpha^2 + 2 alpha beta + 2 beta gamma has the closed form

    (2k+1)(lam+mu+delta) / ((lam+mu+(2k-3) delta) (2 + 2 b/a + g/a)^2)

and density() checks the two routes against each other on every call.
All arithmetic runs over exact rationals; float inputs are converted
exactly, so the identity check is exact as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import UnbalancedBlowupShape


def _exact(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary expansion
    raise ValueError(f"weight of unsupported type {type(x).__name__}")


@dataclass(frozen=True)
class WeightTriple:
    """Nonnegative weights (lam, mu, delta), not all zero, for odd cycle
    length 2k+1 with k >= 2."""

    k: int
    lam: object
    mu: object
    delta: object

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        vals = (_exact(self.lam), _exact(self.mu), _exact(self.delta))
        if any(v < 0 for v in vals):
            raise ValueError("weights must be nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("weights must not all be zero")

    def exact(self) -> tuple[Fraction, Fraction, Fraction]:
        return (_exact(self.lam), _exact(self.mu), _exact(self.delta))


def _ratios(k: int, lam, mu, delta):
    """(beta/alpha, gamma/alpha): exact on Fractions, floats on floats."""
    return ((lam + (k - 1) * mu + delta) / (lam + mu + (2 * k - 3) * delta),
            ((k - 1) * lam + mu + delta) / (lam + (k - 1) * mu + delta))


def class_ratios(w: WeightTriple) -> tuple[Fraction, Fraction]:
    """(beta/alpha, gamma/alpha) as exact rationals."""
    return _ratios(w.k, *w.exact())


def solve_abg(w: WeightTriple) -> UnbalancedBlowupShape:
    """Class fractions (alpha, alpha, beta, beta, gamma) summing to one."""
    beta_alpha, gamma_alpha = class_ratios(w)
    alpha = 1 / (2 + 2 * beta_alpha + gamma_alpha)
    return UnbalancedBlowupShape(alpha, alpha * beta_alpha, alpha * gamma_alpha)


def _density_exact(k: int, lam, mu, delta):
    """The closed form: exact on Fractions, maximize_density's objective on floats."""
    r1, r2 = _ratios(k, lam, mu, delta)
    return ((2 * k + 1) * (lam + mu + delta)
            / ((lam + mu + (2 * k - 3) * delta) * (2 + 2 * r1 + r2) ** 2))


def density(w: WeightTriple) -> float:
    """Edge density of the blow-up shape induced by w.

    Computed twice: by the closed form and as alpha^2 + 2 alpha beta +
    2 beta gamma from solve_abg.  The two exact values must coincide.
    """
    lam, mu, delta = w.exact()
    closed = _density_exact(w.k, lam, mu, delta)
    shape = solve_abg(w)
    a, b, g = shape.alpha, shape.beta, shape.gamma
    recomputed = a * a + 2 * a * b + 2 * b * g
    if closed != recomputed:
        raise ArithmeticError(
            f"density routes disagree: {closed} vs {recomputed}")
    return float(closed)


def reference_triple(k: int) -> WeightTriple:
    """The closed-form good triple (0, 1, (-1 + cbrt(4k+15)) / 2).

    When 4k+15 is a perfect cube the triple is exact; k=3 gives (0, 1, 1).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    target = 4 * k + 15
    root = round(target ** (1.0 / 3.0))
    for cand in (root - 1, root, root + 1):
        if cand >= 0 and cand ** 3 == target:
            return WeightTriple(k, Fraction(0), Fraction(1), Fraction(cand - 1, 2))
    return WeightTriple(k, 0.0, 1.0, (-1.0 + target ** (1.0 / 3.0)) / 2.0)


_GRID = 64
_TOL = 1e-9


def maximize_density(k: int) -> tuple[WeightTriple, float]:
    """Best weight triple on the simplex lam + mu + delta = 1.

    Seeds with a uniform grid of spacing 1/_GRID, then runs deterministic
    pattern descent, shifting mass between coordinate pairs with a step
    that halves down to _TOL.  The density is scale-invariant, so the
    simplex normalization loses nothing.
    """
    if k < 2:
        raise ValueError("k must be >= 2")

    def value(pt) -> float:
        return _density_exact(k, pt[0], pt[1], pt[2])

    best_pt = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    best_val = value(best_pt)
    for i in range(_GRID + 1):
        for j in range(_GRID + 1 - i):
            pt = (i / _GRID, j / _GRID, (_GRID - i - j) / _GRID)
            v = value(pt)
            if v > best_val:
                best_val, best_pt = v, pt

    step = 1.0 / _GRID
    while step > _TOL:
        improved = False
        for s in range(3):
            for t in range(3):
                if s == t or best_pt[s] < step:
                    continue
                pt = list(best_pt)
                pt[s] -= step
                pt[t] += step
                v = value(tuple(pt))
                if v > best_val:
                    best_val, best_pt = v, tuple(pt)
                    improved = True
        if not improved:
            step /= 2.0

    w = WeightTriple(k, best_pt[0], best_pt[1], best_pt[2])
    return (w, density(w))


def upper_bound_coeff(k: int) -> Fraction:
    """Quadratic coefficient k / (2 (2k+1)^2) of the counting upper bound."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return Fraction(k, 2 * (2 * k + 1) ** 2)


def c5_decomposition_coeff(k: int) -> Fraction:
    """Quadratic coefficient 1 / (5 (2k+1)) from the balanced pentagon
    decomposition, the construction-side companion of upper_bound_coeff."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return Fraction(1, 5 * (2 * k + 1))
