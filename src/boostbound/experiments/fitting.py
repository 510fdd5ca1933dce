"""Display polynomials: exact least-squares fits on inputs rescaled to [-1, 1].

The normal equations are solved in rational arithmetic and each coefficient
is rounded to double once, so a fit depends on neither the conditioning of
the order-10 system nor any BLAS or LAPACK kernel. In p = 2x - lo - hi, exact
for every double x, they are a Hankel system of the moments sum(n * p**j) and
sum(y * p**j), positive definite given order + 1 distinct x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

DEFAULT_FIT_ORDER = 10


@dataclass(frozen=True)
class PolyFit:
    """Polynomial in the rescaled variable u = 2*(x - lo)/(hi - lo) - 1."""

    coefficients: np.ndarray
    x_scale: tuple[float, float]

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(self.coefficients, dtype=np.float64).ravel()
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        if c.shape[0] < 2:
            raise ValueError("need at least two coefficients (order at least 1)")
        lo, hi = self.x_scale
        if not hi > lo:
            raise ValueError("x_scale must satisfy min < max")

    def rescale(self, x: np.ndarray) -> np.ndarray:
        lo, hi = self.x_scale
        return 2.0 * (np.asarray(x, dtype=np.float64) - lo) / (hi - lo) - 1.0

    def evaluate(self, x: np.ndarray | float) -> np.ndarray:
        """Evaluate the fit at original-scale abscissae (Horner on u)."""
        u = self.rescale(np.atleast_1d(x))
        out = np.zeros_like(u)
        for c in self.coefficients[::-1]:
            out = out * u + c
        return out


def polyfit(points: Sequence[tuple[float, float]], order: int = DEFAULT_FIT_ORDER) -> PolyFit:
    """Least-squares polynomial of the given order through (x, y) points."""
    if order < 1:
        raise ValueError("order must be positive")
    groups: dict[float, tuple[int, Fraction]] = {}  # x -> (count, sum of y)
    for x, y in points:
        n, s = groups.get(float(x), (0, Fraction(0)))
        groups[float(x)] = (n + 1, s + Fraction(float(y)))
    if len(groups) < order + 1:
        raise ValueError(
            f"need at least {order + 1} points with distinct x, got {len(groups)}"
        )
    lo, hi = min(groups), max(groups)
    k = order + 1
    moments, rhs = [Fraction(0)] * (2 * k - 1), [Fraction(0)] * k
    for x, (n, s) in groups.items():
        p = 2 * Fraction(x) - Fraction(lo) - Fraction(hi)
        powers = [p**j for j in range(2 * k - 1)]
        moments = [a + n * b for a, b in zip(moments, powers)]
        rhs = [a + s * b for a, b in zip(rhs, powers)]
    system = [moments[i : i + k] + [rhs[i]] for i in range(k)]
    for i, pivot in enumerate(system):  # Gauss-Jordan; every pivot is positive
        for row in system:
            if row is not pivot:
                f = row[i] / pivot[i]
                row[i:] = [a - f * b for a, b in zip(row[i:], pivot[i:])]
    span = Fraction(hi) - Fraction(lo)  # c_j of p**j is c_j * span**j of u
    coeffs = [float(row[k] / row[j] * span**j) for j, row in enumerate(system)]
    return PolyFit(coefficients=np.array(coeffs), x_scale=(lo, hi))
