"""Display polynomials: least-squares fits on inputs rescaled to [-1, 1].

Raw Vandermonde systems at order 10 are catastrophically ill-conditioned
for x ranges like 10..10000, so inputs are mapped affinely onto [-1, 1]
and the system is solved with an SVD-based least-squares routine instead
of the normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_FIT_ORDER = 10


@dataclass(frozen=True)
class PolyFit:
    """Polynomial in the rescaled variable u = 2*(x - lo)/(hi - lo) - 1."""

    coefficients: np.ndarray
    order: int
    x_scale: tuple[float, float]

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(self.coefficients, dtype=np.float64).ravel()
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        if self.order < 1:
            raise ValueError("order must be positive")
        if c.shape[0] != self.order + 1:
            raise ValueError("need order+1 coefficients")
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
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    distinct = np.unique(xs)
    if distinct.size < order + 1:
        raise ValueError(
            f"need at least {order + 1} points with distinct x, got {distinct.size}"
        )
    lo, hi = float(distinct[0]), float(distinct[-1])
    fit = PolyFit(coefficients=np.zeros(order + 1), order=order, x_scale=(lo, hi))
    if np.all(ys == ys[0]):
        # Exactly constant: lstsq would give a line of rounding noise whose
        # bytes depend on the BLAS kernel.
        coeffs = np.r_[ys[0], np.zeros(order)]
    else:
        u = fit.rescale(xs)
        vandermonde = np.vander(u, order + 1, increasing=True)
        coeffs, *_ = np.linalg.lstsq(vandermonde, ys, rcond=None)
    return PolyFit(coefficients=coeffs, order=order, x_scale=(lo, hi))
