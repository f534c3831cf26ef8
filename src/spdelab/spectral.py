"""Eigenstructure of -(-Laplacian)^alpha with Dirichlet boundary on rectangles.

Everything here is exact: eigenvalues on a d-dimensional rectangle have a closed
form, and the diagonal semigroup acts mode by mode.  Modes are ordered by
mu = sum_i (m_i pi / L_i)^2, which alpha does not change; alpha is applied once, as
lambda = mu^alpha, and an eigenvalue (or its rate 2 lambda) that overflows a float is a
``ValueError`` (CLI exit 2).  The eigenfunctions exist only as the sine table of
``reaction._SineTransform``, on the quadrature grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned rectangle prod_i [a_i, b_i]."""

    sides: tuple[tuple[float, float], ...]

    def __post_init__(self):
        sides = tuple((float(a), float(b)) for a, b in self.sides)
        if not sides:
            raise ValueError("domain needs at least one side")
        for a, b in sides:
            if not b > a:
                raise ValueError(f"side ({a}, {b}) has non-positive length")
        object.__setattr__(self, "sides", sides)

    @property
    def d(self) -> int:
        return len(self.sides)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([b - a for a, b in self.sides])


def unit_interval() -> RectDomain:
    return RectDomain(sides=((0.0, 1.0),))


def _enumerate_sorted_modes(domain: RectDomain, n: int):
    """First n multi-indices sorted by mu (module doc), ties broken lexicographically; their mu."""
    d = domain.d
    box = max(2, math.ceil(n ** (1.0 / d)) + 1)
    L = domain.lengths
    k2 = (np.pi / L) ** 2
    while True:
        axes = [np.arange(1, box + 1, dtype=np.int64)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        mus = np.sum((grid * np.pi / L) ** 2, axis=-1)
        order = np.lexsort(tuple(grid[:, i] for i in reversed(range(d))) + (mus,))
        # cheapest mu outside the box: one index at box+1 (in the longest side), the rest at 1
        outside = np.sum(k2) - k2.min() + ((box + 1) * np.pi / L.max()) ** 2
        if len(order) >= n and outside > mus[order[n - 1]]:
            sel = order[:n]
            return grid[sel], mus[sel]
        box *= 2


@dataclass(frozen=True)
class EigenSpectrum:
    """Truncated spectrum: the first n modes in the canonical ordering, with the
    multi-index of every retained mode.  The OU presets do not use this class:
    they carry a plain eigenvalue array.
    """

    lambdas: np.ndarray
    modes: np.ndarray

    @classmethod
    def synthesize(cls, domain: RectDomain, alpha: float, n: int) -> "EigenSpectrum":
        if n < 1:
            raise ValueError("need at least one mode")
        modes, mus = _enumerate_sorted_modes(domain, n)
        with np.errstate(over="ignore"):
            lams = mus**alpha
        if not math.isfinite(2.0 * float(lams[-1])):  # the largest, and its rate 2 lambda
            raise ValueError(f"alpha = {alpha} makes eigenvalue {n} overflow a float")
        return cls(lambdas=lams, modes=modes)
