"""Eigenstructure of -(-Laplacian)^alpha with Dirichlet boundary on rectangles.

Everything here is exact: eigenvalues on a d-dimensional rectangle have a closed
form, and the diagonal semigroup acts mode by mode.  The eigenfunctions exist
only as the sine table of ``reaction._SineTransform``, on the quadrature grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Invalid geometric or analytic input (bad domain, index, time, ...)."""


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned rectangle prod_i [a_i, b_i]."""

    sides: tuple[tuple[float, float], ...]

    def __post_init__(self):
        sides = tuple((float(a), float(b)) for a, b in self.sides)
        if not sides:
            raise DomainError("domain needs at least one side")
        for a, b in sides:
            if not b > a:
                raise DomainError(f"side ({a}, {b}) has non-positive length")
        object.__setattr__(self, "sides", sides)

    @property
    def d(self) -> int:
        return len(self.sides)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([b - a for a, b in self.sides])


def unit_interval() -> RectDomain:
    return RectDomain(sides=((0.0, 1.0),))


def eigenvalue(domain: RectDomain, alpha: float, m) -> float:
    """Eigenvalue of the fractional Dirichlet Laplacian for multi-index m.

    Returns ( sum_i (m_i pi / (b_i - a_i))^2 )^alpha.  The fractional power
    is the spectral one, applied to the full Dirichlet eigenvalue.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    m = np.atleast_1d(np.asarray(m, dtype=np.int64))
    if m.shape[-1] != domain.d:
        raise DomainError(f"multi-index has {m.shape[-1]} entries, domain is {domain.d}-d")
    if np.any(m < 1):
        raise DomainError("multi-index entries must be >= 1")
    base = np.sum((m * np.pi / domain.lengths) ** 2, axis=-1)
    out = base**alpha
    return float(out) if out.ndim == 0 else out


def _enumerate_sorted_modes(domain: RectDomain, alpha: float, n: int):
    """First n multi-indices sorted by eigenvalue, ties broken lexicographically."""
    d = domain.d
    box = max(2, math.ceil(n ** (1.0 / d)) + 1)
    L = domain.lengths
    while True:
        axes = [np.arange(1, box + 1, dtype=np.int64)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        lams = eigenvalue(domain, alpha, grid)
        keys = tuple(grid[:, i] for i in reversed(range(d))) + (lams,)
        order = np.lexsort(keys)
        if len(order) >= n:
            nth = lams[order[n - 1]]
            # Cheapest eigenvalue reachable outside the box: one index at
            # box+1 (in the longest side), the rest at 1.
            base_min = np.sum((np.pi / L) ** 2) - (np.pi / L.max()) ** 2
            outside = (base_min + ((box + 1) * np.pi / L.max()) ** 2) ** alpha
            if outside > nth:
                sel = order[:n]
                return grid[sel], lams[sel]
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
            raise DomainError("need at least one mode")
        modes, lams = _enumerate_sorted_modes(domain, alpha, n)
        return cls(lambdas=lams, modes=modes)
