"""Eigenstructure of -(-Laplacian)^alpha with Dirichlet boundary on rectangles.

Everything here is exact: eigenvalues and eigenfunctions on a d-dimensional
rectangle have closed forms, and the diagonal semigroup acts mode by mode.
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

    def contains(self, xi) -> bool:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape[-1] != self.d:
            raise DomainError(f"point has {xi.shape[-1]} coordinates, domain is {self.d}-d")
        lo = np.array([a for a, _ in self.sides])
        hi = np.array([b for _, b in self.sides])
        return bool(np.all(xi >= lo) and np.all(xi <= hi))


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


def eigenfunction_eval(domain: RectDomain, m, xi) -> float:
    """Evaluate the L2-normalized Dirichlet eigenfunction e_m at a point.

    e_m(xi) = prod_i sqrt(2/L_i) sin(m_i pi (xi_i - a_i)/L_i); vanishes on
    the boundary.
    """
    m = np.atleast_1d(np.asarray(m, dtype=np.int64))
    if np.any(m < 1):
        raise DomainError("multi-index entries must be >= 1")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if not domain.contains(xi):
        raise DomainError(f"point {xi} outside domain")
    a = np.array([s[0] for s in domain.sides])
    L = domain.lengths
    vals = np.sqrt(2.0 / L) * np.sin(m * np.pi * (xi - a) / L)
    return float(np.prod(vals))


def _enumerate_sorted_modes(domain: RectDomain, alpha: float, n: int):
    """First n multi-indices sorted by eigenvalue, ties broken lexicographically."""
    d = domain.d
    if d == 1:
        modes = np.arange(1, n + 1, dtype=np.int64)[:, None]
        return modes, eigenvalue(domain, alpha, modes)
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
    """Truncated spectrum: the first n modes in the canonical ordering.

    ``synthesize`` fills in the multi-index of every retained mode; built from
    a bare eigenvalue list, ``modes`` is None.  The OU presets do not use this
    class: they carry a plain eigenvalue array.
    """

    lambdas: np.ndarray
    modes: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise DomainError("lambdas must be a non-empty 1-d array")
        if np.any(lam <= 0):
            raise DomainError("retained eigenvalues must be positive")
        if np.any(np.diff(lam) < 0):
            raise DomainError("lambdas must be sorted non-decreasing")
        object.__setattr__(self, "lambdas", lam)

    @property
    def n(self) -> int:
        return self.lambdas.size

    @classmethod
    def synthesize(cls, domain: RectDomain, alpha: float, n: int) -> "EigenSpectrum":
        if n < 1:
            raise DomainError("need at least one mode")
        modes, lams = _enumerate_sorted_modes(domain, alpha, n)
        return cls(lambdas=lams, modes=modes)
