"""Test observables f with exact gradients for semigroup estimation."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Functional:
    """Observable on coefficient space, batched: eval (B,n)->(B,), grad (B,n)->(B,n)."""

    name: str
    eval: Callable
    grad: Callable
    strictly_positive: bool = False

    def grad_norm_sq(self, x: np.ndarray) -> np.ndarray:
        g = self.grad(x)
        return np.sum(g * g, axis=-1)


def coordinate(i: int) -> Functional:
    """f(u) = <u, e_{i+1}> (0-based index i)."""
    def ev(x):
        return x[:, i].copy()

    def gr(x):
        g = np.zeros_like(x)
        g[:, i] = 1.0
        return g

    return Functional(name=f"coord{i + 1}", eval=ev, grad=gr)


def sin_coordinate(i: int = 0, shift: float = 0.0) -> Functional:
    """f(u) = shift + sin(<u, e_{i+1}>); strictly positive when shift > 1."""
    def ev(x):
        return shift + np.sin(x[:, i])

    def gr(x):
        g = np.zeros_like(x)
        g[:, i] = np.cos(x[:, i])
        return g

    name = f"sin{i + 1}" if shift == 0.0 else f"{shift:g}+sin{i + 1}"
    return Functional(name=name, eval=ev, grad=gr, strictly_positive=shift > 1.0)


def constant(c: float) -> Functional:
    def ev(x):
        return np.full(x.shape[0], c)

    def gr(x):
        return np.zeros_like(x)

    return Functional(name=f"const{c:g}", eval=ev, grad=gr, strictly_positive=c > 0)


REGISTRY: dict[str, Callable[[], Functional]] = {
    "coord1": lambda: coordinate(0),
    "sin1": lambda: sin_coordinate(0),
    "two_plus_sin1": lambda: sin_coordinate(0, shift=2.0),
    "const2": lambda: constant(2.0),
}


def by_name(name: str) -> Functional:
    if name not in REGISTRY:
        raise ValueError(f"unknown functional {name!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[name]()
