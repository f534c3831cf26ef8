"""Reproducible per-path Gaussian streams backed by SplitMix-keyed SFC64.

Each path owns an independent stream keyed by (seed, path_id), so any subset
of paths can be integrated on any worker in any order and still consume
exactly the same draws.  SFC64's state words are a = mix(seed + g),
b = mix(path_id + 2g) and c = mix(a ^ b), with mix the SplitMix64 finalizer
(a bijection) and g its increment, so no entropy pool is read and distinct
(seed mod 2^64, path_id) give distinct states.  Draws are laid out step-major
with a fixed row width, so the draw at (step, mode) depends on (seed, path_id,
step, mode) and the width alone; runs at different Galerkin truncations share
draws mode-for-mode through one stream as wide as the largest truncation.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014) on a 64-bit word."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _SFC64Words(ISeedSequence):
    """Seed source handing SFC64 its three state words, where a ``SeedSequence``
    would hash an entropy pool per path."""

    def __init__(self, a: int, path_id: int):
        b = _mix((path_id + 2 * _GAMMA) & _MASK64)
        self._words = np.array([a, b, _mix(a ^ b)], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


class NoiseStream:
    """Family of independent standard-normal streams, one per path id."""

    def __init__(self, seed: int, width: int):
        if width < 1:
            raise ValueError("stream width must be at least 1")
        self.seed = int(seed) & _MASK64
        self.width = int(width)
        self._a = _mix((self.seed + _GAMMA) & _MASK64)

    def generator(self, path_id: int) -> np.random.Generator:
        words = _SFC64Words(self._a, int(path_id) & _MASK64)
        return np.random.Generator(np.random.SFC64(words))

    def open(self, path_ids) -> "BatchReader":
        return BatchReader(self, np.asarray(path_ids, dtype=np.int64))


class BatchReader:
    """Sequential step-chunk reader over a batch of paths.

    Successive ``draw`` calls continue each path's stream, so chunking over
    steps never changes the values any step sees.
    """

    def __init__(self, stream: NoiseStream, path_ids: np.ndarray):
        self._width = stream.width
        self._gens = [stream.generator(pid) for pid in path_ids]

    def draw(self, n_steps: int, n_modes: int) -> np.ndarray:
        """Next (len(paths), n_steps, n_modes) block of standard normals, a view
        of the first columns of one full-width chunk."""
        if n_modes > self._width:
            raise ValueError(f"requested {n_modes} modes from width-{self._width} stream")
        out = np.empty((len(self._gens), n_steps, self._width))
        for row, g in zip(out, self._gens):
            g.standard_normal(out=row)
        return out[:, :, :n_modes]
