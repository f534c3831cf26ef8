"""Reproducible per-path Gaussian streams backed by counter-based Philox.

Each path owns an independent stream keyed by (seed, path_id), so any subset
of paths can be integrated on any worker in any order and still consume
exactly the same draws.  The two 64-bit words (seed mod 2^64, path_id) go
straight to Philox as its key: no entropy pool is read and nothing is hashed.
Within a stream, draws are laid out step-major with a fixed row width, so the
draw at (step, mode) is a deterministic function of (seed, path_id, step,
mode) for a given stream width.  Runs at different Galerkin truncations share
draws mode-for-mode by using one stream whose width covers the largest
truncation.  A batch reader fills each chunk in place, one path's rows at a
time, and hands out a view of its first ``n_modes`` columns.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


class _PhiloxKey(ISeedSequence):
    """Seed source whose state is the Philox key (seed, path_id) itself.

    Philox reads its two key words from ``generate_state``; ``Philox(key=...)``
    would also build an unused OS-entropy ``SeedSequence`` per path.
    """

    def __init__(self, seed: int, path_id: int):
        self._key = np.array([seed, path_id], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self._key


class NoiseStream:
    """Family of independent standard-normal streams, one per path id."""

    def __init__(self, seed: int, width: int):
        if width < 1:
            raise ValueError("stream width must be at least 1")
        self.seed = int(seed) & _MASK64
        self.width = int(width)

    def generator(self, path_id: int) -> np.random.Generator:
        key = _PhiloxKey(self.seed, int(path_id) & _MASK64)
        return np.random.Generator(np.random.Philox(key))

    def normals(self, path_id: int, n_steps: int, n_modes: int | None = None) -> np.ndarray:
        """Draw table of shape (n_steps, n_modes): entry (k, i) is step k, mode i."""
        n_modes = self.width if n_modes is None else n_modes
        if n_modes > self.width:
            raise ValueError(f"requested {n_modes} modes from width-{self.width} stream")
        z = self.generator(path_id).standard_normal((n_steps, self.width))
        return z[:, :n_modes]

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
