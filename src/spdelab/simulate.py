"""Time stepping for the truncated spectral system and its derivative flow.

The one scheme is the exponential (mild-form) Euler: the exact linear factor
e^{-lambda dt} is applied per mode and the nonlinear coefficients are frozen
over the step,

    x_{k+1,i} = e^{-lambda_i dt} (x_k + b(x_k) dt + sigma(x_k) dW)_i.

It discretizes the mild solution, whose expectations the checked bounds are
about, and its linear part is stable at any lambda dt.  The derivative flow
(pathwise linearization along a direction v) is integrated jointly with the
state using the same noise draws and the same exponential factor.  A model
enters only as one step object whose one step method,
``cb.increment(x, dw, dt, h=None) -> (dx, dh)``, returns the nonlinear
increment b(x) dt + sigma(x) dW and, along a tangent h, its linearization (dh
is None when h is None).  Every model is differentiable.  The OU reference's
step is ``diagonal_constant_diffusion``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoiseStream

# floats per noise chunk (8 MB): most tiles draw each path's horizon in one call,
# and larger chunks fragmented the heap; _MIN_TILE_ROWS paths per tile keep long
# horizons from stepping a few rows per Python step
_CHUNK_FLOAT_BUDGET = 1_000_000
_MIN_TILE_ROWS = 1024


class SimulationError(RuntimeError):
    """Numerical failure (non-finite state) naming the step range and path ids."""


@dataclass(frozen=True)
class SchemeConfig:
    """Step size and horizon.

    The step count is t_end/dt rounded to the nearest integer (at least one
    step for t_end > 0); ``realized_dt`` is the dt actually used.
    """

    dt: float
    t_end: float

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 <= self.t_end < np.inf:
            raise ValueError("t_end must be non-negative and finite")

    @property
    def n_steps(self) -> int:
        if self.t_end == 0:
            return 0
        return max(1, round(self.t_end / self.dt))

    @property
    def realized_dt(self) -> float:
        k = self.n_steps
        return self.t_end / k if k else self.dt


@dataclass(frozen=True)
class diagonal_constant_diffusion:
    """b = 0, sigma = phi0 * Id: the step of the exactly-solvable OU reference model.

    A frozen dataclass, because perfbench's tracer rebuilds it with
    ``dataclasses.replace``.
    """

    phi0: float
    # no step calls these; perfbench's tracer looks them up, wrapping any not None
    drift = diffusion_apply = drift_jacobian_apply = diffusion_jacobian_apply = None

    def increment(self, x, dw, dt, h=None):
        """(phi0 dw, 0 along h); the tangent is None when h is None."""
        return self.phi0 * dw, None if h is None else np.zeros_like(h)


def _parts(total: int, most: int) -> list[tuple[int, int]]:
    """[start, stop) of the fewest parts of range(total), <= max(1, most) long, sizes within 1."""
    count = -(-total // max(1, most))
    return [(i * total // count, (i + 1) * total // count) for i in range(count)]


# a path that overflows makes inf or nan; the once-per-chunk finiteness check below names
# it, so numpy's overflow and invalid-value warnings would only repeat that on stderr
@np.errstate(over="ignore", invalid="ignore")
def simulate_batch(x0: np.ndarray, path_ids, cfg: SchemeConfig, lambdas: np.ndarray,
                   cb, noise: NoiseStream, *,
                   y0: np.ndarray | None = None, v: np.ndarray | None = None,
                   checkpoint_steps=()):
    """Integrate a batch of paths; the workhorse behind every estimator.

    Modes (combinable): plain state, coupled second state ``y0`` fed the same
    noise, derivative flow started at ``v``.  ``checkpoint_steps`` collects
    state snapshots (dict step -> (B, n) array), every step of a trajectory
    dump included.

    Returns dict with keys 'x' and optionally 'y', 'flow', 'checkpoints'.
    """
    path_ids = np.asarray(path_ids, dtype=np.int64)
    n = lambdas.size
    B = path_ids.size
    x = np.broadcast_to(np.asarray(x0, dtype=float), (B, n)).copy()
    y = None if y0 is None else np.broadcast_to(np.asarray(y0, dtype=float), (B, n)).copy()
    flow = None if v is None else np.broadcast_to(np.asarray(v, dtype=float), (B, n)).copy()

    K = cfg.n_steps
    dt = cfg.realized_dt
    sqdt = np.sqrt(dt)
    decay = np.exp(-lambdas * dt)
    checkpoint_steps = set(int(s) for s in checkpoint_steps)
    snaps = {k: x.copy() if k == 0 else np.empty((B, n))
             for k in sorted(checkpoint_steps) if 0 <= k <= K}

    # Each tile of rows runs all K steps from its own reader; its steps k0+1..k1
    # read one noise chunk, scaled to dW in place.  The chunk and its last step
    # view are dropped before the next draw: one chunk is alive at a time.
    rows = max(_MIN_TILE_ROWS, _CHUNK_FLOAT_BUDGET // max(1, K * noise.width))
    for r0, r1 in _parts(B, rows):
        ids = path_ids[r0:r1]
        xt, yt, ft = (None if a is None else a[r0:r1] for a in (x, y, flow))
        reader = noise.open(ids)
        for k0, k1 in _parts(K, _CHUNK_FLOAT_BUDGET // (ids.size * noise.width)):
            z = reader.draw(k1 - k0, n)
            z *= sqdt
            for k in range(k0 + 1, k1 + 1):
                dw = z[:, k - k0 - 1]
                dx, dft = cb.increment(xt, dw, dt, ft)
                if ft is not None:
                    ft = decay * (ft + dft)
                if yt is not None:
                    yt = decay * (yt + cb.increment(yt, dw, dt)[0])
                xt = decay * (xt + dx)
                if k in snaps:
                    snaps[k][r0:r1] = xt
            del z, dw
            for what, full, part in (("state", x, xt), ("coupled state", y, yt),
                                     ("derivative flow", flow, ft)):
                if full is None:
                    continue
                full[r0:r1] = part
                bad = ~np.isfinite(part).all(axis=-1)
                if bad.any():
                    raise SimulationError(f"non-finite {what} within steps {k0 + 1}..{k1} "
                                          f"on paths {ids[bad][:5].tolist()}")

    out = {key: a for key, a in (("x", x), ("y", y), ("flow", flow)) if a is not None}
    if checkpoint_steps:
        out["checkpoints"] = snaps
    return out


def ou_exact(x0, t: float, lambdas, phi0: float):
    """Exact transition moments for b = 0, sigma = phi0 * Id.

    mean_i = e^{-lambda_i t} x0_i,
    var_i  = phi0^2 (1 - e^{-2 lambda_i t}) / (2 lambda_i)   (phi0^2 t at lambda = 0).
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    lam = np.asarray(lambdas, dtype=float)
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), lam.shape)
    mean = np.exp(-lam * t) * x0
    with np.errstate(divide="ignore", invalid="ignore"):
        var = np.where(lam > 0,
                       phi0**2 * -np.expm1(-2.0 * lam * t) / np.where(lam > 0, 2.0 * lam, 1.0),
                       phi0**2 * t)
    return mean, var
