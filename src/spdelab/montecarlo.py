"""Monte Carlo checks of the semigroup inequalities, moment curves and Galerkin gaps.

Verifies the gradient / log-Harnack / variance / Poincare bounds and the
derivative-flow bound statistically, from sampled values of f(X_t), of the
pathwise derivative <grad f(X_t), J_t v> and of the flow itself: an
inequality "passes" if

    lhs_hat - SLACK * lhs_se <= rhs_hat + SLACK * rhs_se

with the constant SLACK = 4.  The bounds under test are inequalities between
exact expectations, so Monte Carlo can only refute with slack; 4 combined
standard errors keep the false-alarm rate per check below 1e-4.  No caller can
change the slack: a looser gate would let a violated bound pass.

Every estimate, the moment curves and the Galerkin gaps included, goes
through one sampler, ``MonteCarlo._sample``.  It splits the paths into
fixed-size blocks by path id, runs each block (on any number of threads),
checks every per-path value for finiteness (an ``EstimationError`` names the
quantity and the path ids), and reduces all M values of each quantity in one
pass, in path order.  So every result is bit-reproducible for a given seed
whatever the worker count, and the block size only splits the work: it changes
a value only where the model step itself rounds differently for a different
row count (BLAS products on a reaction-diffusion grid, blocks below ~100 rows).
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from . import kernels
from .functionals import Functional
from .noise import NoiseStream
from .simulate import SchemeConfig, simulate_batch


SLACK = 4.0


class EstimationError(RuntimeError):
    """Non-finite sample values or an estimate unusable for the check."""


@dataclass(frozen=True)
class Stats:
    """Sample mean/variance with delta-method standard errors."""

    mean: float
    se: float
    var: float
    se_var: float


def _stats(vals: np.ndarray) -> Stats:
    """Stats of the per-path values, from their deviations about ``vals[0]``.

    The deviations are re-centred on their mean before any power is taken
    (shifted data, Chan, Golub & LeVeque 1983), so no power sum of a large
    mean ever cancels, and values that are all equal give exactly var = 0.
    """
    m = vals.size
    with np.errstate(over="ignore", invalid="ignore"):
        d = vals - vals[0]
        shift = d.mean()
        d -= shift
        d2 = d * d
        m2, m4 = d2.sum(), (d2 * d2).sum()
        var = m2 / (m - 1) if m > 1 else 0.0
        se = math.sqrt(var / m) if m > 1 else 0.0
        se_var = math.sqrt(max(m4 / m - (m2 / m) ** 2, 0.0) / m) if m > 1 else 0.0
    return Stats(mean=float(vals[0] + shift), se=se, var=float(var), se_var=se_var)


def _require_finite(what: str, **fields):
    """Raise ``EstimationError`` naming ``what`` and the first non-finite field."""
    for key, value in fields.items():
        if not math.isfinite(value):
            raise EstimationError(f"{what}: {key} is not finite ({value})")


@dataclass
class CheckReport:
    """One inequality verification record."""

    inequality: str
    lhs_hat: float
    lhs_se: float
    rhs_hat: float
    rhs_se: float
    constant_used: float
    slack: float
    passed: bool
    M: int
    dt: float
    n: int
    seed: int
    t: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _passes(lhs_hat, lhs_se, rhs_hat, rhs_se) -> bool:
    # the roundoff guard keeps degenerate equality cases (both sides the same
    # constant, zero stderr) from failing by one ulp of summation noise
    guard = 8 * np.finfo(float).eps * max(abs(lhs_hat), abs(rhs_hat))
    return lhs_hat - SLACK * lhs_se <= rhs_hat + SLACK * rhs_se + guard


def _pairing(f: Functional):
    """Per-path evaluator <grad f(X_t), J_t>: the pathwise derivative of f along the flow."""
    return lambda r: np.sum(f.grad(r["x"]) * r["flow"], axis=-1)


def _directional_sq(pair: Stats, v) -> tuple[float, float]:
    """|d_v P_t f|^2 / |v|^2 from the pairing's stats, with its delta-method stderr
    (inf or nan where they overflow, which ``MonteCarlo._report`` names)."""
    with np.errstate(over="ignore", invalid="ignore"):
        v2 = np.sum(np.asarray(v, float) ** 2)
        if v2 == 0:
            raise ValueError("direction v has |v|^2 = 0")
        g = np.float64(pair.mean)
        return float(g**2 / v2), float(2.0 * abs(g) * pair.se / v2)


class MonteCarlo:
    """Estimator bundle for one model (spectrum + model step)."""

    def __init__(self, lambdas, callbacks, noise: NoiseStream,
                 dt: float = 1e-3, threads: int = 1, batch_size: int = 2048):
        self.lambdas = np.asarray(lambdas, dtype=float)
        self.callbacks = callbacks
        self.noise = noise
        self.dt = dt
        self.threads = threads
        self.batch_size = batch_size
        if noise.width < self.lambdas.size:
            raise ValueError("noise stream width is smaller than the mode count")
        if threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")

    def _cfg(self, t: float) -> SchemeConfig:
        return SchemeConfig(dt=self.dt, t_end=t)

    def _blocks(self, M: int):
        if M < 1:
            raise ValueError("need at least one path")
        return [np.arange(i, min(i + self.batch_size, M), dtype=np.int64)
                for i in range(0, M, self.batch_size)]

    def _map_blocks(self, worker, blocks):
        if self.threads == 1 or len(blocks) == 1:
            return [worker(b) for b in blocks]
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return list(pool.map(worker, blocks))

    def _sample(self, x0, t: float, M: int, evaluators: dict, run=None,
                **batch) -> dict[str, Stats]:
        """Run M paths in blocks; evaluators map ``run(block)``'s result dict to
        per-path values, whose ``_stats`` are taken over all M paths in path order.

        ``run`` defaults to one ``simulate_batch`` of the block with ``batch``
        (``v``, ``y0``, ``checkpoint_steps``) passed through.  At t = 0 every
        path sits at its start, so one zero-step path stands for all M.
        """
        cfg = self._cfg(t)
        blocks = self._blocks(M if t > 0 else min(M, 1))
        if run is None:
            def run(block):
                return simulate_batch(x0, block, cfg, self.lambdas, self.callbacks,
                                      self.noise, **batch)

        def worker(block):
            res = run(block)
            out = {}
            for name, evaluate in evaluators.items():
                with np.errstate(over="ignore", invalid="ignore"):
                    out[name] = vals = evaluate(res)
                    bad = ~np.isfinite(vals)
                    if bad.any():
                        raise EstimationError(
                            f"non-finite values of {name!r} on paths {block[bad][:5].tolist()}")
            return out

        parts = self._map_blocks(worker, blocks)   # in ascending block order
        return {name: _stats(np.concatenate([p[name] for p in parts])) for name in evaluators}

    # -- inequality checks -----------------------------------------------------

    def _report(self, name, lhs, lhs_se, rhs, rhs_se, const, t, M) -> CheckReport:
        _require_finite(f"{name} check", lhs_hat=lhs, lhs_se=lhs_se, rhs_hat=rhs, rhs_se=rhs_se)
        # Python scalars only, so ``to_json`` writes the same bytes whatever numpy types came in
        lhs, lhs_se, rhs, rhs_se, const, t = map(float, (lhs, lhs_se, rhs, rhs_se, const, t))
        return CheckReport(
            inequality=name, lhs_hat=lhs, lhs_se=lhs_se, rhs_hat=rhs, rhs_se=rhs_se,
            constant_used=const, slack=SLACK, passed=bool(_passes(lhs, lhs_se, rhs, rhs_se)),
            M=int(M), dt=float(self._cfg(t).realized_dt) if t > 0 else 0.0,
            n=self.lambdas.size, seed=self.noise.seed, t=t)

    def check_gradient_bound(self, f: Functional, x0, v, t: float, t0: float,
                             M: int) -> CheckReport:
        """|d_v P_t f|^2 / |v|^2 <= 6^{1+t/t0} P_t |grad f|^2."""
        st = self._sample(x0, t, M, {
            "pair": _pairing(f), "gradsq": lambda r: f.grad_norm_sq(r["x"])}, v=v)
        lhs, lhs_se = _directional_sq(st["pair"], v)
        const = kernels.gradient_constant(t, t0)
        rhs, rhs_se = const * st["gradsq"].mean, const * st["gradsq"].se
        return self._report("gradient", lhs, lhs_se, rhs, rhs_se, const, t, M)

    def check_log_harnack(self, f: Functional, x, y, t: float, t0: float,
                          lambda_sigma: float, M: int) -> CheckReport:
        """P_t log f(y) <= log P_t f(x) + C(t) |x - y|^2 for strictly positive f."""
        if not f.strictly_positive:
            raise ValueError("log-Harnack check needs a strictly positive functional")
        const = kernels.logharnack_constant(t, t0, lambda_sigma)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        st = self._sample(x, t, M, {
            "f_x": lambda r: f.eval(r["x"]),
            "logf_y": lambda r: np.log(f.eval(r["y"])),
        }, y0=y)
        fx = st["f_x"]
        if fx.mean - SLACK * fx.se <= 0.0:
            raise EstimationError("P_t f estimate not positive beyond noise; log undefined")
        dist2 = float(np.sum((x - y) ** 2))
        lhs, lhs_se = st["logf_y"].mean, st["logf_y"].se
        rhs = math.log(fx.mean) + const * dist2
        rhs_se = fx.se / fx.mean
        return self._report("logharnack", lhs, lhs_se, rhs, rhs_se, const, t, M)

    def check_variance_gradient(self, f: Functional, x0, v, t: float, t0: float,
                                lambda_sigma: float, M: int) -> CheckReport:
        """|d_v P_t f|^2 / |v|^2 <= C(t) (P_t f^2 - (P_t f)^2), same C as log-Harnack."""
        const = kernels.logharnack_constant(t, t0, lambda_sigma)
        st = self._sample(x0, t, M, {
            "pair": _pairing(f), "f": lambda r: f.eval(r["x"])}, v=v)
        lhs, lhs_se = _directional_sq(st["pair"], v)
        rhs, rhs_se = const * st["f"].var, const * st["f"].se_var
        return self._report("variance_gradient", lhs, lhs_se, rhs, rhs_se, const, t, M)

    def check_poincare(self, f: Functional, x0, t: float, t0: float,
                       lambda_bar: float, M: int) -> CheckReport:
        """P_t f^2 - (P_t f)^2 <= C(t) P_t |grad f|^2 (needs the upper bound on sigma)."""
        const = kernels.poincare_constant(t, t0, lambda_bar)
        st = self._sample(x0, t, M, {
            "f": lambda r: f.eval(r["x"]),
            "gradsq": lambda r: f.grad_norm_sq(r["x"]),
        })
        lhs, lhs_se = st["f"].var, st["f"].se_var
        rhs, rhs_se = const * st["gradsq"].mean, const * st["gradsq"].se
        return self._report("poincare", lhs, lhs_se, rhs, rhs_se, const, t, M)

    def check_flow_bound(self, x0, v, t: float, t0: float, M: int) -> CheckReport:
        """E |J_t|^2 <= 6^{(t+t0)/t0} |v|^2 for the derivative flow J started at v."""
        st = self._sample(x0, t, M, {"flowsq": lambda r: np.sum(r["flow"] ** 2, axis=-1)},
                          v=v)["flowsq"]
        v2 = float(np.sum(np.asarray(v, float) ** 2))
        const = kernels.gradient_constant(t, t0)
        return self._report("flow_bound", st.mean, st.se, const * v2, 0.0, const, t, M)

    # -- moment curves and Galerkin convergence --------------------------------

    def second_moment_curve(self, x0, t_end: float, checkpoints, M: int):
        """Rows (t, E|X_t|^2 estimate, stderr) at the requested checkpoint times."""
        cfg = self._cfg(t_end)
        dt = cfg.realized_dt
        steps = sorted({min(cfg.n_steps, max(0, round(tc / dt))) for tc in checkpoints})
        st = self._sample(x0, t_end, M, {
            f"|X_t|^2 at t = {s * dt!r}":
                lambda r, s=s: np.sum(r["checkpoints"][s] ** 2, axis=-1)
            for s in steps}, checkpoint_steps=steps)
        for name, m in st.items():
            _require_finite(name, mean=m.mean, stderr=m.se)
        return [(s * dt, m.mean, m.se) for s, m in zip(steps, st.values())]

    def convergence_study(self, build, n_list, N: int, x0_full, t: float, M: int):
        """Mean squared gap E|X_t^n - X_t^N|^2 per truncation level n.

        ``build(n)`` returns (lambdas, callbacks) for the n-mode system.  All
        levels consume identical noise addresses (one stream, width >= N), so
        mode i sees the same draws at every truncation.
        """
        n_list = list(n_list)
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ValueError("n_list must be strictly ascending")
        if n_list and n_list[-1] > N:
            raise ValueError("all truncation levels must be <= N")
        if self.noise.width < N:
            raise ValueError("noise stream width must cover the reference level N")
        levels = [lv for lv in n_list if lv < N]
        systems = {lv: build(lv) for lv in levels + [N]}
        cfg = self._cfg(t)
        x0_full = np.asarray(x0_full, dtype=float)

        def run(block):
            return {lv: simulate_batch(x0_full[:lv], block, cfg, np.asarray(lams, float),
                                       cb, self.noise)["x"]
                    for lv, (lams, cb) in systems.items()}

        def gap(finals, lv):
            ref = finals[N]
            pad = np.zeros_like(ref)
            pad[:, :lv] = finals[lv]
            return np.sum((pad - ref) ** 2, axis=-1)

        st = self._sample(x0_full, t, M, {
            f"gap at n = {lv}": lambda r, lv=lv: gap(r, lv) for lv in levels}, run=run)
        for name, m in st.items():
            _require_finite(name, mean=m.mean, stderr=m.se)
        gaps = dict(zip(levels, st.values()))
        return [(lv, gaps[lv].mean, gaps[lv].se) if lv in gaps else (lv, 0.0, 0.0)
                for lv in n_list]


def plateau_verdict(rows) -> str:
    """Heuristic boundedness verdict: the last 3 estimates within 2 stderr.

    A desk-scale stand-in for sup_t E|X_t|^2 < inf, not a proof.
    """
    if len(rows) < 3:
        return "inconclusive"
    tail = rows[-3:]
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            _, mi, si = tail[i]
            _, mj, sj = tail[j]
            if abs(mi - mj) > 2.0 * math.hypot(si, sj):
                return "inconclusive"
    return "bounded"
