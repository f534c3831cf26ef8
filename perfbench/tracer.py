"""In-memory span tracing of spdelab's layers, wrapped from outside.

``install(tracer)`` replaces the layer entry points the workloads reach with
wrappers that record a span (name, start, end, thread, parent span, attrs)
or bump a counter.  Nothing in ``src/`` is edited: the wrappers sit on the
module, class and factory attributes the program looks up at call time.
Hooks on private names (the sine transform, the block dispatcher) are
installed only if the name still exists; each missing one is counted in
``trace.missing_hooks`` so a refactor shows up instead of silently reading 0.

``layer_metrics`` derives the per-layer numbers from the written-out spans.
A span's self time is its duration minus the union of its children that ran
on the same thread.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict

import numpy as np

CALLBACKS = {"drift": "drift", "diffusion_apply": "diffusion",
             "drift_jacobian_apply": "drift_jac",
             "diffusion_jacobian_apply": "diffusion_jac"}
CHECKS = {"check_gradient_bound": "gradient", "check_log_harnack": "logharnack",
          "check_variance_gradient": "variance", "check_poincare": "poincare",
          "check_flow_bound": "flowbound"}
MODES = ("flow", "pair", "plain")


class Tracer:
    """Span and counter store; safe to use from the Monte Carlo worker threads."""

    def __init__(self):
        self.spans: list[tuple] = []     # (id, name, t0, t1, thread, parent, attrs)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing_hooks: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._readers = weakref.WeakKeyDictionary()   # BatchReader -> [rid, step, width]

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, parent: int | None = None) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        return sid, parent, time.monotonic()

    def end(self, token: tuple, name: str, attrs: dict | None = None):
        t1 = time.monotonic()
        sid, parent, t0 = token
        self._stack().pop()
        self.spans.append((sid, name, t0, t1, threading.get_ident(), parent, attrs))

    def count(self, key: str):
        with self._lock:
            self.counts[key] += 1

    def spanned(self, fn, name: str):
        """fn wrapped in a span called ``name``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tok = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(tok, name)
        return wrapper

    def write(self, path: str, meta: dict):
        """JSON lines: one meta record, then one record per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(meta, counts=dict(self.counts),
                                     missing_hooks=self.missing_hooks)) + "\n")
            for sid, name, t0, t1, th, parent, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "t0": t0, "t1": t1,
                                     "thread": th, "parent": parent,
                                     "attrs": attrs or {}}) + "\n")


def read_spans(path: str) -> tuple[dict, list[dict]]:
    with open(path) as fh:
        meta = json.loads(fh.readline())
        return meta, [json.loads(line) for line in fh]


# -- installation ---------------------------------------------------------------

def _patch_method(cls, name: str, make):
    setattr(cls, name, make(cls.__dict__[name]))


def _runs(ids: np.ndarray) -> list[list[int]]:
    """Path ids as [start, stop) runs of consecutive integers."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return []
    cuts = np.flatnonzero(np.diff(ids) != 1) + 1
    return [[int(p[0]), int(p[-1]) + 1] for p in np.split(ids, cuts)]


def install(tr: Tracer):
    """Wrap the layer entry points of spdelab (imported here) with ``tr``."""
    import spdelab
    from spdelab import functionals, kernels, montecarlo, noise, presets, reaction
    from spdelab import simulate, spectral

    def optional(owner, name: str) -> bool:
        if hasattr(owner, name):
            return True
        tr.missing_hooks.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return False

    # noise: generators built, stream opens, chunk draws and their addresses
    def generator(orig):
        def wrapper(self, path_id):
            tr.count("noise.generators")
            return orig(self, path_id)
        return wrapper

    def open_(orig):
        def wrapper(self, path_ids):
            tok = tr.begin()
            reader = orig(self, path_ids)
            rid = next(tr._ids)
            with tr._lock:
                tr._readers[reader] = [rid, 0, self.width]
            tr.end(tok, "noise.open", {"rid": rid, "seed": self.seed, "width": self.width,
                                       "runs": _runs(path_ids)})
            return reader
        return wrapper

    def draw(orig):
        def wrapper(self, n_steps, n_modes):
            tok = tr.begin()
            out = orig(self, n_steps, n_modes)
            with tr._lock:
                rid, s0, width = rec = tr._readers[self]
                rec[1] += n_steps
            tr.end(tok, "noise.draw", {"rid": rid, "s0": s0, "s1": s0 + n_steps,
                                       "modes": n_modes,
                                       "normals": out.shape[0] * n_steps * width})
            return out
        return wrapper

    _patch_method(noise.NoiseStream, "generator", generator)
    _patch_method(noise.NoiseStream, "open", open_)
    _patch_method(noise.BatchReader, "draw", draw)

    # reaction: sine transforms, pointwise psi/phi, coefficient callbacks
    if optional(reaction, "_SineTransform"):
        def transform(kind):
            def make(orig):
                def wrapper(self, arr):
                    tok = tr.begin()
                    out = orig(self, arr)
                    tr.end(tok, "reaction.transform",
                           {"kind": kind, "rows": int(arr.shape[0]),
                            "bytes": 8 * (arr.size + out.size)})
                    return out
                return wrapper
            return make
        _patch_method(reaction._SineTransform, "synthesize", transform("synth"))
        _patch_method(reaction._SineTransform, "project", transform("project"))

    def pointwise_spec(spec):
        return dataclasses.replace(
            spec, fn=tr.spanned(spec.fn, "reaction.pointwise"),
            deriv=None if spec.deriv is None else tr.spanned(spec.deriv, "reaction.pointwise"))

    for factory in ("affine", "sin_perturbed", "atan_scaled", "custom"):
        orig = getattr(reaction.ScalarFunctionSpec, factory)
        setattr(reaction.ScalarFunctionSpec, factory, classmethod(
            lambda cls, *a, _orig=orig, **k: pointwise_spec(_orig(*a, **k))))

    def callbacks_of(cb):
        return {attr: tr.spanned(getattr(cb, attr), f"reaction.callback.{short}")
                for attr, short in CALLBACKS.items() if getattr(cb, attr) is not None}

    build_callbacks = reaction.build_callbacks

    def traced_build_callbacks(model):
        cb = build_callbacks(model)
        for attr, fn in callbacks_of(cb).items():
            setattr(cb, attr, fn)
        return cb
    reaction.build_callbacks = traced_build_callbacks

    diagonal = simulate.diagonal_constant_diffusion

    def traced_diagonal(phi0):
        cb = diagonal(phi0)
        return dataclasses.replace(cb, **callbacks_of(cb))
    simulate.diagonal_constant_diffusion = traced_diagonal
    presets.diagonal_constant_diffusion = traced_diagonal

    # simulate: one span per batch, with its mode and work
    batch = simulate.simulate_batch

    @functools.wraps(batch)
    def traced_batch(x0, path_ids, cfg, lambdas, cb, noise_, *, y0=None, v=None, **kw):
        mode = "flow" if v is not None else "pair" if y0 is not None else "plain"
        tok = tr.begin()
        try:
            return batch(x0, path_ids, cfg, lambdas, cb, noise_, y0=y0, v=v, **kw)
        finally:
            rows = int(np.asarray(path_ids).size)
            tr.end(tok, "simulate.batch", {"mode": mode, "rows": rows,
                                           "path_steps": rows * cfg.n_steps})
    for mod in (simulate, montecarlo, spdelab):
        mod.simulate_batch = traced_batch

    # montecarlo: checks, convergence study, block dispatch
    MC = montecarlo.MonteCarlo
    for meth, short in CHECKS.items():
        _patch_method(MC, meth, lambda f, s=short: tr.spanned(f, f"montecarlo.check.{s}"))
    _patch_method(MC, "convergence_study", lambda f: tr.spanned(f, "montecarlo.converge"))
    if optional(MC, "_map_blocks"):
        def map_blocks(orig):
            def wrapper(self, worker, blocks):
                tok = tr.begin()

                def traced_worker(block):
                    btok = tr.begin(parent=tok[0])
                    try:
                        return worker(block)
                    finally:
                        tr.end(btok, "montecarlo.block", {"rows": int(len(block))})
                try:
                    return orig(self, traced_worker, blocks)
                finally:
                    tr.end(tok, "montecarlo.map", {"threads": self.threads})
            return wrapper
        _patch_method(MC, "_map_blocks", map_blocks)

    # functionals: every functional built by the public factories
    def traced_functional(f):
        return dataclasses.replace(
            f, eval=tr.spanned(f.eval, "functionals.eval"),
            grad=None if f.grad is None else tr.spanned(f.grad, "functionals.eval"))
    for factory in ("coordinate", "sin_coordinate", "constant"):
        orig = getattr(functionals, factory)
        setattr(functionals, factory, functools.wraps(orig)(
            lambda *a, _orig=orig, **k: traced_functional(_orig(*a, **k))))
    if optional(montecarlo, "_dummy_functional"):
        dummy = montecarlo._dummy_functional
        montecarlo._dummy_functional = lambda n: traced_functional(dummy(n))
    _patch_method(functionals.Functional, "grad_norm_sq",
                  lambda f: tr.spanned(f, "functionals.eval"))

    # kernels: the profile (t0 bisection) and every kernel integral
    _patch_method(kernels.RegularityProfile, "__init__",
                  lambda f: tr.spanned(f, "kernels.t0"))

    def counted(f):
        @functools.wraps(f)
        def wrapper(*a, **k):
            tr.count("kernels.integral_calls")
            return f(*a, **k)
        return wrapper
    for cls in (kernels.ConstantKernel, kernels.PowerSeriesKernel, kernels.ModeSeriesKernel):
        _patch_method(cls, "integral", counted)

    # spectral: spectrum construction
    synth = tr.spanned(spectral.EigenSpectrum.synthesize, "spectral.spectrum")
    spectral.EigenSpectrum.synthesize = classmethod(lambda cls, *a, **k: synth(*a, **k))


# -- derivation -----------------------------------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _distinct_addresses(opens: dict, draws: list[dict]) -> float:
    """Distinct (path, step, mode) addresses over all draws, per stream.

    Each draw covers paths x [s0, s1) x [0, modes) of its stream (seed, width);
    the union is taken on the grid cut at every path-run and step boundary.
    """
    by_stream = defaultdict(list)
    for d in draws:
        o = opens[d["rid"]]
        by_stream[(o["seed"], o["width"])].append((o["runs"], d["s0"], d["s1"], d["modes"]))
    total = 0.0
    for rects in by_stream.values():
        P = np.unique([x for runs, *_ in rects for run in runs for x in run])
        S = np.unique([x for _, s0, s1, _ in rects for x in (s0, s1)])
        grid = np.zeros((P.size - 1, S.size - 1))
        for runs, s0, s1, m in rects:
            j0, j1 = np.searchsorted(S, [s0, s1])
            for a, b in runs:
                i0, i1 = np.searchsorted(P, [a, b])
                np.maximum(grid[i0:i1, j0:j1], m, out=grid[i0:i1, j0:j1])
        total += float((grid * np.diff(P)[:, None] * np.diff(S)[None, :]).sum())
    return total


def layer_metrics(meta: dict, spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced job (see BENCHMARK.json ``per_layer``)."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            children[s["parent"]].append(s)

    def dur(s):
        return s["t1"] - s["t0"]

    def self_time(s):
        same = [(c["t0"], c["t1"]) for c in children[s["id"]] if c["thread"] == s["thread"]]
        return dur(s) - _union_length(same)

    def pooled(s):
        return any(c["thread"] != s["thread"] for c in children[s["id"]])

    def total(prefix, fn=dur):
        return sum(fn(s) for s in spans if s["name"].startswith(prefix))

    m: dict[str, float] = {}
    counts = meta["counts"]
    draws = [s["attrs"] for s in spans if s["name"] == "noise.draw"]
    opens = {s["attrs"]["rid"]: s["attrs"] for s in spans if s["name"] == "noise.open"}
    normals = sum(d["normals"] for d in draws)
    m["noise.draw_s"] = total("noise.draw", self_time)
    m["noise.open_s"] = total("noise.open", self_time)
    m["noise.generators"] = counts.get("noise.generators", 0)
    m["noise.normals_drawn"] = normals
    m["noise.useful_ratio"] = _distinct_addresses(opens, draws) / normals if normals else 0.0

    tf = [s for s in spans if s["name"] == "reaction.transform"]
    m["reaction.transform_s"] = sum(self_time(s) for s in tf)
    m["reaction.transforms"] = sum(s["attrs"]["rows"] for s in tf)
    # per mode, over the batches that transform at all (the pseudo-spectral
    # models; the OU references step without transforms)
    batches = [s for s in spans if s["name"] == "simulate.batch"]
    tf_rows = defaultdict(int)
    for s in tf:
        p = by_id.get(s["parent"])
        while p is not None and p["name"] != "simulate.batch":
            p = by_id.get(p["parent"])
        if p is not None:
            tf_rows[p["id"]] += s["attrs"]["rows"]
    for mode in MODES:
        mine = [b for b in batches if b["attrs"]["mode"] == mode and tf_rows[b["id"]]]
        steps = sum(b["attrs"]["path_steps"] for b in mine)
        m[f"reaction.transforms_per_path_step.{mode}"] = (
            sum(tf_rows[b["id"]] for b in mine) / steps if steps else 0.0)
    m["reaction.transform_bytes"] = sum(s["attrs"]["bytes"] for s in tf)
    m["reaction.pointwise_s"] = total("reaction.pointwise", self_time)
    for short in CALLBACKS.values():
        m[f"reaction.callback_s.{short}"] = total(f"reaction.callback.{short}")
    m["reaction.callback_self_s"] = total("reaction.callback.", self_time)

    m["simulate.batch_s"] = total("simulate.batch")
    m["simulate.self_s"] = total("simulate.batch", self_time)
    m["simulate.path_steps"] = sum(b["attrs"]["path_steps"] for b in batches)

    for short in CHECKS.values():
        m[f"montecarlo.check_s.{short}"] = total(f"montecarlo.check.{short}")
    m["montecarlo.converge_s"] = total("montecarlo.converge")
    maps = [s for s in spans if s["name"] == "montecarlo.map"]
    mc_own = [s for s in spans if s["name"].startswith(("montecarlo.check.",
                                                         "montecarlo.converge",
                                                         "montecarlo.block"))]
    # a pooled map's own time is the caller waiting on its workers: not work
    m["montecarlo.self_s"] = (sum(self_time(s) for s in mc_own)
                              + sum(self_time(s) for s in maps if not pooled(s)))
    m["montecarlo.blocks"] = sum(1 for s in spans if s["name"] == "montecarlo.block")
    idle = 0.0
    lanes_extra = 0.0
    for s in maps:
        if pooled(s):
            busy = sum(dur(c) for c in children[s["id"]])
            idle += s["attrs"]["threads"] * dur(s) - busy
            lanes_extra += (s["attrs"]["threads"] - 1) * dur(s)
    m["montecarlo.worker_idle_s"] = idle

    m["kernels.t0_s"] = total("kernels.t0")
    m["kernels.integral_calls"] = counts.get("kernels.integral_calls", 0)
    m["spectral.spectrum_s"] = total("spectral.spectrum")
    m["functionals.eval_s"] = total("functionals.eval", self_time)

    # Accounting over the timed window, in thread-seconds: the main thread's
    # wall time, plus (threads - 1) extra lanes while a pool of workers runs.
    w0, w1 = meta["wall"]
    wall = w1 - w0
    in_wall = [s for s in spans if s["t0"] >= w0 and s["t1"] <= w1]
    accounted = sum(self_time(s) for s in in_wall
                    if not (s["name"] == "montecarlo.map" and pooled(s))) + idle
    m["trace.wall_s"] = wall
    m["trace.lane_s"] = wall + lanes_extra
    m["trace.unaccounted_s"] = wall + lanes_extra - accounted
    m["trace.missing_hooks"] = len(meta["missing_hooks"])
    return m
