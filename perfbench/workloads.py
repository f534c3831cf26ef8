"""The three benchmark workloads: the acceptance suite's real jobs, resized.

Each workload has a ``setup`` (everything before the first simulated step:
models, spectra, regularity profile, callbacks, ``MonteCarlo`` objects) and a
``run`` that performs the job and applies the acceptance suite's pass rules
unchanged.  ``run`` returns one ``Op`` per gated quantity; a gate miss or a
raised ``SimulationError`` / ``EstimationError`` is a failed op.

All random inputs (noise seeds, the random direction v) are derived from the
benchmark seed, so a claim can be re-checked on a held-out seed.

Layer functions are reached through their modules (``reaction.build_callbacks``
and not a name imported here), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spdelab import functionals, montecarlo, noise, presets, reaction, simulate, spectral

# Sizes.  "full" is what the benchmark times; "small" is for the self-test.
SIZES = {
    "rd16-suite": {"full": dict(M=1200, batch=300, t=0.05),
                   "small": dict(M=80, batch=20, t=0.01)},
    "ou8-moments": {"full": dict(M=20_000, t=0.2),
                    "small": dict(M=400, t=0.02)},
    "converge": {"full": dict(M_ou=300, batch_ou=150, t_ou=0.25,
                              M_rd=2000, batch_rd=2000, t_rd=0.002),
                 "small": dict(M_ou=40, batch_ou=20, t_ou=0.02,
                               M_rd=8, batch_rd=4, t_rd=0.01)},
}

# Rule constants of tests/test_acceptance.py; never loosened here.
SLACK_SE = 4.0          # moments and OU gaps within 4 se
HITS_NEEDED = 7         # of 8 means / variances
DECREASE_SE = 2.0       # rd64 errors decrease by more than 2 combined se


@dataclass
class Op:
    """One gated result: its name, whether it passed, and its report bytes."""

    name: str
    ok: bool
    report: str


def derive_seeds(seed: int, workload: str, k: int) -> list[int]:
    """k independent 32-bit seeds from (benchmark seed, workload name)."""
    tag = int.from_bytes(workload.encode(), "little") % (1 << 32)
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(k)]


def _check_op(name: str, fn) -> Op:
    """Run one check; a numerical failure is a failed op, not a crash."""
    try:
        rep = fn()
    except (simulate.SimulationError, montecarlo.EstimationError) as e:
        return Op(name, False, f"{type(e).__name__}: {e}")
    return Op(name, bool(rep.passed), rep.to_json())


# -- rd16-suite: criterion 4 (flow bound, three directions) + criterion 5 ------

def setup_rd16(seed: int, threads: int, size: dict) -> dict:
    model = presets.bounded_reaction_model()
    profile = reaction.build_profile(model)
    cb = reaction.build_callbacks(model)
    lams = model.spectrum.lambdas
    s_flow, s_suite, s_dir = derive_seeds(seed, "rd16-suite", 3)
    g = np.random.default_rng(s_dir).normal(size=16)

    def mc(s):
        return montecarlo.MonteCarlo(lams, cb, noise.NoiseStream(seed=s, width=16),
                                     dt=1e-3, threads=threads, batch_size=size["batch"])

    return dict(size=size, profile=profile, mc_flow=mc(s_flow), mc_suite=mc(s_suite),
                dirs={"e1": np.eye(16)[0], "e16": np.eye(16)[15],
                      "random": g / np.linalg.norm(g)},
                f=functionals.sin_coordinate(0),
                fpos=functionals.sin_coordinate(0, shift=2.0))


def run_rd16(st: dict) -> list[Op]:
    t, M = st["size"]["t"], st["size"]["M"]
    prof = st["profile"]
    t0, lam, lam_bar = prof.t0, prof.lambda_sigma, prof.lambda_bar_sigma
    mf, ms, f, fpos = st["mc_flow"], st["mc_suite"], st["f"], st["fpos"]
    x = np.zeros(16)
    y = 0.5 * np.eye(16)[0]
    v = np.eye(16)[0]
    ops = [_check_op(f"flowbound-{name}",
                     lambda d=d: mf.check_flow_bound(x, d, t, t0, M))
           for name, d in st["dirs"].items()]
    ops.append(_check_op("gradient", lambda: ms.check_gradient_bound(f, x, v, t, t0, M)))
    ops.append(_check_op("logharnack",
                         lambda: ms.check_log_harnack(fpos, x, y, t, t0, lam, M)))
    ops.append(_check_op("variance",
                         lambda: ms.check_variance_gradient(f, x, v, t, t0, lam, M)))
    ops.append(_check_op("poincare", lambda: ms.check_poincare(f, x, t, t0, lam_bar, M)))
    return ops


# -- ou8-moments: criterion 3 ---------------------------------------------------

def setup_ou8(seed: int, threads: int, size: dict) -> dict:
    preset = presets.ou_moments_preset()
    (s_noise,) = derive_seeds(seed, "ou8-moments", 1)
    return dict(size=size, threads=threads, preset=preset, cb=preset.callbacks,
                cfg=simulate.SchemeConfig(dt=1e-3, t_end=size["t"]),
                noise=noise.NoiseStream(seed=s_noise, width=8))


def _simulate_split(st: dict, path_ids: np.ndarray) -> np.ndarray:
    """Final states of the batch.  ``simulate_batch`` has no thread count, so
    ``threads`` > 1 splits the batch into that many contiguous parts, run one
    after the other and concatenated in path order: for this workload the
    thread check is a split-batch check."""
    lams, cb, cfg, ns = st["preset"].lambdas, st["cb"], st["cfg"], st["noise"]
    x0 = np.ones(8)
    return np.concatenate([simulate.simulate_batch(x0, p, cfg, lams, cb, ns)["x"]
                           for p in np.array_split(path_ids, st["threads"])])


def run_ou8(st: dict) -> list[Op]:
    M, t = st["size"]["M"], st["size"]["t"]
    lams, phi0 = st["preset"].lambdas, st["preset"].phi0

    def both_rules():
        xs = _simulate_split(st, np.arange(M))
        mean, var = simulate.ou_exact(np.ones(8), t, lams, phi0)
        means, variances = [], []
        for i in range(8):
            se_mean = xs[:, i].std(ddof=1) / math.sqrt(M)
            v = xs[:, i].var(ddof=1)
            se_var = v * math.sqrt(2.0 / M)
            means.append((float(xs[:, i].mean()), float(se_mean),
                          bool(abs(xs[:, i].mean() - mean[i]) <= SLACK_SE * se_mean)))
            variances.append((float(v), float(se_var),
                              bool(abs(v - var[i]) <= SLACK_SE * se_var)))
        return [Op("means", sum(h for *_, h in means) >= HITS_NEEDED, repr(means)),
                Op("variances", sum(h for *_, h in variances) >= HITS_NEEDED,
                   repr(variances))]

    try:
        return both_rules()
    except simulate.SimulationError as e:
        return [Op(name, False, f"SimulationError: {e}") for name in ("means", "variances")]


# -- converge: criterion 6, both halves -----------------------------------------

def _rd64_model(n: int) -> reaction.ReactionDiffusionModel:
    return reaction.ReactionDiffusionModel(
        domain=spectral.unit_interval(), alpha=1.0,
        psi=reaction.ScalarFunctionSpec.atan_scaled(0.5),
        phi=reaction.ScalarFunctionSpec.sin_perturbed(1.0, 0.1, 1.0),
        n=n, quad_points=256)


LEVELS = (4, 8, 16, 32)


def setup_converge(seed: int, threads: int, size: dict) -> dict:
    s_ou, s_rd = derive_seeds(seed, "converge", 2)
    preset = presets.ou_convergence_preset(64)
    cb = preset.callbacks
    ou_systems = {n: (preset.lambdas[:n], cb) for n in LEVELS + (64,)}
    mc_ou = montecarlo.MonteCarlo(preset.lambdas, cb, noise.NoiseStream(seed=s_ou, width=64),
                                  dt=5e-4, threads=threads, batch_size=size["batch_ou"])
    # every truncation level is built here, before the first simulated step
    rd_systems = {}
    for n in LEVELS + (64,):
        m = _rd64_model(n)
        rd_systems[n] = (m.spectrum.lambdas, reaction.build_callbacks(m))
    lams64, cb64 = rd_systems[64]
    mc_rd = montecarlo.MonteCarlo(lams64, cb64, noise.NoiseStream(seed=s_rd, width=64),
                                  dt=1e-3, threads=threads, batch_size=size["batch_rd"])
    return dict(size=size, lams_ou=preset.lambdas, ou_systems=ou_systems, mc_ou=mc_ou,
                rd_systems=rd_systems, mc_rd=mc_rd)


def run_converge(st: dict) -> list[Op]:
    sz = st["size"]
    lams = st["lams_ou"]
    t_ou = sz["t_ou"]
    ops: list[Op] = []
    try:
        rows = st["mc_ou"].convergence_study(st["ou_systems"].__getitem__, LEVELS, 64,
                                             np.zeros(64), t_ou, sz["M_ou"])
        for n, err, se in rows:
            tail = float(np.sum((1 - np.exp(-2 * lams[n:] * t_ou)) / (2 * lams[n:])))
            ops.append(Op(f"ou-gap-{n}", bool(abs(err - tail) <= SLACK_SE * se),
                          repr((n, float(err), float(se), tail))))
    except (simulate.SimulationError, montecarlo.EstimationError) as e:
        ops += [Op(f"ou-gap-{n}", False, f"{type(e).__name__}: {e}") for n in LEVELS]
    try:
        rows2 = st["mc_rd"].convergence_study(st["rd_systems"].__getitem__, LEVELS, 64,
                                              np.zeros(64), sz["t_rd"], sz["M_rd"])
        for (n1, e1, s1), (n2, e2, s2) in zip(rows2, rows2[1:]):
            ops.append(Op(f"rd-decrease-{n1}-{n2}",
                          bool(e1 - e2 > DECREASE_SE * math.hypot(s1, s2)),
                          repr((n1, float(e1), float(s1), n2, float(e2), float(s2)))))
    except (simulate.SimulationError, montecarlo.EstimationError) as e:
        ops += [Op(f"rd-decrease-{a}-{b}", False, f"{type(e).__name__}: {e}")
                for a, b in zip(LEVELS, LEVELS[1:])]
    return ops


def _steps(dt: float, t: float) -> int:
    return simulate.SchemeConfig(dt=dt, t_end=t).n_steps


def path_steps(workload: str, size: dict) -> int:
    """Work of one job: sum of paths x steps over its simulate_batch calls as
    the program makes them at the commit the benchmark was written against
    (a coupled pair counts once).  Fixed per workload and size, so that
    ``path_steps_per_s`` compares commits at equal work."""
    if workload == "rd16-suite":    # 3 flow bounds + 4 checks, one batch each
        return 7 * size["M"] * _steps(1e-3, size["t"])
    if workload == "ou8-moments":
        return size["M"] * _steps(1e-3, size["t"])
    levels = len(LEVELS) + 1        # every level plus the N = 64 reference
    return levels * (size["M_ou"] * _steps(5e-4, size["t_ou"])
                     + size["M_rd"] * _steps(1e-3, size["t_rd"]))


WORKLOADS = {
    "rd16-suite": (setup_rd16, run_rd16),
    "ou8-moments": (setup_ou8, run_ou8),
    "converge": (setup_converge, run_converge),
}
