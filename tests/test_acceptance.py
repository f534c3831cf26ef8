"""Acceptance suite: one test per verification target, run at full scale.

Each test finishes with a single PASS line naming the criterion; run with
``pytest tests/test_acceptance.py -v -s`` to see them inline.
"""
import json
import math

import numpy as np
import pytest

from spdelab import presets
from spdelab.cli import main
from spdelab.functionals import constant, sin_coordinate
from spdelab.kernels import (ConstantKernel, RegularityProfile, logharnack_constant,
                             PowerSeriesKernel)
from spdelab.montecarlo import MonteCarlo, plateau_verdict
from spdelab.noise import NoiseStream
from spdelab.reaction import (ReactionDiffusionModel, ScalarFunctionSpec,
                              build_callbacks, build_profile, check_growth_condition,
                              exact_Ksigma)
from spdelab.simulate import SchemeConfig, diagonal_constant_diffusion, ou_exact, simulate_batch
from spdelab.spectral import unit_interval

from oracles import logharnack_constant_from_phi, steep_growth_epsilon_integral


def report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def test_criterion_1_constant_identity():
    worst = 0.0
    count = 0
    for t0 in (0.05, 0.666, 10.0):
        for t in (0.01, 0.5, 3.0):
            for lam in (0.81, 2.0):
                q = logharnack_constant_from_phi(t0, t, lam)
                c = logharnack_constant(t, t0, lam)
                worst = max(worst, abs(q / c - 1.0))
                count += 1
    assert count == 18
    report("criterion 1: quadrature/closed-form constant identity",
           worst <= 1e-8, f"max rel err {worst:.2e} over 18 triples")


def test_criterion_2_t0_oracle(rd16_profile):
    ok = True
    for a, b in ((1.0, 0.0), (4.0, 1.0), (0.3, 0.45)):
        p = RegularityProfile(Kb=ConstantKernel(math.sqrt(a)),
                              Ksigma=ConstantKernel(math.sqrt(b)), lambda_sigma=1.0)
        ok &= abs(p.t0 - 1.0 / (6 * (a + b))) <= 1e-9
    t0 = rd16_profile.t0
    ts = np.arange(t0 - 5e-4, t0 + 5e-4, 1e-6)
    total = np.array([rd16_profile.Kb.integral(t) + rd16_profile.Ksigma.integral(t) for t in ts])
    scan = ts[np.searchsorted(total, 1.0 / 6.0)]
    ok &= abs(t0 - scan) <= 1e-5
    report("criterion 2: critical time oracle",
           ok, f"bisection {t0:.7f} vs scan {scan:.7f}")


def test_criterion_3_ou_exactness():
    preset = presets.ou_moments_preset()
    lams = preset.lambdas
    M, t = 100_000, 1.0
    x0 = np.ones(8)
    cfg = SchemeConfig(dt=1e-3, t_end=t)
    noise = NoiseStream(seed=91, width=8)
    res = simulate_batch(x0, np.arange(M), cfg, lams, preset.callbacks, noise)
    xs = res["x"]
    mean, var = ou_exact(x0, t, lams, preset.phi0)
    mean_hits = var_hits = 0
    for i in range(8):
        se_mean = xs[:, i].std(ddof=1) / math.sqrt(M)
        v = xs[:, i].var(ddof=1)
        se_var = v * math.sqrt(2.0 / M)
        mean_hits += abs(xs[:, i].mean() - mean[i]) <= 4 * se_mean
        var_hits += abs(v - var[i]) <= 4 * se_var
    report("criterion 3: exact transition moments, 8 modes, M=1e5",
           mean_hits >= 7 and var_hits >= 7,
           f"means {mean_hits}/8, variances {var_hits}/8 within 4 se")


def test_criterion_4_flow_bound(rd16, rd16_profile, rd16_callbacks):
    t0 = rd16_profile.t0
    mc = MonteCarlo(rd16.spectrum.lambdas, rd16_callbacks,
                    NoiseStream(seed=404, width=16), dt=2e-3, batch_size=10_000)
    vs = {"e1": np.eye(16)[0], "e16": np.eye(16)[15]}
    g = np.random.default_rng(4).normal(size=16)
    vs["random"] = g / np.linalg.norm(g)
    worst = -math.inf
    ok = True
    for t in (t0 / 2, t0):
        for name, v in vs.items():
            rep = mc.check_flow_bound(np.zeros(16), v, t, t0, 10_000)
            ok &= rep.passed
            worst = max(worst, rep.lhs_hat + 4 * rep.lhs_se - rep.rhs_hat)
    report("criterion 4: derivative-flow second-moment bound",
           ok, f"max (lhs+4se)-rhs = {worst:.3g} over 6 runs")


def test_criterion_5_inequality_suite(rd16, rd16_profile, rd16_callbacks):
    t0 = rd16_profile.t0
    lam, lam_bar = rd16_profile.lambda_sigma, rd16_profile.lambda_bar_sigma
    mc = MonteCarlo(rd16.spectrum.lambdas, rd16_callbacks,
                    NoiseStream(seed=505, width=16), dt=1e-3, batch_size=10_000)
    f = sin_coordinate(0)
    fpos = sin_coordinate(0, shift=2.0)
    x = np.zeros(16)
    y = 0.5 * np.eye(16)[0]
    v = np.eye(16)[0]
    M = 20_000
    results = {}
    for t in (0.05, 0.2):
        results[f"gradient@{t}"] = mc.check_gradient_bound(f, x, v, t, t0, M)
        results[f"logharnack@{t}"] = mc.check_log_harnack(fpos, x, y, t, t0, lam, M)
        results[f"variance@{t}"] = mc.check_variance_gradient(f, x, v, t, t0, lam, M)
        results[f"poincare@{t}"] = mc.check_poincare(f, x, t, t0, lam_bar, M)
    ok = all(r.passed for r in results.values())
    # degenerate cases must pass with exact zeros / equality
    c = constant(2.0)
    deg = [mc.check_gradient_bound(c, x, v, 0.05, t0, 200),
           mc.check_variance_gradient(c, x, v, 0.05, t0, lam, 200),
           mc.check_poincare(c, x, 0.05, t0, lam_bar, 200),
           mc.check_log_harnack(fpos, x, x, 0.05, t0, lam, 2000)]
    ok &= all(r.passed for r in deg)
    ok &= deg[0].lhs_hat == 0.0 and deg[1].lhs_hat == 0.0 and deg[2].lhs_hat == 0.0
    failed = [k for k, r in results.items() if not r.passed]
    report("criterion 5: gradient/log-Harnack/variance/Poincare suite",
           ok, "all 8 checks + 4 degenerate cases" if ok else f"failed: {failed}")


def test_criterion_6_galerkin_convergence():
    # exactly solvable diagonal case: gap equals the analytic tail sum
    preset = presets.ou_convergence_preset(64)
    lams = preset.lambdas
    cb = preset.callbacks
    mc = MonteCarlo(lams, cb, NoiseStream(seed=606, width=64), dt=5e-4,
                    batch_size=5000)

    def build(n):
        return lams[:n], cb

    t, M = 0.5, 5000
    rows = mc.convergence_study(build, [4, 8, 16, 32], 64, np.zeros(64), t, M)
    ok = True
    details = []
    for n, err, se in rows:
        tail = float(np.sum((1 - np.exp(-2 * lams[n:] * t)) / (2 * lams[n:])))
        ok &= abs(err - tail) <= 4 * se
        details.append(f"n={n}: {err:.3f} vs {tail:.3f} (4se {4 * se:.3f})")

    # nonlinear model: strict decrease beyond two combined standard errors
    def build_rd(n):
        m = ReactionDiffusionModel(domain=unit_interval(), alpha=1.0,
                                   psi=ScalarFunctionSpec.atan_scaled(0.5),
                                   phi=ScalarFunctionSpec.sin_perturbed(1.0, 0.1, 1.0),
                                   n=n, quad_points=256)
        return m.spectrum.lambdas, build_callbacks(m)

    lams64, cb64 = build_rd(64)
    mc2 = MonteCarlo(lams64, cb64, NoiseStream(seed=616, width=64), dt=1e-3,
                     batch_size=2000)
    rows2 = mc2.convergence_study(build_rd, [4, 8, 16, 32], 64, np.zeros(64), 0.05, 2000)
    for (n1, e1, s1), (n2, e2, s2) in zip(rows2, rows2[1:]):
        ok &= e1 - e2 > 2 * math.hypot(s1, s2)
    report("criterion 6: Galerkin truncation convergence",
           ok, "; ".join(details) + "; nonlinear errors "
           + " > ".join(f"{e:.2e}" for _, e, _ in rows2))


def test_criterion_7_alpha_threshold():
    model = ReactionDiffusionModel(domain=unit_interval(), alpha=2.0,
                                   psi=ScalarFunctionSpec.affine(0.0, 0.0),
                                   phi=ScalarFunctionSpec.sin_perturbed(1.0, 0.1, 1.0),
                                   n=8, quad_points=32)
    finite_rect, value_rect = exact_Ksigma(model).epsilon_integral(0.5)
    finite_ka, value_ka = steep_growth_epsilon_integral(PowerSeriesKernel(
        C=1.0, delta=1.0, p=2.0, mode_factor=True), 0.5)
    ok = finite_rect and math.isfinite(value_rect) and not finite_ka and value_ka == math.inf
    report("criterion 7: integrability dichotomy across the smoothing threshold",
           ok, f"rectangle value {value_rect:.4g}; steep-growth form divergent")


def test_criterion_8_moment_boundedness(rd16):
    checkpoints = [20.0 * (i + 1) / 8 for i in range(8)]
    assert check_growth_condition(rd16, 0.5, 1.83)
    mc = MonteCarlo(rd16.spectrum.lambdas, build_callbacks(rd16),
                    NoiseStream(seed=808, width=16), dt=5e-3)
    rows = mc.second_moment_curve(np.zeros(rd16.n), 20.0, checkpoints, 1000)
    verdict = plateau_verdict(rows)
    last3 = rows[-3:]
    plateau_ok = all(abs(a[1] - b[1]) <= 2 * math.hypot(a[2], b[2])
                     for i, a in enumerate(last3) for b in last3[i + 1:])
    ok = verdict == "bounded" and plateau_ok

    preset = presets.ou_invariant_preset()
    mc = MonteCarlo(preset.lambdas, preset.callbacks,
                    NoiseStream(seed=818, width=preset.n), dt=1e-3, batch_size=1000)
    rows_ou = mc.second_moment_curve(np.zeros(preset.n), 20.0, checkpoints, 1000)
    t_last, m_last, se_last = rows_ou[-1]
    target = preset.stationary_moment()
    ok &= abs(m_last - target) <= 4 * se_last
    report("criterion 8: second-moment plateau",
           ok, f"verdict {verdict}; stationary {m_last:.3f} vs {target:.3f} "
           f"(4se {4 * se_last:.3f})")


def test_criterion_9_reproducibility(tmp_path, map_blocks_calls):
    model = tmp_path / "model.ini"
    model.write_text("""
[model]
kind = reaction_diffusion
[domain]
d = 1
side_0 = 0 1
[alpha]
value = 2.0
[psi]
form = atan_scaled
a = 0.5
[phi]
form = sin_perturbed
c0 = 1.0
amp = 0.1
freq = 1.0
[galerkin]
n = 16
quad_points = 64
""")
    exp = tmp_path / "exp.ini"
    # 4100 paths: every sampling command runs two blocks, on the pool at --threads 4
    exp.write_text("[experiment]\nt = 0.05\nm = 4100\nf = sin1\nt_end = 0.02\n"
                   "dt = 2e-3\nn_list = 2 4\nbign = 8\ncheckpoints = 2\n")
    commands = {
        "validate": ["validate", "--model", str(model)],
        "constants": ["constants", "--model", str(model), "--config", str(exp)],
        "check": ["check", "poincare", "--model", str(model), "--config", str(exp)],
        "converge": ["converge", "--model", "preset:ou8", "--config", str(exp)],
        "invariant": ["invariant", "--model", "preset:ou-invariant", "--config", str(exp)],
        "dump": ["dump-trajectories", "--model", "preset:ou8", "--config", str(exp)],
    }
    ok = True
    for name, argv in commands.items():
        outputs = []
        for run in range(2):
            for th in ("1", "4"):
                out = tmp_path / f"{name}-{run}-{th}"
                code = main(argv + ["--seed", "11", "--threads", th, "--out", str(out)])
                assert code == 0, (name, code)
                outputs.append(out.read_bytes())
        ok &= all(o == outputs[0] for o in outputs[1:])
    # check, converge and invariant: one sampling call per run
    assert map_blocks_calls == [(1, 2), (4, 2)] * 6
    report("criterion 9: byte-identical outputs across reruns and thread counts",
           ok, f"{len(commands)} commands x 2 runs x threads {{1,4}}")
