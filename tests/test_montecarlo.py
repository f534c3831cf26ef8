import math

import numpy as np
import pytest

from spdelab import kernels, montecarlo
from spdelab.functionals import (REGISTRY, Functional, by_name, constant, coordinate,
                                 sin_coordinate)
from spdelab.montecarlo import (EstimationError, MonteCarlo, _merged_stats, _moments,
                                plateau_verdict)
from spdelab.noise import NoiseStream
from spdelab.simulate import diagonal_constant_diffusion


def ou_mc(lambdas, phi0=1.0, seed=100, threads=1, dt=1e-3):
    lams = np.asarray(lambdas, dtype=float)
    return MonteCarlo(lams, diagonal_constant_diffusion(phi0),
                      NoiseStream(seed=seed, width=lams.size), dt=dt, threads=threads)


def rd_mc(rd16, rd16_callbacks, seed=100, threads=1, dt=2e-3):
    return MonteCarlo(rd16.spectrum.lambdas, rd16_callbacks,
                      NoiseStream(seed=seed, width=16), dt=dt, threads=threads)


def coupled_fd(mc, f, x0, v, eps, t, M):
    """Coupled finite difference (f(X^{x+eps v}_t) - f(X^x_t))/eps: a reference for the flow."""
    x0 = np.asarray(x0, dtype=float)
    y0 = x0 + eps * np.asarray(v, dtype=float)
    return mc._sample(x0, t, M, {
        "fd": lambda r: (f.eval(r["y"]) - f.eval(r["x"])) / eps,
    }, y0=y0)["fd"]


class TestExpect:
    def test_time_zero(self):
        mc = ou_mc([1.0, 2.0])
        f = coordinate(0)
        x = np.array([0.4, -0.2])
        st = mc._sample(x, 0.0, 100, {"f": lambda r: f.eval(r["x"])})["f"]
        assert (st.mean, st.se) == (float(f.eval(x[None])[0]), 0.0)

    def test_constant_functional(self):
        mc = ou_mc([1.0, 2.0])
        f = constant(1.0)
        st = mc._sample(np.zeros(2), 0.1, 500, {"f": lambda r: f.eval(r["x"])})["f"]
        assert st.mean == 1.0 and st.se == 0.0

    def test_ou_mean(self):
        mc = ou_mc([0.8, 2.0])
        x = np.array([1.0, 0.0])
        f = coordinate(0)
        st = mc._sample(x, 0.5, 4000, {"f": lambda r: f.eval(r["x"])})["f"]
        assert abs(st.mean - math.exp(-0.8 * 0.5)) < 4 * st.se

    def test_nonfinite_values_reported(self):
        mc = ou_mc([1.0])
        bad = Functional(name="bad", eval=lambda x: np.full(x.shape[0], np.inf),
                         grad=lambda x: np.zeros_like(x), strictly_positive=False)
        with pytest.raises(EstimationError):
            mc._sample(np.zeros(1), 0.1, 64, {"f": lambda r: bad.eval(r["x"])})


class TestGradients:
    def test_flow_time_zero(self):
        mc = ou_mc([1.0, 2.0])
        f = sin_coordinate(0)
        x = np.array([0.3, 0.1])
        v = np.array([1.0, 0.0])
        st = mc._sample(x, 0.0, 50, {"pair": montecarlo._pairing(f)}, v=v)["pair"]
        assert st.mean == pytest.approx(float(f.grad(x[None])[0] @ v), rel=1e-12)
        assert st.se == 0.0

    def test_flow_ou_linear_deterministic(self):
        mc = ou_mc([0.5, 1.5])
        st = mc._sample(np.zeros(2), 0.4, 200, {"pair": montecarlo._pairing(coordinate(0))},
                        v=np.array([1.0, 0.0]))["pair"]
        assert st.mean == pytest.approx(math.exp(-0.5 * 0.4), rel=1e-12)
        assert st.se < 1e-14

    def test_fd_linear_independent_of_eps(self):
        mc = ou_mc([1.0])
        for eps in (1e-2, 1e-4):
            st = coupled_fd(mc, coordinate(0), np.zeros(1), np.array([1.0]), eps, 0.3, 100)
            assert st.mean == pytest.approx(math.exp(-0.3), rel=1e-10)

    def test_fd_zero_direction(self):
        mc = ou_mc([1.0])
        st = coupled_fd(mc, coordinate(0), np.zeros(1), np.zeros(1), 1e-3, 0.3, 100)
        assert st.mean == 0.0 and st.se == 0.0

    def test_flow_agrees_with_fd(self, rd16, rd16_callbacks):
        mc = rd_mc(rd16, rd16_callbacks)
        f = sin_coordinate(0)
        x = np.zeros(16)
        v = np.zeros(16)
        v[0] = 1.0
        gf = mc._sample(x, 0.05, 2000, {"pair": montecarlo._pairing(f)}, v=v)["pair"]
        gd = coupled_fd(mc, f, x, v, 1e-4, 0.05, 2000)
        assert abs(gf.mean - gd.mean) < 4 * math.hypot(gf.se, gd.se) + 1e-3


class TestChecksDegenerate:
    def test_gradient_constant_functional(self, rd16_profile, rd16, rd16_callbacks):
        mc = rd_mc(rd16, rd16_callbacks)
        rep = mc.check_gradient_bound(constant(2.0), np.zeros(16),
                                      np.eye(16)[0], 0.05, rd16_profile.t0, 200)
        assert rep.passed and rep.lhs_hat == 0.0 and rep.rhs_hat == 0.0

    def test_gradient_ignores_unread_values(self):
        # the gradient bound reads grad f only: a non-finite f(X_t) cannot fail it
        mc = ou_mc([1.0, 2.0])
        f = Functional(name="inf", eval=lambda x: np.full(x.shape[0], np.inf),
                       grad=lambda x: np.zeros_like(x))
        rep = mc.check_gradient_bound(f, np.zeros(2), np.array([1.0, 0.0]), 0.1,
                                      math.inf, 200)
        assert rep.passed and rep.lhs_hat == rep.rhs_hat == 0.0

    def test_logharnack_jensen_constant(self, rd16_profile, rd16, rd16_callbacks):
        mc = rd_mc(rd16, rd16_callbacks)
        x = np.zeros(16)
        rep = mc.check_log_harnack(constant(2.0), x, x, 0.05, rd16_profile.t0,
                                   rd16_profile.lambda_sigma, 200)
        assert rep.passed
        assert rep.lhs_hat == pytest.approx(math.log(2.0), rel=1e-12)
        assert rep.rhs_hat == pytest.approx(math.log(2.0), rel=1e-12)

    def test_logharnack_jensen_all_positive_functionals(self, rd16_profile, rd16,
                                                        rd16_callbacks):
        mc = rd_mc(rd16, rd16_callbacks)
        x = np.full(16, 0.05)
        for name, make in REGISTRY.items():
            f = make()
            if not f.strictly_positive:
                continue
            rep = mc.check_log_harnack(f, x, x, 0.1, rd16_profile.t0,
                                       rd16_profile.lambda_sigma, 1000)
            assert rep.passed, name

    def test_logharnack_rejects_nonpositive(self, rd16_profile, rd16, rd16_callbacks):
        mc = rd_mc(rd16, rd16_callbacks)
        with pytest.raises((ValueError, EstimationError)):
            mc.check_log_harnack(sin_coordinate(0), np.zeros(16), np.zeros(16),
                                 0.05, rd16_profile.t0, rd16_profile.lambda_sigma, 100)

    def test_constant_checked_before_sampling(self, monkeypatch):
        # lambda_sigma = 0 has no log-Harnack constant: fail before simulating
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the constant was checked")

        monkeypatch.setattr(montecarlo, "simulate_batch", no_simulation)
        mc = ou_mc(np.arange(1, 9) / 2.0)
        x, v = np.zeros(8), np.eye(8)[0]
        with pytest.raises(ValueError, match=r"lambda\(sigma\) must be positive"):
            mc.check_log_harnack(constant(2.0), x, x, 0.2, math.inf, 0.0, 200)
        with pytest.raises(ValueError, match=r"lambda\(sigma\) must be positive"):
            mc.check_variance_gradient(constant(2.0), x, v, 0.2, math.inf, 0.0, 200)

    def test_variance_constant_functional(self, rd16_profile, rd16, rd16_callbacks):
        mc = rd_mc(rd16, rd16_callbacks)
        rep = mc.check_variance_gradient(constant(3.0), np.zeros(16), np.eye(16)[0],
                                         0.05, rd16_profile.t0,
                                         rd16_profile.lambda_sigma, 200)
        assert rep.passed and rep.lhs_hat == 0.0

    def test_poincare_time_zero(self, rd16_profile, rd16, rd16_callbacks):
        mc = rd_mc(rd16, rd16_callbacks)
        rep = mc.check_poincare(sin_coordinate(0), np.zeros(16), 0.0,
                                rd16_profile.t0, rd16_profile.lambda_bar_sigma, 200)
        assert rep.passed and rep.lhs_hat == 0.0 and rep.rhs_hat == 0.0


class TestChecksStatistical:
    def test_gradient_ou(self):
        mc = ou_mc([1.0, 2.0])
        rep = mc.check_gradient_bound(coordinate(0), np.zeros(2), np.array([1.0, 0.0]),
                                      0.3, math.inf, 2000)
        assert rep.passed
        assert rep.lhs_hat == pytest.approx(math.exp(-2 * 0.3), rel=1e-10)
        assert rep.constant_used == 6.0

    def test_variance_ou_analytic_bound(self):
        # f = first coordinate: lhs = e^{-2 lambda t}, rhs analytic via OU variance
        lam, t, t0 = 1.0, 0.4, math.inf
        mc = ou_mc([lam])
        rep = mc.check_variance_gradient(coordinate(0), np.zeros(1), np.ones(1),
                                         t, t0, 1.0, 4000)
        var_exact = (1 - math.exp(-2 * lam * t)) / (2 * lam)
        assert math.exp(-2 * lam * t) <= kernels.logharnack_constant(t, t0, 1.0) * var_exact
        assert rep.passed

    def test_poincare_ou_analytic_bound(self):
        lam, t = 1.0, 0.4
        var_exact = (1 - math.exp(-2 * lam * t)) / (2 * lam)
        assert var_exact <= kernels.poincare_constant(t, math.inf, 1.0)
        mc = ou_mc([lam])
        rep = mc.check_poincare(coordinate(0), np.zeros(1), t, math.inf, 1.0, 4000)
        assert rep.passed

    def test_constants_shared_between_2_and_3(self, rd16_profile, rd16, rd16_callbacks):
        # Poincare-type variance bound reuses the log-Harnack constant exactly
        mc = rd_mc(rd16, rd16_callbacks)
        t = 0.05
        rep = mc.check_variance_gradient(sin_coordinate(0), np.zeros(16), np.eye(16)[0],
                                         t, rd16_profile.t0, rd16_profile.lambda_sigma, 200)
        want = kernels.logharnack_constant(t, rd16_profile.t0, rd16_profile.lambda_sigma)
        assert abs(rep.constant_used - want) <= 1e-15 * want

    def test_flow_bound_rhs_exact(self, rd16_profile, rd16, rd16_callbacks):
        mc = rd_mc(rd16, rd16_callbacks)
        t0 = rd16_profile.t0
        rep = mc.check_flow_bound(np.zeros(16), np.eye(16)[0], t0 / 2, t0, 500)
        assert rep.passed
        assert rep.rhs_se == 0.0
        assert rep.rhs_hat == pytest.approx(6.0 ** 1.5, rel=1e-12)


class TestReproducibility:
    def test_same_seed_same_report(self, rd16_profile, rd16, rd16_callbacks):
        reps = [rd_mc(rd16, rd16_callbacks, seed=9)
                .check_gradient_bound(sin_coordinate(0), np.zeros(16), np.eye(16)[0],
                                      0.05, rd16_profile.t0, 400).to_json()
                for _ in range(2)]
        assert reps[0] == reps[1]

    def test_thread_count_invariance(self, rd16_profile, rd16, rd16_callbacks):
        reps = [rd_mc(rd16, rd16_callbacks, seed=9, threads=th)
                .check_poincare(sin_coordinate(0), np.zeros(16), 0.05,
                                rd16_profile.t0, rd16_profile.lambda_bar_sigma,
                                600).to_json()
                for th in (1, 4)]
        assert reps[0] == reps[1]

    @pytest.mark.parametrize("threads", [0, -5])
    def test_threads_below_one_refused(self, threads):
        with pytest.raises(ValueError, match="threads"):
            ou_mc([1.0], threads=threads)

    def test_pooled_blocks_thread_invariance(self, rd16_profile, rd16, rd16_callbacks):
        # batch_size below M, so at threads 2 the blocks run on the pool: a
        # flow check (gradient) and a pair check (log-Harnack)
        x, v, y = np.zeros(16), np.eye(16)[0], 0.5 * np.eye(16)[0]
        t0, lam = rd16_profile.t0, rd16_profile.lambda_sigma
        reps = []
        for threads in (1, 2):
            mc = MonteCarlo(rd16.spectrum.lambdas, rd16_callbacks,
                            NoiseStream(seed=23, width=16), dt=2e-3, threads=threads,
                            batch_size=100)
            reps.append([mc.check_gradient_bound(sin_coordinate(0), x, v, 0.02, t0, 400),
                         mc.check_log_harnack(sin_coordinate(0, shift=2.0), x, y, 0.02,
                                              t0, lam, 400)])
        assert [r.to_json() for r in reps[0]] == [r.to_json() for r in reps[1]]


class TestMoments:
    def test_large_mean_offset(self, rng):
        # spread 1e-2 about 1e5: raw power sums lose the variance entirely
        dev = 1e-2 * rng.normal(size=100_000)
        blocks = np.array_split(dev, 7)
        ref = _merged_stats([_moments(b) for b in blocks])
        st = _merged_stats([_moments(1e5 + b) for b in blocks])
        assert st.mean == pytest.approx(1e5 + ref.mean, rel=1e-15)
        assert st.var == pytest.approx(ref.var, rel=1e-6)
        assert st.se_var == pytest.approx(ref.se_var, rel=1e-5)
        assert ref.var == pytest.approx(dev.var(ddof=1), rel=1e-12)
        d = dev - dev.mean()
        m2, m4 = np.mean(d**2), np.mean(d**4)
        assert ref.se_var == pytest.approx(math.sqrt((m4 - m2**2) / dev.size), rel=1e-10)

    def test_shifted_functional_same_variance_check(self):
        # the variance gates of check_poincare read the same numbers at offset 1e5
        mc = ou_mc([1.0, 2.0], seed=7)
        f = coordinate(0)
        g = Functional(name="coord1+1e5", eval=lambda x: 1e5 + x[:, 0], grad=f.grad)
        reps = [mc.check_poincare(fn, np.zeros(2), 0.1, math.inf, 1.0, 2000)
                for fn in (f, g)]
        assert reps[1].lhs_hat == pytest.approx(reps[0].lhs_hat, rel=1e-7)
        assert reps[1].lhs_se == pytest.approx(reps[0].lhs_se, rel=1e-5)


class TestConvergence:
    @staticmethod
    def _ou_build(lams_full, cb):
        def build(n):
            return lams_full[:n], cb
        return build

    def test_exact_zero_at_full_resolution(self):
        lams = np.arange(1, 9) / 4.0
        cb = diagonal_constant_diffusion(1.0)
        mc = MonteCarlo(lams, cb, NoiseStream(seed=5, width=8), dt=1e-2)
        rows = mc.convergence_study(self._ou_build(lams, cb), [2, 8], 8,
                                    np.zeros(8), 0.2, 64)
        n_last, err, se = rows[-1]
        assert n_last == 8 and err == 0.0 and se == 0.0

    def test_ou_tail_sum(self):
        lams = np.arange(1, 17) / 8.0
        cb = diagonal_constant_diffusion(1.0)
        mc = MonteCarlo(lams, cb, NoiseStream(seed=6, width=16), dt=5e-4)
        t = 0.3
        rows = mc.convergence_study(self._ou_build(lams, cb), [2, 4, 8], 16,
                                    np.zeros(16), t, 3000)
        for n, err, se in rows:
            tail = float(np.sum((1 - np.exp(-2 * lams[n:] * t)) / (2 * lams[n:])))
            assert abs(err - tail) < 4 * se, (n, err, tail, se)

    def test_requires_ascending(self):
        lams = np.ones(4)
        cb = diagonal_constant_diffusion(1.0)
        mc = MonteCarlo(lams, cb, NoiseStream(seed=5, width=4), dt=1e-2)
        with pytest.raises((ValueError, EstimationError)):
            mc.convergence_study(self._ou_build(lams, cb), [4, 2], 4,
                                 np.zeros(4), 0.1, 16)


class TestPlateauVerdict:
    def test_bounded(self):
        rows = [(1.0, 0.9, 0.05), (2.0, 1.01, 0.05), (3.0, 1.0, 0.05), (4.0, 0.99, 0.05)]
        assert plateau_verdict(rows) == "bounded"

    def test_inconclusive(self):
        rows = [(1.0, 1.0, 0.01), (2.0, 2.0, 0.01), (3.0, 3.0, 0.01)]
        assert plateau_verdict(rows) == "inconclusive"


def test_functional_registry_bounds(rng):
    # values and gradients are finite on a large sample of random states, and
    # strictly positive functionals are positive there
    states = rng.normal(size=(10_000, 4))
    for name in REGISTRY:
        f = by_name(name)
        vals = f.eval(states)
        assert np.all(np.isfinite(vals))
        if f.strictly_positive:
            assert np.all(vals > 0)
        assert np.all(np.isfinite(f.grad_norm_sq(states)))
