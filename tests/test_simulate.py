import math
import weakref

import numpy as np
import pytest

from spdelab import simulate
from spdelab.noise import BatchReader, NoiseStream
from spdelab.reaction import build_callbacks
from spdelab.simulate import (CallbackBundle, SchemeConfig, SimulationError,
                              diagonal_constant_diffusion, ou_exact, simulate_batch)


ZERO_JACOBIANS = dict(drift_jacobian_apply=lambda x, h: np.zeros_like(h),
                      diffusion_jacobian_apply=lambda x, h, w: np.zeros_like(h))


def zero_callbacks() -> CallbackBundle:
    return CallbackBundle(drift=lambda x: np.zeros_like(x),
                          diffusion_apply=lambda x, w: np.zeros_like(w), **ZERO_JACOBIANS)


class TestSchemeConfig:
    def test_step_count_rounding(self):
        cfg = SchemeConfig(dt=3e-3, t_end=1.0)
        assert cfg.n_steps == 333
        assert cfg.realized_dt == pytest.approx(1.0 / 333)

    def test_zero_horizon(self):
        assert SchemeConfig(dt=1e-3, t_end=0.0).n_steps == 0

    @pytest.mark.parametrize("dt, t_end", [(math.nan, 1.0), (math.inf, 1.0),
                                           (1e-3, math.nan), (1e-3, math.inf)])
    def test_nonfinite_step_or_horizon(self, dt, t_end):
        with pytest.raises(ValueError, match="finite"):
            SchemeConfig(dt=dt, t_end=t_end)


class TestStep:
    def test_pure_decay(self):
        lams = np.array([1.0, 4.0, 9.0])
        cfg = SchemeConfig(dt=1e-2, t_end=0.5)
        noise = NoiseStream(seed=0, width=3)
        x0 = np.array([1.0, -2.0, 0.5])
        out = simulate_batch(x0, [0], cfg, lams, zero_callbacks(), noise)["x"][0]
        np.testing.assert_allclose(out, np.exp(-lams * 0.5) * x0, rtol=1e-13)

    def test_exponential_equals_euler_at_lambda_zero(self):
        # at lambda = 0 the factor is 1.0, so each step is x + phi0 dW: the
        # endpoint is x0 plus the sequential sum of 0.7 dW_k, bit for bit
        lams = np.zeros(2)
        noise = NoiseStream(seed=3, width=2)
        cfg = SchemeConfig(dt=1e-2, t_end=0.2)
        x0 = np.array([0.3, -0.1])
        out = simulate_batch(x0, [5], cfg, lams, diagonal_constant_diffusion(0.7), noise)["x"][0]
        dw = noise.open(np.array([5])).draw(cfg.n_steps, 2)[0]
        dw *= np.sqrt(cfg.realized_dt)
        expected = x0.copy()
        for k in range(cfg.n_steps):
            expected = expected + 0.7 * dw[k]
        np.testing.assert_array_equal(out, expected)

    def test_dimension_mismatch(self):
        noise = NoiseStream(seed=0, width=4)
        cfg = SchemeConfig(dt=1e-2, t_end=0.1)
        with pytest.raises((SimulationError, ValueError)):
            simulate_batch(np.zeros(3), [0], cfg, np.ones(4),
                           diagonal_constant_diffusion(1.0), noise)

    def test_nonfinite_state_names_step(self):
        cb = CallbackBundle(drift=lambda x: np.full_like(x, np.nan),
                            diffusion_apply=lambda x, w: np.zeros_like(w), **ZERO_JACOBIANS)
        noise = NoiseStream(seed=0, width=1)
        cfg = SchemeConfig(dt=1e-2, t_end=0.1)
        with pytest.raises(SimulationError, match="step"):
            simulate_batch(np.zeros(1), [0], cfg, np.ones(1), cb, noise)

    def test_nonfinite_coupled_state_names_paths_and_steps(self):
        # x0 = 0 is a fixed point of the model; only y, started at 1, blows up
        cb = CallbackBundle(drift=lambda x: 1e3 * x * x,
                            diffusion_apply=lambda x, w: x * w, **ZERO_JACOBIANS)
        noise = NoiseStream(seed=0, width=1)
        cfg = SchemeConfig(dt=1e-2, t_end=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError,
                               match=r"coupled state within steps 1\.\.50 on paths \[10, 11, 12\]"):
                simulate_batch(np.zeros(1), [10, 11, 12], cfg, np.ones(1), cb, noise,
                               y0=np.ones(1))

    def test_nonfinite_path_in_later_tile_names_its_steps(self, monkeypatch):
        # only the last row starts off the fixed point x = 0; with tiles of at
        # most 2 rows it sits in the third tile, drawn 10 steps per chunk
        monkeypatch.setattr(simulate, "_CHUNK_FLOAT_BUDGET", 2 * 10)
        monkeypatch.setattr(simulate, "_MIN_TILE_ROWS", 2)
        cb = CallbackBundle(drift=lambda x: 1e3 * x * x,
                            diffusion_apply=lambda x, w: x * w, **ZERO_JACOBIANS)
        x0 = np.zeros((5, 1))
        x0[4] = 0.01
        cfg = SchemeConfig(dt=1e-2, t_end=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError,
                               match=r"^non-finite state within steps 21\.\.30 on paths \[14\]$"):
                simulate_batch(x0, [10, 11, 12, 13, 14], cfg, np.ones(1), cb,
                               NoiseStream(seed=0, width=1))


class TestSimulatePath:
    def test_zero_horizon_returns_x0(self):
        x0 = np.array([1.0, 2.0])
        cfg = SchemeConfig(dt=1e-2, t_end=0.0)
        out = simulate_batch(x0, [0], cfg, np.ones(2), diagonal_constant_diffusion(1.0),
                             NoiseStream(seed=0, width=2))["x"][0]
        np.testing.assert_array_equal(out, x0)

    def test_empty_batch_returns_empty_rows(self):
        out = simulate_batch(np.zeros(3), [], SchemeConfig(dt=1e-2, t_end=0.1), np.ones(3),
                             diagonal_constant_diffusion(1.0), NoiseStream(seed=0, width=3),
                             y0=np.ones(3), v=np.ones(3), checkpoint_steps=[0, 5])
        for key in ("x", "y", "flow"):
            assert out[key].shape == (0, 3)
        assert {k: a.shape for k, a in out["checkpoints"].items()} == {0: (0, 3), 5: (0, 3)}

    def test_bit_identical_reruns(self, rd16, rd16_callbacks):
        cfg = SchemeConfig(dt=2e-3, t_end=0.05)
        runs = [simulate_batch(np.zeros(16), [9], cfg, rd16.spectrum.lambdas, rd16_callbacks,
                               NoiseStream(seed=11, width=16))["x"][0]
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_equal_chunks_match_one_chunk(self, rd16, rd16_callbacks, monkeypatch):
        cfg = SchemeConfig(dt=1e-3, t_end=0.007)
        draws = []
        draw = BatchReader.draw

        def recording_draw(self, n_steps, n_modes):
            z = draw(self, n_steps, n_modes)
            draws.append((self, z.shape[0], n_steps))
            return z

        def run():
            return simulate_batch(np.full(16, 0.1), np.arange(7), cfg, rd16.spectrum.lambdas,
                                  rd16_callbacks, NoiseStream(seed=7, width=16),
                                  y0=np.zeros(16), v=np.eye(16)[2], checkpoint_steps=range(8))
        monkeypatch.setattr(BatchReader, "draw", recording_draw)
        one = run()
        assert [d[1:] for d in draws] == [(7, 7)]
        # tiles of at most 3 of the 7 paths; a 3-row tile takes 3 steps of 16
        # modes per chunk, a 2-row tile 4.  No tile has one row: a one-row
        # batch goes through matrix-vector products, which round differently.
        monkeypatch.setattr(simulate, "_CHUNK_FLOAT_BUDGET", 3 * 16 * 3)
        monkeypatch.setattr(simulate, "_MIN_TILE_ROWS", 3)
        draws.clear()
        tiled = run()
        tiles = {}
        for reader, rows, steps in draws:
            tiles.setdefault((reader, rows), []).append(steps)
        assert sorted(rows for _, rows in tiles) == [2, 2, 3]
        for sizes in tiles.values():
            assert len(sizes) >= 2 and sum(sizes) == 7 and max(sizes) - min(sizes) <= 1
        for key in ("x", "y", "flow"):
            np.testing.assert_array_equal(tiled[key], one[key])
        assert tiled["checkpoints"].keys() == one["checkpoints"].keys() == set(range(8))
        for k, snap in one["checkpoints"].items():
            np.testing.assert_array_equal(tiled["checkpoints"][k], snap)

    def test_one_noise_chunk_alive_at_a_time(self, rd16, rd16_callbacks, monkeypatch):
        # a chunk still referenced (say, by a step's dW view) when the next one
        # is drawn doubles the noise layer's peak memory
        chunks = []
        draw = BatchReader.draw

        def tracking_draw(self, n_steps, n_modes):
            assert all(ref() is None for ref in chunks)
            z = draw(self, n_steps, n_modes)
            chunks.append(weakref.ref(z.base))
            return z
        monkeypatch.setattr(BatchReader, "draw", tracking_draw)
        monkeypatch.setattr(simulate, "_CHUNK_FLOAT_BUDGET", 2 * 4 * 16)
        monkeypatch.setattr(simulate, "_MIN_TILE_ROWS", 1)
        simulate_batch(np.full(16, 0.1), [0, 1, 2, 3], SchemeConfig(dt=1e-3, t_end=0.007),
                       rd16.spectrum.lambdas, rd16_callbacks, NoiseStream(seed=7, width=16),
                       y0=np.zeros(16), v=np.eye(16)[2], checkpoint_steps=range(8))
        assert len(chunks) == 4
        assert all(ref() is None for ref in chunks)

    def test_ou_moments(self):
        # one slow mode: mean e^{-t} x0, variance (1 - e^{-2})/2
        M, t = 20_000, 1.0
        lams = np.array([1.0])
        cfg = SchemeConfig(dt=1e-3, t_end=t)
        noise = NoiseStream(seed=2024, width=1)
        res = simulate_batch(np.array([1.0]), np.arange(M), cfg, lams,
                             diagonal_constant_diffusion(1.0), noise)
        xs = res["x"][:, 0]
        mean, var = ou_exact(np.array([1.0]), t, lams, 1.0)
        assert abs(xs.mean() - mean[0]) < 4 * xs.std() / math.sqrt(M)
        se_var = xs.var() * math.sqrt(2.0 / M)
        assert abs(xs.var(ddof=1) - var[0]) < 4 * se_var


class TestDerivativeFlow:
    def test_constant_sigma_flow_is_heat_semigroup(self):
        lams = np.array([1.0, 2.0, 5.0])
        cfg = SchemeConfig(dt=1e-3, t_end=0.3)
        v = np.array([1.0, -1.0, 2.0])
        flow = simulate_batch(np.zeros(3), [0], cfg, lams, diagonal_constant_diffusion(1.0),
                              NoiseStream(seed=5, width=3), v=v)["flow"][0]
        np.testing.assert_allclose(flow, np.exp(-lams * 0.3) * v, rtol=1e-12)

    def test_zero_direction_stays_zero(self, rd16, rd16_callbacks):
        cfg = SchemeConfig(dt=2e-3, t_end=0.05)
        flow = simulate_batch(np.zeros(16), [0], cfg, rd16.spectrum.lambdas, rd16_callbacks,
                              NoiseStream(seed=5, width=16), v=np.zeros(16))["flow"][0]
        np.testing.assert_array_equal(flow, np.zeros(16))

    def test_finite_difference_consistency(self, rd16, rd16_callbacks):
        cfg = SchemeConfig(dt=2e-3, t_end=0.05)
        lams = rd16.spectrum.lambdas
        noise = NoiseStream(seed=41, width=16)
        x0 = np.zeros(16)
        v = np.zeros(16)
        v[0] = 1.0
        flow = simulate_batch(x0, [0], cfg, lams, rd16_callbacks, noise, v=v)["flow"][0]
        errs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            res = simulate_batch(eps * v, [0], cfg, lams, rd16_callbacks, noise, y0=x0)
            fd = (res["x"][0] - res["y"][0]) / eps
            errs.append(np.linalg.norm(fd - flow))
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] == pytest.approx(errs[0] / 2, rel=0.25)
        assert errs[2] == pytest.approx(errs[1] / 2, rel=0.25)

    def test_flow_linearity_bitwise(self, rd16, rd16_callbacks):
        # doubling v scales every linear update by an exact power of two
        cfg = SchemeConfig(dt=2e-3, t_end=0.04)
        lams = rd16.spectrum.lambdas
        noise = NoiseStream(seed=13, width=16)
        x0 = np.zeros(16)
        v = np.zeros(16)
        v[2] = 0.5
        f1 = simulate_batch(x0, [4], cfg, lams, rd16_callbacks, noise, v=v)["flow"][0]
        f2 = simulate_batch(x0, [4], cfg, lams, rd16_callbacks, noise, v=2 * v)["flow"][0]
        np.testing.assert_array_equal(f2, 2 * f1)

    def test_ou_tangent_is_zero(self, rng):
        # constant noise and no drift: the step does not depend on x
        x, dw, h = rng.normal(size=(3, 4, 8))
        dx, dh = diagonal_constant_diffusion(0.7).increment(x, dw, 1e-2, h)
        np.testing.assert_array_equal(dx, 0.7 * dw)
        np.testing.assert_array_equal(dh, np.zeros_like(h))


class TestCoupledPair:
    def test_equal_starts_stay_equal(self, rd16, rd16_callbacks):
        cfg = SchemeConfig(dt=2e-3, t_end=0.05)
        x0 = np.full(16, 0.1)
        res = simulate_batch(x0, [1], cfg, rd16.spectrum.lambdas, rd16_callbacks,
                             NoiseStream(seed=8, width=16), y0=x0)
        np.testing.assert_array_equal(res["x"][0], res["y"][0])

    def test_constant_sigma_difference_deterministic(self):
        lams = np.array([1.0, 3.0])
        cfg = SchemeConfig(dt=1e-3, t_end=0.5)
        x0 = np.array([1.0, 0.0])
        y0 = np.array([0.0, 2.0])
        res = simulate_batch(x0, [3], cfg, lams, diagonal_constant_diffusion(0.8),
                             NoiseStream(seed=17, width=2), y0=y0)
        np.testing.assert_allclose(res["x"][0] - res["y"][0], np.exp(-lams * 0.5) * (x0 - y0),
                                   rtol=1e-12, atol=1e-14)


class TestOuExact:
    def test_time_zero(self):
        mean, var = ou_exact(np.array([2.0, -1.0]), 0.0, np.array([1.0, 3.0]), 1.0)
        np.testing.assert_array_equal(mean, [2.0, -1.0])
        np.testing.assert_array_equal(var, [0.0, 0.0])

    def test_brownian_mode(self):
        _, var = ou_exact(np.zeros(1), 2.5, np.zeros(1), 0.7)
        assert var[0] == pytest.approx(0.7**2 * 2.5, rel=1e-15)

    def test_unit_rate(self):
        _, var = ou_exact(np.zeros(1), 1.0, np.ones(1), 1.0)
        assert var[0] == pytest.approx((1 - math.exp(-2)) / 2, rel=1e-12)
        assert var[0] == pytest.approx(0.432332, abs=1e-6)
