import math

import numpy as np
import pytest

from spdelab.montecarlo import MonteCarlo
from spdelab.noise import NoiseStream
from spdelab.reaction import (ReactionDiffusionModel, ScalarFunctionSpec,
                              build_callbacks, build_profile,
                              check_growth_condition, exact_Ksigma,
                              spot_check_lipschitz, spot_check_square_bounds)
from spdelab.spectral import EigenSpectrum, RectDomain, unit_interval

from oracles import steep_growth_epsilon_integral


def make_model(psi, phi_spec, n=8, q=32, alpha=2.0, domain=None):
    return ReactionDiffusionModel(domain=domain or unit_interval(), alpha=alpha,
                                  psi=psi, phi=phi_spec, n=n, quad_points=q)


ZERO = ScalarFunctionSpec.affine(0.0, 0.0)
IDENT = ScalarFunctionSpec.affine(1.0, 0.0)
SIN_PHI = ScalarFunctionSpec.sin_perturbed(1.0, 0.1, 1.0)
ATAN_PSI = ScalarFunctionSpec.atan_scaled(0.5)
CONST_PHI = ScalarFunctionSpec.affine(0.0, 0.7)


class TestScalarSpecs:
    def test_affine_metadata(self):
        s = ScalarFunctionSpec.affine(2.0, 1.0)
        assert s.lipschitz == 2.0
        assert s.sup_sq == math.inf
        assert spot_check_lipschitz(s)

    def test_sin_perturbed_bounds(self):
        assert SIN_PHI.lipschitz == pytest.approx(0.1)
        assert SIN_PHI.inf_sq == pytest.approx(0.81)
        assert SIN_PHI.sup_sq == pytest.approx(1.21)
        assert spot_check_square_bounds(SIN_PHI)

    def test_atan_scaled_bounds(self):
        assert ATAN_PSI.lipschitz == pytest.approx(0.5)
        assert ATAN_PSI.sup_sq == pytest.approx((0.5 * math.pi / 2) ** 2)
        assert spot_check_lipschitz(ATAN_PSI)

    def test_atan_scaled_derivative_at_huge_values(self):
        # the square overflows past |s| ~ 1e154; the derivative is then 0, silently
        np.testing.assert_array_equal(ATAN_PSI.deriv([1e160, -1e200, 0.0, 2.0])[1],
                                      [0.0, 0.0, 0.5, 0.1])

    @pytest.mark.parametrize("spec, value, slope, value_tol, slope_tol", [
        (ScalarFunctionSpec.affine(2.0, -1.0), lambda s: 2.0 * s - 1.0,
         lambda s: np.full_like(s, 2.0), 0.0, 0.0),
        (ATAN_PSI, lambda s: 0.5 * np.arctan(s), lambda s: 0.5 / (1.0 + s**2), 0.0, 0.0),
        # the half-angle tangent against libm's sin and cos
        (SIN_PHI, lambda s: 1.0 + 0.1 * np.sin(s), lambda s: 0.1 * np.cos(s),
         2.0**-52, 2.0**-55),
    ], ids=["affine", "atan_scaled", "sin_perturbed"])
    def test_deriv_returns_value_and_slope(self, spec, value, slope, value_tol, slope_tol):
        def bits(a):
            return np.asarray(a, float).view(np.uint64)

        rng = np.random.default_rng(3)
        mags = np.logspace(math.log10(0.3), 300.0, 6001)
        # +-pi puts tan(s/2) near 1.6e16; inf and nan must come out as libm's
        s = np.concatenate([rng.choice([-1.0, 1.0], mags.size) * mags,
                            [math.pi, -math.pi, math.inf, -math.inf, math.nan]])
        with np.errstate(over="ignore", invalid="ignore"):
            got_value, got_slope = spec.deriv(s)
            np.testing.assert_array_equal(bits(got_value), bits(spec.fn(s)))
            np.testing.assert_allclose(got_value, value(s), rtol=0, atol=value_tol)
            np.testing.assert_allclose(got_slope, slope(s), rtol=0, atol=slope_tol)
        # an element's bits do not depend on its place in the array, even in
        # a SIMD tail: every length from 1 to 17 at every offset matches
        long = rng.normal(scale=3.0, size=40)
        whole = [bits(a) for a in spec.deriv(long)]
        for n in range(1, 18):
            for start in range(long.size - n + 1):
                part = spec.deriv(long[start:start + n].copy())
                for got, ref in zip(part, whole):
                    np.testing.assert_array_equal(bits(got), ref[start:start + n])

    def test_lipschitz_spot_check_catches_lies(self):
        bad = ScalarFunctionSpec.custom(lambda s: 10 * s, lipschitz=1.0, inf_sq=0.0,
                                        sup_sq=math.inf, deriv=lambda s: np.full_like(s, 10.0),
                                        growth_sq_slope=100.0)
        assert not spot_check_lipschitz(bad)


class TestModelValidation:
    def test_alpha_threshold(self):
        with pytest.raises(ValueError, match=r"alpha = 0\.5 must exceed d/2 = 0\.5"):
            make_model(ZERO, CONST_PHI, alpha=0.5)

    def test_dealiasing_floor(self):
        with pytest.raises(ValueError, match=r"quad_points must be >= 2n per dimension"):
            make_model(ZERO, CONST_PHI, n=8, q=8)


def drift(cb, x):
    """b(x): the step's increment of one state lane with no noise over unit time."""
    return cb.increment(x[None], np.zeros_like(x), 1.0)[0]


def diffusion(cb, x, w):
    """sigma(x) w: the step's increment of one state lane over zero time."""
    return cb.increment(x[None], w, 0.0)[0]


# each spec with a bound on |g'''|: 0 for affine, |amp| freq^3 for
# c0 + amp sin(freq s), 2|a| for a arctan(s)
TANGENT_SPECS = {"affine": (ScalarFunctionSpec.affine(0.7, -0.2), 0.0),
                 "sin_perturbed": (ScalarFunctionSpec.sin_perturbed(1.0, 0.3, 2.0), 0.3 * 2.0**3),
                 "atan_scaled": (ScalarFunctionSpec.atan_scaled(0.5), 2 * 0.5)}


class TestCallbacks:
    def test_zero_drift(self, rng):
        cb = build_callbacks(make_model(ZERO, CONST_PHI))
        x = rng.normal(size=(3, 8))
        np.testing.assert_array_equal(drift(cb, x), np.zeros_like(x))

    def test_identity_drift_exact(self, rng):
        # band-limited state, affine psi: quadrature projection is exact
        cb = build_callbacks(make_model(IDENT, CONST_PHI))
        x = rng.normal(size=(4, 8))
        np.testing.assert_allclose(drift(cb, x), x, atol=1e-12)

    def test_identity_drift_exact_2d(self, rng):
        sq = RectDomain(sides=((0.0, 1.0), (0.0, 2.0)))
        cb = build_callbacks(make_model(IDENT, CONST_PHI, n=6, q=16, alpha=2.0,
                                        domain=sq))
        x = rng.normal(size=(2, 6))
        np.testing.assert_allclose(drift(cb, x), x, atol=1e-12)

    def test_constant_phi_additive_noise(self, rng):
        cb = build_callbacks(make_model(ZERO, CONST_PHI))
        x = rng.normal(size=(3, 8))
        w = rng.normal(size=(3, 8))
        np.testing.assert_allclose(diffusion(cb, x, w), 0.7 * w, atol=1e-12)

    def test_affine_offset_projects_constant_function(self):
        # psi == 1: drift coefficients approach the sine expansion of the
        # constant 1 as the quadrature grid refines (1 is not band-limited)
        m = np.arange(1, 9)
        expect = np.sqrt(2.0) * (1 - (-1.0) ** m) / (m * np.pi)
        psi1 = ScalarFunctionSpec.affine(0.0, 1.0)
        errs = []
        for q in (64, 256, 1024):
            cb = build_callbacks(make_model(psi1, CONST_PHI, q=q))
            out = drift(cb, np.zeros((1, 8)))[0]
            errs.append(float(np.max(np.abs(out - expect))))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 2e-3

    @pytest.mark.parametrize("sides, n, q", [
        (((0.0, 1.0), (0.5, 2.5)), 6, 12),                  # non-square rectangle
        (((0.0, 1.0), (0.0, 1.2), (-1.0, -0.1)), 6, 12),   # every axis index varies
    ])
    def test_table_layout_matches_eigenfunctions(self, sides, n, q):
        # the synthesized unit vector e_k is the eigenfunction of modes[k] at
        # every grid point: an axis-order error in the table would break this
        model = make_model(ZERO, CONST_PHI, n=n, q=q, domain=RectDomain(sides=sides))
        cb = build_callbacks(model)
        a = np.array([lo for lo, _ in sides])
        L = model.domain.lengths
        for k, m in enumerate(model.spectrum.modes):
            grid, vals = cb.field_on_grid(np.eye(n)[k])
            # e_m(xi) = prod_i sqrt(2/L_i) sin(m_i pi (xi_i - a_i)/L_i)
            expect = np.prod(np.sqrt(2.0 / L) * np.sin(m * np.pi * (grid - a) / L), axis=1)
            np.testing.assert_allclose(vals, expect, rtol=0, atol=1e-13)

    def test_increment_composes_part_maps(self, rng):
        cb = build_callbacks(make_model(ATAN_PSI, SIN_PHI, n=8, q=32))
        x, dw, h = rng.normal(size=(3, 5, 8))
        dt = 1e-3
        lanes = np.stack([x, h])
        dx, dh = cb.increment(lanes, dw, dt, flow=True)
        np.testing.assert_allclose(dx, drift(cb, x) * dt + diffusion(cb, x, dw),
                                   rtol=0, atol=1e-14)
        # the drift tangent is the step along h over unit time without noise,
        # the diffusion tangent the step along h over zero time
        np.testing.assert_allclose(
            dh, (cb.increment(lanes, np.zeros_like(x), 1.0, flow=True)[1] * dt
                 + cb.increment(lanes, dw, 0.0, flow=True)[1]),
            rtol=0, atol=1e-14)
        # without the flow lane the step returns the state lane alone
        state_only = cb.increment(x[None], dw, dt)
        np.testing.assert_array_equal(state_only[0], dx)
        assert state_only.shape == (1,) + x.shape

    def test_every_lane_steps_alone(self, rng):
        # a state lane's increment is the one it gets as the only lane, bit for
        # bit, and the flow lane's is the one along lane 0
        cb = build_callbacks(make_model(ATAN_PSI, SIN_PHI))
        x, y, dw, h = rng.normal(size=(4, 5, 8))
        pair = cb.increment(np.stack([x, y]), dw, 1e-3)
        for lane, d in zip((x, y), pair):
            np.testing.assert_array_equal(d, cb.increment(lane[None], dw, 1e-3)[0])
        tangent = cb.increment(np.stack([x, h]), dw, 1e-3, flow=True)[1]
        np.testing.assert_array_equal(cb.increment(np.stack([x, y, h]), dw, 1e-3, flow=True),
                                      np.stack([pair[0], pair[1], tangent]))

    def test_coefficient_returning_its_input(self, rng):
        # fn = identity hands the step its own field u: writing over what a
        # coefficient returns would change u for the other coefficient
        same = ScalarFunctionSpec.custom(lambda s: s, lipschitz=1.0, inf_sq=0.0,
                                         sup_sq=math.inf, deriv=np.ones_like,
                                         growth_sq_slope=1.0)
        x, dw, h = rng.normal(size=(3, 5, 8))
        for lanes, flow in ((x[None], False), (np.stack([x, h]), True)):
            got = build_callbacks(make_model(same, same)).increment(lanes, dw, 1e-3, flow)
            ref = build_callbacks(make_model(IDENT, IDENT)).increment(lanes, dw, 1e-3, flow)
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("psi", TANGENT_SPECS)
    @pytest.mark.parametrize("phi", TANGENT_SPECS)
    @pytest.mark.parametrize("sides, n, q", [(((0.0, 1.0),), 8, 32),
                                             (((0.0, 1.0), (0.0, 2.0)), 6, 16)],
                             ids=["1d", "2d"])
    def test_tangent_is_the_derivative(self, psi, phi, sides, n, q, rng):
        (psi, psi3), (phi, phi3) = TANGENT_SPECS[psi], TANGENT_SPECS[phi]
        model = make_model(psi, phi, n=n, q=q, domain=RectDomain(sides=sides))
        cb = build_callbacks(model)
        x, dw, h = rng.normal(size=(3, 4, n))
        dt, eps = 0.3, 1e-4
        dh = cb.increment(np.stack([x, h]), dw, dt, flow=True)[1]
        ahead, behind = cb.increment(np.stack([x + eps * h, x - eps * h]), dw, dt)
        central = (ahead - behind) / (2 * eps)
        # Taylor: at each grid point the quotient is off by at most
        # eps^2/6 (|psi'''| dt + |phi'''| |w|) |h|^3.  A field with coefficients c
        # is at most E |c|_1 anywhere (E = sup |e_k| = prod sqrt(2/L_i)), and
        # projecting a field bounded by B gives coefficients of at most |D| E B.
        # Rounding in the two steps, divided by 2 eps, is allowed 2^-42/eps.
        E = np.sqrt(np.prod(2.0 / model.domain.lengths))
        w_max, h_max = E * np.abs(np.stack([dw, h])).sum(axis=-1, keepdims=True)
        tol = (eps**2 / 6 * (psi3 * dt + phi3 * w_max) * h_max**3
               * np.prod(model.domain.lengths) * E + 2.0**-42 / eps)
        assert np.all(np.abs(central - dh) <= tol)


class TestExactKsigma:
    def test_value_oracle(self):
        model = make_model(ZERO, ScalarFunctionSpec.sin_perturbed(1.0, 0.1, 1.0))
        k = exact_Ksigma(model)
        # c = 0.1, d = 1: K(t) = sum_m 2 c^2 e^{-2 (m pi)^4 t}
        t = 0.001
        m = np.arange(1, 200)
        direct = float(np.sum(2 * 0.01 * np.exp(-2 * (m * np.pi) ** 4 * t)))
        assert k.value(t) == pytest.approx(direct, rel=1e-10)
        assert k.value(t) == pytest.approx(0.01735, abs=5e-5)

    def test_rates_are_the_galerkin_eigenvalues(self, rd16):
        # K_sigma's first n rates are 2 lambda of the model's own spectrum, bit for bit
        square = make_model(ZERO, SIN_PHI, n=16, q=32, domain=RectDomain(((0, 1), (0, 1))))
        with pytest.warns(UserWarning, match="integral tail bound"):
            square_k = exact_Ksigma(square)
        for model, k in ((rd16, exact_Ksigma(rd16)), (square, square_k)):
            np.testing.assert_array_equal(k.rates[:model.n], 2 * model.spectrum.lambdas)

    @pytest.mark.parametrize("sides, alpha", [
        (((0, 1), (0, 1)), 2.0), (((0, 1), (0, 2)), 1.5), (((0, 1), (0, 2)), 2.0),
    ], ids=["square-2", "1x2-1.5", "1x2-2"])
    def test_kappa_bounds_every_rate(self, sides, alpha):
        # Polya's bound holds past the stored modes too: no rate among 4x as many lies
        # below kappa m^p (a fit on the stored modes' second half left 11,385 of modes
        # 4,097-16,384 below it on the unit square at alpha = 2)
        model = make_model(ZERO, SIN_PHI, alpha=alpha, domain=RectDomain(sides))
        with pytest.warns(UserWarning, match="integral tail bound"):
            k = exact_Ksigma(model)
        rates = 2.0 * EigenSpectrum.synthesize(model.domain, alpha, 4 * k.rates.size).lambdas
        m = np.arange(1, rates.size + 1, dtype=float)
        assert np.all(rates >= k.kappa * m**k.rate_exponent)

    @pytest.mark.parametrize("L", [1.0, 2.5, 100.0])
    @pytest.mark.parametrize("alpha", [0.6, 2.0, 2.7])
    def test_kappa_in_1d(self, L, alpha):
        # omega_1 |Omega| = 2L: kappa = 2 (pi / L)^(2 alpha), the exact envelope of 2 lambda_m
        k = exact_Ksigma(make_model(ZERO, CONST_PHI, alpha=alpha, domain=RectDomain(((0, L),))))
        assert k.kappa == pytest.approx(2 * (math.pi / L) ** (2 * alpha), rel=1e-13)

    def test_constant_phi_zero_kernel(self):
        k = exact_Ksigma(make_model(ZERO, CONST_PHI))
        assert k.value(0.5) == 0.0

    def test_full_integral(self):
        k = exact_Ksigma(make_model(ZERO, SIN_PHI))
        assert k.integral_to_inf() == pytest.approx(0.1**2 / 90.0, rel=1e-9)

    def test_hs_upper_bound_witness(self, rng):
        model = make_model(ATAN_PSI, SIN_PHI, n=8, q=64)
        cb = build_callbacks(model)
        lams = model.spectrum.lambdas
        k = exact_Ksigma(model)
        grid, _ = cb.field_on_grid(np.zeros(8))
        q = grid.shape[0]
        m = np.arange(1, 9)
        basis = np.sqrt(2.0) * np.sin(np.outer(grid[:, 0] if grid.ndim > 1 else grid,
                                               m * np.pi))
        for _ in range(100):
            x, y = rng.normal(size=(2, 8))
            _, ux = cb.field_on_grid(x)
            _, uy = cb.field_on_grid(y)
            dphi = SIN_PHI.fn(ux) - SIN_PHI.fn(uy)
            for t in (0.001, 0.01, 0.1):
                hs = sum(math.exp(-2 * lams[i] * t)
                         * float(np.sum((dphi * basis[:, i]) ** 2)) / (q + 1)
                         for i in range(8))
                bound = k.value(t) * float(np.sum((x - y) ** 2))
                assert hs <= bound * (1 + 1e-9) + 1e-15


class TestProfile:
    def test_canonical_t0(self):
        model = make_model(ATAN_PSI, ScalarFunctionSpec.sin_perturbed(1.0, 0.1, 1.0))
        prof = build_profile(model)
        # phi_b = 0.25 t dominates; phi_sigma(inf) = 0.01^2... = 1e-2/90 approx 1.11e-4
        approx = (1.0 / 6.0 - 0.1**2 / 90.0) / 0.25
        assert prof.t0 == pytest.approx(approx, abs=1e-6)
        assert prof.t0 == pytest.approx(0.6662, abs=1e-4)

    def test_fine_grid_scan_agreement(self):
        model = make_model(ATAN_PSI, SIN_PHI)
        prof = build_profile(model)
        ts = np.arange(0.6655, 0.6670, 1e-6)
        total = np.array([prof.Kb.integral(t) + prof.Ksigma.integral(t) for t in ts])
        scan = ts[np.searchsorted(total, 1.0 / 6.0)]
        assert abs(prof.t0 - scan) < 1e-5

    def test_zero_coefficients_give_infinite_t0(self):
        prof = build_profile(make_model(ZERO, CONST_PHI))
        assert prof.t0 == math.inf

    def test_ellipticity_bounds(self):
        prof = build_profile(make_model(ATAN_PSI, SIN_PHI))
        assert prof.lambda_sigma == pytest.approx(0.81)
        assert prof.lambda_bar_sigma == pytest.approx(1.21)

    def test_unbounded_phi_has_no_upper_bound(self):
        prof = build_profile(make_model(ZERO, IDENT))
        assert prof.lambda_bar_sigma is None


class TestAlphaThreshold:
    def test_rectangle_kernel_finite(self):
        k = exact_Ksigma(make_model(ZERO, SIN_PHI))  # alpha = 2, d = 1
        finite, value = k.epsilon_integral(0.5)
        assert finite and math.isfinite(value)

    def test_ka_form_at_alpha_equals_d(self):
        from spdelab.kernels import PowerSeriesKernel
        k = PowerSeriesKernel(C=1.0, delta=1.0, p=2.0, mode_factor=True)
        finite, value = steep_growth_epsilon_integral(k, 0.3)
        assert not finite and value == math.inf


class TestGrowthCondition:
    def test_bounded_model_holds(self):
        model = make_model(ATAN_PSI, SIN_PHI)
        assert check_growth_condition(model, 0.01, 1.83)

    def test_linear_psi_needs_unit_slope(self):
        model = make_model(IDENT, SIN_PHI)
        assert not check_growth_condition(model, 0.5, 2.0)
        assert check_growth_condition(model, 1.1, 2.0)

    def test_zero_model(self):
        assert check_growth_condition(make_model(ZERO, ZERO), 0.01, 0.01)

    def test_violation_past_the_sampled_range(self):
        # (s + 1)^2 - (1.0001 s^2 + 3001) = 1e-4 (s - 1633)(18367 - s) is positive only for
        # 1633 < s < 18367, outside |s| <= 1e3; the envelope radius 18367 widens the grid
        model = make_model(ZERO, ScalarFunctionSpec.affine(1.0, 1.0), n=16, q=64)
        assert not check_growth_condition(model, 1.0001, 3001.0)
        # with C0 = 1e5 the quadratic has no real root: it holds everywhere
        assert check_growth_condition(model, 1.0001, 1e5)

    def test_envelope_slope_equal_to_eps0(self):
        # phi = s: s^2 <= s^2 + C0 holds; phi = s + 1 leaves 2s + 1 - C0, which grows
        assert check_growth_condition(make_model(ZERO, IDENT), 1.0, 0.5)
        assert not check_growth_condition(make_model(ZERO, ScalarFunctionSpec.affine(1.0, 1.0)),
                                          1.0, 1e6)


class TestMomentHarness:
    def test_zero_horizon(self):
        model = make_model(ATAN_PSI, SIN_PHI)
        x0 = 0.1 * np.ones(8)
        mc = MonteCarlo(model.spectrum.lambdas, build_callbacks(model),
                        NoiseStream(seed=1, width=8), dt=1e-2)
        rows = mc.second_moment_curve(x0, 0.0, [0.0], 16)
        assert rows == [(0.0, pytest.approx(float(np.sum(x0**2))), 0.0)]
