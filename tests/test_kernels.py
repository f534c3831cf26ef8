import inspect
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spdelab
from spdelab import presets
from spdelab.kernels import (ConstantKernel, ModeSeriesKernel,
                             PowerSeriesKernel, RegularityProfile, gradient_constant,
                             logharnack_constant, poincare_constant)

from oracles import logharnack_constant_from_phi

LOG6 = math.log(6.0)


def mode_series_d1(c: float, alpha: float, n_modes: int = 4096) -> ModeSeriesKernel:
    m = np.arange(1, n_modes + 1, dtype=float)
    return ModeSeriesKernel(weight=2 * c**2, rates=2 * (m * np.pi) ** (2 * alpha),
                            rate_exponent=2 * alpha)


def power_series_value(C: float, delta: float, p: float, t: float) -> float:
    """K(t) = sum_m C e^{-delta t m^p} summed over m <= 10^4, an oracle for PowerSeriesKernel."""
    terms = C * np.exp(-delta * t * np.arange(1, 10_001, dtype=float) ** p)
    assert terms[-1] == 0.0  # the tail past 10^4 modes underflows: the sum is the series
    return float(terms.sum())


class TestKernelValues:
    def test_constant(self):
        assert ConstantKernel(2.0).value(5.0) == 4.0

    def test_mode_series_value(self):
        # independent oracle: direct summation until the term drops below 1e-16
        k = mode_series_d1(0.1, 2.0)
        t = 0.001
        m, total = 1, 0.0
        while True:
            term = 2 * 0.01 * math.exp(-2 * (m * math.pi) ** 4 * t)
            total += term
            if term < 1e-16:
                break
            m += 1
        got = k.value(t)
        assert got == pytest.approx(total, rel=1e-10)
        assert got == pytest.approx(0.01735, abs=5e-5)

    def test_series_rejects_t_zero(self):
        with pytest.raises(ValueError, match=r"series kernels require t > 0"):
            mode_series_d1(0.1, 2.0).value(0.0)

    def test_monotone_nonincreasing(self):
        grid = np.linspace(0.01, 2.0, 40)
        with pytest.warns(UserWarning, match="integral tail bound"):
            few_modes = mode_series_d1(0.3, 1.0, 512)
        for k in (ConstantKernel(1.5), mode_series_d1(1.0, 2.0), few_modes):
            vals = np.array([k.value(t) for t in grid])
            assert np.all(np.diff(vals) <= 1e-15)


class TestPhi:
    def test_constant_linear(self):
        assert ConstantKernel(1.0).integral(0.5) == pytest.approx(0.5, rel=1e-15)

    def test_zero_at_zero(self):
        for k in (ConstantKernel(3.0), PowerSeriesKernel(C=1.0, delta=1.0, p=4.0)):
            assert k.integral(0.0) == 0.0

    def test_phi_matches_quadrature(self):
        from scipy.integrate import quad
        k = PowerSeriesKernel(C=1.0, delta=2.0, p=4.0)
        for t in (0.1, 0.7):
            ref, _ = quad(lambda s: power_series_value(1.0, 2.0, 4.0, s), 1e-12, t, limit=200)
            assert k.integral(t) == pytest.approx(ref, rel=1e-8)

    def test_nondecreasing_and_concave(self):
        grid = np.linspace(0.0, 2.0, 60)
        for k in (PowerSeriesKernel(C=1.0, delta=1.0, p=4.0),
                  mode_series_d1(0.2, 2.0, 1024)):
            vals = np.array([k.integral(t) for t in grid])
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-15)
            assert np.all(np.diff(diffs) <= 1e-12)


def test_integral_tail_warned_once():
    # importing scipy.special (by value) resets the warning registry, so the
    # count is taken in a fresh process
    script = "\n".join([
        "import numpy as np",
        "from spdelab.kernels import ModeSeriesKernel",
        "m = np.arange(1, 4097, dtype=float)",
        "k = ModeSeriesKernel(weight=1.0, rates=2 * (m * np.pi) ** 1.2,",
        "                     rate_exponent=1.2)",
        "k.integral(0.1), k.value(0.1), k.integral(0.2)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(spdelab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("mode-series integral tail bound") == 1
    # the warning names the line that built the kernel
    assert "<string>:4: UserWarning: mode-series integral tail bound" in proc.stderr


def test_unsorted_rates_keep_their_weights():
    # the kernel sorts its rates, which the tail envelope reads in order; the one weight
    # belongs to every rate
    with pytest.warns(UserWarning, match="tail bound"):  # two modes leave a large tail
        unsorted = ModeSeriesKernel(weight=2.0, rates=[10.0, 1.0], rate_exponent=3.0)
        ordered = ModeSeriesKernel(weight=2.0, rates=[1.0, 10.0], rate_exponent=3.0)
        for method, arg in ((ModeSeriesKernel.value, 0.5), (ModeSeriesKernel.integral, 1.0),
                            (ModeSeriesKernel.epsilon_integral, 0.5)):
            assert method(unsorted, arg) == method(ordered, arg)
    assert unsorted.integral_to_inf() == ordered.integral_to_inf()
    assert unsorted.integral(1.0) == pytest.approx(2 * -math.expm1(-1) + 0.2 * -math.expm1(-10))


def test_value_tail_warning_names_calling_line():
    # rates growing like m leave a value tail far above tolerance at every t
    k = ModeSeriesKernel(weight=1.0, rates=np.arange(1.0, 9.0), rate_exponent=1.0)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        k.value(0.1), k.value(0.2), k.value(0.3)
    assert [str(w.message).split(" at ")[1] for w in rec] == [
        "t=0.1; store more modes", "t=0.2; store more modes", "t=0.3; store more modes"]
    assert {(w.filename, w.lineno) for w in rec} == {(__file__, line)}


def test_power_series_term_cap_warns_once():
    # at p = 2.1 the integral's tail past the 5e6 term cap is ~3.9e-8; at p = 4
    # the tolerance is met long before the cap
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        k = PowerSeriesKernel(C=1.0, delta=1.0, p=2.1)
        k.integral(1.0), k.integral(2.0)
        PowerSeriesKernel(C=1.0, delta=1.0, p=4.0).integral(1.0)
    assert [(w.filename, w.lineno) for w in rec] == [(__file__, line)]
    assert "power-series integral tail bound 3.89e-08" in str(rec[0].message)


class TestCriticalTime:
    def test_constant_simple(self):
        p = RegularityProfile(Kb=ConstantKernel(1.0), Ksigma=ConstantKernel(0.0),
                              lambda_sigma=1.0)
        assert p.t0 == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_constant_pair(self):
        p = RegularityProfile(Kb=ConstantKernel(2.0), Ksigma=ConstantKernel(1.0),
                              lambda_sigma=1.0)
        assert p.t0 == pytest.approx(1.0 / 30.0, abs=1e-9)

    def test_infinite_t0(self):
        p = RegularityProfile(Kb=ConstantKernel(0.0),
                              Ksigma=mode_series_d1(0.1, 2.0),
                              lambda_sigma=1.0)
        assert p.t0 == math.inf

    def test_defining_property(self, rd16_profile):
        for prof in (rd16_profile,
                     RegularityProfile(Kb=ConstantKernel(1.0),
                                       Ksigma=ConstantKernel(0.5), lambda_sigma=1.0)):
            t0 = prof.t0
            h = 1e-9
            below = prof.Kb.integral(t0 - h) + prof.Ksigma.integral(t0 - h)
            above = prof.Kb.integral(t0 + h) + prof.Ksigma.integral(t0 + h)
            assert below <= 1.0 / 6.0 + 1e-12
            assert above >= 1.0 / 6.0 - 1e-12


class TestConstants:
    def test_gradient_values(self):
        assert gradient_constant(0.0, 1.0) == pytest.approx(6.0, rel=1e-15)
        assert gradient_constant(0.7, 0.7) == pytest.approx(36.0, rel=1e-14)
        assert gradient_constant(100.0, math.inf) == 6.0

    def test_logharnack_values(self):
        assert logharnack_constant(2.0, math.inf, 1.0) == pytest.approx(1.5, rel=1e-15)
        t0 = 1.0 / 6.0
        assert logharnack_constant(t0, t0, 1.0) == pytest.approx(108.0 / 5.0 * LOG6, rel=1e-14)
        assert logharnack_constant(t0, t0, 1.0) == pytest.approx(38.70, abs=5e-3)

    def test_logharnack_linear_in_inverse_lambda(self):
        a = logharnack_constant(0.3, 0.9, 1.0)
        b = logharnack_constant(0.3, 0.9, 2.0)
        assert a == pytest.approx(2 * b, rel=1e-15)

    def test_poincare_values(self):
        assert poincare_constant(0.0, 1.0, 1.0) == 0.0
        assert poincare_constant(3.0, math.inf, 1.0) == pytest.approx(36.0, rel=1e-15)
        assert poincare_constant(1.0, 1.0, 1.0) == pytest.approx(60.0 / LOG6, rel=1e-14)

    def test_overflowing_power_is_inf(self):
        # 6^{1+t/t0} overflows a float once t/t0 passes about 395
        assert gradient_constant(1.0, 1e-300) == math.inf
        assert poincare_constant(1.0, 1e-300, 1.0) == math.inf
        t0 = 1.0 / 390
        assert gradient_constant(1.0, t0) == 6.0 ** (1.0 + 1.0 / t0)
        assert poincare_constant(1.0, t0, 2.0) == 24.0 * t0 * (6.0 ** (1.0 / t0) - 1.0) / LOG6

    def test_logharnack_rejects_t_zero(self):
        with pytest.raises(ValueError, match=r"the log-Harnack constant needs t > 0"):
            logharnack_constant(0.0, 1.0, 1.0)

    def test_limit_consistency(self):
        # error against the infinite-t0 form shrinks like t/t0: halves as t0 doubles
        t, lam = 0.5, 1.3
        limit = 3.0 / (lam * t)
        errs = [abs(logharnack_constant(t, t0, lam) - limit)
                for t0 in (100.0, 200.0, 400.0, 800.0, 1600.0)]
        for a, b in zip(errs, errs[1:]):
            assert b == pytest.approx(a / 2, rel=0.02)

    def test_scaling_invariance(self):
        # scaling (Kb, Ks) -> (a Kb, a Ks) sends t0 -> t0/a; the gradient
        # constant at t/a is then unchanged
        for a in (2.0, 5.0, 0.25):
            p1 = RegularityProfile(Kb=ConstantKernel(1.0), Ksigma=ConstantKernel(1.0),
                                   lambda_sigma=1.0)
            p2 = RegularityProfile(Kb=ConstantKernel(math.sqrt(a)),
                                   Ksigma=ConstantKernel(math.sqrt(a)),
                                   lambda_sigma=1.0)
            assert p2.t0 == pytest.approx(p1.t0 / a, rel=1e-9)
            t = 0.04
            assert gradient_constant(t / a, p2.t0) == pytest.approx(
                gradient_constant(t, p1.t0), rel=1e-9)

    @pytest.mark.parametrize("t", [0.05, 0.2, 1.0])
    def test_ou_closed_form_sharpness(self, t):
        # ou8 has t0 = inf and lambda = lambda_bar = 1.  For f = u_1 and v = e1 every lhs has a
        # closed form: X_t^1 is Gaussian with mean e^{-lam1 t} x_1 and variance s1, and the
        # log-Harnack gap's supremum over f is the relative entropy between the laws from 0
        # and from e1
        prof = presets.ou_moments_preset().profile()
        assert prof.t0 == math.inf and prof.lambda_sigma == prof.lambda_bar_sigma == 1.0
        lam1 = 0.5
        e = math.exp(-2 * lam1 * t)
        s1 = (1 - e) / (2 * lam1)
        lh = logharnack_constant(t, prof.t0, prof.lambda_sigma)
        ratios = {"gradient": e / gradient_constant(t, prof.t0),
                  "variance": e / (lh * s1),
                  "poincare": s1 / poincare_constant(t, prof.t0, prof.lambda_bar_sigma),
                  "logharnack": lam1 * e / (1 - e) / lh}
        # each bound holds, and a constant 30 times too small would not
        for name, ratio in ratios.items():
            assert 1 / 30 < ratio <= 1, (name, ratio)


class TestLogHarnackFromPhi:
    def test_closed_form_crosscheck(self):
        got = logharnack_constant_from_phi(1.0, 1.0, 1.0)
        assert got == pytest.approx(3.6 * LOG6, rel=1e-10)
        assert got == pytest.approx(6.450, abs=5e-4)

    def test_constant_integrand(self):
        assert logharnack_constant_from_phi(math.inf, 2.0, 1.0) == pytest.approx(1.5, rel=1e-12)

    def test_grid_identity(self):
        for t0 in (0.05, 0.8, 7.0):
            for t in (0.01, 0.5, 3.0):
                for lam in (0.3, 2.0):
                    q = logharnack_constant_from_phi(t0, t, lam)
                    c = logharnack_constant(t, t0, lam)
                    assert q == pytest.approx(c, rel=1e-8)


class TestProfileValidation:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match=r"lambda\(sigma\) must be >= 0"):
            RegularityProfile(Kb=ConstantKernel(0.0), Ksigma=ConstantKernel(0.0),
                              lambda_sigma=-1.0)

    def test_zero_lambda_allowed(self):
        p = RegularityProfile(Kb=ConstantKernel(0.0), Ksigma=ConstantKernel(0.0),
                              lambda_sigma=0.0)
        assert p.t0 == math.inf

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match=r"must dominate lambda\(sigma\)"):
            RegularityProfile(Kb=ConstantKernel(0.0), Ksigma=ConstantKernel(0.0),
                              lambda_sigma=2.0, lambda_bar_sigma=1.0)
