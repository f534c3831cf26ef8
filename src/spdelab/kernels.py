"""Regularity kernels, their time integrals, and the semigroup constants.

The drift and diffusion coefficients come with smoothing kernels K_b, K_sigma
controlling how much the semigroup contracts their Lipschitz action.  The
running integrals phi(t) = int_0^t K(s) ds determine a critical time t0 (the
largest t with phi_b + phi_sigma <= 1/6), and t0 in turn fixes every constant
in the gradient, log-Harnack, variance and Poincare bounds.

A profile pairs the two forms a model builds (no shared base class); ``Kernel`` is their union:

* ``ConstantKernel(c)``          K(t) = c^2            (Lipschitz drift)
* ``ModeSeriesKernel``           K(t) = w sum_m e^{-r_m t}: one weight (every rectangle
  eigenfunction has the same sup-norm) and explicit per-mode rates

``PowerSeriesKernel`` (K(t) = C sum_m m^k e^{-delta t m^p}, k in {0,1}) is built by no model;
it keeps only ``integral``, because perfbench's tracer names the class.  ``integral`` sums
term by term in closed form; ``epsilon_integral`` returns (finite?, value or inf).  ``value``
and ``integral`` take one time and return a float; bad input raises ``ValueError``.
All series are summed with integral-comparison tail bounds, so values are deterministic to
the truncation tolerance ``TRUNCATION_TOL``.  A constant whose power of 6 overflows a float
(t/t0 above about 395) is ``math.inf``: ``constants`` writes it as "inf", and a ``check``
whose bound is infinite fails its finiteness check (exit 3).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

LOG6 = math.log(6.0)
PHI_BUDGET = 1.0 / 6.0
TRUNCATION_TOL = 1e-12  # largest tail bound a truncated series may leave off
_MAX_TERMS = 5_000_000  # most terms a power-series integral sums


def _time(t: float, positive: bool = False) -> float:
    """The time t as a float, once checked (t > 0 where ``positive``, else t >= 0)."""
    t = float(t)
    if positive and t <= 0:
        raise ValueError("series kernels require t > 0 (series may diverge at 0)")
    if not positive and t < 0:
        raise ValueError("time must be non-negative")
    return t


def _mode_integral(w, r: np.ndarray, t: float) -> float:
    """sum_m w_m (1 - e^{-r_m t}) / r_m, the integral of sum_m w_m e^{-r_m s} over [0, t]."""
    return float(np.sum(w * -np.expm1(-r * t) / r))


@dataclass(frozen=True)
class ConstantKernel:
    """K(t) = c^2 for a Lipschitz constant c >= 0."""

    c: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("Lipschitz constant must be non-negative")

    def value(self, t):
        _time(t)
        return float(self.c**2)

    def integral(self, t):
        return float(self.c**2 * _time(t))

    def integral_to_inf(self) -> float:
        return 0.0 if self.c == 0 else math.inf


def _exp_series_tail(coef: float, rate: float, p: float, m_from: float) -> float:
    """Upper bound for sum_{m > m_from} coef * exp(-rate * m^p): the summand decreases in m, so
    the sum is at most int_{m_from}^inf coef e^{-rate x^p} dx, an upper incomplete gamma function.
    """
    from scipy import special

    if rate <= 0 or p <= 0:
        return math.inf
    a = 1.0 / p
    x = rate * m_from**p
    # int = coef / (p * rate^a) * Gamma(a) * Q(a, x)
    return coef / (p * rate**a) * special.gamma(a) * special.gammaincc(a, x)


@dataclass(frozen=True)
class PowerSeriesKernel:
    """K(t) = C sum_{m>=1} m^k e^{-delta t m^p} with k = 0 or 1.

    k = 0 is the uniformly-bounded-eigenfunction form; k = 1 carries the extra
    sqrt(m)^2 factor from the general-domain eigenfunction envelope.  No model builds this
    form; it stays only because perfbench's tracer names the class.
    """

    C: float
    delta: float
    p: float
    mode_factor: bool = False

    def __post_init__(self):
        if self.C <= 0 or self.delta <= 0 or self.p <= 0:
            raise ValueError("series kernel needs C, delta, p > 0")
        # the integral's tail past its term cap: warn once, naming the line that built the kernel
        q = self.p - self._k
        tail = self.C / (self.delta * (q - 1.0)) * _MAX_TERMS ** (1.0 - q) if q > 1.0 else 0.0
        if tail > TRUNCATION_TOL:
            warnings.warn(f"power-series integral tail bound {tail:.2e} above tolerance at "
                          f"the {_MAX_TERMS} term cap", stacklevel=3)

    @property
    def _k(self) -> int:
        return 1 if self.mode_factor else 0

    def integral(self, t):
        # phi terms are <= C/(delta m^p) (times m for k=1), so the tail past M
        # terms is <= C/(delta (q-1)) M^{1-q}; M is taken where that is below tol
        q = self.p - self._k
        if q <= 1.0:
            raise ValueError("kernel time-integral series diverges (exponent p too small "
                             "for this form); kernel is not integrable")
        M = (self.C / (self.delta * (q - 1.0) * TRUNCATION_TOL)) ** (1.0 / (q - 1.0))
        m = np.arange(1, int(min(max(M, 64), _MAX_TERMS)) + 2, dtype=float)
        return _mode_integral(self.C * m**self._k, self.delta * m**self.p, _time(t))


@dataclass(frozen=True)
class ModeSeriesKernel:
    """K(t) = w sum_m e^{-r_m t} from one weight w and explicit per-mode rates.

    ``rate_exponent`` is the asymptotic growth order of the rates
    (r_m ~ m^rate_exponent); it drives tail bounds past the stored modes and
    the integrability decisions.
    """

    weight: float
    rates: np.ndarray
    rate_exponent: float

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("rates must be a non-empty 1-d array")
        if not self.weight >= 0 or np.any(r <= 0):
            raise ValueError("weight must be >= 0 and rates > 0")
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "rates", np.sort(r))
        # the integral's tail depends on the stored modes only: warn once, naming
        # the line that built the kernel
        tail = self._integral_tail() if self.rate_exponent > 1.0 else 0.0
        if tail > TRUNCATION_TOL:
            warnings.warn(f"mode-series integral tail bound {tail:.2e} above tolerance; "
                          "store more modes", stacklevel=3)

    def _kappa(self) -> float:
        """Envelope r_m >= kappa m^p past the M stored modes, fit on the second half of them."""
        M = self.rates.size
        half = max(1, M // 2)
        m = np.arange(1, M + 1, dtype=float)
        with np.errstate(divide="ignore"):
            return float(np.min(self.rates[half - 1 :] / m[half - 1 :] ** self.rate_exponent))

    def value(self, t):
        t = _time(t, positive=True)
        head = float(np.sum(self.weight * np.exp(-self.rates * t)))
        tail = _exp_series_tail(self.weight, self._kappa() * t, self.rate_exponent,
                                self.rates.size)
        if tail > TRUNCATION_TOL:  # name the calling line
            warnings.warn(f"mode-series tail bound {tail:.2e} above tolerance at t={t}; "
                          "store more modes", stacklevel=2)
        return float(head + 0.5 * tail)

    def integral(self, t):
        if self.rate_exponent <= 1.0:
            raise ValueError("mode-series time integral diverges (rate growth too slow)")
        return _mode_integral(self.weight, self.rates, _time(t))

    def _integral_tail(self) -> float:
        q = self.rate_exponent
        return self.weight / self._kappa() * self.rates.size ** (1.0 - q) / (q - 1.0)

    def integral_to_inf(self) -> float:
        if self.rate_exponent <= 1.0:
            return math.inf
        head = float(np.sum(self.weight / self.rates))
        return head + 0.5 * self._integral_tail()

    def epsilon_integral(self, eps: float) -> tuple[bool, float]:
        from scipy import special

        if not 0.0 < eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        q = self.rate_exponent * (1.0 - eps)
        if q <= 1.0:
            return False, math.inf
        g = special.gamma(1.0 - eps)
        terms = self.weight * self.rates ** (eps - 1.0) * g * special.gammainc(1.0 - eps, self.rates)
        tail = (self.weight * g * self._kappa() ** (eps - 1.0) * self.rates.size ** (1.0 - q)
                / (q - 1.0))
        return True, float(terms.sum()) + 0.5 * tail


Kernel = ConstantKernel | ModeSeriesKernel

T0_HORIZON = 1e9
_T0_TOL = 1e-12


def _t0_from_kernels(kb: Kernel, ksigma: Kernel) -> tuple[float, bool]:
    """Critical time and whether it is exact (vs inferred at the horizon)."""
    def total(t):
        return kb.integral(t) + ksigma.integral(t)

    limit = kb.integral_to_inf() + ksigma.integral_to_inf()
    if limit <= PHI_BUDGET:
        return math.inf, True
    lo, hi = 0.0, 1.0
    while total(hi) <= PHI_BUDGET:
        lo, hi = hi, hi * 2.0
        if hi > T0_HORIZON:
            warnings.warn(
                "phi_b + phi_sigma stayed below 1/6 up to the search horizon; "
                "reporting t0 = inf from the horizon only", stacklevel=2)
            return math.inf, False
    # bisection: total is continuous and non-decreasing
    while hi - lo > _T0_TOL:
        mid = 0.5 * (lo + hi)
        if total(mid) <= PHI_BUDGET:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), True


@dataclass(frozen=True)
class RegularityProfile:
    """Kernels, ellipticity bounds, and the derived critical time t0."""

    Kb: Kernel
    Ksigma: Kernel
    lambda_sigma: float
    lambda_bar_sigma: float | None = None
    t0: float = field(init=False)
    t0_exact: bool = field(init=False)

    def __post_init__(self):
        # lambda_sigma = 0 is allowed at build time; only the checks that need
        # uniform ellipticity reject it.
        if self.lambda_sigma < 0:
            raise ValueError("lower ellipticity bound lambda(sigma) must be >= 0")
        if self.lambda_bar_sigma is not None and self.lambda_bar_sigma < self.lambda_sigma:
            raise ValueError("lambda_bar(sigma) must dominate lambda(sigma)")
        t0, exact = _t0_from_kernels(self.Kb, self.Ksigma)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t0_exact", exact)


def _six_to(x: float) -> float:
    """6^x, or inf where it overflows a float."""
    try:
        return 6.0**x
    except OverflowError:
        return math.inf


def gradient_constant(t: float, t0: float) -> float:
    """6^{1 + t/t0}; the constant collapses to 6 for t0 = inf."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if math.isinf(t0):
        return 6.0
    return _six_to(1.0 + t / t0)


def logharnack_constant(t: float, t0: float, lambda_sigma: float) -> float:
    """3 log6 / (lambda(sigma) t0 (1 - 6^{-t/t0})), with the t0 = inf limit 3/(lambda t)."""
    if t <= 0:
        raise ValueError("the log-Harnack constant needs t > 0")
    if lambda_sigma <= 0:
        raise ValueError("lambda(sigma) must be positive")
    if math.isinf(t0):
        return 3.0 / (lambda_sigma * t)
    return 3.0 * LOG6 / (lambda_sigma * t0 * (1.0 - 6.0 ** (-t / t0)))


def poincare_constant(t: float, t0: float, lambda_bar: float) -> float:
    """12 lambda_bar t0 (6^{t/t0} - 1)/log6, with the t0 = inf limit 12 lambda_bar t."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if lambda_bar is None or lambda_bar <= 0:
        raise ValueError("Poincare constant needs an upper ellipticity bound lambda_bar")
    if math.isinf(t0):
        return 12.0 * lambda_bar * t
    return 12.0 * lambda_bar * t0 * (_six_to(t / t0) - 1.0) / LOG6
