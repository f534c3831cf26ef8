"""Independent references the tests check the program against; no program code calls them."""
import itertools
import math

import numpy as np
from scipy import integrate

from spdelab.kernels import PowerSeriesKernel


def logharnack_constant_from_phi(t0: float, t: float, lambda_sigma: float) -> float:
    """Log-Harnack constant re-derived by quadrature of the gradient envelope.

    With Phi(s) = 6^{1+s/t0}, the constant is 1 / (2 lambda int_0^t Phi(s)^{-1} ds).
    Must agree with ``kernels.logharnack_constant`` to quadrature accuracy (criterion 1).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if math.isinf(t0):
        integrand = lambda s: 1.0 / 6.0  # noqa: E731
    else:
        integrand = lambda s: 6.0 ** (-(1.0 + s / t0))  # noqa: E731
    val, err = integrate.quad(integrand, 0.0, t, epsabs=1e-14, epsrel=1e-12, limit=200)
    if not math.isfinite(val) or val <= 0 or err > max(1e-10, 1e-8 * val):
        raise ValueError("quadrature of the gradient envelope did not converge")
    return 1.0 / (2.0 * lambda_sigma * val)


def steep_growth_epsilon_integral(k: PowerSeriesKernel, eps: float) -> tuple[bool, float]:
    """(finite?, value or inf) of int_0^1 s^{-eps} K(s) ds for a power-series kernel, decided
    on its divergent side only (criterion 7's steep-growth reference).

    The m-th term is C m^k (delta m^p)^{eps-1} gamma(1-eps, delta m^p), of order m^{k-p(1-eps)},
    so the series diverges iff p(1-eps) - k <= 1.  No test reads a convergent value.
    """
    if k.p * (1.0 - eps) - (1 if k.mode_factor else 0) > 1.0:
        raise ValueError("the steep-growth rule decides only the divergent side")
    return False, math.inf


def sorted_box_modes(lengths, n: int):
    """(modes (n, d), mu (n,)): the first n Dirichlet multi-indices of the box with side
    ``lengths``, by a brute-force sort of every index of a box of indices large enough to
    hold them, on mu = sum_i (m_i pi / L_i)^2 with lexicographic ties.  No alpha enters."""
    def mu(m):  # x * x, the square numpy's ** 2 computes (libm's pow may round differently)
        return sum((k * math.pi / L) * (k * math.pi / L) for k, L in zip(m, lengths))

    d = len(lengths)
    box = math.ceil((2 * n) ** (1 / d) * max(lengths) / min(lengths)) + 2
    ranked = sorted(itertools.product(range(1, box + 1), repeat=d), key=lambda m: (mu(m), m))
    # every index outside the box has some m_i = box + 1, so its mu is at least this
    outside = min(mu([box + 1 if j == i else 1 for j in range(d)]) for i in range(d))
    assert mu(ranked[n - 1]) < outside, "index box too small"
    return np.array(ranked[:n]), np.array([mu(m) for m in ranked[:n]])
