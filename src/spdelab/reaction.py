"""Stochastic reaction-diffusion model on a rectangle.

The equation has drift b(u)(xi) = psi(u(xi)) and pointwise-multiplication
noise {sigma(u) x}(xi) = phi(u(xi)) x(xi) for Lipschitz scalar functions
psi, phi.  This module turns that model into one fused Galerkin step,
``ReactionCallbacks.increment``, whose one call advances every lane of a batch
(pseudo-spectral: synthesize on a tensor sine-quadrature grid by a table of
sampled eigenfunctions, apply the scalar functions pointwise, project back),
and derives its exact regularity profile: K_b is the constant kernel from the
drift Lipschitz constant, and K_sigma is the explicit per-mode series

    K_sigma(t) = c_phi^2 * prod_i (2/L_i) * sum_m e^{-2 lambda_m t},

using the rectangle's exact eigenvalues and the uniform eigenfunction bound
(|e_m|_inf^2 = prod_i 2/L_i on rectangles).

The noise enters only through its projected mode coordinates; no pointwise
sheet sampling happens anywhere.

Every coefficient declares its slope: a flow step needs psi, phi and their
slopes on the whole grid, so each coefficient's ``deriv`` returns value and
slope from one call.  The sine coefficient takes both from one half-angle
tangent t = tan(freq s / 2): sin = 2t/(1+t^2), cos = (1-t^2)/(1+t^2).  For
1 + 0.1 sin s, against ``np.sin``/``np.cos`` on |s| from 0.3 to 1e300, the
value stays within 2^-52 (2.2e-16) and the slope within 2^-55 (2.8e-17); an
infinite or NaN s gives NaN.  Its bits, like those of ``arctan``, follow
numpy's ``tan`` dispatch: reports are byte-identical across thread counts, not
across CPU families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .kernels import ConstantKernel, ModeSeriesKernel, RegularityProfile
from .spectral import EigenSpectrum, RectDomain


@dataclass(frozen=True)
class ScalarFunctionSpec:
    """A scalar coefficient function with its declared analytic bounds.

    ``fn(s)`` is g(s); ``deriv(s)`` (required) the pair (g(s), g'(s)) from one
    call, whose first entry is ``fn(s)`` bit for bit.  ``sin_perturbed``'s
    pair comes from one half-angle tangent (error bound and bits: module doc).

    ``lipschitz``, ``inf_sq`` and ``sup_sq`` are exact by formula: the Lipschitz
    constant, and the bounds of the squared function over the reals (they feed
    the ellipticity constants).
    """

    fn: Callable
    deriv: Callable
    lipschitz: float
    inf_sq: float
    sup_sq: float

    @classmethod
    def affine(cls, a: float, b: float) -> "ScalarFunctionSpec":
        a**2  # K_b is a^2: a slope whose square overflows fails here, where the form is named
        return cls(fn=lambda s: a * s + b,
                   deriv=lambda s: (a * s + b, np.full_like(np.asarray(s, float), a)),
                   lipschitz=abs(a),
                   inf_sq=0.0 if a != 0 else b**2,
                   sup_sq=math.inf if a != 0 else b**2)

    @classmethod
    def sin_perturbed(cls, c0: float, amp: float, freq: float) -> "ScalarFunctionSpec":
        lo, hi = c0 - abs(amp), c0 + abs(amp)
        inf_sq = 0.0 if lo <= 0.0 <= hi else min(lo**2, hi**2)
        return cls(fn=lambda s: _sin_perturbed(s, c0, amp, freq, slope=False),
                   deriv=lambda s: _sin_perturbed(s, c0, amp, freq, slope=True),
                   lipschitz=abs(amp * freq),
                   inf_sq=inf_sq,
                   sup_sq=max(lo**2, hi**2))

    @classmethod
    def atan_scaled(cls, a: float) -> "ScalarFunctionSpec":
        half_pi = math.pi / 2.0

        def deriv(s):
            s = np.asarray(s, float)
            # past |s| ~ 1e154 the square overflows to inf and the quotient is 0
            with np.errstate(over="ignore"):
                return a * np.arctan(s), a / (1.0 + s ** 2)

        return cls(fn=lambda s: a * np.arctan(s),
                   deriv=deriv,
                   lipschitz=abs(a),
                   inf_sq=0.0,
                   sup_sq=(a * half_pi) ** 2)

    @classmethod
    def custom(cls, fn, lipschitz, inf_sq, sup_sq, deriv) -> "ScalarFunctionSpec":
        """``deriv`` here is g' alone; the spec stores the pair map built from it."""
        return cls(fn=fn, deriv=lambda s: (fn(s), deriv(s)), lipschitz=lipschitz,
                   inf_sq=inf_sq, sup_sq=sup_sq)


def _sin_perturbed(s, c0: float, amp: float, freq: float, slope: bool):
    """c0 + amp sin(freq s) and, with ``slope``, amp freq cos(freq s), from one tangent.

    numpy's ``tan`` runs on SIMD loops where ``sin`` and ``cos`` run on scalar
    libm.  Halving is exact, so (freq/2) s is (freq s)/2 bit for bit.  ``t`` is
    a fresh array even for a scalar s, and every later operation writes over it
    or over another array made here.
    """
    t = np.multiply(s, 0.5 * freq, out=np.empty(np.shape(s)))
    np.tan(t, out=t)
    den = t * t
    if slope:
        # t^2 - 1 rounds to exactly -(1 - t^2), so the sign moves onto the factor
        cos_num = den - 1.0
    den += 1.0
    t /= den
    t *= 2.0 * amp  # amp * 2t / den, the exact doubling folded into the factor
    t += c0
    if not slope:
        return t
    cos_num /= den
    cos_num *= -(amp * freq)
    return t, cos_num


@dataclass(frozen=True)
class ReactionDiffusionModel:
    """Rectangle, fractional power, scalar coefficients, and truncation sizes."""

    domain: RectDomain
    alpha: float
    psi: ScalarFunctionSpec
    phi: ScalarFunctionSpec
    n: int
    quad_points: int

    def __post_init__(self):
        if self.alpha <= self.domain.d / 2.0:
            raise ValueError(
                f"alpha = {self.alpha} must exceed d/2 = {self.domain.d / 2} "
                "for the rectangle model to be well-posed")
        if self.quad_points < 2 * self.n:
            raise ValueError("quad_points must be >= 2n per dimension (dealiasing)")

    @cached_property
    def spectrum(self) -> EigenSpectrum:
        return EigenSpectrum.synthesize(self.domain, self.alpha, self.n)

    @property
    def lambdas(self) -> np.ndarray:
        return self.spectrum.lambdas

    @property
    def callbacks(self) -> "ReactionCallbacks":
        """A fresh pseudo-spectral step for this model."""
        return build_callbacks(self)

    def profile(self) -> RegularityProfile:
        return build_profile(self)


class _SineTransform:
    """Synthesis/projection on the interior tensor quadrature grid by one table.

    The grid has q interior points per dimension at xi_j = a + L (j+1)/(q+1).
    ``S[k]`` holds the retained eigenfunction e_k sampled on the grid (per-axis
    sine tables, tensored in the C order of ``grid()``), so synthesis is
    ``c @ S`` and projection is the sine quadrature ``h f @ S.T`` with cell
    volume h.  The pair is exact for fields band-limited below the grid size,
    which is what makes the affine-coefficient case reproduce the analytic
    projection to rounding error.
    """

    def __init__(self, domain: RectDomain, modes: np.ndarray, q: int):
        self.domain = domain
        self.q = q
        j = np.arange(1, q + 1)
        S = np.ones((len(modes), 1))
        for axis, L in enumerate(domain.lengths):
            # m j reduced mod 2(q+1) keeps the sine argument in [0, 2 pi)
            arg = np.outer(modes[:, axis], j) % (2 * (q + 1)) * (np.pi / (q + 1))
            S = (S[:, :, None] * (np.sqrt(2.0 / L) * np.sin(arg))[:, None, :]
                 ).reshape(len(modes), -1)
        self.S = S
        self.cell = float(np.prod(domain.lengths / (q + 1)))

    def grid(self) -> np.ndarray:
        """Quadrature points, shape (q^d, d)."""
        axes = [a + (b - a) * (np.arange(1, self.q + 1) / (self.q + 1))
                for a, b in self.domain.sides]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """(B, n) mode coefficients -> (B, q^d) pointwise field values."""
        return coeffs @ self.S

    def project(self, field: np.ndarray) -> np.ndarray:
        """(B, q^d) field values -> (B, n) coefficients by sine quadrature."""
        return self.cell * (field @ self.S.T)


class ReactionCallbacks:
    """Pseudo-spectral model step: ``increment`` is its one step method."""

    # no step calls these; perfbench's tracer looks them up, wrapping any not None
    drift = diffusion_apply = drift_jacobian_apply = diffusion_jacobian_apply = None

    def __init__(self, model: ReactionDiffusionModel):
        self._psi = model.psi
        self._phi = model.phi
        self._tf = _SineTransform(model.domain, model.spectrum.modes, model.quad_points)

    def increment(self, lanes, dw, dt, flow=False):
        """d[i] = P[psi(u) dt + phi(u) w] per state lane, P[(psi'(u) dt + phi'(u) w) h(xi)] last.

        u, w and h(xi) are the fields of a state lane, of dw (one for all lanes) and of the
        flow lane, the tangent along lane 0, whose u it takes.  State lanes call each
        coefficient's ``fn``; with ``flow``, lane 0 calls its ``deriv`` once instead.
        """
        tf = self._tf
        w = tf.synthesize(dw)
        d = np.empty(lanes.shape)
        # Only arrays made here are written over: a coefficient may return u itself.  Each
        # coefficient's results are dropped before the next is made.  IEEE sums and
        # products commute, so the bits are those of the formula above.
        for i in range(len(lanes) - flow):
            u = tf.synthesize(lanes[i])
            tangent = flow and i == 0
            phi, dphi = self._phi.deriv(u) if tangent else (self._phi.fn(u), None)
            dx = phi * w
            if tangent:
                dh = dphi * w
            del phi, dphi
            psi, dpsi = self._psi.deriv(u) if tangent else (self._psi.fn(u), None)
            del u
            dx += psi * dt
            if tangent:
                dh += dpsi * dt
            d[i] = tf.project(dx)
            del psi, dpsi, dx
        if flow:
            dh *= tf.synthesize(lanes[-1])
            d[-1] = tf.project(dh)
        return d

    def field_on_grid(self, coeffs: np.ndarray):
        """(grid points (q^d, d), values (q^d,)) of the field of one coefficient vector."""
        return self._tf.grid(), self._tf.synthesize(coeffs[None])[0]


def build_callbacks(model: ReactionDiffusionModel) -> ReactionCallbacks:
    return ReactionCallbacks(model)


def exact_Ksigma(model: ReactionDiffusionModel) -> ModeSeriesKernel:
    """Exact per-mode diffusion-smoothing kernel for the rectangle.

    K_sigma(t) = w sum_m e^{-r_m t} with the one weight w = c_phi^2 prod_i (2/L_i)
    (the squared sup-norm of every rectangle eigenfunction) and r_m = 2 lambda_m,
    over the first max(4096, 4n) modes of ``EigenSpectrum.synthesize``, so its
    first n rates are twice the model's Galerkin eigenvalues bit for bit.  Polya's bound for
    tiling domains, mu_m >= 4 pi^2 (m / (omega_d |Omega|))^{2/d} with omega_d the unit-ball
    volume, gives their envelope r_m >= kappa m^{2 alpha/d} for every m.
    """
    c, d = model.phi.lipschitz, model.domain.d
    w0 = c**2 * float(np.prod(2.0 / model.domain.lengths))
    n_modes = max(4096, 4 * model.n)
    rates = 2.0 * EigenSpectrum.synthesize(model.domain, model.alpha, n_modes).lambdas
    omega_volume = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * float(np.prod(model.domain.lengths))
    kappa = 2.0 * (4.0 * math.pi**2 / omega_volume ** (2 / d)) ** model.alpha
    return ModeSeriesKernel(weight=w0, rates=rates,
                            rate_exponent=2.0 * model.alpha / d, kappa=kappa)


def build_profile(model: ReactionDiffusionModel) -> RegularityProfile:
    """Kernels, ellipticity bounds, and t0 for the reaction-diffusion model."""
    lambda_bar = model.phi.sup_sq if math.isfinite(model.phi.sup_sq) else None
    return RegularityProfile(
        Kb=ConstantKernel(model.psi.lipschitz),
        Ksigma=exact_Ksigma(model),
        lambda_sigma=model.phi.inf_sq,
        lambda_bar_sigma=lambda_bar,
    )


def check_growth_condition(model: ReactionDiffusionModel, eps0: float, C0: float) -> bool:
    """Does |phi(s)|^2 + |psi(s)|^2 <= eps0 s^2 + C0 hold on the real line?

    The declared envelopes |g(s)| <= |g(0)| + L|s|, capped by sqrt(sup_sq) where finite,
    settle it past a radius R; inside, it is checked on a symmetric log-spaced grid out to
    max(1e3, R).  It fails at once where the squared envelopes' s^2 coefficient exceeds eps0.
    """
    if eps0 <= 0 or C0 <= 0:
        raise ValueError("growth condition needs eps0, C0 > 0")
    a = b = c = 0.0  # the squared envelopes sum to a s^2 + b |s| + c
    for g in (model.phi, model.psi):
        if math.isfinite(g.sup_sq):
            c += g.sup_sq
        else:
            g0 = abs(float(np.asarray(g.fn(np.zeros(1)))[0]))
            a, b, c = a + g.lipschitz**2, b + 2.0 * g0 * g.lipschitz, c + g0**2
    # the larger root of (eps0 - a) s^2 - b s + (C0 - c), 0 if none; nan (overflow) fails
    disc = b * b - 4.0 * (eps0 - a) * (C0 - c)
    R = (b + math.sqrt(disc)) / (2.0 * (eps0 - a)) if eps0 > a and not disc <= 0 else 0.0
    if eps0 < a or (eps0 == a and (b > 0 or c > C0)) or not R < math.inf:
        return False
    mags = np.logspace(-3, max(3.0, math.log10(max(R, 1.0))), 400)
    s = np.concatenate([-mags[::-1], [0.0], mags])
    lhs = np.asarray(model.phi.fn(s)) ** 2 + np.asarray(model.psi.fn(s)) ** 2
    return bool(np.all(lhs <= eps0 * s**2 + C0 + 1e-12))
