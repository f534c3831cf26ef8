"""Named reference models used by the CLI and the verification suite."""
from __future__ import annotations

import numpy as np

from .kernels import ConstantKernel, RegularityProfile
from .reaction import ReactionDiffusionModel, ScalarFunctionSpec
from .simulate import diagonal_constant_diffusion
from .spectral import unit_interval


def bounded_reaction_model() -> ReactionDiffusionModel:
    """1-d rectangle test model with bounded coefficients.

    alpha = 2, psi = 0.5 arctan, phi = 1 + 0.1 sin: drift Lipschitz constant
    0.5, diffusion Lipschitz constant 0.1, ellipticity window [0.81, 1.21],
    finite critical time t0 (about 0.666).
    """
    return ReactionDiffusionModel(
        domain=unit_interval(),
        alpha=2.0,
        psi=ScalarFunctionSpec.atan_scaled(0.5),
        phi=ScalarFunctionSpec.sin_perturbed(1.0, 0.1, 1.0),
        n=16,
        quad_points=64,
    )


class OUPreset:
    """Exactly solvable reference: b = 0, sigma = phi0 * Id on given eigenvalues."""

    def __init__(self, lambdas, phi0: float = 1.0):
        self.lambdas = np.asarray(lambdas, dtype=float)
        self.phi0 = float(phi0)
        if self.lambdas.ndim != 1 or not self.lambdas.size or not np.all(
                np.isfinite(self.lambdas) & (self.lambdas > 0)):
            raise ValueError("ou lambdas must be a non-empty list of finite positive numbers")
        if not np.isfinite(self.phi0 * self.phi0):
            raise ValueError("ou phi0 must be finite, with a finite square")

    @property
    def n(self) -> int:
        return self.lambdas.size

    @property
    def callbacks(self):
        """A fresh OU step for phi0."""
        return diagonal_constant_diffusion(self.phi0)

    def profile(self) -> RegularityProfile:
        """b = 0 and constant sigma: zero kernels, both ellipticity bounds phi0^2."""
        lam = self.phi0**2
        return RegularityProfile(Kb=ConstantKernel(0.0), Ksigma=ConstantKernel(0.0),
                                 lambda_sigma=lam, lambda_bar_sigma=lam)

    def stationary_moment(self) -> float:
        """lim_t E|X_t|^2 from 0 start: sum_i phi0^2 / (2 lambda_i)."""
        return float(np.sum(self.phi0**2 / (2.0 * self.lambdas)))


def ou_moments_preset() -> OUPreset:
    """8 well-separated slow modes; used for exact-moment calibration runs."""
    return OUPreset(lambdas=np.arange(1, 9) / 2.0, phi0=1.0)


def ou_convergence_preset(N: int = 64) -> OUPreset:
    """N gently growing modes; truncation error has a closed-form tail sum."""
    return OUPreset(lambdas=np.arange(1, N + 1) / 16.0, phi0=1.0)


def ou_invariant_preset() -> OUPreset:
    """8 modes with unit spacing; equilibrates fast, plateau is sum 1/(2i)."""
    return OUPreset(lambdas=np.arange(1, 9, dtype=float), phi0=1.0)
