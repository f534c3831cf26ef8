"""Spectral Galerkin laboratory for semi-linear SPDEs with multiplicative noise."""

from .kernels import (
    ConstantKernel,
    Kernel,
    KernelError,
    ModeSeriesKernel,
    PowerSeriesKernel,
    RegularityProfile,
    gradient_constant,
    logharnack_constant,
    logharnack_constant_from_phi,
    poincare_constant,
)
from .montecarlo import CheckReport, MonteCarlo, plateau_verdict
from .noise import NoiseStream
from .reaction import (
    ReactionDiffusionModel,
    ScalarFunctionSpec,
    build_callbacks,
    build_profile,
    check_growth_condition,
    exact_Ksigma,
)
from .simulate import (
    CallbackBundle,
    SchemeConfig,
    SimulationError,
    diagonal_constant_diffusion,
    ou_exact,
    simulate_batch,
)
from .spectral import (
    DomainError,
    EigenSpectrum,
    RectDomain,
    eigenfunction_eval,
    eigenvalue,
    unit_interval,
)

__all__ = [
    "CallbackBundle", "CheckReport", "ConstantKernel", "DomainError",
    "EigenSpectrum", "Kernel", "KernelError", "ModeSeriesKernel", "MonteCarlo",
    "NoiseStream", "PowerSeriesKernel", "ReactionDiffusionModel", "RectDomain",
    "RegularityProfile", "ScalarFunctionSpec", "SchemeConfig", "SimulationError",
    "build_callbacks", "build_profile", "check_growth_condition",
    "diagonal_constant_diffusion", "eigenfunction_eval", "eigenvalue",
    "exact_Ksigma", "gradient_constant", "logharnack_constant",
    "logharnack_constant_from_phi", "ou_exact",
    "plateau_verdict", "poincare_constant", "simulate_batch", "unit_interval",
]
