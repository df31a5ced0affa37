"""Gibbs measures of the three-state hard-core SOS wand model on Cayley trees.

Fixed-point enumeration for the translation-invariant boundary laws,
transition kernels of the induced tree-indexed Markov chains, and
extremality classification of each measure by the Kesten-Stigum and MSW
criteria, with a reproducible configuration sampler for validation.
"""

from .chain import TransitionKernel, kappa_of, kernel_of, stationary
from .extremality import (
    ExtremalityVerdict,
    Measure,
    Threshold,
    Verdict,
    classify_mu0,
    classify_mu12,
    classify_solution,
    thresholds,
)
from .model import (
    Branch,
    ModelParams,
    TisgmSolution,
)
from .sampler import (
    Configuration,
    EmpiricalStats,
    TreeConfig,
    estimate_marginals,
    sample,
)
from .tisgm import (
    BoundaryLaw,
    ConsistencyError,
    IterationOutcome,
    NumericalDomainError,
    SolutionSet,
    boundary_law_residual,
    compatibility_residual,
    enumerate_solutions,
    eta,
    iterate_boundary_law,
    solve_asymmetric,
    solve_symmetric,
    theta_cr,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryLaw",
    "Branch",
    "Configuration",
    "ConsistencyError",
    "EmpiricalStats",
    "ExtremalityVerdict",
    "IterationOutcome",
    "Measure",
    "ModelParams",
    "NumericalDomainError",
    "SolutionSet",
    "Threshold",
    "TisgmSolution",
    "TransitionKernel",
    "TreeConfig",
    "Verdict",
    "boundary_law_residual",
    "classify_mu0",
    "classify_mu12",
    "classify_solution",
    "compatibility_residual",
    "enumerate_solutions",
    "estimate_marginals",
    "eta",
    "iterate_boundary_law",
    "kappa_of",
    "kernel_of",
    "sample",
    "solve_asymmetric",
    "solve_symmetric",
    "stationary",
    "theta_cr",
    "thresholds",
]
