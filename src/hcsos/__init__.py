"""Gibbs measures of the three-state hard-core SOS wand model on Cayley trees.

Fixed-point enumeration for the translation-invariant boundary laws,
transition kernels of the induced tree-indexed Markov chains, and
extremality classification of each measure by the Kesten-Stigum and MSW
criteria, with reproducible level and edge statistics of sampled
configurations for validation.
"""

from .chain import TransitionKernel, kernel_of, stationary
from .extremality import (
    ExtremalityVerdict,
    Measure,
    Threshold,
    Verdict,
    classify_solution,
    solution_of,
    thresholds,
)
from .model import (
    Branch,
    ModelParams,
    TisgmSolution,
)
from .sampler import EmpiricalStats, TreeConfig, estimate_marginals
from .tisgm import (
    BoundaryLaw,
    ConsistencyError,
    IterationOutcome,
    NumericalDomainError,
    SolutionSet,
    enumerate_solutions,
    iterate_boundary_law,
    solve_asymmetric,
    solve_symmetric,
    theta_cr,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryLaw",
    "Branch",
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
    "classify_solution",
    "enumerate_solutions",
    "estimate_marginals",
    "iterate_boundary_law",
    "kernel_of",
    "solution_of",
    "solve_asymmetric",
    "solve_symmetric",
    "stationary",
    "theta_cr",
    "thresholds",
]
