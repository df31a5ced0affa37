"""Gibbs measures of the three-state hard-core SOS wand model on Cayley trees.

Fixed-point enumeration for the translation-invariant boundary laws,
transition kernels of the induced tree-indexed Markov chains, and
extremality classification of each measure by the Kesten-Stigum and MSW
criteria, with a reproducible configuration sampler for validation.
"""

from .chain import (
    SpectrumReport,
    TransitionKernel,
    kappa_of,
    kernel_of,
    spectrum_numeric,
    stationary,
)
from .extremality import (
    ExtremalityVerdict,
    Measure,
    Threshold,
    ThresholdTable,
    Verdict,
    classify_mu0,
    classify_mu12,
    classify_solution,
    h_func,
    q_func,
    thresholds,
)
from .model import (
    Branch,
    ModelParams,
    TisgmSolution,
)
from .rootfind import (
    Bracket,
    BracketError,
    UnboundedBracketError,
    expand_bracket_decreasing,
    find_root,
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
    "Bracket",
    "BracketError",
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
    "SpectrumReport",
    "Threshold",
    "ThresholdTable",
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
    "expand_bracket_decreasing",
    "find_root",
    "h_func",
    "kappa_of",
    "kernel_of",
    "q_func",
    "sample",
    "solve_asymmetric",
    "solve_symmetric",
    "spectrum_numeric",
    "stationary",
    "theta_cr",
    "thresholds",
]
