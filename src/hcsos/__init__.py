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

# Loaded on first use, then kept: the sampler needs numpy, which
# importing the package does not load.
_SAMPLER_NAMES = ("Configuration", "EmpiricalStats", "TreeConfig", "estimate_marginals",
                  "sample")


def __getattr__(name: str):
    if name not in _SAMPLER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sampler

    globals().update((each, getattr(sampler, each)) for each in _SAMPLER_NAMES)
    return globals()[name]


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
    "SpectrumReport",
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
    "spectrum_numeric",
    "stationary",
    "theta_cr",
    "thresholds",
]
