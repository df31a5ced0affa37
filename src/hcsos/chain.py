"""Tree-indexed Markov chain attached to a translation-invariant fixed point.

A fixed point (x, y) of the m = 2 system induces a chain on states
{0, 1, 2}: the root's spin is drawn from the stationary distribution and
every child's spin from its parent's row of

        [ x^k/(x^k + w)   w/(x^k + w)   0            ]
    P = [ x^k/(1 + x^k)   0             1/(1 + x^k)  ]     w = theta y^k.
        [ 0               w/(1 + w)     1/(1 + w)    ]

The zero pattern mirrors the inadmissible spin pairs (0,2), (1,1), (2,0).

Closed-form spectra are available on the symmetric branch (eigenvalues
1, -w/(w+1), 1/(w+1)) and for the k = 2 asymmetric branch, where
theta y^2 = x collapses P to a one-parameter matrix with eigenvalues
1, +-sqrt(2) x / ((x+1) sqrt(x^2+1)).  A generic spectrum routine
deflates the known eigenvalue 1 from the characteristic cubic and solves
the remaining quadratic; it is the only spectrum source for asymmetric
fixed points at k >= 3, and it raises ArithmeticError for a kernel whose
spectrum is not real.

kappa is half the largest L1 distance between rows of P.  The MSW
quantity gamma is the same row distance, so the extremality test
k * kappa * gamma < 1 is evaluated as k * kappa^2 < 1 and gamma is
reported equal to kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TisgmSolution

# Imaginary parts below this are rounding noise, not a complex pair.
_COMPLEX_TOL = 1e-10


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic 3x3 transition matrix of one fixed point's chain."""

    p: np.ndarray
    source: TisgmSolution
    k: int
    theta: float

    def __post_init__(self) -> None:
        if self.p.shape != (3, 3):
            raise ValueError(f"kernel must be 3x3, got {self.p.shape}")
        self.p.setflags(write=False)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted by descending modulus (leading entry 1).

    ``s2`` is the modulus of the second-largest eigenvalue.
    """

    eigenvalues: tuple[float, float, float]
    s2: float


def kernel_of(sol: TisgmSolution, k: int, theta: float) -> TransitionKernel:
    """Transition matrix of the chain indexed by the fixed point ``sol``."""
    xk = sol.x**k
    w = theta * sol.y**k
    p = np.array(
        [
            [xk / (xk + w), w / (xk + w), 0.0],
            [xk / (1.0 + xk), 0.0, 1.0 / (1.0 + xk)],
            [0.0, w / (1.0 + w), 1.0 / (1.0 + w)],
        ]
    )
    if not np.all(np.isfinite(p)):
        raise ArithmeticError(f"degenerate kernel for x={sol.x}, y={sol.y}")
    return TransitionKernel(p=p, source=sol, k=k, theta=theta)


def _sorted_eigs(vals: list[float]) -> tuple[float, float, float]:
    # modulus descending; on ties the positive eigenvalue first
    ordered = sorted(vals, key=lambda v: (-abs(v), -v))
    return (ordered[0], ordered[1], ordered[2])


def spectrum_symmetric(y: float, theta: float, k: int) -> SpectrumReport:
    """Closed-form spectrum on the symmetric branch (x = 1).

    Eigenvalues are 1, -w/(w+1) and 1/(w+1) with w = theta y^k.  The
    second-largest modulus is 1/(w+1) for theta <= 1 and w/(w+1) for
    theta > 1 (for the root of the symmetric equation, w < 1 exactly
    when theta < 1).
    """
    w = theta * y**k
    lam1 = -w / (w + 1.0)
    lam2 = 1.0 / (w + 1.0)
    s2 = lam2 if theta <= 1.0 else -lam1
    return SpectrumReport(eigenvalues=_sorted_eigs([1.0, lam1, lam2]), s2=s2)


def spectrum_asymmetric_k2(x: float) -> SpectrumReport:
    """Closed-form spectrum of the k = 2 asymmetric kernel.

    The non-unit eigenvalues are the symmetric pair
    +-sqrt(2) x / ((x+1) sqrt(x^2+1)), invariant under x -> 1/x.
    """
    if not x > 0:
        raise ValueError(f"need x > 0, got {x}")
    s2 = math.sqrt(2.0) * x / ((x + 1.0) * math.sqrt(x * x + 1.0))
    return SpectrumReport(eigenvalues=(1.0, s2, -s2), s2=s2)


def spectrum_numeric(kern: TransitionKernel) -> SpectrumReport:
    """Spectrum of any row-stochastic 3x3 kernel via deflation of the root 1.

    The characteristic cubic divided by (lambda - 1) leaves
    lambda^2 + (1 - tr) lambda + det, solved in closed form with the
    numerically stable quadratic formula.  A complex pair beyond rounding
    noise raises ArithmeticError: no kernel built from a valid fixed
    point has one, so it marks a bad matrix.
    """
    p = kern.p
    t = float(p[0, 0] + p[1, 1] + p[2, 2])
    d = float(
        p[0, 0] * (p[1, 1] * p[2, 2] - p[1, 2] * p[2, 1])
        - p[0, 1] * (p[1, 0] * p[2, 2] - p[1, 2] * p[2, 0])
        + p[0, 2] * (p[1, 0] * p[2, 1] - p[1, 1] * p[2, 0])
    )
    b = 1.0 - t
    disc = b * b - 4.0 * d
    if disc < 0.0 and math.sqrt(-disc) * 0.5 > _COMPLEX_TOL:
        raise ArithmeticError(f"kernel has a complex eigenvalue pair: {p}")
    disc = max(disc, 0.0)
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0.0 else 1.0))
    r2 = d / q if q != 0.0 else 0.0
    eigs = _sorted_eigs([1.0, q, r2])
    return SpectrumReport(eigenvalues=eigs, s2=abs(eigs[1]))


def stationary(kern: TransitionKernel) -> np.ndarray:
    """Unique probability vector pi with pi P = pi (all entries positive).

    Uses Grassmann-Taksar-Heyman state elimination: every operation adds
    or multiplies nonnegative numbers, so the result stays positive even
    for the nearly degenerate kernels of strongly asymmetric fixed
    points (where a direct linear solve rounds tiny masses negative).
    """
    t = kern.p.T.copy()  # t[i, j] = transition mass j -> i
    for n in (2, 1):
        s = float(np.sum(t[:n, n]))
        if s <= 0.0:
            raise RuntimeError(f"numerically reducible kernel {kern.p}")
        t[n, :n] /= s
        t[:n, :n] += np.outer(t[:n, n], t[n, :n])
    pi = np.empty(3)
    pi[0] = 1.0
    pi[1] = t[1, 0]
    pi[2] = t[2, 0] + pi[1] * t[2, 1]
    pi /= pi.sum()
    if np.any(pi <= 0.0):
        raise RuntimeError(f"non-positive stationary vector {pi}")
    return pi


def kappa_of(kern: TransitionKernel) -> float:
    """Half the maximum L1 distance between any two rows of the kernel."""
    p = kern.p
    best = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            best = max(best, float(np.sum(np.abs(p[i] - p[j]))))
    return 0.5 * best
