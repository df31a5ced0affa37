"""Tree-indexed Markov chain attached to a translation-invariant fixed point.

A fixed point (x, y) of the m = 2 system induces a chain on states
{0, 1, 2}: the root's spin is drawn from the stationary distribution and
every child's spin from its parent's row of

        [ x^k/(x^k + w)   w/(x^k + w)   0            ]
    P = [ x^k/(1 + x^k)   0             1/(1 + x^k)  ]     w = theta y^k.
        [ 0               w/(1 + w)     1/(1 + w)    ]

The zero pattern mirrors the inadmissible spin pairs (0,2), (1,1), (2,0),
so the transition graph is the path 0 - 1 - 2 (with loops at 0 and 2).
A ``TransitionKernel`` is the six other entries, so the pattern holds by
construction; ``kernel_of`` is its one checked constructor, and every
quantity below, the classifier's s2 and kappa among them, is read off
those six floats.
A chain whose transition graph is a tree is reversible, and for this
path the spectrum and the stationary law follow from exact identities
in the entries, built from products and ratios of positive numbers:

* the non-unit eigenvalues sum to t = P00 P22 - P01 P21 (which is
  tr P - 1 rewritten with the row sums) and multiply to -d with
  d = P00 P12 P21 + P01 P10 P22 > 0, so they are real, of opposite sign,
  and s2 = (|t| + sqrt(t^2 + 4 d)) / 2;
* detailed balance along the path gives pi proportional to
  (P10 / P01, 1, P12 / P21).

kappa is half the largest L1 distance between rows of P.  The MSW
quantity gamma is the same row distance, so the extremality test
k * kappa * gamma < 1 is evaluated as k * kappa^2 < 1 and gamma is
reported equal to kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .model import TisgmSolution

if TYPE_CHECKING:
    import numpy as np


class TransitionKernel(NamedTuple):
    """Nonzero entries of one fixed point's row-stochastic 3x3 kernel.

    The other three entries are P02 = P11 = P20 = 0, so the wand zero
    pattern holds by construction.
    """

    p00: float
    p01: float
    p10: float
    p12: float
    p21: float
    p22: float

    @property
    def p(self) -> np.ndarray:
        """The whole matrix, read-only, built on each read."""
        import numpy as np

        p00, p01, p10, p12, p21, p22 = self
        p = np.array([[p00, p01, 0.0], [p10, 0.0, p12], [0.0, p21, p22]])
        p.setflags(write=False)
        return p


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted by descending modulus (leading entry 1).

    ``s2`` is the modulus of the second-largest eigenvalue.  When the two
    non-unit moduli are equal (trace 1, as on the k = 2 asymmetric
    branch) rounding may leave the third one ulp above s2.
    """

    eigenvalues: tuple[float, float, float]
    s2: float


def kernel_of(sol: TisgmSolution, k: int, theta: float) -> TransitionKernel:
    """Transition kernel of the chain indexed by the fixed point ``sol``.

    The one checked constructor: raises ArithmeticError where an entry
    is not a number, as when x^k or theta y^k overflows.
    """
    kern = TransitionKernel(*_entries_of_powers(sol.x**k, theta * sol.y**k))
    # every entry is NaN or in [0, 1], so the sum is finite iff all are
    if not math.isfinite(sum(kern)):
        raise ArithmeticError(f"degenerate kernel for x={sol.x}, y={sol.y}")
    return kern


def _entries_of_powers(xk, w):
    """The six entries of ``kernel_of`` from x^k and w = theta y^k, unchecked.

    Plain divisions, so columns of x^k and w give the entries of every
    lane with the bits of the scalar route.
    """
    p00, p01 = xk / (xk + w), w / (xk + w)
    p10, p12 = xk / (1.0 + xk), 1.0 / (1.0 + xk)
    p21, p22 = w / (1.0 + w), 1.0 / (1.0 + w)
    return p00, p01, p10, p12, p21, p22


def _path_terms(p00, p01, p10, p12, p21, p22, sqrt=math.sqrt):
    # t, d and s2 of spectrum_numeric; np.sqrt as ``sqrt`` for columns,
    # with the same bits (IEEE square roots are correctly rounded)
    t = p00 * p22 - p01 * p21
    d = p00 * p12 * p21 + p01 * p10 * p22
    return t, d, 0.5 * (abs(t) + sqrt(t * t + 4.0 * d))


def spectrum_numeric(kern: TransitionKernel) -> SpectrumReport:
    """Spectrum of a wand kernel from the path-graph identities.

    The non-unit eigenvalues solve lambda^2 - t lambda - d = 0.  The
    second one is sign(t) s2 (positive when t = 0) and the third is
    -d divided by it.  No step subtracts nearly equal numbers on the way
    to s2, so s2 keeps full relative accuracy however small it is.
    """
    t, d, s2 = _path_terms(*kern)
    lam2 = -s2 if t < 0.0 else s2
    return SpectrumReport(eigenvalues=(1.0, lam2, -d / lam2), s2=s2)


def stationary(kern: TransitionKernel) -> np.ndarray:
    """Unique probability vector pi with pi P = pi (all entries positive).

    Detailed balance on the path 0 - 1 - 2 gives pi proportional to
    (P10 / P01, 1, P12 / P21).  Ratios rather than products, so no
    probability is squared: on the symmetric branch at small w the
    masses are about (1/2w, 1, 1/2w), and pi_1 ~ w keeps full accuracy
    down to the smallest normal double.  Below that (a ratio overflows,
    or an entry is zero) the chain is numerically reducible, which
    raises.
    """
    import numpy as np

    _, p01, p10, p12, p21, _ = kern
    if p01 > 0.0 and p21 > 0.0:
        mass = (p10 / p01, 1.0, p12 / p21)
        total = sum(mass)
        pi = np.array([m / total for m in mass])
        if math.isfinite(total) and np.all(pi > 0.0):
            return pi
    raise RuntimeError(f"non-positive stationary vector for kernel {kern.p}")


def row_distance(
    p00: float, p01: float, p10: float, p12: float, p21: float, p22: float,
    largest=max,
) -> float:
    """kappa of a wand kernel from its six entries.

    Half the largest L1 distance between two rows; the zero entries of
    each row pair drop out of the sums as |0 - p| = |p|.  On columns of
    entries pass ``grid._lane_max`` as ``largest``.
    """
    d01 = abs(p00 - p10) + abs(p01) + abs(p12)
    d02 = abs(p00) + abs(p01 - p21) + abs(p22)
    d12 = abs(p10) + abs(p21) + abs(p12 - p22)
    return 0.5 * largest(d01, d02, d12)


def kappa_of(kern: TransitionKernel) -> float:
    """Half the maximum L1 distance between any two rows of the kernel."""
    return row_distance(*kern)
