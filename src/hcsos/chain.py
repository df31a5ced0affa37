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

``s2_of`` and ``kappa_of`` take the six entries: a kernel, or ``grid``'s
tuple of entry columns with their ``sqrt`` and ``largest`` hooks.  No
function here builds an array.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import TisgmSolution


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


def kernel_of(sol: TisgmSolution, k: int, theta: float) -> TransitionKernel:
    """Transition kernel of the chain indexed by the fixed point ``sol``.

    The one checked constructor: raises ArithmeticError where an entry
    is not a number, as when x^k or theta y^k overflows.
    """
    kern = TransitionKernel(*_entries_of_powers(sol.x**k, theta * sol.y**k))
    # every entry is NaN or in [0, 1], so only NaN is not finite
    if not all(map(math.isfinite, kern)):
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


def s2_of(entries, sqrt=math.sqrt):
    """s2, the modulus of the second-largest eigenvalue, from the six entries.

    The non-unit eigenvalues solve lambda^2 - t lambda - d = 0, so
    s2 = (|t| + sqrt(t^2 + 4 d)) / 2.  No step subtracts nearly equal
    numbers on the way, so s2 keeps full relative accuracy however
    small it is.  On columns of entries ``grid`` passes the array square
    root as ``sqrt``, with the same bits (IEEE square roots are correctly
    rounded).
    """
    p00, p01, p10, p12, p21, p22 = entries
    t = p00 * p22 - p01 * p21
    d = p00 * p12 * p21 + p01 * p10 * p22
    return 0.5 * (abs(t) + sqrt(t * t + 4.0 * d))


def stationary(kern: TransitionKernel) -> tuple[float, float, float]:
    """Unique probability vector pi with pi P = pi (all entries positive).

    Detailed balance on the path 0 - 1 - 2 gives pi proportional to
    (P10 / P01, 1, P12 / P21).  Ratios rather than products, so no
    probability is squared: on the symmetric branch at small w the
    masses are about (1/2w, 1, 1/2w), and pi_1 ~ w keeps full accuracy
    down to the smallest normal double.  Below that (a ratio overflows,
    or an entry is zero) the chain is numerically reducible, which
    raises.
    """
    _, p01, p10, p12, p21, _ = kern
    if p01 > 0.0 and p21 > 0.0:
        mass = (p10 / p01, 1.0, p12 / p21)
        # left to right: the built-in sum rounds differently from 3.12 on
        total = mass[0] + mass[1] + mass[2]
        pi = tuple(m / total for m in mass)
        if math.isfinite(total) and all(v > 0.0 for v in pi):
            return pi
    raise RuntimeError(f"non-positive stationary vector for kernel {kern!r}")


def kappa_of(entries, largest=max):
    """Half the maximum L1 distance between any two rows of the kernel.

    The zero entries of each row pair drop out of the sums as
    |0 - p| = |p|.  On columns of entries pass ``grid._lane_max`` as
    ``largest``.
    """
    p00, p01, p10, p12, p21, p22 = entries
    d01 = abs(p00 - p10) + abs(p01) + abs(p12)
    d02 = abs(p00) + abs(p01 - p21) + abs(p22)
    d12 = abs(p10) + abs(p21) + abs(p12 - p22)
    return 0.5 * largest(d01, d02, d12)
