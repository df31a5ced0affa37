"""Domain types for the hard-core SOS model on the wand graph.

Spins live in {0, ..., m} with m even.  Neighboring spins i, j on the
tree are admissible iff |i - j| = 1, or i = j with i even (the wand
graph: a path with loops attached to the even spins).  Each admissible
pair carries an activity weight: 1 on even loops, theta on unit steps.
``activity_matrix`` holds both: a pair is admissible iff its weight is
positive.  ``check_params`` is the one validator of k, theta and m.

For m = 2 a translation-invariant splitting Gibbs measure is described
by a positive pair (x, y), the k-th roots of the boundary-law entries;
``TisgmSolution`` records such a pair together with its branch label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Below this distance from x = 1 the asymmetric branches cannot be told
# apart from the symmetric one at root-finder accuracy.
BRANCH_TOL = 1e-9


class Branch(Enum):
    SYMMETRIC = "Symmetric"
    UPPER = "Upper"
    LOWER = "Lower"


def branch_of(x: float) -> Branch:
    """Branch label implied by the first fixed-point coordinate."""
    if abs(x - 1.0) < BRANCH_TOL:
        return Branch.SYMMETRIC
    return Branch.UPPER if x > 1.0 else Branch.LOWER


def check_params(
    k: int | None = None, theta: float | None = None, m: int | None = None
) -> None:
    """Raise ValueError unless k >= 2, 0 < theta < inf and m is even >= 2.

    A parameter left at None is not checked.
    """
    if k is not None and k < 2:
        raise ValueError(f"tree order k must be >= 2, got {k}")
    if theta is not None:
        if not theta > 0:
            raise ValueError(f"coupling theta must be positive, got {theta}")
        if theta == math.inf:
            raise ValueError(f"coupling theta must be finite, got {theta}")
    if m is not None and (m < 2 or m % 2 != 0):
        raise ValueError(f"spin cap m must be even and >= 2, got {m}")


@dataclass(frozen=True)
class ModelParams:
    """Model instance: tree order k >= 2, finite theta > 0, even spin cap m."""

    k: int
    theta: float
    m: int = 2

    def __post_init__(self) -> None:
        check_params(self.k, self.theta, self.m)


def activity_matrix(m: int, theta: float) -> np.ndarray:
    """(m+1) x (m+1) edge weights: 1 on even loops, theta on unit steps.

    The entry is zero exactly off the wand graph, so spins i, j may sit
    on neighboring vertices iff the (i, j) entry is positive.
    """
    import numpy as np

    check_params(theta=theta, m=m)
    n = m + 1
    lam = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j and i % 2 == 0:
                lam[i, j] = 1.0
            elif abs(i - j) == 1:
                lam[i, j] = theta
    return lam


def array_text(values) -> str:
    """``str`` of ``values`` as an array under numpy's default print options,
    so an error text does not depend on options set elsewhere in the process."""
    import numpy as np

    with np.printoptions(
        precision=8, threshold=1000, edgeitems=3, linewidth=75, suppress=False,
        nanstr="nan", infstr="inf", sign="-", floatmode="maxprec", legacy=False,
    ):
        return str(np.asarray(values))


@dataclass(frozen=True)
class TisgmSolution:
    """Positive fixed point (x, y) of the m = 2 compatibility system.

    x and y are the k-th roots of the two free boundary-law entries; the
    branch tag records which side of x = 1 the solution sits on.
    """

    x: float
    y: float
    branch: Branch

    def __post_init__(self) -> None:
        if not (self.x > 0 and self.y > 0):
            raise ValueError(f"fixed point must be positive, got ({self.x}, {self.y})")
        if self.branch is not branch_of(self.x):
            raise ValueError(
                f"branch {self.branch.value} inconsistent with x = {self.x}"
            )
