"""Independent oracles the tests compare the library against.

None of these is a production route: the library computes the k = 2
asymmetric pair with ``solve_asymmetric`` and reports gamma equal to
kappa.  The closed forms here reach the same quantities another way.
"""

import math

import numpy as np

from hcsos.model import Branch, TisgmSolution
from hcsos.tisgm import RESIDUAL_TOL, ConsistencyError, compatibility_residual


def solve_k2_closed_form(theta: float) -> list[TisgmSolution]:
    """Asymmetric pair for k = 2 in closed form, valid for 0 < theta < 1.

    With rho = x + 1/x the quartic fixed-point condition collapses to
    theta^3 rho^2 - rho - 2 = 0, whose only root above 2 is
    rho1 = (1 + sqrt(1 + 8 theta^3)) / (2 theta^3); then
    x1 = (rho1 + sqrt(rho1^2 - 4)) / 2 and y = sqrt(x / theta).  The
    negative root rho2 is discarded.  The lower root is the exact
    reciprocal 1/x1: the other sign, (rho1 - sqrt(rho1^2 - 4)) / 2,
    cancels catastrophically at small theta.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(
            f"asymmetric pair for k = 2 exists only for 0 < theta < 1, got {theta}"
        )
    t3 = theta**3
    rho1 = (1.0 + math.sqrt(1.0 + 8.0 * t3)) / (2.0 * t3)
    x1 = 0.5 * (rho1 + math.sqrt(rho1 * rho1 - 4.0))
    pair = []
    for x, branch in ((x1, Branch.UPPER), (1.0 / x1, Branch.LOWER)):
        y = math.sqrt(x / theta)
        res = compatibility_residual(2, theta, x, y)
        if res > RESIDUAL_TOL:
            raise ConsistencyError(f"closed-form root ({x}, {y}): residual {res:.3e}")
        pair.append(TisgmSolution(x=x, y=y, branch=branch))
    return pair


def gamma_of(kern) -> float:
    """Largest of the three pairwise half-L1 row distances of a kernel.

    Written independently of ``kappa_of``; their equality is checked by
    the tests, not assumed.
    """
    p = kern.p
    return max(
        0.5 * float(np.sum(np.abs(p[i] - p[j]))) for i, j in ((0, 1), (1, 2), (0, 2))
    )
