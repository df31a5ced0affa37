"""Translation-invariant fixed points of the wand model on a Cayley tree.

For m = 2 the compatibility system in the root variables x, y reads

    x = (x^k + theta y^k) / (1 + theta y^k)
    y = theta (x^k + 1)   / (1 + theta y^k)

Every solution with x = 1 reduces to the strictly increasing scalar
equation f(y) = theta y^(k+1) + y - 2 theta = 0, which has exactly one
positive root.  Solutions with x != 1 satisfy theta y^k = x^(k-1) + ...
+ x together with the level-set condition

    theta^(k+1) = eta(x) := (sum_{i=1}^{k-1} x^i) (sum_{i=0}^{k-1} x^i)^k
                            / (x^k + 1)^k,

where eta is invariant under x -> 1/x, increases on (0, 1), decreases on
(1, inf) and peaks at eta(1) = (k-1) k^k / 2^k.  Hence asymmetric
solutions exist iff theta is below

    theta_cr(k) = ((k-1) k^k / 2^k)^(1/(k+1)),

and come in reciprocal pairs (one root above 1, its partner the exact
reciprocal).  Total count: one fixed point at or above theta_cr(k),
three strictly below.  ``solve_asymmetric`` is the one route to the
pair and the one rule for where it exists, for every k; the k = 2
closed form through rho = x + 1/x is a test oracle in tests/reference.py.

For general even m the module also exposes forward iteration of the
full boundary-law map (exploratory: no count claims are made there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import (
    Branch,
    ModelParams,
    TisgmSolution,
    activity_matrix,
    array_text,
    branch_of,
    check_params,
)
from .rootfind import Bracket, expand_bracket_decreasing, find_root

if TYPE_CHECKING:
    import numpy as np

# theta within this distance of theta_cr(k): the asymmetric pair has
# merged into x = 1 beyond root-finder resolution.
CRITICAL_TOL = 1e-9

# Scaled-residual bound every returned solution must satisfy.
RESIDUAL_TOL = 1e-10


class ConsistencyError(RuntimeError):
    """A computed fixed point failed its own residual contract."""


class NumericalDomainError(ArithmeticError):
    """Boundary-law iteration left the positive orthant (overflow or zero)."""


def _power_sum(x: float, n: int) -> float:
    """1 + x + ... + x^(n-1) by Horner accumulation (no (x^n-1)/(x-1)).

    Also takes an array of x: plain multiply-adds round per lane as they
    do on floats.
    """
    acc = 0.0
    for _ in range(n):
        acc = acc * x + 1.0
    return acc


def theta_cr(k: int) -> float:
    """Coupling below which the symmetric fixed point coexists with two others.

    Equals ((k-1) k^k / 2^k)^(1/(k+1)); exactly 1 for k = 2.
    """
    check_params(k)
    return ((k - 1) * float(k) ** k / 2.0**k) ** (1.0 / (k + 1))


def eta(x: float, k: int) -> float:
    """Level function of the asymmetric branch: theta^(k+1) = eta(x).

    Symmetric under x -> 1/x, maximal at x = 1 with value (k-1) k^k / 2^k.
    """
    check_params(k)
    if not x > 0:
        raise ValueError(f"eta requires x > 0, got {x}")
    try:
        value = _eta_value(x, k)
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    if x == 1.0:
        # the peak (k-1) k^k / 2^k itself (k >= 170): 1/x is no way out
        raise OverflowError(f"eta(1, k) = (k-1) k^k / 2^k overflows at k = {k}")
    # the direct evaluation overflowed (x beyond ~1e300/k); the value is
    # unchanged under x -> 1/x, and the reciprocal argument is safe
    return eta(1.0 / x, k)


def _eta_value(x: float, k: int, power=pow) -> float:
    # eta's formula, with no overflow handling; grid._powers as ``power``
    # for arrays
    s = x * _power_sum(x, k - 1)  # x + x^2 + ... + x^(k-1)
    # 1 + x + ... + x^(k-1) is s + 1.0 bit for bit: Horner's last step
    # is _power_sum(x, k - 1) * x + 1.0, and IEEE products commute.
    # Group as s * ((s + 1) / (x^k + 1))^k so large x cannot overflow.
    return s * power((s + 1.0) / (power(x, k) + 1.0), k)


def compatibility_residual(k: int, theta: float, x: float, y: float) -> float:
    """Scale-normalized residual of the two m = 2 fixed-point equations.

    Each equation contributes |lhs - rhs| / max(1, |lhs|, |rhs|); the
    maximum of the two is returned.  At order-one scales this coincides
    with the plain absolute residual.
    """
    try:
        xk = x**k
        w = theta * y**k
    except OverflowError:
        raise OverflowError(
            f"the boundary law leaves the double range at k = {k}, x = {x!r}: "
            "x^k or theta y^k exceeds the largest float"
        ) from None
    return _residual(theta, x, y, xk, w)


def _residual(theta, x, y, xk, w, largest=max):
    # compatibility_residual from x^k and w = theta y^k; grid._lane_max as
    # ``largest`` for columns
    rhs1 = (xk + w) / (1.0 + w)
    rhs2 = theta * (xk + 1.0) / (1.0 + w)
    r1 = abs(x - rhs1) / largest(1.0, abs(x), abs(rhs1))
    r2 = abs(y - rhs2) / largest(1.0, abs(y), abs(rhs2))
    return largest(r1, r2)


def _checked(k: int, theta: float, x: float, y: float, branch: Branch) -> TisgmSolution:
    res = compatibility_residual(k, theta, x, y)
    if res > RESIDUAL_TOL:
        raise ConsistencyError(
            f"fixed point ({x}, {y}) at k={k}, theta={theta} has residual {res:.3e}"
        )
    return TisgmSolution(x=x, y=y, branch=branch)


def solve_symmetric(k: int, theta: float) -> TisgmSolution:
    """Unique fixed point with x = 1.

    y solves theta y^(k+1) + y - 2 theta = 0; the root lies in
    (0, 2^(1/(k+1))) since f(0) < 0 < f(2^(1/(k+1))) and f is increasing.
    The float 2^(1/(k+1)) may round low, so the upper end steps up by
    one ulp while f is still negative there, as it is at huge theta.
    ``find_root`` stops on a bracket a few ulp of y wide, so y keeps full
    relative precision down to the smallest theta, where y ~ 2 theta.
    """
    check_params(k, theta)

    def f(y: float) -> float:
        return _symmetric_f(k, theta, y)

    hi = 2.0 ** (1.0 / (k + 1))
    f_hi = f(hi)
    while f_hi < 0.0:
        hi = math.nextafter(hi, math.inf)
        f_hi = f(hi)
    y = find_root(f, Bracket(0.0, hi, f(0.0), f_hi))
    return _checked(k, theta, 1.0, y, Branch.SYMMETRIC)


def solve_asymmetric(k: int, theta: float) -> list[TisgmSolution]:
    """Reciprocal pair of fixed points with x != 1, upper then lower; or [].

    The one rule for whether mu1 and mu2 exist.  The upper root solves
    eta(x) = theta^(k+1) on (1, inf), the lower is its exact reciprocal,
    and y is recovered from theta y^k = x + ... + x^(k-1).  Three exits
    give []: theta less than CRITICAL_TOL below theta_cr(k) or above it,
    theta^(k+1) >= eta(1), and a root within BRANCH_TOL of x = 1.  For
    k <= 142 the first covers the others (x1 - 1 >= 9e-8 at its edge);
    only k = 143, whose theta_cr overflows to inf, reaches them.
    """
    check_params(k, theta)
    if theta_cr(k) - theta < CRITICAL_TOL:
        return []

    target = theta ** (k + 1)
    if target >= eta(1.0, k):
        # merged with x = 1 beyond float resolution
        return []
    ladder = expand_bracket_decreasing(lambda x: eta(x, k), [target])
    bracket = Bracket(*(v[0] for v in ladder))
    x1 = find_root(lambda x: eta(x, k) - target, bracket)
    x2 = 1.0 / x1
    if (branch_of(x1), branch_of(x2)) != (Branch.UPPER, Branch.LOWER):
        # merged too: at k = 143, on 8 consecutive floats from 71.8414953400023
        return []
    upper = _checked(k, theta, x1, _recover_y(k, theta, x1), Branch.UPPER)
    lower = _checked(k, theta, x2, _recover_y(k, theta, x2), Branch.LOWER)
    return [upper, lower]


def _symmetric_f(k: int, theta: float, y: float, power=pow) -> float:
    # the symmetric equation's f; grid._powers as ``power`` for arrays
    return theta * power(y, k + 1) + y - 2.0 * theta


def _recover_y(k: int, theta: float, x: float, power=pow) -> float:
    # theta y^k = x + ... + x^(k-1); grid._powers as ``power`` for arrays
    return power(x * _power_sum(x, k - 1) / theta, 1.0 / k)


@dataclass(frozen=True)
class SolutionSet:
    """All translation-invariant fixed points at one (k, theta).

    Ordered Symmetric, Upper, Lower.  ``critical`` marks theta within
    CRITICAL_TOL of theta_cr(k), where ``solve_asymmetric`` gives no
    pair because it cannot be separated from the symmetric solution.
    """

    k: int
    theta: float
    theta_critical: float
    solutions: tuple[TisgmSolution, ...]
    critical: bool

    def __len__(self) -> int:
        return len(self.solutions)


def enumerate_solutions(k: int, theta: float) -> SolutionSet:
    """The symmetric solution, then ``solve_asymmetric``'s pair if any."""
    tc = theta_cr(k)
    sols = (solve_symmetric(k, theta), *solve_asymmetric(k, theta))
    return SolutionSet(k, theta, tc, sols, critical=abs(theta - tc) < CRITICAL_TOL)


# ---------------------------------------------------------------------------
# Boundary-law iteration for general even m (exploratory beyond m = 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryLaw:
    """Positive finite boundary-law vector (z_0, ..., z_m) normalized to z_m = 1."""

    z: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.z) < 3 or len(self.z) % 2 == 0:
            raise ValueError("boundary law needs m + 1 entries with m even >= 2")
        if any(not v > 0 for v in self.z):
            raise ValueError("boundary-law entries must be positive")
        if math.inf in self.z:
            raise ValueError("boundary-law entries must be finite")
        if self.z[-1] != 1.0:
            raise ValueError("last boundary-law entry must be exactly 1")

    @classmethod
    def ones(cls, m: int) -> "BoundaryLaw":
        return cls((1.0,) * (m + 1))

    @property
    def m(self) -> int:
        return len(self.z) - 1


@dataclass(frozen=True)
class IterationOutcome:
    """Result of forward boundary-law iteration.

    ``law`` is the fixed point when ``converged``; otherwise it is None
    and ``tail`` holds the last few iterates for divergence diagnosis
    (oscillation between two accumulation points is the typical
    pattern).  ``residual`` is the final successive-iterate max-norm.
    """

    converged: bool
    law: BoundaryLaw | None
    iterations: int
    residual: float
    tail: tuple[tuple[float, ...], ...]


def _map_once(lam: np.ndarray, k: int, z: np.ndarray) -> np.ndarray:
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        num = lam @ z
        out = (num / num[-1]) ** k
    out[-1] = 1.0
    return out


def iterate_boundary_law(
    params: ModelParams,
    init: BoundaryLaw | None = None,
    max_iter: int = 10_000,
    tol: float = 1e-10,
) -> IterationOutcome:
    """Iterate the translation-invariant compatibility map from ``init``.

    Plain forward iteration, no damping: each step sends z_i to
    (sum_j lambda_ij z_j / (1 + theta z_{m-1}))^k with z_m pinned to 1.
    Stops when successive iterates differ by less than ``tol`` in
    max-norm; exhausting ``max_iter`` yields a divergence report, not an
    error.  Leaving the positive orthant (overflow included) raises
    NumericalDomainError.
    """
    import numpy as np

    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if init is None:
        init = BoundaryLaw.ones(params.m)
    if init.m != params.m:
        raise ValueError(f"init has m = {init.m}, params have m = {params.m}")

    lam = activity_matrix(params.m, params.theta)
    z = np.asarray(init.z, dtype=float)
    tail: list[tuple[float, ...]] = [tuple(float(v) for v in z)]
    delta = math.inf
    for it in range(1, max_iter + 1):
        z_new = _map_once(lam, params.k, z)
        if not np.all(np.isfinite(z_new)) or np.any(z_new <= 0.0):
            raise NumericalDomainError(
                f"iterate left the positive orthant at step {it}: {array_text(z_new)}"
            )
        delta = float(np.max(np.abs(z_new - z)))
        z = z_new
        tail.append(tuple(float(v) for v in z))
        if len(tail) > 8:
            tail.pop(0)
        if delta < tol:
            return IterationOutcome(True, BoundaryLaw(tail[-1]), it, delta, tuple(tail))
    return IterationOutcome(False, None, max_iter, delta, tuple(tail))


def boundary_law_residual(params: ModelParams, law: BoundaryLaw) -> float:
    """Max-norm distance between a law and its image under one map step."""
    import numpy as np

    lam = activity_matrix(params.m, params.theta)
    z = np.asarray(law.z, dtype=float)
    return float(np.max(np.abs(_map_once(lam, params.k, z) - z)))
