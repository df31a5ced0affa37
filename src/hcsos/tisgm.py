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
pair for every k; the k = 2 closed form through rho = x + 1/x is kept
as a test oracle in tests/reference.py.

For general even m the module also exposes forward iteration of the
full boundary-law map (exploratory: no count claims are made there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Branch,
    ModelParams,
    TisgmSolution,
    activity_matrix,
    check_params,
)
from .rootfind import Bracket, RootConfig, expand_bracket_decreasing, find_root

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
    """1 + x + ... + x^(n-1) by Horner accumulation (no (x^n-1)/(x-1))."""
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
        s = x * _power_sum(x, k - 1)  # x + x^2 + ... + x^(k-1)
        t = _power_sum(x, k)  # 1 + x + ... + x^(k-1)
        # group as s * (t / (x^k + 1))^k so large x cannot overflow t**k
        value = s * (t / (x**k + 1.0)) ** k
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    # the direct evaluation overflowed (x beyond ~1e300/k); the value is
    # unchanged under x -> 1/x, and the reciprocal argument is safe
    return eta(1.0 / x, k)


def compatibility_residual(k: int, theta: float, x: float, y: float) -> float:
    """Scale-normalized residual of the two m = 2 fixed-point equations.

    Each equation contributes |lhs - rhs| / max(1, |lhs|, |rhs|); the
    maximum of the two is returned.  At order-one scales this coincides
    with the plain absolute residual.
    """
    w = theta * y**k
    rhs1 = (x**k + w) / (1.0 + w)
    rhs2 = theta * (x**k + 1.0) / (1.0 + w)
    r1 = abs(x - rhs1) / max(1.0, abs(x), abs(rhs1))
    r2 = abs(y - rhs2) / max(1.0, abs(y), abs(rhs2))
    return max(r1, r2)


def _checked(k: int, theta: float, x: float, y: float, branch: Branch) -> TisgmSolution:
    res = compatibility_residual(k, theta, x, y)
    if res > RESIDUAL_TOL:
        raise ConsistencyError(
            f"fixed point ({x}, {y}) at k={k}, theta={theta} has residual {res:.3e}"
        )
    return TisgmSolution(x=x, y=y, branch=branch)


def solve_symmetric(
    k: int, theta: float, cfg: RootConfig = RootConfig()
) -> TisgmSolution:
    """Unique fixed point with x = 1.

    y solves theta y^(k+1) + y - 2 theta = 0; the root lies in
    (0, 2^(1/(k+1))) since f(0) < 0 < f(2^(1/(k+1))) and f is increasing.
    """
    check_params(k, theta)

    def f(y: float) -> float:
        return theta * y ** (k + 1) + y - 2.0 * theta

    hi = 2.0 ** (1.0 / (k + 1))
    y = find_root(f, Bracket.certify(f, 0.0, hi), cfg)
    return _checked(k, theta, 1.0, y, Branch.SYMMETRIC)


def solve_asymmetric(
    k: int, theta: float, cfg: RootConfig = RootConfig()
) -> list[TisgmSolution]:
    """Reciprocal pair of fixed points with x != 1; empty at or above theta_cr.

    The upper root solves eta(x) = theta^(k+1) on (1, inf); the lower
    partner is set to its exact reciprocal, and y is recovered from
    theta y^k = x + ... + x^(k-1).
    """
    check_params(k, theta)
    if theta >= theta_cr(k):
        return []

    target = theta ** (k + 1)
    if target >= eta(1.0, k):
        # below theta_cr in exact arithmetic but merged with x = 1 beyond
        # float resolution: no separable asymmetric pair exists
        return []
    bracket = expand_bracket_decreasing(lambda x: eta(x, k), 1.0, target)
    x1 = find_root(lambda x: eta(x, k) - target, bracket, cfg)
    x2 = 1.0 / x1

    def recover_y(x: float) -> float:
        return (x * _power_sum(x, k - 1) / theta) ** (1.0 / k)

    upper = _checked(k, theta, x1, recover_y(x1), Branch.UPPER)
    lower = _checked(k, theta, x2, recover_y(x2), Branch.LOWER)
    return [upper, lower]


@dataclass(frozen=True)
class SolutionSet:
    """All translation-invariant fixed points at one (k, theta).

    Ordered Symmetric, Upper, Lower.  ``critical`` marks theta within
    CRITICAL_TOL of theta_cr(k), where only the symmetric solution is
    reported because the asymmetric pair cannot be separated from it.
    """

    k: int
    theta: float
    theta_critical: float
    solutions: tuple[TisgmSolution, ...]
    critical: bool = False

    def __len__(self) -> int:
        return len(self.solutions)


def enumerate_solutions(k: int, theta: float) -> SolutionSet:
    """Complete ordered solution set: one at/above theta_cr(k), three below."""
    tc = theta_cr(k)
    sym = solve_symmetric(k, theta)
    if abs(theta - tc) < CRITICAL_TOL:
        return SolutionSet(k, theta, tc, (sym,), critical=True)
    sols = (sym, *solve_asymmetric(k, theta))
    return SolutionSet(k, theta, tc, sols)


# ---------------------------------------------------------------------------
# Boundary-law iteration for general even m (exploratory beyond m = 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryLaw:
    """Positive boundary-law vector (z_0, ..., z_m) normalized to z_m = 1."""

    z: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.z) < 3 or len(self.z) % 2 == 0:
            raise ValueError("boundary law needs m + 1 entries with m even >= 2")
        if any(not v > 0 for v in self.z):
            raise ValueError("boundary-law entries must be positive")
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
                f"iterate left the positive orthant at step {it}: {z_new}"
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
    lam = activity_matrix(params.m, params.theta)
    z = np.asarray(law.z, dtype=float)
    return float(np.max(np.abs(_map_once(lam, params.k, z) - z)))
