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

import contextlib
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .model import (
    BRANCH_TOL,
    Branch,
    ModelParams,
    TisgmSolution,
    activity_matrix,
    check_params,
)
from .rootfind import (
    Bracket,
    BracketError,
    _expand_brackets_decreasing,
    _find_roots,
    expand_bracket_decreasing,
    find_root,
)

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


def _powers(base: np.ndarray, n: float) -> np.ndarray:
    """base ** n lane by lane through Python's float power.

    ``np.power`` may round differently in the last bit, so the lockstep
    routes raise to powers here to keep the bits of the scalar ones.
    """
    return np.fromiter(map(pow, base.tolist(), repeat(n)), float, base.size)


def _lane_max(first, *rest):
    """Python's ``max`` lane by lane, NaN included.

    ``max`` keeps its running value unless a later argument compares
    greater, so a NaN survives only where it comes first; np.maximum
    would spread every NaN.
    """
    out = first
    for value in rest:
        out = np.where(value > out, value, out)
    return out


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
    # eta's formula, with no overflow handling; _powers as ``power`` for arrays
    s = x * _power_sum(x, k - 1)  # x + x^2 + ... + x^(k-1)
    # 1 + x + ... + x^(k-1) is s + 1.0 bit for bit: Horner's last step
    # is _power_sum(x, k - 1) * x + 1.0, and IEEE products commute.
    # Group as s * ((s + 1) / (x^k + 1))^k so large x cannot overflow.
    return s * power((s + 1.0) / (power(x, k) + 1.0), k)


def _eta_lanes(x: np.ndarray, k: int) -> np.ndarray:
    """``eta`` on every lane of x, bit for bit."""
    # float arithmetic overflows to inf silently; so does it here
    ignore = np.errstate(over="ignore", invalid="ignore")
    with contextlib.suppress(OverflowError), ignore:
        value = _eta_value(x, k, _powers)
        if np.isfinite(value).all():
            return value
    # a lane left the double range: take eta's own way out, lane by lane
    return np.array([eta(v, k) for v in x.tolist()])


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
    # compatibility_residual from x^k and w = theta y^k; _lane_max as
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
    ``find_root`` stops on a bracket a few ulp of y wide, so y keeps full
    relative precision down to the smallest theta, where y ~ 2 theta.
    """
    check_params(k, theta)

    def f(y: float) -> float:
        return _symmetric_f(k, theta, y)

    hi = 2.0 ** (1.0 / (k + 1))
    y = find_root(f, Bracket.certify(f, 0.0, hi))
    return _checked(k, theta, 1.0, y, Branch.SYMMETRIC)


def solve_asymmetric(k: int, theta: float) -> list[TisgmSolution]:
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
    x1 = find_root(lambda x: eta(x, k) - target, bracket)
    x2 = 1.0 / x1
    upper = _checked(k, theta, x1, _recover_y(k, theta, x1), Branch.UPPER)
    lower = _checked(k, theta, x2, _recover_y(k, theta, x2), Branch.LOWER)
    return [upper, lower]


def _symmetric_f(k: int, theta: float, y: float, power=pow) -> float:
    # the symmetric equation's f; _powers as ``power`` for arrays
    return theta * power(y, k + 1) + y - 2.0 * theta


def _recover_y(k: int, theta: float, x: float, power=pow) -> float:
    # theta y^k = x + ... + x^(k-1); _powers as ``power`` for arrays
    return power(x * _power_sum(x, k - 1) / theta, 1.0 / k)


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


# Branch of each code in a SolutionGrid's ``branch`` column.
BRANCHES = (Branch.SYMMETRIC, Branch.UPPER, Branch.LOWER)


@dataclass(frozen=True, eq=False)
class SolutionGrid:
    """The fixed points of every theta of a grid, as columns.

    Row i is the solution of branch ``BRANCHES[branch[i]]`` at grid
    point ``point[i]``.  Rows run in grid order and, within a point, as
    in its SolutionSet: Symmetric, then Upper and Lower below theta_cr.
    ``critical`` marks grid points as ``SolutionSet.critical`` does.
    ``xk`` and ``w`` are each row's x^k and theta y^k, computed once for
    the residual contract and kept for the kernel.
    """

    theta_critical: float
    critical: np.ndarray
    point: np.ndarray
    branch: np.ndarray
    x: np.ndarray
    y: np.ndarray
    xk: np.ndarray
    w: np.ndarray


def enumerate_solution_grid(k: int, thetas: np.ndarray) -> SolutionGrid:
    """``enumerate_solutions`` at every theta of a grid, bit for bit.

    Both branches of every grid point are solved in one lockstep form of
    ``find_root``: first one lane per point for the symmetric y on
    [0, 2^(1/(k+1))], then one per asymmetric pair for its upper x, with
    the brackets from one shared doubling ladder of eta, whose values
    depend on k only.  Every row meets the residual contract and
    ``TisgmSolution``'s positivity and branch checks, checked on the
    columns; if a row fails them, ConsistencyError names the first such
    point.  Raises ValueError, ArithmeticError or RuntimeError if any
    point fails, not necessarily with the message of the first failing
    point; ``enumerate_solutions`` at each point in turn gives that one.
    """
    check_params(k, float(thetas.min()))
    check_params(theta=float(thetas.max()))
    n = thetas.size
    tc = theta_cr(k)
    critical = abs(thetas - tc) < CRITICAL_TOL
    # solve_asymmetric's own early exits: theta >= theta_cr, then the
    # pair merged with x = 1 beyond float resolution
    lanes = np.flatnonzero(~critical & (thetas < tc))
    target = _powers(thetas[lanes], k + 1)
    split = target < eta(1.0, k)
    lanes, target = lanes[split], target[split]
    # float arithmetic overflows to inf silently; so does it here
    with np.errstate(all="ignore"):
        lo = np.zeros(n)
        hi = np.full(n, 2.0 ** (1.0 / (k + 1)))
        f_lo = _symmetric_f(k, thetas, lo, _powers)
        f_hi = _symmetric_f(k, thetas, hi, _powers)
        # f(0) = -2 theta < 0, so a lane certifies unless f(hi) < 0
        if (f_hi < 0.0).any():
            raise BracketError("no sign change on the symmetric bracket of some theta")
        if lanes.size:
            ladder = _expand_brackets_decreasing(lambda x: eta(x, k), target)
            lo, hi, f_lo, f_hi = map(np.concatenate, zip((lo, hi, f_lo, f_hi), ladder))

        def f(i: np.ndarray, x: np.ndarray) -> np.ndarray:
            # the live lanes are sorted, so the symmetric ones come first
            j = np.searchsorted(i, n)
            return np.concatenate((
                _symmetric_f(k, thetas[i[:j]], x[:j], _powers),
                _eta_lanes(x[j:], k) - target[i[j:] - n],
            ))

        roots = _find_roots(f, lo, hi, f_lo, f_hi)
        y0, x1 = roots[:n], roots[n:]
        x2 = 1.0 / x1
        y1, y2 = (_recover_y(k, thetas[lanes], x, _powers) for x in (x1, x2))
        # rows of each branch, then sorted by point and branch code
        point = np.concatenate((np.arange(n), lanes, lanes))
        branch = np.repeat([0, 1, 2], (n, lanes.size, lanes.size))
        order = np.argsort(3 * point + branch)
        point, branch = point[order], branch[order]
        x = np.concatenate((np.ones(n), x1, x2))[order]
        y = np.concatenate((y0, y1, y2))[order]
        theta = thetas[point]
        xk = _powers(x, k)
        w = theta * _powers(y, k)
        residual = _residual(theta, x, y, xk, w, _lane_max)
        # branch_of(x) as a code
        side = np.where(abs(x - 1.0) < BRANCH_TOL, 0, np.where(x > 1.0, 1, 2))
    failed = (residual > RESIDUAL_TOL) | ~((x > 0.0) & (y > 0.0)) | (side != branch)
    if failed.any():
        where = float(theta[failed.argmax()])
        raise ConsistencyError(f"a fixed point at k={k}, theta={where} fails a check")
    return SolutionGrid(tc, critical, point, branch, x, y, xk, w)


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
