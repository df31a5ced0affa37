"""The lockstep route of a sweep: a whole theta grid solved and classified as columns.

``sweep_table`` builds a sweep's ``SweepTable`` for the whole grid at
once: in one lockstep solve the symmetric root at every grid point and
the pair's upper root wherever theta_cr(k) alone lets the pair exist,
then the residual contract and the solution checks
(``enumerate_solution_grid``), then the kernel entries, s2, kappa, the
two criteria and the verdicts (``classify_solution``'s own
``extremality._criteria``, on columns).  x^k and theta y^k
are computed once per solution, and the columns become Python values
before any is printed.  Every number equals what a lone call at that
point gives, so sweep, tisgm and classify agree bit for bit.  The one
point-by-point path is the failure fallback: if a point leaves the
model's domain, the sweep is redone point by point, so the first failing
point raises exactly as a lone call there does.

The lanes keep the bits of the scalar route because every step is an
IEEE operation that numpy rounds as Python does, except two, which go
lane by lane here: powers through Python's float ``**`` (``_powers``;
``np.power`` may round differently in the last bit) and ``max`` in
Python's order, NaN included (``_lane_max``).  The scalar route's
formulas take these, ``np.sqrt`` and ``np.where`` as their ``power``,
``largest``, ``sqrt`` and ``where`` hooks, so each formula, the
criteria and the verdict rule are written once.

``_find_roots`` is ``rootfind.find_root`` on many lanes: it runs the
same Brent steps on every live lane and drops a lane as soon as it meets
the stop rule, so each lane returns exactly the float that ``find_root``
returns for it.  It pays a fixed numpy cost of 60-100 us per step
however many lanes it has, about 1-1.5 ms for the 14-15 steps that a
sweep's slowest lane takes, against tens of microseconds for one
``find_root`` call.  So a single equation stays on ``find_root``, and a
sweep solves both branches of its whole grid in one ``_find_roots``
call, with its eta brackets from one call of the one ladder,
``rootfind.expand_bracket_decreasing``.

Only ``cli.cmd_sweep`` imports this module.  It is the one module that
imports numpy when it loads; the others import it inside the functions
that use arrays, so no verb but ``sweep`` and ``iterate`` loads numpy.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from . import rootfind, tisgm
from .chain import _entries_of_powers
from .cli import SweepTable
from .extremality import _criteria, classify_solution
from .model import BRANCH_TOL, Branch, check_params
from .rootfind import (
    _EPS,
    _TINY,
    BracketError,
    ConvergenceError,
    expand_bracket_decreasing,
)
from .tisgm import (
    CRITICAL_TOL,
    ConsistencyError,
    _eta_value,
    _recover_y,
    _residual,
    _symmetric_f,
    enumerate_solutions,
    eta,
    theta_cr,
)

# What the lockstep sweep raises when some grid point leaves the model's domain.
_DOMAIN_ERRORS = (BracketError, ConvergenceError, ConsistencyError, ArithmeticError)

# Branch of each code in a SolutionGrid's ``branch`` column.
BRANCHES = (Branch.SYMMETRIC, Branch.UPPER, Branch.LOWER)

_BRANCH_NAMES = np.array([branch.value for branch in BRANCHES])


def _powers(base: np.ndarray, n: float) -> np.ndarray:
    """base ** n lane by lane through Python's float power."""
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


def _zero_sign(v: np.ndarray) -> np.ndarray:
    # lanes where _sign(v) == 0: zero, or NaN, as find_root reads them
    return ~((v > 0.0) | (v < 0.0))


def _find_roots(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
) -> np.ndarray:
    """``find_root`` on every lane of certified brackets, in lockstep.

    A bracket is four numbers, and lane i returns by construction what
    ``find_root(f_i, lo[i], hi[i], f_lo[i], f_hi[i])`` returns, f_i
    being lane i's scalar function.  ``f(lanes, x)`` gives the values at
    the points ``x`` of the lanes whose indices are ``lanes``, each as
    f_i would; ``lanes`` is always ascending, so lanes of different
    equations placed in blocks split at one index.  Raises
    ConvergenceError if some lane does not stop within
    ``rootfind._MAX_ITER`` steps, the cap of ``find_root``.
    """
    # a zero at an end is the root, lo first, as in find_root
    lo_zero = _zero_sign(f_lo)
    root = np.where(lo_zero, lo, hi)
    lanes = np.flatnonzero(~lo_zero & ~_zero_sign(f_hi))
    if not lanes.size:
        return root
    a, fa = lo[lanes], f_lo[lanes]
    x, fx = hi[lanes], f_hi[lanes]
    c, fc = a, fa
    d = e = x - a
    with np.errstate(all="ignore"):
        for _ in range(rootfind._MAX_ITER):
            swap = abs(fc) < abs(fx)
            a, fa = np.where(swap, x, a), np.where(swap, fx, fa)
            x, fx = np.where(swap, c, x), np.where(swap, fc, fx)
            c, fc = np.where(swap, a, c), np.where(swap, fa, fc)
            tol = 2.0 * _EPS * abs(x) + _TINY
            m = 0.5 * (c - x)
            stop = (abs(m) <= tol) | (fx == 0.0)
            if stop.any():
                root[lanes[stop]] = x[stop]
                go = ~stop
                lanes, a, fa, x, fx, c, fc = (
                    v[go] for v in (lanes, a, fa, x, fx, c, fc)
                )
                d, e, tol, m = d[go], e[go], tol[go], m[go]
                if not lanes.size:
                    return root
            # both interpolations on every lane; np.where keeps the one
            # find_root takes (a == c: secant, else inverse quadratic)
            s = fx / fa
            q, r = fa / fc, fx / fc
            secant = a == c
            m2 = 2.0 * m
            p = np.where(secant, m2 * s, s * (m2 * q * (q - r) - (x - a) * (r - 1.0)))
            q = np.where(secant, 1.0 - s, (q - 1.0) * (r - 1.0) * (s - 1.0))
            flip = p > 0.0
            q = np.where(flip, -q, q)
            p = np.where(flip, p, -p)
            # Python's min(u, v) is v if v < u else u
            u, v = 3.0 * m * q - abs(tol * q), abs(e * q)
            interpolate = (abs(e) >= tol) & (abs(fa) > abs(fx))
            take = interpolate & (2.0 * p < np.where(v < u, v, u))
            e, d = np.where(take, d, m), np.where(take, p / q, m)
            a, fa = x, fx
            x = x + np.where(abs(d) > tol, d, np.copysign(tol, m))
            fx = f(lanes, x)
            cross = ((fx > 0.0) & (fc > 0.0)) | ((fx < 0.0) & (fc < 0.0))
            c, fc = np.where(cross, a, c), np.where(cross, fa, fc)
            moved = x - a
            d, e = np.where(cross, moved, d), np.where(cross, moved, e)
    # report the first unfinished lane as find_root would
    lo0, hi0 = sorted((float(x[0]), float(c[0])))
    raise ConvergenceError(
        f"{lanes.size} lane(s) did not converge after {rootfind._MAX_ITER} steps; "
        f"lane {lanes[0]} has bracket [{lo0}, {hi0}]"
    )


@dataclass(frozen=True, eq=False)
class SolutionGrid:
    """The fixed points of every theta of a grid, as columns.

    Row i is the solution of branch ``BRANCHES[branch[i]]`` at grid
    point ``point[i]``.  Rows run in grid order and, within a point, as
    in its SolutionSet: Symmetric, then Upper and Lower where they exist.
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

    Both branches of every grid point are solved in one ``_find_roots``
    call: first one lane per point for the symmetric y on the bracket of
    ``solve_symmetric``, then one per asymmetric pair for its upper x,
    with the brackets from one call of the eta ladder, whose rungs
    depend on k only.  Every point outside the critical band, the one
    exit of ``solve_asymmetric``, has a pair lane.  Every row meets the
    residual contract, positivity and, if Upper or Lower, |x - 1| >=
    BRANCH_TOL as ``TisgmSolution`` does, checked on the columns; if a
    row fails them, ConsistencyError names the first such point.  Raises
    ValueError, ArithmeticError or RuntimeError if any point fails, not
    necessarily with the message of the first failing point;
    ``enumerate_solutions`` at each point in turn gives that one.
    """
    check_params(k, float(thetas.min()))
    check_params(theta=float(thetas.max()))
    n = thetas.size
    tc = theta_cr(k)
    critical = abs(thetas - tc) < CRITICAL_TOL
    # solve_asymmetric's one exit: the critical band
    lanes = np.flatnonzero(tc - thetas >= CRITICAL_TOL)
    target = _powers(thetas[lanes], k + 1)
    # float arithmetic overflows to inf silently; so does it here
    with np.errstate(all="ignore"):
        lo = np.zeros(n)
        hi = np.full(n, 2.0 ** (1.0 / (k + 1)))
        f_lo = _symmetric_f(k, thetas, lo, _powers)
        f_hi = _symmetric_f(k, thetas, hi, _powers)
        # f(0) = -2 theta < 0; raise hi lane by lane as solve_symmetric does
        while (low := f_hi < 0.0).any():
            hi[low] = np.nextafter(hi[low], math.inf)
            f_hi[low] = _symmetric_f(k, thetas[low], hi[low], _powers)
        if lanes.size:
            ladder = expand_bracket_decreasing(lambda x: eta(x, k), target.tolist())
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
    # the checks of the scalar route, read when the grid is checked
    failed = ~((residual <= tisgm.RESIDUAL_TOL) & (x > 0.0) & (y > 0.0))
    failed |= (branch != 0) & (abs(x - 1.0) < BRANCH_TOL)
    if failed.any():
        where = float(theta[failed.argmax()])
        raise ConsistencyError(f"a fixed point at k={k}, theta={where} fails a check")
    return SolutionGrid(tc, critical, point, branch, x, y, xk, w)


def sweep_table(k: int, theta_min: float, theta_max: float, steps: int) -> SweepTable:
    """Every solution and verdict at each point of the theta grid.

    Bit for bit what ``enumerate_solutions`` and ``classify_solution``
    give at that point alone.
    """
    grid = np.linspace(theta_min, theta_max, steps)
    try:
        sols = enumerate_solution_grid(k, grid)
        symmetric = sols.branch == BRANCHES.index(Branch.SYMMETRIC)
        with np.errstate(all="ignore"):
            entries = _entries_of_powers(sols.xk, sols.w)
            # some lane's kernel is degenerate, where kernel_of raises
            if not np.isfinite(sum(entries)).all():
                raise ArithmeticError("degenerate kernel at some fixed point")
            s2, kappa, ks, msw, verdict = _criteria(
                k, symmetric, entries, _powers, np.sqrt, _lane_max, np.where
            )
    except _DOMAIN_ERRORS as exc:
        # point by point, so the first failing point raises as a lone call
        for theta in grid.tolist():
            for sol in enumerate_solutions(k, theta).solutions:
                classify_solution(k, theta, sol)
        raise AssertionError(
            "the lockstep sweep failed, but every grid point solves alone"
        ) from exc
    verdict = np.where(sols.critical[sols.point], "Critical", verdict)
    fields = (_BRANCH_NAMES[sols.branch], sols.x, sols.y, s2, kappa, ks, msw, verdict)
    columns = [
        [k] * grid.size,
        grid.tolist(),
        [sols.theta_critical] * grid.size,
        *(column.tolist() for column in fields),
    ]
    ends = np.cumsum(np.bincount(sols.point, minlength=grid.size)).tolist()
    return SweepTable(columns, ends)
