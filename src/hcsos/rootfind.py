"""Certified scalar root finding on sign-change brackets.

``find_root`` runs Brent's method (R. P. Brent, *Algorithms for
Minimization without Derivatives*, 1973) on a bracket, which is four
numbers: ends lo < hi and f's values there, of opposite signs.  Each
step is an inverse-quadratic or secant step, taken only if it lands well
inside the bracket and shrinks it fast enough; otherwise it bisects.  The
bracket keeps a sign change at every step, so the estimate always lies
inside it and inside the certified one, however badly behaved the
derivative is, and the convergence is superlinear wherever f is smooth.

The iteration stops once the bracket is a few ulp of |root| wide, with
an absolute floor of the smallest subnormal so that a root at 0 still
ends.  The stop rule is relative, so a root of any magnitude, 1e-300
included, keeps full relative precision.

All routines are pure and deterministic: identical inputs produce
bit-identical outputs.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

_EPS = math.ulp(1.0)
# Floor of the stop rule: a root at 0 ends once the bracket is subnormal.
_TINY = math.ulp(0.0)

# Brent converges only linearly near a multiple root.  At a root at 0,
# where the floor is subnormal, that takes ~1850 steps for t |t| from
# [-1, 3]; the cap lets such a root end and still stops a runaway.
_MAX_ITER = 4000
_MAX_DOUBLINGS = 60


class BracketError(ValueError):
    """The requested bracket does not certify a sign change."""


class UnboundedBracketError(BracketError):
    """Doubling the upper endpoint never crossed the target value."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; the message names the final bracket."""


def _sign(v: float) -> int:
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


def find_root(
    f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float
) -> float:
    """Root of f on the bracket lo < hi, by Brent's method.

    f_lo and f_hi are f at lo and hi, of opposite signs (zero and NaN
    count as sign 0), else BracketError; a zero end is the root.

    The estimate is the end of the current sign-change bracket [x, c]
    with the smaller |f|.  It stops when the bracket's half-width is at
    most 2 eps |x| plus the subnormal floor, or when f(x) == 0.  The
    result always lies inside the certified bracket.

    Raises ConvergenceError, naming the final bracket, if _MAX_ITER
    steps do not reach the stop rule.
    """
    if not lo < hi:
        raise BracketError(f"need lo < hi, got [{lo}, {hi}]")
    signs = _sign(f_lo), _sign(f_hi)
    if signs[0] == signs[1]:
        raise BracketError(f"no sign change on [{lo}, {hi}]: signs {signs}")
    if 0 in signs:
        return lo if signs[0] == 0 else hi

    # x is the estimate, c the far end of the bracket, a the previous x
    a, fa = lo, f_lo
    x, fx = hi, f_hi
    c, fc = a, fa
    d = e = x - a
    for _ in range(_MAX_ITER):
        if abs(fc) < abs(fx):
            a, fa = x, fx
            x, fx = c, fc
            c, fc = a, fa
        tol = 2.0 * _EPS * abs(x) + _TINY
        m = 0.5 * (c - x)
        if abs(m) <= tol or fx == 0.0:
            return x
        if abs(e) >= tol and abs(fa) > abs(fx):
            s = fx / fa
            if a == c:  # secant
                p = 2.0 * m * s
                q = 1.0 - s
            else:  # inverse quadratic through a, x, c
                q = fa / fc
                r = fx / fc
                p = s * (2.0 * m * q * (q - r) - (x - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # take the step only if it lands well inside the bracket and
            # is under half the step before last; else bisect
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = x, fx
        x += d if abs(d) > tol else math.copysign(tol, m)
        fx = f(x)
        if (fx > 0.0 and fc > 0.0) or (fx < 0.0 and fc < 0.0):
            # x crossed to c's side: the bracket is now [a, x]
            c, fc = a, fa
            d = e = x - a
    lo, hi = sorted((x, c))
    raise ConvergenceError(
        f"no convergence after {_MAX_ITER} steps; bracket [{lo}, {hi}]"
    )


def expand_bracket_decreasing(
    f: Callable[[float], float], targets: Sequence[float]
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Bracket each solution of f(x) = target for f strictly decreasing on [1, inf).

    Doubles the upper endpoint from 1 until f drops to each target; lane
    i's bracket [1, hi] certifies the sign change of f(x) - targets[i].
    The values of f at 2, 4, 8, ... do not depend on the target, so each
    is computed once, and only as far up as the lowest target needs:
    f(x) - t <= 0 exactly when f(x) <= t, so every lane has crossed
    once that one has.  Each lane's hi is then its first crossing.
    Returns lane i's bracket, ``find_root``'s four numbers, as entry i of
    four lists (lo, hi, f_lo, f_hi).  Raises UnboundedBracketError after
    60 doublings, naming the first open lane's target and x = 2^60.
    """
    f_one = f(1.0)
    g_lo = [f_one - t for t in targets]
    if not all(g > 0.0 for g in g_lo):
        raise BracketError("f(1) <= target on some lane; no expansion starts")
    lowest = min(targets)
    steps, values = [], []
    step = 2.0
    for _ in range(_MAX_DOUBLINGS):
        steps.append(step)
        values.append(f(step))
        if values[-1] - lowest <= 0.0:
            first = [next(i for i, v in enumerate(values) if v - t <= 0.0)
                     for t in targets]
            g_hi = [values[i] - t for i, t in zip(first, targets)]
            return [1.0] * len(first), [steps[i] for i in first], g_lo, g_hi
        step *= 2.0
    open_ = next(t for t in targets if not any(v - t <= 0.0 for v in values))
    raise UnboundedBracketError(
        f"f stayed above target {float(open_)} out to x = {steps[-1]}; "
        "no bracket found"
    )
