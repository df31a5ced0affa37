"""Certified scalar root finding on sign-change brackets.

``find_root`` runs Brent's method (R. P. Brent, *Algorithms for
Minimization without Derivatives*, 1973) on a certified bracket.  Each
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
from dataclasses import dataclass
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
    """Iteration budget exhausted; carries the best estimate and its bracket."""

    def __init__(self, message: str, best: float, bracket: Bracket):
        super().__init__(message)
        self.best = best
        self.bracket = bracket


def _sign(v: float) -> int:
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] with a certified sign change of the target function.

    f_lo and f_hi are the function's values at the ends, kept so that
    ``find_root`` need not evaluate them again.
    """

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise BracketError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        signs = _sign(self.f_lo), _sign(self.f_hi)
        if signs[0] == signs[1]:
            raise BracketError(
                f"no sign change on [{self.lo}, {self.hi}]: signs {signs}"
            )

    @classmethod
    def certify(cls, f: Callable[[float], float], lo: float, hi: float) -> "Bracket":
        """Evaluate f at the endpoints and certify the sign change."""
        return cls(lo, hi, f(lo), f(hi))


def find_root(f: Callable[[float], float], b: Bracket) -> float:
    """Root of f inside the certified bracket b, by Brent's method.

    The estimate is the end of the current sign-change bracket [x, c]
    with the smaller |f|.  It stops when the bracket's half-width is at
    most 2 eps |x| plus the subnormal floor, or when f(x) == 0.  The
    result always lies inside the certified bracket.

    Raises ConvergenceError, carrying the best estimate and the final
    bracket, if _MAX_ITER steps do not reach the stop rule.
    """
    if _sign(b.f_lo) == 0:
        return b.lo
    if _sign(b.f_hi) == 0:
        return b.hi

    # x is the estimate, c the far end of the bracket, a the previous x
    a, fa = b.lo, b.f_lo
    x, fx = b.hi, b.f_hi
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
    (lo, f_lo), (hi, f_hi) = sorted([(x, fx), (c, fc)])
    raise ConvergenceError(
        f"no convergence after {_MAX_ITER} steps; bracket [{lo}, {hi}]",
        best=x if abs(fx) <= abs(fc) else c,
        bracket=Bracket(lo, hi, f_lo, f_hi),
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
    Returns the brackets as lists (lo, hi, f_lo, f_hi), one entry per
    target.  Raises UnboundedBracketError, naming the first open lane's
    target, after 60 doublings.
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
        f"f stayed above target {float(open_)} out to x = {step}; "
        "no bracket found"
    )
