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

There are two entry points with the same bits.  ``find_root`` solves one
equation.  ``_find_roots`` solves many at once, one lane per equation:
it runs the same Brent steps on every live lane with numpy and drops a
lane as soon as it meets the stop rule, so each lane returns exactly the
float that ``find_root`` returns for it.  Every step is an IEEE
operation that numpy rounds as Python does; only the equations' own
powers go lane by lane through Python's ``**``, which the callers
handle.  The lockstep form pays a fixed numpy cost of 60-100 us per
step however many lanes it has, about 1-1.5 ms for the 14-15 steps
that a sweep's slowest lane takes, against tens of microseconds for one
``find_root`` call.  So a single equation stays on ``find_root``, and
every sweep solves both branches of its whole grid in one
``_find_roots`` call; only a sweep that fails is redone point by point.

All routines are pure and deterministic: identical inputs produce
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    f: Callable[[float], float], lo: float, target: float
) -> Bracket:
    """Bracket the solution of f(x) = target for f strictly decreasing on [lo, inf).

    Doubles the upper endpoint starting from lo until f drops below the
    target; the returned bracket certifies the sign change of
    f(x) - target.  Raises UnboundedBracketError after 60 doublings.
    """
    if lo < 0.0:
        raise BracketError(f"expansion by doubling needs lo >= 0, got {lo}")
    g_lo = f(lo) - target
    if not g_lo > 0.0:
        raise BracketError(
            f"f(lo) = target + {g_lo}; need f(lo) > target to start the expansion"
        )
    hi = 2.0 * lo if lo > 0 else 1.0
    for _ in range(_MAX_DOUBLINGS):
        g_hi = f(hi) - target
        if g_hi <= 0.0:
            return Bracket(lo, hi, g_lo, g_hi)
        hi *= 2.0
    raise UnboundedBracketError(
        f"f stayed above target {target} out to x = {hi}; no bracket found"
    )


def _expand_brackets_decreasing(
    f: Callable[[float], float], targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``expand_bracket_decreasing(f, 1.0, target)`` for many targets.

    The values of f at 2, 4, 8, ... do not depend on the target, so each
    is computed once, and only as far up as the lowest target needs:
    f(x) - t <= 0 exactly when f(x) <= t, so every lane has crossed
    once that one has.  One lanes x rungs comparison then finds each
    lane's first crossing.  Returns the lanes' brackets as arrays
    (lo, hi, f_lo, f_hi), each lane equal to the scalar routine's
    ``Bracket`` for its target.
    """
    g_lo = f(1.0) - targets
    if not (g_lo > 0.0).all():
        raise BracketError("f(1) <= target on some lane; no expansion starts")
    lowest = targets.min()
    steps, values = [], []
    step = 2.0
    for _ in range(_MAX_DOUBLINGS):
        steps.append(step)
        values.append(f(step))
        if values[-1] - lowest <= 0.0:
            g = np.subtract.outer(values, targets)
            first = (g <= 0.0).argmax(axis=0)
            g_hi = g[first, np.arange(targets.size)]
            return np.ones_like(targets), np.array(steps)[first], g_lo, g_hi
        step *= 2.0
    open_ = ~(np.subtract.outer(values, targets) <= 0.0).any(axis=0)
    raise UnboundedBracketError(
        f"f stayed above target {targets[open_][0]} out to x = {step}; "
        "no bracket found"
    )


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

    Lane i returns the float ``find_root`` returns for the bracket
    ``Bracket(lo[i], hi[i], f_lo[i], f_hi[i])``.  ``f(lanes, x)`` gives
    the values at the points ``x`` of the lanes whose indices are
    ``lanes``, each as the scalar function of that lane would; ``lanes``
    is always ascending, so lanes of different equations placed in
    blocks split at one index.  Raises
    ConvergenceError if some lane does not stop within _MAX_ITER steps.
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
        for _ in range(_MAX_ITER):
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
    ends = sorted([(float(x[0]), float(fx[0])), (float(c[0]), float(fc[0]))])
    (lo0, f_lo0), (hi0, f_hi0) = ends
    raise ConvergenceError(
        f"{lanes.size} lane(s) did not converge after {_MAX_ITER} steps; "
        f"lane {lanes[0]} has bracket [{lo0}, {hi0}]",
        best=float(x[0]) if abs(fx[0]) <= abs(fc[0]) else float(c[0]),
        bracket=Bracket(lo0, hi0, f_lo0, f_hi0),
    )
