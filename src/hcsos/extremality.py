"""Extremality classification of the translation-invariant Gibbs measures.

Two criteria drive every verdict:

* Kesten-Stigum (non-extremality): k s2^2 > 1, with s2 the modulus of
  the second-largest eigenvalue of the kernel (``s2_of``).
* MSW (extremality): k kappa gamma < 1 with the row distance kappa
  (``kappa_of``).  gamma is the same row distance as kappa, so the test
  is evaluated as k kappa^2 < 1 and gamma is reported equal to kappa.

On the symmetric branch kappa = gamma = s2, so the two tests are sharp
complements of each other: outside a small boundary band exactly one of
them decides.  The band where neither strict inequality holds (and the
s2 branch switch at theta = 1) is reported as Undetermined.  One rule,
``_verdicts``, turns the two criteria into a verdict, and ``_criteria``
reads all of it off a kernel's six entries, as floats or as columns.

For the asymmetric measures at k = 2 the Kesten-Stigum condition
provably never holds (it reduces to (x-1)^2 + 2(x^2+1) < 0), so the
verdict is Extreme when 2 kappa^2 < 1 and Undetermined otherwise --
never NonExtreme.  For k >= 3 the MSW bound is not backed by theory for
the asymmetric kernels, so only the Kesten-Stigum side is trusted there.
Every k, k = 2 included, reaches the asymmetric pair through the one
solver ``solve_asymmetric``, which alone decides whether mu1 and mu2
exist, so ``solution_of``, ``classify --measure all`` and a sweep
report the same measures with the same numbers.

Thresholds (all for the symmetric measure unless noted, boundary values
excluded):

  k = 2: non-extreme below theta1 = (1/2)(4 sqrt2 - 4)^(1/3) and above
         theta2 = (1/2)(28 + 20 sqrt2)^(1/3); extreme between.
         The asymmetric pair is extreme on (theta5, 1) with
         theta5 = ((2 + sqrt(2 + 2 sqrt2)) / (2 + 2 sqrt2))^(1/3).
  k = 3: same picture with theta3^4 = (9 - 3 sqrt3) / 8 and
         theta4^4 = (36 + 21 sqrt3) / 32; ``thresholds(3)`` root-finds
         them.  For any k, w = theta y^k on the symmetric branch gives
         theta^(k+1) = w (w + 1)^k / 2^k, and the two thresholds are
         w = sqrt(k) - 1 (theta <= 1) and w = 1 / (sqrt(k) - 1) (theta >= 1).
  k >= 4: never extreme (k s2^2 > 1 for every theta except the single
         boundary point of k = 4 at theta = 1); ``thresholds`` is empty.

Each threshold is a root of a margin ``classify`` reports (the
Kesten-Stigum value of mu0, or for theta5 the MSW value of mu1, minus 1),
so the printed verdict flips there; the k = 2 closed forms must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .chain import kappa_of, kernel_of, s2_of
from .model import Branch, TisgmSolution, check_params
from .rootfind import find_root
from .tisgm import solve_asymmetric, solve_symmetric, theta_cr

DEFAULT_BOUNDARY_TOL = 1e-9


class Verdict(Enum):
    EXTREME = "Extreme"
    NON_EXTREME = "NonExtreme"
    UNDETERMINED = "Undetermined"


class Measure(Enum):
    MU0 = "mu0"  # symmetric branch
    MU1 = "mu1"  # upper branch, x > 1
    MU2 = "mu2"  # lower branch, x < 1


_MEASURE_OF_BRANCH = {
    Branch.SYMMETRIC: Measure.MU0,
    Branch.UPPER: Measure.MU1,
    Branch.LOWER: Measure.MU2,
}


@dataclass(frozen=True)
class ExtremalityVerdict:
    """Classification of one measure with its witness quantities."""

    measure: Measure
    verdict: Verdict
    s2: float
    kappa: float
    ks_value: float  # k * s2^2; > 1 proves non-extremality
    msw_value: float  # k * kappa * gamma; < 1 proves extremality

    @property
    def gamma(self) -> float:
        """The MSW gamma, the same row distance as kappa."""
        return self.kappa


def classify_solution(k: int, theta: float, sol: TisgmSolution) -> ExtremalityVerdict:
    """Verdict for the measure indexed by an already-computed fixed point.

    ``_criteria`` on the entries of the one kernel ``kernel_of`` builds.
    """
    kern = kernel_of(sol, k, theta)
    *numbers, verdict = _criteria(k, sol.branch is Branch.SYMMETRIC, kern)
    measure = _MEASURE_OF_BRANCH[sol.branch]
    return ExtremalityVerdict(measure, Verdict(verdict), *numbers)


def _choose(condition, if_true, if_false):
    return if_true if condition else if_false


def _criteria(
    k: int, symmetric, entries, power=pow, sqrt=math.sqrt, largest=max, where=_choose
):
    """s2, kappa, the Kesten-Stigum and MSW values and the verdict string
    of the six kernel entries, on floats or lane by lane on columns.

    s2 comes from ``s2_of``, kappa from ``kappa_of`` and the verdict from
    the one rule, ``_verdicts``.  On columns pass ``grid``'s hooks.
    """
    s2 = s2_of(entries, sqrt=sqrt)
    kappa = kappa_of(entries, largest=largest)
    ks = k * power(s2, 2)  # not s2 * s2, which can differ in the last bit
    msw = k * kappa * kappa
    return s2, kappa, ks, msw, _verdicts(k, symmetric, ks, msw, where)


def _verdicts(k: int, symmetric, ks, msw, where=_choose):
    """The verdict rule, as strings, on floats or lane by lane on columns.

    With tol = DEFAULT_BOUNDARY_TOL: on the symmetric branch the
    Kesten-Stigum value decides both directions (the test is sharp
    there), with Undetermined inside the boundary band
    |k s2^2 - 1| <= tol.  The s2 branch switch at theta = 1 needs no
    special casing: both eigenvalue branches give s2 = 1/2 there, so
    only k = 4 lands on the band (k s2^2 = 1 exactly).  Asymmetric at
    k = 2: Extreme iff 2 kappa^2 < 1 - tol, otherwise Undetermined.
    Asymmetric at k >= 3: NonExtreme iff the Kesten-Stigum value
    exceeds 1 + tol, otherwise Undetermined.  NaN compares false, so it
    lands on Undetermined.  On columns pass ``np.where`` as ``where``.
    """
    ext, non, und = (
        Verdict.EXTREME.value, Verdict.NON_EXTREME.value, Verdict.UNDETERMINED.value
    )
    tol = DEFAULT_BOUNDARY_TOL
    above = ks > 1.0 + tol
    sym = where(above, non, where(ks < 1.0 - tol, ext, und))
    if k == 2:
        asym = where(msw < 1.0 - tol, ext, und)
    else:
        asym = where(above, non, und)
    return where(symmetric, sym, asym)


def solution_of(k: int, theta: float, measure: Measure) -> TisgmSolution:
    """Fixed point that indexes ``measure`` at (k, theta).

    mu0 is the symmetric root; mu1 and mu2 are the upper and lower roots
    of ``solve_asymmetric``, which alone decides whether they exist.
    Raises ValueError with ``no_pair_text`` where it gives no pair.
    """
    if measure is Measure.MU0:
        return solve_symmetric(k, theta)
    pair = solve_asymmetric(k, theta)
    if not pair:
        raise ValueError(no_pair_text(k, theta))
    return pair[0] if measure is Measure.MU1 else pair[1]


def no_pair_text(k: int, theta: float, at_point: bool = True) -> str:
    """Why mu1/mu2 do not exist where ``solve_asymmetric`` gives []: the
    error's text ``at_point``, else the note of ``classify --measure all``."""
    tc = theta_cr(k)
    merged = ", where the pair is merged with mu0"
    why = f">= theta_cr = {tc}" if theta >= tc else f"< theta_cr = {tc}{merged}"
    where = f"at k={k}, theta={theta} {why}" if at_point else f"(theta {why})"
    return f"mu1/mu2 do not exist {where}"


@dataclass(frozen=True)
class Threshold:
    """One classification threshold, root-found and (when available) closed-form."""

    name: str
    root_found: float
    closed_form: float | None

    @property
    def provenance(self) -> str:
        return "closed-form" if self.closed_form is not None else "root-found"

    @property
    def value(self) -> float:
        return self.closed_form if self.closed_form is not None else self.root_found


def thresholds(k: int) -> dict[str, Threshold]:
    """Classification thresholds by name: theta1, theta2 and theta5 for
    k = 2, theta3 and theta4 for k = 3, none for k >= 4.

    Each entry is a root of a margin ``classify`` reports:
    the ``ks_value - 1`` of mu0 on [0.01, 1] and [1, 4], and the
    ``msw_value - 1`` of mu1 at k = 2 on [0.5, 0.999] for theta5.
    The k = 2 entries also carry independent closed forms.  For k >= 4
    the table is empty, because the symmetric measure is never extreme.
    Raises ValueError for k < 2.
    """
    check_params(k)
    if k >= 4:
        return {}
    ks = lambda t: classify_solution(k, t, solve_symmetric(k, t)).ks_value - 1.0
    below = find_root(ks, 0.01, 1.0, ks(0.01), ks(1.0))
    above = find_root(ks, 1.0, 4.0, ks(1.0), ks(4.0))
    if k == 3:
        entries = (
            Threshold("theta3", below, None),
            Threshold("theta4", above, None),
        )
    else:
        mu1 = lambda t: solution_of(2, t, Measure.MU1)
        msw = lambda t: classify_solution(2, t, mu1(t)).msw_value - 1.0
        r2 = math.sqrt(2.0)
        s = math.sqrt(2.0 + 2.0 * r2)
        entries = (
            Threshold("theta1", below, 0.5 * (4.0 * r2 - 4.0) ** (1.0 / 3.0)),
            Threshold("theta2", above, 0.5 * (28.0 + 20.0 * r2) ** (1.0 / 3.0)),
            Threshold(
                "theta5",
                find_root(msw, 0.5, 0.999, msw(0.5), msw(0.999)),
                ((2.0 + s) / (2.0 + 2.0 * r2)) ** (1.0 / 3.0),
            ),
        )
    return {t.name: t for t in entries}
