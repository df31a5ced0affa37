"""Extremality classification of the translation-invariant Gibbs measures.

Two criteria drive every verdict:

* Kesten-Stigum (non-extremality): k s2^2 > 1, with s2 the modulus of
  the second-largest eigenvalue of the transition kernel.
* MSW (extremality): k kappa gamma < 1 with the row-distance quantities
  from the chain module.  gamma is the same row distance as kappa, so
  the test is evaluated as k kappa^2 < 1 and gamma is reported equal to
  kappa.

On the symmetric branch kappa = gamma = s2, so the two tests are sharp
complements of each other: outside a small boundary band exactly one of
them decides.  The band where neither strict inequality holds (and the
s2 branch switch at theta = 1) is reported as Undetermined.

For the asymmetric measures at k = 2 the Kesten-Stigum condition
provably never holds (it reduces to (x-1)^2 + 2(x^2+1) < 0), so the
verdict is Extreme when 2 kappa^2 < 1 and Undetermined otherwise --
never NonExtreme.  For k >= 3 the MSW bound is not backed by theory for
the asymmetric kernels, so only the Kesten-Stigum side is trusted there.
Every k, k = 2 included, reaches the asymmetric pair through the one
solver ``solve_asymmetric``, so ``classify_mu12`` and a sweep report
the same numbers for the same measure.

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
         boundary point of k = 4 at theta = 1).

Each threshold is the root of its defining margin function (h, q, or
the 2 kappa^2 = 1 equation); where a closed form exists the two routes
are computed independently and must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chain import (
    _entries_of_powers,
    _path_terms,
    kernel_entries,
    path_spectrum,
    row_distance,
)
from .model import Branch, TisgmSolution
from .rootfind import Bracket, find_root
from .tisgm import _lane_max, _powers, solve_asymmetric, solve_symmetric, theta_cr

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
    gamma: float  # equal to kappa
    ks_value: float  # k * s2^2; > 1 proves non-extremality
    msw_value: float  # k * kappa * gamma; < 1 proves extremality


def classify_solution(k: int, theta: float, sol: TisgmSolution) -> ExtremalityVerdict:
    """Verdict for the measure indexed by an already-computed fixed point.

    With tol = DEFAULT_BOUNDARY_TOL: on the symmetric branch the
    Kesten-Stigum value decides both directions (the test is sharp
    there), with Undetermined inside the boundary band
    |k s2^2 - 1| <= tol.  The s2 branch switch at theta = 1 needs no
    special casing: both eigenvalue branches give s2 = 1/2 there, so
    only k = 4 lands on the band (k s2^2 = 1 exactly).  Asymmetric at
    k = 2: Extreme iff 2 kappa^2 < 1 - tol, otherwise Undetermined.
    Asymmetric at k >= 3: NonExtreme iff the Kesten-Stigum value
    exceeds 1 + tol, otherwise Undetermined.  Every branch and k takes
    s2 and kappa from the formulas ``spectrum_numeric`` and ``kappa_of``
    use, applied to the six kernel entries as plain floats.
    """
    entries = kernel_entries(sol.x, sol.y, k, theta)
    kappa = row_distance(*entries)
    s2 = path_spectrum(*entries)[0]
    ks = k * s2**2
    msw = k * kappa * kappa

    tol = DEFAULT_BOUNDARY_TOL
    if sol.branch is Branch.SYMMETRIC:
        if ks > 1.0 + tol:
            verdict = Verdict.NON_EXTREME
        elif ks < 1.0 - tol:
            verdict = Verdict.EXTREME
        else:
            verdict = Verdict.UNDETERMINED
    elif k == 2:
        verdict = Verdict.EXTREME if msw < 1.0 - tol else Verdict.UNDETERMINED
    else:
        verdict = Verdict.NON_EXTREME if ks > 1.0 + tol else Verdict.UNDETERMINED
    measure = _MEASURE_OF_BRANCH[sol.branch]
    return ExtremalityVerdict(measure, verdict, s2, kappa, kappa, ks, msw)


def classify_columns(
    k: int, xk: np.ndarray, w: np.ndarray, symmetric: np.ndarray
) -> tuple[np.ndarray, ...]:
    """``classify_solution`` on columns, lane by lane and bit for bit.

    Each lane is one fixed point, given by x^k and w = theta y^k;
    ``symmetric`` marks the lanes of the Symmetric branch.  Returns the
    columns s2, kappa, ks_value, msw_value and the verdict strings, with
    the default boundary band.  Raises ArithmeticError if some lane's
    kernel is degenerate, where ``kernel_entries`` raises on that lane.
    """
    with np.errstate(all="ignore"):
        entries = _entries_of_powers(xk, w)
        if not np.isfinite(sum(entries)).all():
            raise ArithmeticError("degenerate kernel at some fixed point of the grid")
        kappa = row_distance(*entries, largest=_lane_max)
        s2 = _path_terms(*entries, sqrt=np.sqrt)[2]
    ks = k * _powers(s2, 2)
    msw = k * kappa * kappa
    return s2, kappa, ks, msw, _verdicts(k, symmetric, ks, msw)


def _verdicts(
    k: int, symmetric: np.ndarray, ks: np.ndarray, msw: np.ndarray
) -> np.ndarray:
    # classify_solution's verdict rule on columns
    ext, non, und = (
        Verdict.EXTREME.value, Verdict.NON_EXTREME.value, Verdict.UNDETERMINED.value
    )
    tol = DEFAULT_BOUNDARY_TOL
    above = ks > 1.0 + tol
    sym = np.where(above, non, np.where(ks < 1.0 - tol, ext, und))
    if k == 2:
        asym = np.where(msw < 1.0 - tol, ext, und)
    else:
        asym = np.where(above, non, und)
    return np.where(symmetric, sym, asym)


def solution_of(k: int, theta: float, measure: Measure) -> TisgmSolution:
    """Fixed point that indexes ``measure`` at (k, theta).

    mu0 is the symmetric root; mu1 and mu2 are the upper and lower roots
    of ``solve_asymmetric``.  Raises ValueError when mu1/mu2 do not exist
    (theta at or above theta_cr(k)).
    """
    if measure is Measure.MU0:
        return solve_symmetric(k, theta)
    pair = solve_asymmetric(k, theta)
    if not pair:
        raise ValueError(
            f"mu1/mu2 do not exist at k={k}, theta={theta} >= theta_cr = {theta_cr(k)}"
        )
    upper, lower = pair
    return upper if measure is Measure.MU1 else lower


def classify_mu0(k: int, theta: float) -> ExtremalityVerdict:
    """Classify the symmetric measure, which exists at every (k, theta)."""
    sol = solution_of(k, theta, Measure.MU0)
    return classify_solution(k, theta, sol)


def classify_mu12(
    k: int, theta: float, measure: Measure = Measure.MU1
) -> ExtremalityVerdict:
    """Classify an asymmetric measure for any k >= 2.

    The pair comes from ``solve_asymmetric``, as in a sweep.  At k = 2
    Kesten-Stigum can never hold, so the only decisive outcome is
    Extreme (2 kappa^2 < 1); k >= 3 trusts only the Kesten-Stigum
    direction.  Raises ValueError when the measure does not exist (theta
    at or above theta_cr(k)).
    """
    if measure is Measure.MU0:
        raise ValueError("mu0 is handled by classify_mu0")
    sol = solution_of(k, theta, measure)
    return classify_solution(k, theta, sol)


def h_func(k: int, theta: float) -> float:
    """Kesten-Stigum margin of the symmetric measure for theta <= 1.

    Equals k / (theta y^k + 1)^2 - 1 at the symmetric root y; positive
    means non-extreme.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"h is defined for 0 < theta <= 1, got {theta}")
    y = solve_symmetric(k, theta).y
    return k / (theta * y**k + 1.0) ** 2 - 1.0


def q_func(k: int, theta: float) -> float:
    """Kesten-Stigum margin of the symmetric measure for theta >= 1.

    Equals k (w / (w + 1))^2 - 1 with w = theta y^k; positive means
    non-extreme.
    """
    if not theta >= 1.0:
        raise ValueError(f"q is defined for theta >= 1, got {theta}")
    y = solve_symmetric(k, theta).y
    w = theta * y**k
    return k * (w / (w + 1.0)) ** 2 - 1.0


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


@dataclass(frozen=True)
class ThresholdTable:
    k: int
    entries: tuple[Threshold, ...]

    def __getitem__(self, name: str) -> Threshold:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)


def _mu12_margin_k2(theta: float) -> float:
    # 2 kappa^2 - 1 for the upper branch; decreasing in theta on (0, 1).
    # x1 is the closed-form upper root: with rho = x + 1/x the k = 2 fixed
    # point condition is theta^3 rho^2 - rho - 2 = 0
    t3 = theta**3
    rho1 = (1.0 + math.sqrt(1.0 + 8.0 * t3)) / (2.0 * t3)
    x1 = 0.5 * (rho1 + math.sqrt(rho1 * rho1 - 4.0))
    kappa = x1 * x1 / (x1 * x1 + 1.0)
    return 2.0 * kappa * kappa - 1.0


def thresholds(k: int) -> ThresholdTable:
    """Classification thresholds for k in {2, 3}.

    Each entry is the root of its defining margin function; the k = 2
    entries also carry independent closed forms.  k outside {2, 3}
    raises: for k >= 4 no thresholds exist because the symmetric measure
    is never extreme.
    """
    if k == 2:
        t1_closed = 0.5 * (4.0 * math.sqrt(2.0) - 4.0) ** (1.0 / 3.0)
        t2_closed = 0.5 * (28.0 + 20.0 * math.sqrt(2.0)) ** (1.0 / 3.0)
        s = math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
        t5_closed = ((2.0 + s) / (2.0 + 2.0 * math.sqrt(2.0))) ** (1.0 / 3.0)
        h2 = lambda t: h_func(2, t)
        q2 = lambda t: q_func(2, t)
        t1_root = find_root(h2, Bracket.certify(h2, 0.01, 1.0))
        t2_root = find_root(q2, Bracket.certify(q2, 1.0, 4.0))
        t5_root = find_root(
            _mu12_margin_k2, Bracket.certify(_mu12_margin_k2, 0.5, 0.999)
        )
        return ThresholdTable(
            k=2,
            entries=(
                Threshold("theta1", t1_root, t1_closed),
                Threshold("theta2", t2_root, t2_closed),
                Threshold("theta5", t5_root, t5_closed),
            ),
        )
    if k == 3:
        h3 = lambda t: h_func(3, t)
        q3 = lambda t: q_func(3, t)
        t3_root = find_root(h3, Bracket.certify(h3, 0.01, 1.0))
        t4_root = find_root(q3, Bracket.certify(q3, 1.0, 4.0))
        return ThresholdTable(
            k=3,
            entries=(
                Threshold("theta3", t3_root, None),
                Threshold("theta4", t4_root, None),
            ),
        )
    raise ValueError(
        f"thresholds exist only for k in {{2, 3}}; for k = {k} >= 4 the "
        "symmetric measure is non-extreme at every theta"
    )
