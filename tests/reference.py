"""Independent oracles the tests compare the library against.

None of these is a production route: the library computes the k = 2
asymmetric pair with ``solve_asymmetric``, reports gamma equal to
kappa, root-finds every threshold on the margins ``classify`` reports
(ks_value - 1 of mu0, msw_value - 1 of mu1), takes s2 and the
stationary law from the path-graph identities of the chain module,
draws the counts of many samples from their aggregate law without
visiting a vertex, and solves and classifies a sweep's whole grid as
columns, brackets every
asymmetric root with one many-target ladder and applies one verdict
rule, with ``np.where`` on columns.  The whole eigenvalue triple, the
closed forms, the margins h
and q in w = theta y^k, the closed-form 2 kappa^2 - 1, 50-digit
evaluations, the 80-bit interval enclosure of mu0's margin, the
one-shot vertex-by-vertex sampler, the edge-by-edge admissibility
count, the point-by-point sweep table, the one-target ladder, the
branching verdict rule and theta_cr's product form here reach the same
quantities another way.
The snapped cumulative rows of the kernel and ``draw_spins``, a general
inverse CDF over them, are the only per-vertex route: the library keeps
no configuration, only counts.
"""

import contextlib
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath import iv

from hcsos.chain import TransitionKernel, stationary
from hcsos.cli import CSV_HEADER, SweepTable
from hcsos.extremality import DEFAULT_BOUNDARY_TOL, Verdict, classify_solution
from hcsos.model import Branch, TisgmSolution, activity_matrix
from hcsos.rootfind import BracketError, UnboundedBracketError
from hcsos.sampler import TreeConfig
from hcsos.tisgm import (
    RESIDUAL_TOL,
    ConsistencyError,
    compatibility_residual,
    enumerate_solutions,
    solve_symmetric,
)


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


def mu12_margin_k2(theta: float) -> float:
    """2 kappa^2 - 1 of mu1 at k = 2, on the closed-form upper root.

    kappa = x^2 / (x^2 + 1) for the k = 2 asymmetric kernel; decreasing
    in theta on (0, 1), with its root at theta5.  The production margin
    is the ``msw_value - 1`` that ``classify_solution`` reports for
    ``solution_of(2, theta, Measure.MU1)``, on ``solve_asymmetric``.
    """
    x = solve_k2_closed_form(theta)[0].x
    kappa = x * x / (x * x + 1.0)
    return 2.0 * kappa * kappa - 1.0


def h_func(k: int, theta: float) -> float:
    """Kesten-Stigum margin of mu0 for theta <= 1: k / (w + 1)^2 - 1.

    w = theta y^k at the symmetric root y, where s2 = 1 / (w + 1);
    positive means non-extreme.  The production margin is the
    ``ks_value - 1`` that ``classify_solution`` reports for
    ``solve_symmetric(k, theta)``.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"h is defined for 0 < theta <= 1, got {theta}")
    y = solve_symmetric(k, theta).y
    return k / (theta * y**k + 1.0) ** 2 - 1.0


def q_func(k: int, theta: float) -> float:
    """Kesten-Stigum margin of mu0 for theta >= 1: k (w / (w + 1))^2 - 1.

    w = theta y^k at the symmetric root y, where s2 = w / (w + 1);
    positive means non-extreme.
    """
    if not theta >= 1.0:
        raise ValueError(f"q is defined for theta >= 1, got {theta}")
    y = solve_symmetric(k, theta).y
    w = theta * y**k
    return k * (w / (w + 1.0)) ** 2 - 1.0


def eta_two_pass(x, k: int, power=pow):
    """eta's formula with each power sum from its own Horner pass.

    The production ``tisgm._eta_value`` takes 1 + ... + x^(k-1) as
    (x + ... + x^(k-1)) + 1, Horner's last step.  Takes floats with
    ``pow``, or arrays with ``grid._powers`` as ``power``; no overflow
    handling, so an overflowing power raises as the production one does.
    """

    def power_sum(n):
        acc = 0.0
        for _ in range(n):
            acc = acc * x + 1.0
        return acc

    s = x * power_sum(k - 1)
    t = power_sum(k)
    return s * power(t / (power(x, k) + 1.0), k)


def theta_cr_product(k: int) -> float:
    """theta_cr(k) with (k - 1) k^k formed before the division by 2^k.

    ``tisgm.theta_cr`` divides first.  Below k = 143 both give the same
    float; at k = 143 the product rounds to inf here.
    """
    return ((k - 1) * float(k) ** k / 2.0**k) ** (1.0 / (k + 1))


def kernel_matrix(kern) -> np.ndarray:
    """The whole 3x3 matrix of a kernel, built from its six entries, with
    +0.0 at the three pairs off the wand graph."""
    p00, p01, p10, p12, p21, p22 = kern
    return np.array([[p00, p01, 0.0], [p10, 0.0, p12], [0.0, p21, p22]])


def gamma_of(kern) -> float:
    """Largest of the three pairwise half-L1 row distances of a kernel.

    Written independently of ``kappa_of``; their equality is checked by
    the tests, not assumed.
    """
    p = kernel_matrix(kern)
    return max(
        0.5 * float(np.sum(np.abs(p[i] - p[j]))) for i, j in ((0, 1), (1, 2), (0, 2))
    )


def ks_thresholds(k: int) -> tuple[mp.mpf, mp.mpf]:
    """Kesten-Stigum thresholds (theta_low, theta_high) of mu0, at 50 digits.

    On the symmetric branch the fixed point solves y (theta y^k + 1) =
    2 theta.  With w = theta y^k this gives y = 2 theta / (w + 1), and
    substituting y back into w = theta y^k gives

        theta^(k+1) = w (w + 1)^k / 2^k,

    increasing in w, with w = 1 exactly at theta = 1.  The second
    eigenvalue of the symmetric kernel is s2 = max(1, w) / (1 + w), so the
    Kesten-Stigum boundary k s2^2 = 1 is 1 / (1 + w) = 1 / sqrt(k) on the
    theta <= 1 side (w = sqrt(k) - 1) and w / (1 + w) = 1 / sqrt(k) on the
    theta >= 1 side (w = 1 / (sqrt(k) - 1)).  At k = 2 these are
    theta1 = (1/2)(4 sqrt2 - 4)^(1/3) and theta2 = (1/2)(28 + 20 sqrt2)^(1/3);
    at k = 3, theta^4 = (9 - 3 sqrt3) / 8 and (36 + 21 sqrt3) / 32.

    Each w lies on its own side only for k <= 4 (both meet at theta = 1
    for k = 4); for k >= 5 there is no threshold and this raises.
    """
    if k not in (2, 3, 4):
        raise ValueError(f"mu0 has Kesten-Stigum thresholds only for k in 2..4, got {k}")
    with mp.workdps(50):
        root_k = mp.sqrt(k)
        return tuple(
            mp.root(w * (w + 1) ** k / mp.mpf(2) ** k, k + 1)
            for w in (root_k - 1, 1 / (root_k - 1))
        )


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted by descending modulus (leading entry 1).

    ``s2`` is the modulus of the second-largest eigenvalue.  When the two
    non-unit moduli are equal (trace 1, as on the k = 2 asymmetric
    branch) rounding may leave the third one ulp above s2.
    """

    eigenvalues: tuple[float, float, float]
    s2: float


def spectrum_numeric(kern: TransitionKernel) -> SpectrumReport:
    """Spectrum of a wand kernel from the path-graph identities.

    The non-unit eigenvalues solve lambda^2 - t lambda - d = 0 with
    t = P00 P22 - P01 P21 and d = P00 P12 P21 + P01 P10 P22 > 0, so
    they are real and of opposite sign.  The second one is sign(t) s2
    (positive when t = 0), s2 = (|t| + sqrt(t^2 + 4 d)) / 2, and the
    third is -d divided by it.  The library reports only s2
    (``chain.s2_of``), with the same formula.
    """
    p00, p01, p10, p12, p21, p22 = kern
    t = p00 * p22 - p01 * p21
    d = p00 * p12 * p21 + p01 * p10 * p22
    s2 = 0.5 * (abs(t) + math.sqrt(t * t + 4.0 * d))
    lam2 = -s2 if t < 0.0 else s2
    return SpectrumReport(eigenvalues=(1.0, lam2, -d / lam2), s2=s2)


def _sorted_eigs(vals: list[float]) -> tuple[float, float, float]:
    # modulus descending; on ties the positive eigenvalue first
    ordered = sorted(vals, key=lambda v: (-abs(v), -v))
    return (ordered[0], ordered[1], ordered[2])


def spectrum_symmetric(y: float, theta: float, k: int) -> SpectrumReport:
    """Closed-form spectrum on the symmetric branch (x = 1).

    Eigenvalues are 1, -w/(w+1) and 1/(w+1) with w = theta y^k.  The
    second-largest modulus is 1/(w+1) for theta <= 1 and w/(w+1) for
    theta > 1 (for the root of the symmetric equation, w < 1 exactly
    when theta < 1).
    """
    w = theta * y**k
    lam1 = -w / (w + 1.0)
    lam2 = 1.0 / (w + 1.0)
    s2 = lam2 if theta <= 1.0 else -lam1
    return SpectrumReport(eigenvalues=_sorted_eigs([1.0, lam1, lam2]), s2=s2)


def spectrum_asymmetric_k2(x: float) -> SpectrumReport:
    """Closed-form spectrum of the k = 2 asymmetric kernel.

    The non-unit eigenvalues are the symmetric pair
    +-sqrt(2) x / ((x+1) sqrt(x^2+1)), invariant under x -> 1/x.
    """
    if not x > 0:
        raise ValueError(f"need x > 0, got {x}")
    s2 = math.sqrt(2.0) * x / ((x + 1.0) * math.sqrt(x * x + 1.0))
    return SpectrumReport(eigenvalues=(1.0, s2, -s2), s2=s2)


def s2_mp(k: int, theta: float, sol: TisgmSolution) -> mp.mpf:
    """s2 of the fixed point's kernel from a 50-digit general eigensolver.

    The kernel is rebuilt in mpmath from (x, y, theta), so rounding of
    the float entries does not enter the reference value.
    """
    with mp.workdps(50):
        xk = mp.mpf(sol.x) ** k
        w = mp.mpf(theta) * mp.mpf(sol.y) ** k
        p = mp.matrix(
            [
                [xk / (xk + w), w / (xk + w), 0],
                [xk / (1 + xk), 0, 1 / (1 + xk)],
                [0, w / (1 + w), 1 / (1 + w)],
            ]
        )
        moduli = sorted((abs(v) for v in mp.eig(p, left=False, right=False)), reverse=True)
        return +moduli[1]


def stationary_mp(k: int, theta: float, sol: TisgmSolution) -> list[mp.mpf]:
    """Stationary law pi proportional to z * (lambda z), at 50 digits.

    z = (x^k, y^k, 1) is the boundary law and lambda the activity matrix
    [[1, theta, 0], [theta, 0, theta], [0, theta, 1]]: reversibility of
    the chain in terms of the model, not of the kernel's entries.
    """
    with mp.workdps(50):
        theta = mp.mpf(theta)
        z = [mp.mpf(sol.x) ** k, mp.mpf(sol.y) ** k, mp.mpf(1)]
        lz = [z[0] + theta * z[1], theta * (z[0] + z[2]), theta * z[1] + z[2]]
        mass = [a * b for a, b in zip(z, lz)]
        total = sum(mass)
        return [m / total for m in mass]


def level_sizes(cfg: TreeConfig) -> tuple[int, ...]:
    """Vertices per level: 1, k + 1, (k + 1) k, (k + 1) k^2, ..."""
    return (1, *((cfg.k + 1) * cfg.k**level for level in range(cfg.depth)))


def level_offsets(cfg: TreeConfig) -> tuple[int, ...]:
    """Index of each level's first vertex in level order, and V at the end."""
    offsets = [0]
    for size in level_sizes(cfg):
        offsets.append(offsets[-1] + size)
    return tuple(offsets)


def parents(cfg: TreeConfig) -> np.ndarray:
    """Parent index for every vertex in level order (the root maps to itself).

    The children of one parent are contiguous in the next level."""
    par = np.zeros(cfg.vertex_count, dtype=np.int64)
    offsets = level_offsets(cfg)
    for level in range(2, cfg.depth + 1):
        start, prev = offsets[level], offsets[level - 1]
        count = offsets[level + 1] - start
        par[start : start + count] = prev + np.arange(count) // cfg.k
    # level-1 vertices all hang off the root (already zero)
    return par


def count_inadmissible_edges(spins: np.ndarray, cfg: TreeConfig, m: int = 2) -> int:
    """Number of parent-child spin pairs violating wand admissibility,
    checked edge by edge against the activity matrix, in one spin vector
    of ``cfg``'s tree or in every row of a ``draw_spins`` matrix."""
    allowed = np.array(activity_matrix(m, 1.0)) > 0.0
    if spins.shape[-1] != cfg.vertex_count:
        raise ValueError(f"expected {cfg.vertex_count} spins, got {spins.shape}")
    child = np.arange(1, cfg.vertex_count)
    pairs = allowed[spins[..., parents(cfg)[child]], spins[..., child]]
    return int(np.size(pairs) - np.count_nonzero(pairs))


def _snapped_cumulative(p: np.ndarray) -> np.ndarray:
    """Cumulative rows of the 3x3 kernel p, snapped to 1 where the rest of
    the row's mass is exactly zero, so that an inverse-CDF draw never
    takes a zero-probability (inadmissible) transition.

    For a six-entry kernel the rows are [P00, 1, 1], [P10, P10, 1] and
    [0, P21, 1] wherever a row whose larger state has probability 0 gives
    its lower state probability 1, as in every kernel ``kernel_of``
    builds: each row fixes one comparison, with P00, P10 or P21.
    """
    cum = np.cumsum(p, axis=1)
    cum[:, -1] = 1.0
    zero_tail = p[:, 2] == 0.0
    cum[zero_tail, 1] = 1.0
    cum[zero_tail & (p[:, 1] == 0.0), 0] = 1.0
    return cum


def draw_spins(kern: TransitionKernel, cfg: TreeConfig, n: int) -> np.ndarray:
    """(n, vertex_count) spin matrix; row s is the s-th independent sample.

    Vertex i of row s takes uniform i of row s of one Philox stream keyed
    by ``cfg.seed``, all drawn at once; parent spins are gathered by index
    and compared three ways with the gathered cumulative rows.  The
    counts of ``estimate_marginals`` follow the law of these rows' counts.
    """
    v = cfg.vertex_count
    uniforms = np.random.Generator(np.random.Philox(key=cfg.seed)).random((n, v))
    pi_cum = np.cumsum(stationary(kern))
    pi_cum[-1] = 1.0
    row_cum = _snapped_cumulative(kernel_matrix(kern))
    par = parents(cfg)

    spins = np.empty((n, v), dtype=np.int8)
    spins[:, 0] = np.searchsorted(pi_cum, uniforms[:, 0], side="right")
    offsets = level_offsets(cfg)
    for level in range(1, cfg.depth + 1):
        sl = slice(offsets[level], offsets[level + 1])
        parent_spins = spins[:, par[sl]]
        # smallest state whose cumulative mass exceeds the uniform draw
        spins[:, sl] = (
            uniforms[:, sl, None] >= row_cum[parent_spins]
        ).sum(axis=2, dtype=np.int8)
    return spins


def spin_counts(spins: np.ndarray, cfg: TreeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-level spin counts (depth + 1, 3) and parent-child pair counts (3, 3)
    of a ``draw_spins`` matrix, tallied one edge at a time with ``np.add.at``."""
    offsets = level_offsets(cfg)
    levels = np.array(
        [
            np.bincount(spins[:, offsets[lv] : offsets[lv + 1]].ravel(), minlength=3)
            for lv in range(cfg.depth + 1)
        ]
    )
    pairs = np.zeros((3, 3), dtype=np.int64)
    child = np.arange(1, cfg.vertex_count)
    parent = parents(cfg)[child]
    np.add.at(pairs, (spins[:, parent].ravel(), spins[:, child].ravel()), 1)
    return levels, pairs


def symmetric_y_mp(k: int, theta: float) -> mp.mpf:
    """y of the symmetric fixed point at 50 digits.

    f(y) = theta y^(k+1) + y - 2 theta is increasing and convex on y > 0,
    and f > 0 at both 2 theta and 2^(1/(k+1)).  Newton's method started
    at the smaller of the two therefore decreases monotonically to the
    root, from any theta.
    """
    with mp.workdps(60):
        t = mp.mpf(theta)
        y = min(2 * t, mp.root(2, k + 1))
        for _ in range(1000):
            step = (t * y ** (k + 1) + y - 2 * t) / ((k + 1) * t * y**k + 1)
            y -= step
            if abs(step) <= abs(y) * mp.mpf(10) ** -55:
                break
        else:
            raise RuntimeError(f"Newton did not settle at k={k}, theta={theta}")
    with mp.workdps(50):
        return +y


@contextlib.contextmanager
def iv_precision(bits: int):
    """mpmath's interval context at ``bits`` of precision, restored after."""
    prec = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = prec


def certify_symmetric(k: int, theta: float, y: float) -> iv.mpf:
    """Enclosure of mu0's Kesten-Stigum margin k s2^2 - 1 at (k, theta),
    in 80-bit interval arithmetic around the float root y.

    f(y) = theta y^(k+1) + y - 2 theta increases on y > 0, so f < 0 at
    the lower end of the box Y = y (1 +- 1e-13) and f > 0 at its upper
    end certify that the symmetric root lies in Y; ValueError otherwise.
    On Y, w = theta Y^k, and the symmetric kernel's eigenvalues are 1,
    1 / (1 + w) and -w / (1 + w), so s2 = max(1, w) / (1 + w).
    """
    with iv_precision(80):
        t = iv.mpf(theta)
        box = iv.mpf(y) * iv.mpf([1.0 - 1e-13, 1.0 + 1e-13])
        lo, hi = (t * end ** (k + 1) + end - 2 * t for end in (box.a, box.b))
        if not (lo.b < 0 < hi.a):
            raise ValueError(f"no sign change of f on y (1 +- 1e-13) at k={k}, "
                             f"theta={theta!r}, y={y!r}")
        w = t * box**k
        s2 = iv.mpf([max(1, w.a), max(1, w.b)]) / (1 + w)
        return k * s2**2 - 1


def certified_verdict(margin: iv.mpf, tol: float = DEFAULT_BOUNDARY_TOL):
    """mu0's verdict wherever the enclosure ``margin`` of k s2^2 - 1 clears
    the Undetermined band [-tol, tol]: NonExtreme above it, Extreme below.
    None where the enclosure meets the band, which leaves the float
    verdict to rounding (or, inside the band, Undetermined)."""
    if margin.a > tol:
        return Verdict.NON_EXTREME
    if margin.b < -tol:
        return Verdict.EXTREME
    return None


def asymmetric_pair_mp(k: int, theta: float) -> tuple[tuple[mp.mpf, mp.mpf], ...]:
    """(x, y) of the upper and lower fixed points at 50 digits, theta < theta_cr.

    The upper x solves eta(x) = theta^(k+1) on (1, inf), where eta
    decreases; it is bisected at 60 digits after doubling an upper end.
    The lower x is its reciprocal, and y = ((x + ... + x^(k-1)) / theta)^(1/k).
    Where eta is flat (x near 1) the root carries about half the working
    digits, far more than a double holds.
    """
    with mp.workdps(60):
        t = mp.mpf(theta)
        target = t ** (k + 1)

        def above(x):
            s = sum(x**i for i in range(1, k))
            return s * (1 + s) ** k / (x**k + 1) ** k > target

        lo, hi = mp.mpf(1), mp.mpf(2)
        while above(hi):
            lo, hi = hi, 2 * hi
        for _ in range(200 + int(mp.log(hi, 2))):
            mid = (lo + hi) / 2
            if above(mid):
                lo = mid
            else:
                hi = mid
        x1 = (lo + hi) / 2
        pair = tuple(
            (x, mp.root(sum(x**i for i in range(1, k)) / t, k)) for x in (x1, 1 / x1)
        )
    with mp.workdps(50):
        return tuple((+x, +y) for x, y in pair)


def build_phase_table(k: int, thetas) -> SweepTable:
    """A sweep's table over the grid points ``thetas``, point by point
    from the single-point solvers.

    Grid points within the critical guard of theta_cr(k) carry the
    symmetric solution with verdict "Critical" instead of a
    classification (the asymmetric pair is not separable there).
    """
    columns = [[] for _ in CSV_HEADER]
    ends = []
    for theta in thetas:
        sset = enumerate_solutions(k, theta)
        for column, value in zip(columns, (k, theta, sset.theta_critical)):
            column.append(value)
        for sol in sset.solutions:
            v = classify_solution(k, theta, sol)
            verdict = "Critical" if sset.critical else v.verdict.value
            row = (sol.branch.value, sol.x, sol.y, v.s2, v.kappa, v.ks_value,
                   v.msw_value, verdict)
            for column, value in zip(columns[3:], row):
                column.append(value)
        ends.append(len(columns[3]))
    return SweepTable(columns, ends)


def expand_bracket_scalar(f, lo: float, target: float) -> tuple[float, ...]:
    """Bracket the solution of f(x) = target for f strictly decreasing on [lo, inf).

    The one-target doubling ladder, float by float: doubles the upper
    endpoint from lo until f drops to the target, and returns the
    bracket's four numbers (lo, hi, f(lo) - target, f(hi) - target).  The
    production ``rootfind.expand_bracket_decreasing`` starts at 1 and
    runs many targets at once; lane by lane it must give this bracket, or
    raise UnboundedBracketError with this message, which names the last
    x tried, after 60 doublings.
    """
    if lo < 0.0:
        raise BracketError(f"expansion by doubling needs lo >= 0, got {lo}")
    g_lo = f(lo) - target
    if not g_lo > 0.0:
        raise BracketError(
            f"f(lo) = target + {g_lo}; need f(lo) > target to start the expansion"
        )
    hi = 2.0 * lo if lo > 0 else 1.0
    for _ in range(60):
        g_hi = f(hi) - target
        if g_hi <= 0.0:
            return lo, hi, g_lo, g_hi
        tried, hi = hi, 2.0 * hi
    raise UnboundedBracketError(
        f"f stayed above target {target} out to x = {tried}; no bracket found"
    )


def verdict_rule(k: int, symmetric: bool, ks: float, msw: float) -> Verdict:
    """The verdict rule written as branches on one measure's floats.

    The production rule is ``extremality._verdicts``, which selects
    among the outcomes through its ``where`` hook: a plain conditional on
    floats, ``np.where`` on a sweep's columns.
    """
    tol = DEFAULT_BOUNDARY_TOL
    if symmetric:
        if ks > 1.0 + tol:
            return Verdict.NON_EXTREME
        if ks < 1.0 - tol:
            return Verdict.EXTREME
        return Verdict.UNDETERMINED
    if k == 2:
        return Verdict.EXTREME if msw < 1.0 - tol else Verdict.UNDETERMINED
    return Verdict.NON_EXTREME if ks > 1.0 + tol else Verdict.UNDETERMINED
