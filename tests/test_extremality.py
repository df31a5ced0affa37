import itertools
import math
import random
import re

import numpy as np
import pytest

from hcsos import extremality, grid, tisgm
from hcsos.chain import _entries_of_powers, kappa_of, kernel_of
from hcsos.extremality import (
    DEFAULT_BOUNDARY_TOL,
    Measure,
    Verdict,
    classify_solution,
    no_pair_text,
    solution_of,
    thresholds,
)
from hcsos.model import Branch, TisgmSolution
from hcsos.tisgm import compatibility_residual, solve_asymmetric, solve_symmetric
from reference import (
    certified_verdict,
    certify_symmetric,
    h_func,
    iv_precision,
    mu12_margin_k2,
    q_func,
    spectrum_asymmetric_k2,
    verdict_rule,
)

# Frozen reference values (50-digit mpmath evaluations rounded to float64).
H2_AT_02 = 0.8846280394692626
Q2_AT_4 = 0.4476177919429385
THETA1 = 0.5916498694179722  # (1/2)(4 sqrt2 - 4)^(1/3)
THETA2 = 1.9161625742934727  # (1/2)(28 + 20 sqrt2)^(1/3)
THETA5 = 0.9543854211000267  # ((2 + sqrt(2+2 sqrt2))/(2+2 sqrt2))^(1/3)
# Roots of the k = 3 margin functions, i.e. the closed form
# theta^4 = (9 - 3 sqrt3) / 8 and (36 + 21 sqrt3) / 32 (see
# reference.ks_thresholds).  Acceptance criterion 04 checks them at 50
# digits and records that the once-pinned 0.801 / 1.8462 are not roots.
THETA3 = 0.8303922356762945
THETA4 = 1.2263282974775683


def classify(k, theta, measure=Measure.MU0):
    return classify_solution(k, theta, solution_of(k, theta, measure))


class TestCriteria:
    # the Kesten-Stigum value k s2^2 and the MSW value k kappa gamma, as
    # classify_solution evaluates them

    def test_kesten_stigum_below(self):
        v = classify(2, 1.0)
        assert v.s2 == pytest.approx(0.5, abs=1e-12)
        assert v.ks_value == 2 * v.s2**2
        assert v.verdict is not Verdict.NON_EXTREME

    def test_kesten_stigum_boundary_strict(self):
        v = classify(4, 1.0)
        assert v.ks_value == pytest.approx(1.0, abs=1e-12)
        assert v.verdict is not Verdict.NON_EXTREME

    def test_kesten_stigum_from_symmetric_branch(self):
        v = classify(4, 0.5)
        assert v.ks_value == 4 * v.s2**2
        assert v.ks_value > 1.0 and v.verdict is Verdict.NON_EXTREME

    def test_msw_simple(self):
        v = classify(2, 1.0)
        assert v.msw_value == pytest.approx(0.5, abs=1e-12)
        assert v.verdict is Verdict.EXTREME

    def test_msw_near_k2_boundary(self):
        # just above theta5 the asymmetric k = 2 measures pass MSW
        v = classify(2, THETA5 + 1e-6, Measure.MU1)
        assert v.msw_value < 1.0 and v.verdict is Verdict.EXTREME

    def test_msw_arithmetic(self):
        # gamma is reported equal to kappa, and msw is k kappa gamma
        for measure in (Measure.MU1, Measure.MU2):
            v = classify(3, 1.2, measure)
            assert v.gamma == v.kappa
            assert v.msw_value == 3 * v.kappa * v.gamma


class TestClassifyMu0:
    def test_small_coupling_non_extreme(self):
        assert classify(2, 0.3).verdict is Verdict.NON_EXTREME

    def test_unit_coupling_extreme(self):
        v = classify(2, 1.0)
        assert v.verdict is Verdict.EXTREME
        assert v.ks_value == pytest.approx(0.5, abs=1e-12)

    def test_k5_always_non_extreme(self):
        assert classify(5, 2.5).verdict is Verdict.NON_EXTREME

    def test_k4_unit_coupling_is_the_boundary_case(self):
        v = classify(4, 1.0)
        assert v.verdict is Verdict.UNDETERMINED
        assert v.ks_value == pytest.approx(1.0, abs=1e-12)

    def test_sharpness_witnesses(self):
        # on the symmetric branch kappa = gamma = s2, so the MSW and
        # Kesten-Stigum values coincide
        for k in (2, 3, 5, 8):
            for theta in np.linspace(0.15, 2.4, 16):
                v = classify(k, float(theta))
                assert abs(v.kappa - v.gamma) <= 1e-12
                assert abs(v.kappa - v.s2) <= 1e-12
                assert abs(v.ks_value - v.msw_value) <= 1e-12
                assert v.verdict in (
                    Verdict.EXTREME,
                    Verdict.NON_EXTREME,
                    Verdict.UNDETERMINED,
                )

    @pytest.mark.parametrize("k", [4, 7, 10])
    def test_never_extreme_for_large_k(self, k):
        for theta in np.linspace(0.05, 5.0, 20):
            assert classify(k, float(theta)).verdict is not Verdict.EXTREME

    def test_flips_at_k2_thresholds(self):
        eps = 1e-4
        assert classify(2, THETA1 - eps).verdict is Verdict.NON_EXTREME
        assert classify(2, THETA1 + eps).verdict is Verdict.EXTREME
        assert classify(2, THETA2 - eps).verdict is Verdict.EXTREME
        assert classify(2, THETA2 + eps).verdict is Verdict.NON_EXTREME

    def test_flips_at_k3_thresholds(self):
        eps = 1e-4
        table = thresholds(3)
        t3, t4 = table["theta3"].value, table["theta4"].value
        assert classify(3, t3 - eps).verdict is Verdict.NON_EXTREME
        assert classify(3, t3 + eps).verdict is Verdict.EXTREME
        assert classify(3, t4 - eps).verdict is Verdict.EXTREME
        assert classify(3, t4 + eps).verdict is Verdict.NON_EXTREME


class TestCertifiedMu0:
    """mu0's verdicts against 80-bit interval enclosures of k s2^2 - 1."""

    THETAS = [float(t) for t in np.geomspace(1e-3, 1e3, 120)]

    def test_verdicts_equal_certified_ones(self):
        # (4, 1) has margin exactly 0: its enclosure meets the band, and it
        # is the one point of the grid whose verdict no enclosure decides
        points = [(k, theta) for k in [*range(2, 13), 20, 50, 100]
                  for theta in self.THETAS]
        assert len(points) == 1680
        mismatches, undecided = [], []
        for k, theta in [*points, (4, 1.0)]:
            sol = solve_symmetric(k, theta)
            certified = certified_verdict(certify_symmetric(k, theta, sol.y))
            verdict = classify_solution(k, theta, sol).verdict
            if certified is None:
                undecided.append((k, theta, verdict))
            elif certified is not verdict:
                mismatches.append((k, theta, verdict, certified))
        assert mismatches == []
        assert undecided == [(4, 1.0, Verdict.UNDETERMINED)]

    def test_never_extreme_from_k4(self):
        # s2 = max(1, w) / (1 + w) = 1 / (1 + v) with v = min(w, 1/w) in
        # (0, 1], so s2 >= 1/2 on the whole branch, with equality only at
        # w = 1 (theta = 1); hence k s2^2 - 1 >= k/4 - 1 >= 0 for k >= 4
        with iv_precision(80) as iv:
            s2 = 1 / (1 + iv.mpf([0, 1]))
            assert s2.a == 0.5 and 1 / (1 + iv.mpf(1)) == 0.5
            for k in range(4, 10**4 + 1):
                bound = k * s2.a**2 - 1
                assert bound.a >= 0
                assert (bound.b == 0) == (k == 4)
        ks = sorted({round(float(k)) for k in np.geomspace(4, 1e4, 30)})
        assert len(ks) == 30
        for k in ks:
            for theta in self.THETAS:
                sol = solve_symmetric(k, theta)
                verdict = classify_solution(k, theta, sol).verdict
                assert verdict is Verdict.NON_EXTREME, (k, theta)
        assert classify(4, 1.0).verdict is Verdict.UNDETERMINED


class TestClassifyMu12:
    def test_extreme_near_one(self):
        assert classify(2, 0.98, Measure.MU1).verdict is Verdict.EXTREME

    def test_undetermined_below_theta5(self):
        assert classify(2, 0.5, Measure.MU1).verdict is Verdict.UNDETERMINED

    def test_never_non_extreme(self):
        for theta in np.linspace(0.05, 0.99, 40):
            v = classify(2, float(theta), Measure.MU1)
            assert v.verdict is not Verdict.NON_EXTREME
            assert v.ks_value < 1.0

    def test_ks_impossibility_on_x_grid(self):
        # 2 s2^2 < 1 for every positive x: the would-be condition is
        # (x-1)^2 + 2(x^2+1) < 0
        for x in np.logspace(-2, 2, 200):
            s2 = spectrum_asymmetric_k2(float(x)).s2
            assert 2.0 * s2 * s2 < 1.0

    def test_mu2_mirrors_mu1(self):
        v1 = classify(2, 0.97, Measure.MU1)
        v2 = classify(2, 0.97, Measure.MU2)
        assert v1.verdict is v2.verdict
        assert v1.s2 == pytest.approx(v2.s2, abs=1e-12)
        assert v1.kappa == pytest.approx(v2.kappa, abs=1e-12)

    def test_domain(self):
        for theta in (1.0, 1.2):
            with pytest.raises(ValueError, match=re.escape(no_pair_text(2, theta))):
                classify(2, theta, Measure.MU1)

    def test_k3_dispatch(self):
        v = classify(3, 1.2, Measure.MU1)
        assert v.verdict in (Verdict.NON_EXTREME, Verdict.UNDETERMINED)
        with pytest.raises(ValueError):
            classify(3, 2.0, Measure.MU1)  # above theta_cr(3)

    def test_k3_never_extreme(self):
        # the row-distance identity is unproven for k >= 3 asymmetric
        # kernels, so Extreme must not be claimed there
        for theta in np.linspace(0.2, 1.55, 15):
            for measure in (Measure.MU1, Measure.MU2):
                v = classify(3, float(theta), measure)
                assert v.verdict is not Verdict.EXTREME


class TestMarginFunctions:
    def test_h2_spot_value(self):
        assert h_func(2, 0.2) == pytest.approx(H2_AT_02, abs=1e-9)
        assert h_func(2, 0.2) == pytest.approx(0.8846, abs=1e-3)

    def test_h2_at_one(self):
        assert h_func(2, 1.0) == pytest.approx(-0.5, abs=1e-12)

    def test_q2_at_one(self):
        assert q_func(2, 1.0) == pytest.approx(-0.5, abs=1e-12)

    def test_q2_spot_value(self):
        assert q_func(2, 4.0) == pytest.approx(Q2_AT_4, abs=1e-9)
        assert q_func(2, 4.0) == pytest.approx(0.4476, abs=1e-3)

    def test_h2_decreasing(self):
        vals = [h_func(2, float(t)) for t in np.linspace(0.1, 1.0, 100)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_q2_increasing(self):
        vals = [q_func(2, float(t)) for t in np.linspace(1.0, 4.0, 100)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_margins_match_ks_value(self):
        for k, theta in ((2, 0.4), (3, 0.7), (5, 0.2)):
            v = classify(k, theta)
            assert h_func(k, theta) == pytest.approx(v.ks_value - 1.0, abs=1e-12)
        for k, theta in ((2, 1.8), (3, 2.5), (4, 1.1)):
            v = classify(k, theta)
            assert q_func(k, theta) == pytest.approx(v.ks_value - 1.0, abs=1e-12)

    def test_domains(self):
        with pytest.raises(ValueError):
            h_func(2, 1.5)
        with pytest.raises(ValueError):
            h_func(2, 0.0)
        with pytest.raises(ValueError):
            q_func(2, 0.9)


class TestThresholds:
    def test_k2_closed_forms_match_roots(self):
        table = thresholds(2)
        for name, frozen in (("theta1", THETA1), ("theta2", THETA2), ("theta5", THETA5)):
            entry = table[name]
            assert entry.closed_form == pytest.approx(frozen, abs=1e-12)
            assert abs(entry.closed_form - entry.root_found) <= 1e-8
            assert entry.provenance == "closed-form"

    def test_k2_ordering(self):
        table = thresholds(2)
        assert table["theta1"].value < table["theta2"].value
        assert table["theta5"].value < 1.0

    def test_k3_root_found(self):
        table = thresholds(3)
        assert table["theta3"].value == pytest.approx(THETA3, abs=1e-9)
        assert table["theta4"].value == pytest.approx(THETA4, abs=1e-9)
        assert table["theta3"].provenance == "root-found"
        assert table["theta3"].value < table["theta4"].value

    def test_k3_roots_zero_the_margins(self):
        table = thresholds(3)
        assert abs(h_func(3, table["theta3"].value)) <= 1e-10
        assert abs(q_func(3, table["theta4"].value)) <= 1e-10

    @pytest.mark.parametrize("k", [2, 3])
    def test_roots_zero_the_reported_margins(self, k):
        # each threshold is a root of the margin classify reports, so it
        # lies inside the boundary band and the verdict there is Undetermined
        for entry in thresholds(k).values():
            theta = entry.root_found
            if entry.name == "theta5":
                verdicts = [classify(2, theta, m) for m in (Measure.MU1, Measure.MU2)]
                margins = [v.msw_value - 1.0 for v in verdicts]
            else:
                verdicts = [classify(k, theta)]
                margins = [verdicts[0].ks_value - 1.0]
            for v, margin in zip(verdicts, margins):
                assert abs(margin) <= 4 * np.finfo(float).eps, (entry.name, margin)
                assert v.verdict is Verdict.UNDETERMINED, entry.name

    def test_mu12_margin_equals_closed_form_oracle(self):
        # the theta5 margin on solve_asymmetric against the closed-form pair
        for theta in np.linspace(0.5, 0.999, 60):
            margin = classify(2, float(theta), Measure.MU1).msw_value - 1.0
            assert margin == pytest.approx(mu12_margin_k2(float(theta)), abs=1e-12)
        theta5 = thresholds(2)["theta5"].root_found
        assert abs(classify(2, theta5, Measure.MU1).msw_value - 1.0) <= 1e-12
        assert abs(mu12_margin_k2(theta5)) <= 1e-12

    def test_unsupported_k(self):
        # no thresholds for k >= 4; k < 2 is no tree order
        assert thresholds(4) == {} and thresholds(5) == {} and thresholds(1000) == {}
        with pytest.raises(ValueError, match="tree order k must be >= 2, got 1"):
            thresholds(1)

    def test_missing_name(self):
        with pytest.raises(KeyError):
            thresholds(2)["theta9"]


class TestCorollaryConsistency:
    def test_two_extreme_measures_region(self):
        # between theta1 and theta5 the symmetric measure is extreme and
        # the asymmetric pair must stay undetermined (never non-extreme),
        # consistent with at least two extreme measures existing there
        for theta in np.linspace(THETA1 + 1e-3, THETA5 - 1e-3, 20):
            theta = float(theta)
            assert classify(2, theta).verdict is Verdict.EXTREME
            for measure in (Measure.MU1, Measure.MU2):
                v = classify(2, theta, measure)
                assert v.verdict is Verdict.UNDETERMINED


class TestDegenerateKernel:
    def test_every_route_raises(self, monkeypatch):
        # theta y^2 = 10 * 1e308 overflows, so w = inf and P01 = inf / inf
        sol = TisgmSolution(1.0, 1e154, Branch.SYMMETRIC)
        msg = "degenerate kernel for x=1.0, y=1e\\+154"
        with pytest.raises(ArithmeticError, match=msg):
            kernel_of(sol, 2, 10.0)
        with pytest.raises(ArithmeticError, match=msg):
            classify_solution(2, 10.0, sol)
        # the same point as the second lane of a sweep's columns, after a
        # good lane: the sweep checks the entries before the shared criteria
        good = solve_symmetric(2, 10.0)
        xk = np.array([1.0, 1.0])
        w = np.array([10.0 * good.y**2, 10.0 * sol.y**2])

        def forged(k, thetas):
            # two Symmetric rows, one per grid point, none critical
            no, rows = np.zeros(2, int), np.arange(2)
            y = np.array([good.y, sol.y])
            return grid.SolutionGrid(math.inf, no == 1, rows, no, xk, y, xk, w)

        monkeypatch.setattr(grid, "enumerate_solution_grid", forged)
        with pytest.raises(AssertionError, match="every grid point solves") as err:
            grid.sweep_table(2, 10.0, 10.0, 2)
        cause = str(err.value.__cause__)
        assert cause == "degenerate kernel at some fixed point"
        # the good lane alone goes through the criteria as a lone call does
        entries = _entries_of_powers(xk[:1], w[:1])
        hooks = (grid._powers, np.sqrt, grid._lane_max, np.where)
        columns = extremality._criteria(2, np.array([True]), entries, *hooks)
        v = classify_solution(2, 10.0, good)
        lone = (v.s2, v.kappa, v.ks_value, v.msw_value, v.verdict.value)
        assert [c.item() for c in columns] == list(lone)


def _same(a, b):
    # equal bits up to the NaN payload: NaN matches NaN, 0.0 differs from -0.0
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


_SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 1e-300)


def _boundary_ties(k, target):
    # s2 near sqrt(target / k) whose k * s2**2 is target exactly
    s = math.sqrt(target / k)
    near = (s + i * math.ulp(s) for i in range(-40, 41))
    return [c for c in near if k * c**2 == target]


class TestColumnsEqualScalar:
    # the columnar sweep's residual, row distance and verdict rule against
    # the scalar functions, lane by lane, where NaN and ties make numpy's
    # own maximum differ from Python's max

    def test_lane_max_keeps_python_max_order(self):
        cases = list(itertools.product(_SPECIAL, repeat=3))
        cols = [np.array(c) for c in zip(*cases)]
        got = grid._lane_max(*cols).tolist()
        for case, value in zip(cases, got):
            assert _same(value, max(case)), case

    @pytest.mark.parametrize("k", [2, 3])
    def test_residual(self, k):
        rng = random.Random(k)
        cases = list(itertools.product(_SPECIAL, _SPECIAL, (0.5, 2.0, 1e300)))
        cases += [tuple(rng.choice(_SPECIAL) * rng.random() for _ in range(2))
                  + (rng.uniform(0.1, 5.0),) for _ in range(300)]
        want, lanes = [], []
        for x, y, theta in cases:
            try:
                want.append(compatibility_residual(k, theta, x, y))
            except ArithmeticError:  # x^k overflows, or 1 + theta y^k = 0
                continue
            lanes.append((x, y, theta))
        assert len(lanes) > 200
        x, y, theta = (np.array(c) for c in zip(*lanes))
        with np.errstate(all="ignore"):
            xk = grid._powers(x, k)
            w = theta * grid._powers(y, k)
            got = tisgm._residual(theta, x, y, xk, w, grid._lane_max).tolist()
        assert any(math.isnan(r) for r in want)
        for lane, r, g in zip(lanes, want, got):
            assert _same(g, r), lane

    def test_row_distance(self):
        rng = random.Random(6)
        pool = _SPECIAL + (0.25, 0.75)
        cases = [tuple(rng.choice(pool) for _ in range(6)) for _ in range(3000)]
        cases += [(0.5,) * 6, (0.0, 1.0, 1.0, 0.0, 0.0, 1.0), (1.0, 0.0) * 3]
        cols = [np.array(c) for c in zip(*cases)]
        with np.errstate(all="ignore"):
            got = kappa_of(cols, largest=grid._lane_max).tolist()
        for case, g in zip(cases, got):
            assert _same(g, kappa_of(case)), case

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
    def test_verdict(self, k, monkeypatch):
        # the shared criteria with s2 and kappa replaced by each value, on
        # floats through classify_solution and on columns as a sweep runs them
        s2s = list(_SPECIAL) + [0.3, 0.9]
        for target in (1.0 + DEFAULT_BOUNDARY_TOL, 1.0 - DEFAULT_BOUNDARY_TOL, 1.0):
            s2s += _boundary_ties(k, target)
        pairs = list(itertools.product(s2s, repeat=2))
        fake = {}
        monkeypatch.setattr(extremality, "s2_of", lambda entries, sqrt: fake["s2"])
        monkeypatch.setattr(
            extremality, "kappa_of", lambda entries, largest: fake["kappa"]
        )
        sym, upper = solve_symmetric(k, 0.5), solve_asymmetric(k, 0.5)[0]
        want = []
        for sol in (sym, upper):
            for s2, kappa in pairs:
                fake.update(s2=s2, kappa=kappa)
                want.append(classify_solution(k, 0.5, sol))
        s2, kappa = (np.array(c * 2) for c in zip(*pairs))
        symmetric = np.repeat([True, False], len(pairs))
        fake.update(s2=s2, kappa=kappa)
        hooks = (grid._powers, np.sqrt, grid._lane_max, np.where)
        with np.errstate(all="ignore"):
            *_, ks, msw, got = extremality._criteria(k, symmetric, None, *hooks)
        # the float form, lane by lane, NaN and both band edges included
        floats = [
            extremality._verdicts(k, sym, g_ks, g_msw)
            for sym, g_ks, g_msw in zip(symmetric.tolist(), ks.tolist(), msw.tolist())
        ]
        assert floats == got.tolist()
        for v, sym, g_ks, g_msw, g in zip(
            want, symmetric.tolist(), ks.tolist(), msw.tolist(), got.tolist()
        ):
            assert _same(g_ks, v.ks_value) and _same(g_msw, v.msw_value)
            assert g == v.verdict.value, (v.measure, v.ks_value, v.msw_value)
            # the one numpy rule against the rule written as branches
            assert v.verdict is verdict_rule(k, sym, g_ks, g_msw), (v.measure, g_ks)
        assert {v.verdict for v in want} == set(Verdict)
