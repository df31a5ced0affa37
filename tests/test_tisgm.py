import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcsos import tisgm
from hcsos.grid import BRANCHES, _eta_lanes, _powers, enumerate_solution_grid, sweep_table
from hcsos.model import Branch, ModelParams, TisgmSolution
from hcsos.tisgm import (
    RESIDUAL_TOL,
    BoundaryLaw,
    NumericalDomainError,
    SolutionSet,
    boundary_law_residual,
    compatibility_residual,
    enumerate_solutions,
    eta,
    iterate_boundary_law,
    solve_asymmetric,
    solve_symmetric,
    theta_cr,
)
from reference import (
    asymmetric_pair_mp,
    eta_two_pass,
    solve_k2_closed_form,
    symmetric_y_mp,
)

# Frozen high-precision reference values (50-digit mpmath evaluations of
# the defining expressions, rounded to float64).
THETA_CR_3 = 1.6118548977353129  # (27/4)^(1/4)
THETA_CR_4 = 2.1689435423953972  # 48^(1/5)
Y_STAR_2_05 = 0.7709169970592481  # root of 0.5 y^3 + y - 1


def theta_cr_oracle(k: int) -> float:
    """Independent high-precision evaluation of the coexistence threshold."""
    with mp.workdps(50):
        return float(mp.power(mp.mpf(k - 1) * mp.mpf(k) ** k / mp.mpf(2) ** k,
                               mp.mpf(1) / (k + 1)))


class TestThetaCr:
    def test_k2_exact(self):
        assert theta_cr(2) == 1.0

    def test_k3(self):
        assert abs(theta_cr(3) - theta_cr_oracle(3)) <= 1e-12
        assert theta_cr(3) == pytest.approx(THETA_CR_3, abs=1e-12)

    def test_k4(self):
        assert abs(theta_cr(4) - theta_cr_oracle(4)) <= 1e-12
        assert theta_cr(4) == pytest.approx(THETA_CR_4, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            theta_cr(1)


class TestEta:
    def test_peak_value_k3(self):
        assert eta(1.0, 3) == pytest.approx(6.75, abs=1e-12)

    def test_direct_value(self):
        # x=2, k=2: 2 * (3/5)^2 = 18/25
        assert eta(2.0, 2) == pytest.approx(0.72, abs=1e-14)

    @pytest.mark.parametrize("x", [0.5, 2.0, 3.7])
    def test_reciprocal_symmetry_quoted_points(self, x):
        for k in (2, 3, 5):
            assert eta(x, k) == pytest.approx(eta(1.0 / x, k), rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(x=st.floats(0.02, 50.0), k=st.integers(2, 8))
    def test_reciprocal_symmetry_property(self, x, k):
        assert eta(x, k) == pytest.approx(eta(1.0 / x, k), rel=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_shape_increasing_then_decreasing(self, k):
        rising = np.linspace(0.01, 0.999, 60)
        vals = [eta(float(x), k) for x in rising]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        falling = np.linspace(1.001, 100.0, 60)
        vals = [eta(float(x), k) for x in falling]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        peak = (k - 1) * k**k / 2.0**k
        assert eta(1.0, k) == pytest.approx(peak, rel=1e-14)
        assert max(vals) < peak

    def test_domain(self):
        with pytest.raises(ValueError):
            eta(0.0, 2)
        with pytest.raises(ValueError):
            eta(-1.0, 3)

    def test_huge_argument_falls_back_to_reciprocal(self):
        # direct evaluation overflows here; the reciprocal route must
        # give the same (tiny, finite) value
        value = eta(1.3e22, 16)
        assert math.isfinite(value) and value > 0.0
        assert value == eta(1.0 / 1.3e22, 16)

    @pytest.mark.parametrize("k", [170, 400])
    def test_peak_overflow_raises(self, k):
        # (k-1) k^k / 2^k leaves the double range; 1/x = x gives no way out
        with pytest.raises(OverflowError, match=f"k = {k}"):
            eta(1.0, k)

    def test_peak_finite_below_overflow(self):
        assert math.isfinite(eta(1.0, 150))

    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    def test_lanes_equal_scalar(self, k):
        # including lanes past the double range, which take the reciprocal
        x = np.concatenate([np.linspace(1.0, 40.0, 101), [2.0**40, 1.3e22, 1e300]])
        assert _eta_lanes(x, k).tolist() == [eta(v, k) for v in x.tolist()]

    @settings(max_examples=400, deadline=None)
    @given(
        k=st.integers(2, 400),
        xs=st.lists(
            st.one_of(
                st.floats(1e-300, 1e300),
                st.floats(1.0 - 1e-3, 1.0 + 1e-3),
                # x^k and the power sums overflow here for every k
                st.floats(1e300, 1.7976931348623157e308),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_one_horner_pass_equals_two(self, k, xs):
        # bit for bit, or the same exception, on floats and on lanes
        for x in xs:
            assert _outcome(tisgm._eta_value, x, k) == _outcome(eta_two_pass, x, k)
        lanes = np.array(xs)
        with np.errstate(all="ignore"):
            got = _outcome(tisgm._eta_value, lanes, k, _powers)
            want = _outcome(eta_two_pass, lanes, k, _powers)
        assert got == want


class TestPowers:
    @settings(max_examples=300, deadline=None)
    @given(
        base=st.lists(st.floats(min_value=0.0), max_size=12),
        n=st.one_of(st.integers(0, 400), st.integers(1, 400).map(lambda k: 1.0 / k)),
    )
    def test_equal_python_power(self, base, n):
        # Python's float ** lane by lane, OverflowError and its text included
        def listed():
            return [b**n for b in base]

        assert _outcome(_powers, np.array(base, dtype=float), n) == _outcome(
            listed
        )

    def test_overflow_text(self):
        with pytest.raises(OverflowError) as err:
            _powers(np.array([2.0, 1e200, 3.0]), 2)
        assert str(err.value) == "(34, 'Numerical result out of range')"


def _outcome(fn, *args):
    # ("value", bits of every float) or ("raise", exception type, text)
    try:
        value = fn(*args)
    except Exception as exc:
        return "raise", type(exc), str(exc)
    values = np.atleast_1d(np.asarray(value, dtype=float))
    return "value", values.tobytes()


class TestSymmetric:
    def test_theta_one_root_is_one(self):
        sol = solve_symmetric(2, 1.0)
        assert sol.x == 1.0
        assert sol.y == pytest.approx(1.0, abs=1e-12)

    def test_k2_half(self):
        sol = solve_symmetric(2, 0.5)
        assert sol.y == pytest.approx(Y_STAR_2_05, abs=1e-10)
        assert sol.branch is Branch.SYMMETRIC

    def test_k3_theta2_interval(self):
        # for theta > 1 the root lies in (1, 2^(1/(k+1)))
        sol = solve_symmetric(3, 2.0)
        assert 1.0 < sol.y < 2.0 ** (1.0 / 4.0)

    def test_monotone_in_theta(self):
        for k in (2, 3):
            grid = np.linspace(0.05, 3.0, 100)
            ys = [solve_symmetric(k, float(t)).y for t in grid]
            assert all(a < b for a, b in zip(ys, ys[1:]))

    def test_residual_contract(self):
        for k in (2, 3, 6):
            for theta in (0.2, 0.9, 1.7):
                sol = solve_symmetric(k, theta)
                assert compatibility_residual(k, theta, sol.x, sol.y) < 1e-10

    def test_residual_overflow_names_the_point(self):
        # the upper root at k = 20, theta = 0.1647 is ~2.8e16, so x^20
        # overflows; the OverflowError is raised in compatibility_residual
        with pytest.raises(OverflowError) as err:
            solve_asymmetric(20, 0.1647)
        text = str(err.value)
        assert "k = 20" in text and "x = 2.81" in text and "double range" in text
        tb = err.value.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        assert tb.tb_frame.f_code.co_name == "compatibility_residual"


    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(2, 10**4), theta=st.floats(1.0, 1e300))
    @example(k=3, theta=1e20)
    @example(k=8, theta=1e20)
    @example(k=3, theta=1e300)
    def test_huge_theta(self, k, theta):
        # 2^(1/(k+1)) rounds low for about half of all k (3, 6, 8, 9, ...),
        # and from theta ~ 1e17 on f(hi) < 0 shows it; hi steps up to
        # certify the bracket, in a lone call and a grid's lane alike
        sol = solve_symmetric(k, theta)
        assert compatibility_residual(k, theta, sol.x, sol.y) <= RESIDUAL_TOL
        if k >= 143:
            return  # theta_cr(k) overflows, so no grid runs (Known defects)
        grid = enumerate_solution_grid(k, np.array([1.0, math.sqrt(theta), theta]))
        row = (grid.point == 2) & (grid.branch == 0)
        assert grid.y[row].tolist() == [sol.y]


class TestAsymmetric:
    def test_empty_at_critical_coupling(self):
        assert solve_asymmetric(2, 1.0) == []
        assert solve_asymmetric(2, 1.5) == []

    def test_k2_quartic_roots(self):
        # at theta^3 = 3/8 the pair is x = 2 +- sqrt(3); oracle is the
        # quartic theta^3 x^4 - x^3 + 2(theta^3 - 1) x^2 - x + theta^3
        theta = 0.375 ** (1.0 / 3.0)
        upper, lower = solve_asymmetric(2, theta)
        assert upper.x == pytest.approx(2.0 + math.sqrt(3.0), abs=1e-9)
        assert lower.x == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-9)
        t3 = theta**3
        for sol in (upper, lower):
            x = sol.x
            quartic = t3 * x**4 - x**3 + 2.0 * (t3 - 1.0) * x**2 - x + t3
            assert abs(quartic) < 1e-12

    def test_k5_pair(self):
        theta = 0.9 * theta_cr(5)
        upper, lower = solve_asymmetric(5, theta)
        assert upper.x > 1.0 > lower.x
        assert abs(upper.x * lower.x - 1.0) <= 1e-9
        for sol in (upper, lower):
            assert compatibility_residual(5, theta, sol.x, sol.y) < 1e-10

    def test_branches_tagged(self):
        upper, lower = solve_asymmetric(3, 1.0)
        assert upper.branch is Branch.UPPER
        assert lower.branch is Branch.LOWER


class TestFiftyDigitRoots:
    """Relative accuracy of the returned roots against 50-digit oracles."""

    @pytest.mark.parametrize("k", [2, 3, 8, 143])
    @pytest.mark.parametrize(
        "theta", [1e-300, 1e-200, 1e-100, 1e-35, 1e-20, 1e-16, 1e-10]
    )
    def test_symmetric_root_at_small_theta(self, k, theta):
        # y ~ 2 theta: a stop rule on the absolute bracket width lost
        # these digits (relative error 1e-9 at 1e-20, y = 0 below ~1e-29)
        y = solve_symmetric(k, theta).y
        with mp.workdps(50):
            assert abs(y - symmetric_y_mp(k, theta)) <= 4 * math.ulp(y)

    def test_asymmetric_pair_k5(self):
        k, theta = 5, 0.8135757171447633
        sols = solve_asymmetric(k, theta)
        with mp.workdps(50):
            for sol, (x, y) in zip(sols, asymmetric_pair_mp(k, theta)):
                assert abs(sol.x / x - 1) <= 2e-15
                assert abs(sol.y / y - 1) <= 2e-15


def test_root_evaluation_budget_on_sweep_grids(monkeypatch):
    # f-evaluations per find_root call, counted as the benchmark's tracer
    # counts them; the sweep grids measured 8.33 on average and 14 at most,
    # the bracket's end values being reused from its certification
    evals = []

    def counting(f, *rest):
        n = 0

        def counted(x):
            nonlocal n
            n += 1
            return f(x)

        try:
            return find_root(counted, *rest)
        finally:
            evals.append(n)

    find_root = tisgm.find_root
    monkeypatch.setattr(tisgm, "find_root", counting)
    for k in (2, 3, 8):
        for theta in np.linspace(0.1, 2.5, 250):
            enumerate_solutions(k, float(theta))
    assert len(evals) == 1251
    assert sum(evals) / len(evals) <= 8.33
    assert max(evals) <= 14


def _solution_sets(k, thetas, grid):
    # the SolutionSets that enumerate_solution_grid(k, thetas) describes
    sols = [[] for _ in thetas]
    for i, b, x, y in zip(grid.point.tolist(), grid.branch.tolist(),
                          grid.x.tolist(), grid.y.tolist()):
        sols[i].append(TisgmSolution(x, y, BRANCHES[b]))
    return [
        SolutionSet(k, theta, grid.theta_critical, tuple(s), critical)
        for theta, s, critical in zip(thetas.tolist(), sols, grid.critical.tolist())
    ]


class TestSolutionGrid:
    @pytest.mark.parametrize(
        "lo,hi,k",
        [
            (lo, hi, k)
            for lo, hi in [(0.02, 3.0), (0.9, 1.1), (1e-3, 0.2)]
            for k in [2, 3, 5, 8]
        ]
        # above theta_cr(2) = 1: symmetric lanes only
        + [(1.5, 2.5, 2)],
    )
    def test_equals_enumerate_solutions(self, k, lo, hi):
        # bit for bit, both branches, at every point enumerate_solutions
        # solves (60 doublings do not reach the upper root at small theta
        # for k >= 3); theta = 1 is critical for k = 2
        want = []
        for theta in np.linspace(lo, hi, 301).tolist():
            try:
                want.append(enumerate_solutions(k, theta))
            except ValueError:
                pass
        assert len(want) > 150
        thetas = np.array([sset.theta for sset in want])
        got = enumerate_solution_grid(k, thetas)
        assert _solution_sets(k, thetas, got) == want
        # x^k and theta y^k as the scalar residual and kernel compute them
        theta = thetas[got.point].tolist()
        assert got.xk.tolist() == [x**k for x in got.x.tolist()]
        assert got.w.tolist() == [t * y**k for t, y in zip(theta, got.y.tolist())]

    @pytest.mark.parametrize("k,tol", [(3, 0.0), (3, 1e-15), (5, 5e-16), (8, 2e-16)])
    def test_first_row_over_the_residual_bound_raises_as_scalar(
        self, k, tol, monkeypatch
    ):
        # the residual contract holds on every row; a row that breaks it
        # fails the grid, and the sweep raises the first failing point's
        # ConsistencyError from the scalar solver
        monkeypatch.setattr(tisgm, "RESIDUAL_TOL", tol)
        grid = np.linspace(0.3, 2.0, 80)
        with pytest.raises(tisgm.ConsistencyError) as scalar:
            for theta in grid.tolist():
                enumerate_solutions(k, theta)
        with pytest.raises(tisgm.ConsistencyError):
            enumerate_solution_grid(k, grid)
        with pytest.raises(tisgm.ConsistencyError) as sweep:
            sweep_table(k, 0.3, 2.0, 80)
        assert str(sweep.value) == str(scalar.value)

    def test_critical_point(self):
        thetas = np.array([1.0])
        (sset,) = _solution_sets(2, thetas, enumerate_solution_grid(2, thetas))
        assert sset == enumerate_solutions(2, 1.0) and sset.critical

    # 60 doublings fall short (k = 8 and 3), x^k overflows in the residual
    # (k = 20), theta_cr(k) overflows (k = 144)
    @pytest.mark.parametrize(
        "k,grid",
        [(8, [0.001, 0.5]), (20, [0.1647, 1.0]), (144, [0.5, 1.0]), (3, [1e-40, 1.0])],
    )
    def test_failing_point_raises(self, k, grid):
        with pytest.raises((ValueError, ArithmeticError, RuntimeError)):
            enumerate_solution_grid(k, np.array(grid))


class TestClosedFormK2:
    def test_rho_equals_four(self):
        theta = 0.375 ** (1.0 / 3.0)
        upper, lower = solve_k2_closed_form(theta)
        assert upper.x == pytest.approx(2.0 + math.sqrt(3.0), abs=1e-12)
        assert lower.x == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)
        assert upper.y == pytest.approx(math.sqrt(upper.x / theta), abs=1e-12)

    def test_merge_toward_critical(self):
        gaps = []
        for j in (2, 3, 4, 5):
            theta = 1.0 - 10.0**-j
            upper, _ = solve_k2_closed_form(theta)
            gaps.append(upper.x - 1.0)
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_negative_quadratic_root_discarded(self):
        # the second root of the rho quadratic is negative on (0, 1) and
        # never yields a solution
        for theta in np.linspace(0.05, 0.95, 10):
            t3 = float(theta) ** 3
            rho2 = (1.0 - math.sqrt(1.0 + 8.0 * t3)) / (2.0 * t3)
            assert rho2 < 0.0
            for sol in solve_k2_closed_form(float(theta)):
                assert sol.x > 0.0

    def test_domain(self):
        for theta in (1.0, 1.2, 0.0, -0.5):
            with pytest.raises(ValueError):
                solve_k2_closed_form(theta)

    def test_agreement_with_bracketed_solver(self):
        for theta in np.linspace(0.05, 0.99, 50):
            theta = float(theta)
            closed = solve_k2_closed_form(theta)
            bracketed = solve_asymmetric(2, theta)
            for a, b in zip(closed, bracketed):
                assert abs(a.x - b.x) <= 1e-10
                assert abs(a.y - b.y) <= 1e-10


class TestEnumerate:
    def test_unique_above_threshold(self):
        assert len(enumerate_solutions(2, 1.5)) == 1

    def test_three_below_threshold(self):
        sset = enumerate_solutions(2, 0.5)
        assert len(sset) == 3
        assert [s.branch for s in sset.solutions] == [
            Branch.SYMMETRIC,
            Branch.UPPER,
            Branch.LOWER,
        ]

    def test_critical_guard(self):
        sset = enumerate_solutions(3, theta_cr(3))
        assert len(sset) == 1
        assert sset.critical

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_count_law(self, k):
        tc = theta_cr(k)
        for theta in np.linspace(0.1, 2.0 * tc, 20):
            theta = float(theta)
            if abs(theta - tc) <= 1e-9:
                continue
            sset = enumerate_solutions(k, theta)
            expected = 3 if theta < tc else 1
            assert len(sset) == expected
            for sol in sset.solutions:
                assert compatibility_residual(k, theta, sol.x, sol.y) < 1e-10
            if expected == 3:
                _, upper, lower = sset.solutions
                assert abs(upper.x * lower.x - 1.0) <= 1e-9


class TestBoundaryLawIteration:
    def test_all_ones_is_fixed_at_theta_one(self):
        out = iterate_boundary_law(ModelParams(k=2, theta=1.0, m=2))
        assert out.converged
        assert out.law.z == (1.0, 1.0, 1.0)

    def test_converges_to_symmetric_below_one(self):
        k, theta = 2, 0.5
        out = iterate_boundary_law(ModelParams(k=k, theta=theta, m=2), tol=1e-12)
        assert out.converged
        x = out.law.z[0] ** (1.0 / k)
        y = out.law.z[1] ** (1.0 / k)
        sym = solve_symmetric(k, theta)
        assert abs(x - sym.x) <= 1e-8
        assert abs(y - sym.y) <= 1e-8

    def test_oscillates_above_one(self):
        # the symmetric point repels plain iteration for theta > 1 (the
        # scalar map slope is k w/(1+w) > 1); the outcome is a two-cycle
        # reported as divergence, never a wrong fixed point
        out = iterate_boundary_law(
            ModelParams(k=2, theta=1.5, m=2), max_iter=2000
        )
        assert not out.converged
        assert out.law is None
        assert len(out.tail) >= 2
        # period-2 structure: iterates two apart agree, adjacent do not
        assert out.tail[-1] != out.tail[-2]
        assert out.tail[-1] == pytest.approx(out.tail[-3], rel=1e-6)

    def test_seeded_at_solution_stays(self):
        k, theta = 2, 1.5
        sym = solve_symmetric(k, theta)
        init = BoundaryLaw((sym.x**k, sym.y**k, 1.0))
        out = iterate_boundary_law(ModelParams(k=k, theta=theta, m=2), init)
        assert out.converged
        assert out.law.z[1] ** (1.0 / k) == pytest.approx(sym.y, abs=1e-8)

    def test_m4_exploratory(self):
        params = ModelParams(k=2, theta=0.8, m=4)
        out = iterate_boundary_law(params, max_iter=50_000, tol=1e-11)
        if out.converged:
            assert boundary_law_residual(params, out.law) < 1e-9
        else:
            assert out.law is None and len(out.tail) >= 2

    def test_init_validation(self):
        with pytest.raises(ValueError):
            BoundaryLaw((1.0, 1.0))  # even length => odd m
        with pytest.raises(ValueError):
            BoundaryLaw((1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            BoundaryLaw((1.0, 1.0, 2.0))  # last entry must be 1
        with pytest.raises(ValueError, match="finite"):
            BoundaryLaw((1.0, math.inf, 1.0))
        with pytest.raises(ValueError, match="positive"):
            BoundaryLaw((1.0, math.nan, 1.0))
        with pytest.raises(ValueError):
            iterate_boundary_law(
                ModelParams(k=2, theta=1.0, m=4), BoundaryLaw.ones(2)
            )

    def test_overflow_is_a_domain_error(self):
        init = BoundaryLaw((1e200, 1.0, 1.0))
        with pytest.raises(NumericalDomainError):
            iterate_boundary_law(ModelParams(k=2, theta=1.5, m=2), init)
