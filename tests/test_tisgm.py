import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcsos.model import Branch, ModelParams
from hcsos.tisgm import (
    BoundaryLaw,
    NumericalDomainError,
    boundary_law_residual,
    compatibility_residual,
    enumerate_solutions,
    eta,
    iterate_boundary_law,
    solve_asymmetric,
    solve_symmetric,
    theta_cr,
)
from reference import solve_k2_closed_form

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
        with pytest.raises(ValueError):
            iterate_boundary_law(
                ModelParams(k=2, theta=1.0, m=4), BoundaryLaw.ones(2)
            )

    def test_overflow_is_a_domain_error(self):
        init = BoundaryLaw((1e200, 1.0, 1.0))
        with pytest.raises(NumericalDomainError):
            iterate_boundary_law(ModelParams(k=2, theta=1.5, m=2), init)
