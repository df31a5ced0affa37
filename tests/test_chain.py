import math

import numpy as np
import pytest

from hcsos.chain import (
    TransitionKernel,
    kappa_of,
    kernel_of,
    spectrum_asymmetric_k2,
    spectrum_numeric,
    spectrum_symmetric,
    stationary,
)
from hcsos.model import Branch, TisgmSolution
from hcsos.tisgm import (
    enumerate_solutions,
    solve_asymmetric,
    solve_symmetric,
    theta_cr,
)
from reference import gamma_of, solve_k2_closed_form


def _one_parameter_matrix(x: float) -> np.ndarray:
    """k = 2 asymmetric kernel written directly in terms of x alone."""
    return np.array(
        [
            [x / (x + 1.0), 1.0 / (x + 1.0), 0.0],
            [x * x / (1.0 + x * x), 0.0, 1.0 / (1.0 + x * x)],
            [0.0, x / (1.0 + x), 1.0 / (1.0 + x)],
        ]
    )


def _sample_kernels(rng, count):
    """Randomized valid (k, theta, solution) triples and their kernels."""
    kernels = []
    while len(kernels) < count:
        k = int(rng.integers(2, 9))
        theta = float(rng.uniform(0.05, 2.0 * theta_cr(k)))
        sset = enumerate_solutions(k, theta)
        for sol in sset.solutions:
            kernels.append(kernel_of(sol, k, theta))
            if len(kernels) == count:
                break
    return kernels


class TestKernel:
    def test_uniform_point(self):
        sol = TisgmSolution(x=1.0, y=1.0, branch=Branch.SYMMETRIC)
        kern = kernel_of(sol, 2, 1.0)
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
        assert np.array_equal(kern.p, expected)

    def test_k2_asymmetric_reduces_to_one_parameter_form(self):
        theta = 0.375 ** (1.0 / 3.0)
        upper = solve_k2_closed_form(theta)[0]
        kern = kernel_of(upper, 2, theta)
        assert np.max(np.abs(kern.p - _one_parameter_matrix(upper.x))) <= 1e-12

    def test_sparsity_pattern(self):
        for theta in (0.3, 1.0, 2.4):
            sol = solve_symmetric(3, theta)
            p = kernel_of(sol, 3, theta).p
            assert p[0, 2] == 0.0 and p[1, 1] == 0.0 and p[2, 0] == 0.0

    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(20240811)
        for kern in _sample_kernels(rng, 1000):
            assert np.max(np.abs(kern.p.sum(axis=1) - 1.0)) <= 1e-14
            assert np.min(kern.p) >= 0.0

    def test_kernel_is_immutable(self):
        kern = kernel_of(solve_symmetric(2, 0.7), 2, 0.7)
        with pytest.raises(ValueError):
            kern.p[0, 0] = 0.0


class TestSymmetricSpectrum:
    def test_uniform_point(self):
        rep = spectrum_symmetric(1.0, 1.0, 2)
        assert rep.eigenvalues == (1.0, 0.5, -0.5)
        assert rep.s2 == 0.5

    def test_below_one_versus_generic_eigensolver(self):
        theta = 0.5
        sol = solve_symmetric(2, theta)
        rep = spectrum_symmetric(sol.y, theta, 2)
        assert rep.s2 == 1.0 / (theta * sol.y**2 + 1.0)
        assert rep.s2 > 0.5
        oracle = np.linalg.eigvals(kernel_of(sol, 2, theta).p)
        oracle_s2 = sorted(np.abs(oracle))[-2]
        assert abs(rep.s2 - oracle_s2) <= 1e-10

    def test_above_one_branch(self):
        theta = 1.5
        sol = solve_symmetric(2, theta)
        assert 1.0 < sol.y < 2.0 ** (1.0 / 3.0)
        w = theta * sol.y**2
        rep = spectrum_symmetric(sol.y, theta, 2)
        assert rep.s2 == w / (w + 1.0)

    @pytest.mark.parametrize("k", list(range(2, 9)))
    def test_selection_law(self, k):
        # |lambda_1| < lambda_2 iff theta < 1 (at the symmetric root)
        for theta in np.linspace(0.1, 2.5, 20):
            theta = float(theta)
            sol = solve_symmetric(k, theta)
            w = theta * sol.y**k
            lam1, lam2 = -w / (w + 1.0), 1.0 / (w + 1.0)
            if abs(theta - 1.0) < 1e-12:
                continue
            assert (abs(lam1) < lam2) == (theta < 1.0)
            rep = spectrum_symmetric(sol.y, theta, k)
            assert rep.s2 == max(abs(lam1), lam2)


class TestAsymmetricSpectrumK2:
    @pytest.mark.parametrize("x", [2.0 + math.sqrt(3.0), 3.0, 0.4])
    def test_reciprocal_invariance(self, x):
        assert spectrum_asymmetric_k2(x).s2 == pytest.approx(
            spectrum_asymmetric_k2(1.0 / x).s2, abs=1e-15
        )

    def test_limit_at_one(self):
        assert spectrum_asymmetric_k2(1.0).s2 == pytest.approx(0.5, abs=1e-15)

    def test_against_generic_eigensolver(self):
        x = 2.0 + math.sqrt(3.0)
        oracle = np.linalg.eigvals(_one_parameter_matrix(x))
        oracle_s2 = sorted(np.abs(oracle))[-2]
        assert abs(spectrum_asymmetric_k2(x).s2 - oracle_s2) <= 1e-10


class TestNumericSpectrum:
    def test_uniform_kernel(self):
        sol = TisgmSolution(x=1.0, y=1.0, branch=Branch.SYMMETRIC)
        rep = spectrum_numeric(kernel_of(sol, 2, 1.0))
        assert rep.eigenvalues == pytest.approx((1.0, 0.5, -0.5), abs=1e-14)

    def test_matches_symmetric_closed_form(self):
        theta, k = 0.7, 3
        sol = solve_symmetric(k, theta)
        closed = spectrum_symmetric(sol.y, theta, k)
        numeric = spectrum_numeric(kernel_of(sol, k, theta))
        assert abs(closed.s2 - numeric.s2) <= 1e-10
        for a, b in zip(closed.eigenvalues, numeric.eigenvalues):
            assert abs(a - b) <= 1e-10

    def test_k4_upper_branch(self):
        k = 4
        theta = 0.9 * theta_cr(k)
        upper = solve_asymmetric(k, theta)[0]
        kern = kernel_of(upper, k, theta)
        rep = spectrum_numeric(kern)
        assert abs(rep.s2) < 1.0
        for lam in rep.eigenvalues:
            residual = abs(np.linalg.det(kern.p - lam * np.eye(3)))
            assert residual <= 1e-10

    def test_complex_pair_raises(self):
        # the cyclic shift has eigenvalues 1, exp(+-2 pi i / 3): no
        # kernel of a fixed point looks like this, so it must not pass
        sol = TisgmSolution(x=1.0, y=1.0, branch=Branch.SYMMETRIC)
        cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        kern = TransitionKernel(p=cycle, source=sol, k=2, theta=1.0)
        with pytest.raises(ArithmeticError):
            spectrum_numeric(kern)


class TestStationary:
    def test_uniform(self):
        sol = TisgmSolution(x=1.0, y=1.0, branch=Branch.SYMMETRIC)
        pi = stationary(kernel_of(sol, 2, 1.0))
        assert np.max(np.abs(pi - 1.0 / 3.0)) <= 1e-14

    def test_left_fixed_vector_randomized(self):
        rng = np.random.default_rng(7)
        for kern in _sample_kernels(rng, 50):
            pi = stationary(kern)
            assert np.max(np.abs(pi @ kern.p - pi)) <= 1e-12
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pi > 0.0)

    def test_against_power_iteration(self):
        kern = kernel_of(solve_symmetric(2, 0.5), 2, 0.5)
        pi = np.full(3, 1.0 / 3.0)
        for _ in range(10_000):
            nxt = pi @ kern.p
            if np.max(np.abs(nxt - pi)) < 1e-16:
                pi = nxt
                break
            pi = nxt
        assert np.max(np.abs(stationary(kern) - pi)) <= 1e-10


class TestRowDistances:
    def test_uniform_kappa(self):
        sol = TisgmSolution(x=1.0, y=1.0, branch=Branch.SYMMETRIC)
        kern = kernel_of(sol, 2, 1.0)
        assert kappa_of(kern) == pytest.approx(0.5, abs=1e-15)
        assert gamma_of(kern) == pytest.approx(0.5, abs=1e-15)

    def test_symmetric_closed_form(self):
        # kappa is 1/(1+w) below theta = 1 and w/(1+w) above
        for k, theta in ((2, 0.4), (3, 0.8), (2, 1.6), (4, 2.2)):
            sol = solve_symmetric(k, theta)
            w = theta * sol.y**k
            expected = 1.0 / (1.0 + w) if theta < 1.0 else w / (1.0 + w)
            assert kappa_of(kernel_of(sol, k, theta)) == pytest.approx(
                expected, abs=1e-14
            )

    def test_k2_asymmetric_closed_form(self):
        theta = 0.375 ** (1.0 / 3.0)
        upper, lower = solve_k2_closed_form(theta)
        ku = kappa_of(kernel_of(upper, 2, theta))
        kl = kappa_of(kernel_of(lower, 2, theta))
        xu, xl = upper.x, lower.x
        assert ku == pytest.approx(xu * xu / (xu * xu + 1.0), abs=1e-13)
        assert kl == pytest.approx(1.0 / (xl * xl + 1.0), abs=1e-13)
        # branch swap keeps the value: kappa is reciprocal-invariant
        assert ku == pytest.approx(kl, abs=1e-12)

    def test_kappa_equals_gamma_randomized(self):
        rng = np.random.default_rng(99)
        for kern in _sample_kernels(rng, 200):
            assert abs(kappa_of(kern) - gamma_of(kern)) <= 1e-12


class TestClosedNumericAgreementGrids:
    @pytest.mark.parametrize("k", list(range(2, 9)))
    def test_symmetric_branch(self, k):
        for theta in np.linspace(0.1, 2.5, 20):
            theta = float(theta)
            sol = solve_symmetric(k, theta)
            closed = spectrum_symmetric(sol.y, theta, k)
            numeric = spectrum_numeric(kernel_of(sol, k, theta))
            assert abs(closed.s2 - numeric.s2) <= 1e-10

    def test_k2_asymmetric_branch(self):
        for theta in np.linspace(0.05, 0.95, 20):
            theta = float(theta)
            for sol in solve_k2_closed_form(theta):
                closed = spectrum_asymmetric_k2(sol.x)
                numeric = spectrum_numeric(kernel_of(sol, 2, theta))
                assert abs(closed.s2 - numeric.s2) <= 1e-10

    def test_reciprocal_invariance_of_witnesses(self):
        for theta in np.linspace(0.1, 0.9, 9):
            upper, lower = solve_k2_closed_form(float(theta))
            s2_u = spectrum_asymmetric_k2(upper.x).s2
            s2_l = spectrum_asymmetric_k2(lower.x).s2
            assert abs(s2_u - s2_l) <= 1e-12
            k_u = kappa_of(kernel_of(upper, 2, float(theta)))
            k_l = kappa_of(kernel_of(lower, 2, float(theta)))
            assert abs(k_u - k_l) <= 1e-12
