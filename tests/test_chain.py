import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcsos.chain import TransitionKernel, kappa_of, kernel_of, s2_of, stationary
from hcsos.extremality import classify_solution
from hcsos.model import Branch, TisgmSolution
from hcsos.rootfind import UnboundedBracketError
from hcsos.tisgm import (
    enumerate_solutions,
    solve_asymmetric,
    solve_symmetric,
    theta_cr,
)
from reference import (
    gamma_of,
    kernel_matrix,
    s2_mp,
    solve_k2_closed_form,
    spectrum_asymmetric_k2,
    spectrum_numeric,
    spectrum_symmetric,
    stationary_mp,
)


def _one_parameter_matrix(x: float) -> np.ndarray:
    """k = 2 asymmetric kernel written directly in terms of x alone."""
    return np.array(
        [
            [x / (x + 1.0), 1.0 / (x + 1.0), 0.0],
            [x * x / (1.0 + x * x), 0.0, 1.0 / (1.0 + x * x)],
            [0.0, x / (1.0 + x), 1.0 / (1.0 + x)],
        ]
    )


def _sample_points(rng, count):
    """Randomized valid (k, theta, solution) triples."""
    points = []
    while len(points) < count:
        k = int(rng.integers(2, 9))
        theta = float(rng.uniform(0.05, 2.0 * theta_cr(k)))
        sset = enumerate_solutions(k, theta)
        for sol in sset.solutions:
            points.append((k, theta, sol))
            if len(points) == count:
                break
    return points


def _sample_kernels(rng, count):
    """The kernels of ``_sample_points``."""
    return [kernel_of(sol, k, theta) for k, theta, sol in _sample_points(rng, count)]


class TestKernel:
    def test_uniform_point(self):
        sol = TisgmSolution(x=1.0, y=1.0, branch=Branch.SYMMETRIC)
        kern = kernel_of(sol, 2, 1.0)
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
        assert np.array_equal(kernel_matrix(kern), expected)

    def test_k2_asymmetric_reduces_to_one_parameter_form(self):
        theta = 0.375 ** (1.0 / 3.0)
        upper = solve_k2_closed_form(theta)[0]
        kern = kernel_of(upper, 2, theta)
        gap = kernel_matrix(kern) - _one_parameter_matrix(upper.x)
        assert np.max(np.abs(gap)) <= 1e-12

    def test_sparsity_pattern(self):
        for theta in (0.3, 1.0, 2.4):
            sol = solve_symmetric(3, theta)
            p = kernel_matrix(kernel_of(sol, 3, theta))
            assert p[0, 2] == 0.0 and p[1, 1] == 0.0 and p[2, 0] == 0.0

    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(20240811)
        for kern in _sample_kernels(rng, 1000):
            assert np.max(np.abs(kernel_matrix(kern).sum(axis=1) - 1.0)) <= 1e-14
            assert np.min(kernel_matrix(kern)) >= 0.0

    def test_kernel_is_immutable(self):
        # kernel_of's finiteness check holds for the kernel's lifetime
        kern = kernel_of(solve_symmetric(2, 0.7), 2, 0.7)
        with pytest.raises(AttributeError):
            kern.p00 = 0.0


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
        oracle = np.linalg.eigvals(kernel_matrix(kernel_of(sol, 2, theta)))
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
            residual = abs(np.linalg.det(kernel_matrix(kern) - lam * np.eye(3)))
            assert residual <= 1e-10

    def test_complex_pair_raises(self):
        # the cyclic shift has eigenvalues 1, exp(+-2 pi i / 3); it moves
        # 2 -> 0, which no wand kernel holds, so it cannot be passed in
        cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert np.any(np.abs(np.linalg.eigvals(cycle).imag) > 0.5)
        with pytest.raises(TypeError):
            TransitionKernel(*cycle.ravel())
        with pytest.raises(TypeError):
            TransitionKernel(p=cycle)

    def test_spectrum_is_real_with_product_minus_d(self):
        # the non-unit eigenvalues have opposite signs and |lam3| <= s2
        rng = np.random.default_rng(5)
        for kern in _sample_kernels(rng, 200):
            rep = spectrum_numeric(kern)
            one, lam2, lam3 = rep.eigenvalues
            assert one == 1.0 and abs(lam2) == rep.s2 == s2_of(kern)
            assert lam2 * lam3 < 0.0 and abs(lam3) <= rep.s2 * (1.0 + 1e-15)
            # trace and determinant of P against the spectrum
            assert abs(1.0 + lam2 + lam3 - np.trace(kernel_matrix(kern))) <= 1e-14
            assert abs(lam2 * lam3 - np.linalg.det(kernel_matrix(kern))) <= 1e-14


class TestStationary:
    def test_uniform(self):
        sol = TisgmSolution(x=1.0, y=1.0, branch=Branch.SYMMETRIC)
        pi = np.array(stationary(kernel_of(sol, 2, 1.0)))
        assert np.max(np.abs(pi - 1.0 / 3.0)) <= 1e-14

    def test_left_fixed_vector_randomized(self):
        rng = np.random.default_rng(7)
        for kern in _sample_kernels(rng, 50):
            pi = np.array(stationary(kern))
            assert np.max(np.abs(pi @ kernel_matrix(kern) - pi)) <= 1e-12
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pi > 0.0)

    def test_against_power_iteration(self):
        kern = kernel_of(solve_symmetric(2, 0.5), 2, 0.5)
        pi = np.full(3, 1.0 / 3.0)
        for _ in range(10_000):
            nxt = pi @ kernel_matrix(kern)
            if np.max(np.abs(nxt - pi)) < 1e-16:
                pi = nxt
                break
            pi = nxt
        assert np.max(np.abs(stationary(kern) - pi)) <= 1e-10

    def test_three_plain_floats(self):
        rng = np.random.default_rng(8)
        for kern in _sample_kernels(rng, 20):
            pi = stationary(kern)
            assert type(pi) is tuple and len(pi) == 3
            assert all(type(v) is float for v in pi)

    def test_total_is_left_to_right(self):
        # the built-in sum compensates from Python 3.12 on; the total is the
        # plain left-to-right sum on every Python, so pi keeps its bits
        rng = np.random.default_rng(9)
        kernels = _sample_kernels(rng, 200)
        for p01, p10, p21 in (10.0 ** rng.uniform(-12, 0, size=(2000, 3))).tolist():
            kernels.append(TransitionKernel(1 - p01, p01, p10, 1 - p10, p21, 1 - p21))
        for kern in kernels:
            mass = (kern.p10 / kern.p01, 1.0, kern.p12 / kern.p21)
            total = mass[0] + mass[1] + mass[2]
            assert stationary(kern) == tuple(m / total for m in mass)

    @pytest.mark.parametrize(
        "entries",
        [
            (1.0, 0.0, 0.4, 0.6, 0.3, 0.7),  # p01 = 0: 0 never leaves
            (0.5, 0.5, 0.4, 0.6, 0.0, 1.0),  # p21 = 0: 2 never leaves
            (0.5, 0.5, 0.0, 1.0, 0.3, 0.7),  # p10 = 0: no mass on 0
            (0.5, 0.5, 1.0, 0.0, 0.3, 0.7),  # p12 = 0: no mass on 2
            (1.0, 5e-324, 0.5, 0.5, 0.3, 0.7),  # p10 / p01 overflows
        ],
    )
    def test_reducible_kernel_refused(self, entries):
        with pytest.raises(RuntimeError, match="non-positive stationary vector"):
            stationary(TransitionKernel(*entries))

    def test_refusal_names_the_exact_entries(self):
        # the message holds the kernel's repr, whose entries read back bit
        # for bit whatever numpy's print options are
        kern = TransitionKernel(1.0 - 2**-53, 5e-324, 0.1 + 0.2, 1 / 3, 2 / 7, 1e-300)
        with pytest.raises(RuntimeError) as err:
            stationary(kern)
        head, text = str(err.value).split(" kernel ")
        assert head == "non-positive stationary vector for"
        assert text.startswith("TransitionKernel(") and text.endswith(")")
        fields = [item.split("=") for item in text[17:-1].split(", ")]
        assert [name for name, _ in fields] == list(TransitionKernel._fields)
        assert [float(v).hex() for _, v in fields] == [v.hex() for v in kern]


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


def _kappa_3x3(p) -> float:
    # the nine-entry row distance kappa_of used before the six-entry form
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = p.tolist()
    d01 = abs(a0 - b0) + abs(a1 - b1) + abs(a2 - b2)
    d02 = abs(a0 - c0) + abs(a1 - c1) + abs(a2 - c2)
    d12 = abs(b0 - c0) + abs(b1 - c1) + abs(b2 - c2)
    return 0.5 * max(d01, d02, d12)


class TestSixEntryFormulas:
    def test_kappa_equals_nine_entry_form_bitwise(self):
        rng = np.random.default_rng(7)
        for kern in _sample_kernels(rng, 300):
            assert kappa_of(kern) == _kappa_3x3(kernel_matrix(kern))

    def test_signed_zero_pattern(self):
        # a matrix may hold -0.0 in the zero pattern; |0 - p| = |p| either
        # way, so its nine-entry kappa is that of its six path entries
        p = np.array([[0.3, 0.7, -0.0], [0.6, -0.0, 0.4], [-0.0, 0.2, 0.8]])
        kern = TransitionKernel(0.3, 0.7, 0.6, 0.4, 0.2, 0.8)
        assert np.array_equal(kernel_matrix(kern), p)
        assert not np.signbit(kernel_matrix(kern)[[0, 1, 2], [2, 1, 0]]).any()
        assert kappa_of(kern) == _kappa_3x3(p)
        assert kappa_of(kern) == _kappa_3x3(kernel_matrix(kern))

    @settings(max_examples=200, deadline=None)
    @given(entries=st.tuples(*[st.just(-0.0) | st.floats(0.0, 1.0)] * 6))
    def test_zero_pattern_by_construction(self, entries):
        # any six entries, -0.0 among them, give +0.0 off the wand graph
        kern = TransitionKernel(*entries)
        p = kernel_matrix(kern)
        for i, j in ((0, 2), (1, 1), (2, 0)):
            assert p[i, j] == 0.0 and math.copysign(1.0, p[i, j]) == 1.0
        assert p[[0, 0, 1, 1, 2, 2], [0, 1, 0, 2, 1, 2]].tolist() == list(entries)
        assert kappa_of(kern) == _kappa_3x3(p)

    def test_classifier_witnesses_equal_kernel_routes(self):
        # classify_solution reads s2 and kappa off the kernel kernel_of builds
        rng = np.random.default_rng(11)
        for k, theta, sol in _sample_points(rng, 200):
            kern = kernel_of(sol, k, theta)
            v = classify_solution(k, theta, sol)
            assert v.s2 == spectrum_numeric(kern).s2
            assert v.kappa == kappa_of(kern)
            assert v.ks_value == k * spectrum_numeric(kern).s2 ** 2


class TestClosedNumericAgreementGrids:
    @pytest.mark.parametrize("k", list(range(2, 9)))
    def test_symmetric_branch(self, k):
        for theta in np.linspace(0.1, 2.5, 20):
            theta = float(theta)
            sol = solve_symmetric(k, theta)
            closed = spectrum_symmetric(sol.y, theta, k)
            assert abs(closed.s2 - s2_of(kernel_of(sol, k, theta))) <= 1e-10

    def test_k2_asymmetric_branch(self):
        for theta in np.linspace(0.05, 0.95, 20):
            theta = float(theta)
            for sol in solve_k2_closed_form(theta):
                closed = spectrum_asymmetric_k2(sol.x)
                assert abs(closed.s2 - s2_of(kernel_of(sol, 2, theta))) <= 1e-10

    def test_reciprocal_invariance_of_witnesses(self):
        for theta in np.linspace(0.1, 0.9, 9):
            upper, lower = solve_k2_closed_form(float(theta))
            s2_u = spectrum_asymmetric_k2(upper.x).s2
            s2_l = spectrum_asymmetric_k2(lower.x).s2
            assert abs(s2_u - s2_l) <= 1e-12
            k_u = kappa_of(kernel_of(upper, 2, float(theta)))
            k_l = kappa_of(kernel_of(lower, 2, float(theta)))
            assert abs(k_u - k_l) <= 1e-12


# theta grid down to 1e-3, where x^k spans hundreds of decades on the
# asymmetric branches; at k = 12, theta = 0.055 a deflated characteristic
# quadratic gave s2 = 7.9e-99 instead of 4.2e-17
ORACLE_THETAS = [float(t) for t in np.geomspace(1e-3, 4.0, 14)] + [0.055]


class TestFiftyDigitOracle:
    @pytest.mark.parametrize("k", [2, 3, 5, 8, 12, 20])
    def test_s2_and_stationary(self, k):
        checked = 0
        for theta in ORACLE_THETAS:
            sols = [solve_symmetric(k, theta)]
            try:
                sols += solve_asymmetric(k, theta)
            except (UnboundedBracketError, OverflowError):
                # known solver defects at small theta for large k: the
                # bracket search gives up, or x^k overflows in the residual
                pass
            for sol in sols:
                kern = kernel_of(sol, k, theta)
                s2 = s2_of(kern)
                assert abs(s2 / s2_mp(k, theta, sol) - 1) <= 2e-15, (k, theta, sol)
                for got, want in zip(stationary(kern), stationary_mp(k, theta, sol)):
                    if want >= 1e-290:
                        assert abs(got / want - 1) <= 2e-15, (k, theta, sol)
                checked += 1
        assert checked >= 15

    @pytest.mark.parametrize("k, theta", [(100, 1e-3), (100, 0.01), (20, 1e-8)])
    def test_symmetric_branch_at_tiny_w(self, k, theta):
        # w = theta y^k lies between 1e-273 and 1e-162 here, so w^2
        # underflows: pi_1 ~ w must not be formed from a product of two
        # probabilities
        sol = solve_symmetric(k, theta)
        kern = kernel_of(sol, k, theta)
        assert abs(s2_of(kern) / s2_mp(k, theta, sol) - 1) <= 2e-15
        for got, want in zip(stationary(kern), stationary_mp(k, theta, sol)):
            assert abs(got / want - 1) <= 2e-15, (k, theta, got, want)
