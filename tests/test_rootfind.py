import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcsos import rootfind
from hcsos.rootfind import (
    Bracket,
    BracketError,
    ConvergenceError,
    UnboundedBracketError,
    expand_bracket_decreasing,
    find_root,
)
from hcsos.grid import _find_roots
from hcsos.tisgm import eta, theta_cr
from reference import expand_bracket_scalar

# Symmetric-branch equation at k=2, theta=0.5; the expected root is the
# closed-form value u^(1/3)/(3 theta) - u^(-1/3) with
# u = 3 theta sqrt(81 theta^4 + 3 theta) + 27 theta^3 (frozen below and
# recomputed in-test).
Y_STAR_2_05 = 0.7709169970592481


def _y_closed_form_k2(theta: float) -> float:
    u = 3 * theta * math.sqrt(81 * theta**4 + 3 * theta) + 27 * theta**3
    return u ** (1.0 / 3.0) / (3.0 * theta) - u ** (-1.0 / 3.0)


class TestFindRoot:
    def test_sqrt_two(self):
        f = lambda t: t * t - 2.0
        root = find_root(f, Bracket.certify(f, 1.0, 2.0))
        assert abs(root - math.sqrt(2.0)) <= 1e-12

    def test_linear(self):
        f = lambda t: t - 1.0
        assert find_root(f, Bracket.certify(f, 0.0, 2.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_symmetric_equation_k2(self):
        theta, k = 0.5, 2
        f = lambda y: theta * y ** (k + 1) + y - 2.0 * theta
        root = find_root(f, Bracket.certify(f, 0.0, 2.0 ** (1.0 / 3.0)))
        assert abs(root - Y_STAR_2_05) <= 1e-10
        assert abs(root - _y_closed_form_k2(theta)) <= 1e-10

    def test_root_stays_in_bracket(self):
        f = lambda t: math.tanh(3.0 * (t - 0.3))
        b = Bracket.certify(f, -1.0, 2.0)
        root = find_root(f, b)
        assert b.lo <= root <= b.hi

    def test_deterministic(self):
        f = lambda t: t**3 - t - 1.0
        b = Bracket.certify(f, 1.0, 2.0)
        first = find_root(f, b)
        second = find_root(f, b)
        assert first == second  # bit-identical

    def test_endpoint_root_short_circuits(self):
        f = lambda t: t - 1.0
        assert find_root(f, Bracket(1.0, 2.0, 0, 1)) == 1.0

    def test_no_sign_change_rejected(self):
        f = lambda t: t * t + 1.0
        with pytest.raises(BracketError):
            Bracket.certify(f, -1.0, 1.0)

    def test_cap_raises_with_best_inside_final_bracket(self, monkeypatch):
        monkeypatch.setattr(rootfind, "_MAX_ITER", 3)
        f = lambda t: math.tanh(3.0 * (t - 0.3))
        b = Bracket.certify(f, -1.0, 2.0)
        with pytest.raises(ConvergenceError) as err:
            find_root(f, b)
        final = err.value.bracket
        assert b.lo <= final.lo <= err.value.best <= final.hi <= b.hi
        assert final.hi - final.lo < b.hi - b.lo
        assert Bracket.certify(f, final.lo, final.hi) == final

    def test_large_scale_root_terminates(self):
        # pure abs_tol would stall below one ulp of the root; the
        # relative floor must kick in
        f = lambda t: t - 3.0e9
        root = find_root(f, Bracket.certify(f, 1.0, 1.0e10))
        assert root == pytest.approx(3.0e9, rel=1e-12)

    def test_multiple_root_at_zero_ends(self):
        # linear convergence down to the subnormal floor, where f = 0
        f = lambda t: t * abs(t)
        root = find_root(f, Bracket.certify(f, -1.0, 3.0))
        assert abs(root) <= 1e-160

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(-3.0, 3.0))
    def test_cubic_single_root_property(self, a):
        f = lambda t: (t - a) * (t * t + 1.0)
        b = Bracket.certify(f, a - 2.0, a + 3.0)
        root = find_root(f, b)
        assert b.lo <= root <= b.hi
        assert abs(root - a) <= 1e-10


def _lane(ladder, i=0):
    # lane i of expand_bracket_decreasing's lists as a Bracket
    return Bracket(*(float(v[i]) for v in ladder))


def _same_outcome(f, targets):
    # the ladder on all targets against the one-target oracle on each:
    # the same brackets, or the same exception type and message; a list
    # and an ndarray of the targets give the same brackets bit for bit, or
    # the same error text
    outcomes = []
    for given in (list(targets), np.array(targets)):
        try:
            outcomes.append(expand_bracket_decreasing(f, given))
        except BracketError as exc:
            outcomes.append(exc)
    ladder, from_array = outcomes
    if isinstance(ladder, BracketError):
        exc = ladder
        assert (type(from_array), str(from_array)) == (type(exc), str(exc))
        open_ = []
        for target in targets:
            try:
                expand_bracket_scalar(f, 1.0, target)
            except BracketError as want:
                open_.append(want)
        assert open_, exc
        assert (type(exc), str(exc)) == (type(open_[0]), str(open_[0]))
        return exc
    bits = lambda lanes: [[float(v).hex() for v in column] for column in lanes]
    assert bits(from_array) == bits(ladder)
    for i, target in enumerate(targets):
        assert _lane(ladder, i) == expand_bracket_scalar(f, 1.0, target), target
    return None


class TestExpandBracket:
    def test_reciprocal(self):
        b = _lane(expand_bracket_decreasing(lambda x: 1.0 / x, np.array([0.25])))
        assert b.lo <= 4.0 <= b.hi
        assert b.f_lo == 1.0 - 0.25 and b.f_hi <= 0.0

    def test_level_set_of_eta(self):
        k, theta = 3, 1.5  # below the coexistence threshold for k = 3
        target = theta ** (k + 1)
        b = _lane(expand_bracket_decreasing(lambda x: eta(x, k), np.array([target])))
        assert b.lo == 1.0
        assert eta(b.lo, k) > target >= eta(b.hi, k)

    def test_precondition_violation(self):
        with pytest.raises(BracketError):
            expand_bracket_decreasing(lambda x: 1.0 / x, np.array([2.0]))

    def test_unbounded_failure(self):
        f = lambda x: 1.0 + 1.0 / (1.0 + x)
        with pytest.raises(UnboundedBracketError) as err:
            expand_bracket_decreasing(f, np.array([0.5]))
        with pytest.raises(UnboundedBracketError) as want:
            expand_bracket_scalar(f, 1.0, 0.5)
        assert str(err.value) == str(want.value)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(2, 120), share=st.floats(1e-3, 1.0, exclude_max=True))
    def test_one_lane_equals_scalar(self, k, share):
        # theta a share of theta_cr(k): every bracket, or the same failure
        theta = share * theta_cr(k)
        target = theta ** (k + 1)
        if target >= eta(1.0, k):
            return  # merged with x = 1; solve_asymmetric never brackets it
        _same_outcome(lambda x: eta(x, k), [target])


# Lane i of the lockstep tests solves (t - c) (q t^2 + b) = 0: a cubic
# for q = 1, the line t - c for q = 0, b = 1.
lane = st.tuples(
    st.floats(-4.0, 4.0),  # c, the root
    st.sampled_from([0.0, 2.0**-40, 0.125, 0.7, 1.0, 3.3]),  # c - lo
    st.sampled_from([0.0, 2.0**-40, 0.125, 0.7, 1.0, 3.3]),  # hi - c
    st.sampled_from([0.0, 1.0]),  # q
    st.sampled_from([1.0, 1e-3, 7.0]),  # b
)


def _lanes(params):
    c, lo, hi, q, b = (np.array(v) for v in zip(*params))
    lo, hi = c - lo, c + hi

    def f(i, t):
        return (t - c[i]) * (q[i] * t * t + b[i])

    every = np.arange(c.size)
    return f, lo, hi, f(every, lo), f(every, hi)


class TestLockstep:
    @settings(max_examples=150, deadline=None)
    @given(params=st.lists(lane, min_size=1, max_size=40))
    def test_equals_find_root_lane_by_lane(self, params):
        # a lane whose root is a bracket end returns that end; a line on a
        # bracket centred at its root bisects onto it and stops on f = 0
        params = [p for p in params if p[1] + p[2] > 0.0 and p[0] - p[1] < p[0] + p[2]]
        if not params:
            return
        f, lo, hi, f_lo, f_hi = _lanes(params)
        got = _find_roots(f, lo, hi, f_lo, f_hi)
        for i, (c, _, _, q, b) in enumerate(params):
            g = lambda t: (t - c) * (q * t * t + b)
            want = find_root(g, Bracket(float(lo[i]), float(hi[i]), float(f_lo[i]), float(f_hi[i])))
            assert got[i] == want, (i, params[i])

    def test_exercises_every_stop(self):
        # roots at both bracket ends, an exact hit of f = 0 and ordinary
        # Brent stops side by side, against the scalar routine
        params = [(0.5, 0.0, 1.0, 1.0, 1.0), (0.5, 1.0, 0.0, 1.0, 1.0),
                  (0.75, 0.125, 0.125, 0.0, 1.0), (0.3, 1.0, 3.3, 1.0, 1e-3),
                  (-2.0, 0.7, 1.0, 1.0, 7.0)]
        f, lo, hi, f_lo, f_hi = _lanes(params)
        got = _find_roots(f, lo, hi, f_lo, f_hi)
        assert got[:3].tolist() == [0.5, 0.5, 0.75]
        assert f(np.array([2]), got[2:3])[0] == 0.0
        for i, (c, _, _, q, b) in enumerate(params):
            g = lambda t: (t - c) * (q * t * t + b)
            assert got[i] == find_root(g, Bracket.certify(g, float(lo[i]), float(hi[i])))

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(rootfind, "_MAX_ITER", 3)
        f, lo, hi, f_lo, f_hi = _lanes([(0.3, 1.3, 1.7, 1.0, 1.0)])
        with pytest.raises(ConvergenceError) as err:
            _find_roots(f, lo, hi, f_lo, f_hi)
        final = err.value.bracket
        assert lo[0] <= final.lo <= err.value.best <= final.hi <= hi[0]

    def test_shared_ladder_equals_expansion(self):
        k = 3
        # eta(4) itself: the ladder's value at 4 meets the target exactly
        targets = [1.5**4, 0.3**4, 1e-9, 6.0, eta(4.0, k)]
        assert _same_outcome(lambda x: eta(x, k), targets) is None
        # k = 100, theta = 0.5: 60 doublings from 1 stay above the target;
        # alone, or after a closed lane, it fails as the scalar ladder does
        k = 100
        for targets in ([0.5 ** (k + 1)], [1.0, 0.5 ** (k + 1), 0.25 ** (k + 1)]):
            exc = _same_outcome(lambda x: eta(x, k), targets)
            assert isinstance(exc, UnboundedBracketError)

    def test_shared_ladder_failures(self):
        with pytest.raises(BracketError):
            expand_bracket_decreasing(lambda x: 1.0 / x, np.array([0.5, 2.0]))
        with pytest.raises(UnboundedBracketError):
            expand_bracket_decreasing(
                lambda x: 1.0 + 1.0 / (1.0 + x), np.array([1.2, 0.5])
            )
