import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcsos import rootfind
from hcsos.rootfind import (
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


def _bracket_in(message):
    # the final bracket "[lo, hi]" that ends a ConvergenceError message
    lo, hi = message[message.rindex("[") + 1 : -1].split(", ")
    return float(lo), float(hi)


class TestFindRoot:
    def test_sqrt_two(self):
        f = lambda t: t * t - 2.0
        root = find_root(f, 1.0, 2.0, f(1.0), f(2.0))
        assert abs(root - math.sqrt(2.0)) <= 1e-12

    def test_linear(self):
        f = lambda t: t - 1.0
        assert find_root(f, 0.0, 2.0, f(0.0), f(2.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_symmetric_equation_k2(self):
        theta, k = 0.5, 2
        f = lambda y: theta * y ** (k + 1) + y - 2.0 * theta
        hi = 2.0 ** (1.0 / 3.0)
        root = find_root(f, 0.0, hi, f(0.0), f(hi))
        assert abs(root - Y_STAR_2_05) <= 1e-10
        assert abs(root - _y_closed_form_k2(theta)) <= 1e-10

    def test_root_stays_in_bracket(self):
        f = lambda t: math.tanh(3.0 * (t - 0.3))
        lo, hi = -1.0, 2.0
        root = find_root(f, lo, hi, f(lo), f(hi))
        assert lo <= root <= hi

    def test_deterministic(self):
        f = lambda t: t**3 - t - 1.0
        b = 1.0, 2.0, f(1.0), f(2.0)
        first = find_root(f, *b)
        second = find_root(f, *b)
        assert first == second  # bit-identical

    def test_endpoint_root_short_circuits(self):
        f = lambda t: t - 1.0
        assert find_root(f, 1.0, 2.0, 0, 1) == 1.0

    def test_no_sign_change_rejected(self):
        f = lambda t: t * t + 1.0
        with pytest.raises(BracketError):
            find_root(f, -1.0, 1.0, f(-1.0), f(1.0))

    def test_empty_bracket_rejected(self):
        # lo == hi is no bracket, even with a sign change in its values
        f = lambda t: t - 1.0
        with pytest.raises(BracketError, match=r"^need lo < hi, got \[1\.0, 1\.0\]$"):
            find_root(f, 1.0, 1.0, -1.0, 1.0)

    def test_cap_raises_with_best_inside_final_bracket(self, monkeypatch):
        monkeypatch.setattr(rootfind, "_MAX_ITER", 3)
        f = lambda t: math.tanh(3.0 * (t - 0.3))
        b_lo, b_hi = -1.0, 2.0
        with pytest.raises(ConvergenceError) as err:
            find_root(f, b_lo, b_hi, f(b_lo), f(b_hi))
        # the message names the final bracket, inside the first and narrower
        text = str(err.value)
        assert text.startswith("no convergence after 3 steps; bracket [")
        lo, hi = _bracket_in(text)
        assert b_lo <= lo < hi <= b_hi
        assert hi - lo < b_hi - b_lo
        assert rootfind._sign(f(lo)) != rootfind._sign(f(hi))

    def test_large_scale_root_terminates(self):
        # pure abs_tol would stall below one ulp of the root; the
        # relative floor must kick in
        f = lambda t: t - 3.0e9
        root = find_root(f, 1.0, 1.0e10, f(1.0), f(1.0e10))
        assert root == pytest.approx(3.0e9, rel=1e-12)

    def test_multiple_root_at_zero_ends(self):
        # linear convergence down to the subnormal floor, where f = 0
        f = lambda t: t * abs(t)
        root = find_root(f, -1.0, 3.0, f(-1.0), f(3.0))
        assert abs(root) <= 1e-160

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(-3.0, 3.0))
    def test_cubic_single_root_property(self, a):
        f = lambda t: (t - a) * (t * t + 1.0)
        lo, hi = a - 2.0, a + 3.0
        root = find_root(f, lo, hi, f(lo), f(hi))
        assert lo <= root <= hi
        assert abs(root - a) <= 1e-10


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
        assert tuple(v[i] for v in ladder) == expand_bracket_scalar(f, 1.0, target), target
    return None


class TestExpandBracket:
    def test_reciprocal(self):
        ladder = expand_bracket_decreasing(lambda x: 1.0 / x, np.array([0.25]))
        lo, hi, f_lo, f_hi = (v[0] for v in ladder)
        assert lo <= 4.0 <= hi
        assert f_lo == 1.0 - 0.25 and f_hi <= 0.0

    def test_level_set_of_eta(self):
        k, theta = 3, 1.5  # below the coexistence threshold for k = 3
        target = theta ** (k + 1)
        ladder = expand_bracket_decreasing(lambda x: eta(x, k), np.array([target]))
        lo, hi = ladder[0][0], ladder[1][0]
        assert lo == 1.0
        assert eta(lo, k) > target >= eta(hi, k)

    def test_precondition_violation(self):
        with pytest.raises(BracketError):
            expand_bracket_decreasing(lambda x: 1.0 / x, np.array([2.0]))

    def test_target_met_at_one_rejected(self):
        # f(1) equal to the target is no sign change, so no ladder starts
        with pytest.raises(BracketError, match="no expansion starts"):
            expand_bracket_decreasing(lambda x: 1.0 / x, [1.0])

    def test_stops_at_first_rung_meeting_target(self):
        # f(4) == 0.25 exactly: the ladder stops there, after f at 1, 2, 4
        at = []
        ladder = expand_bracket_decreasing(lambda x: at.append(x) or 1.0 / x, [0.25])
        assert at == [1.0, 2.0, 4.0]
        assert [v[0] for v in ladder] == [1.0, 4.0, 0.75, 0.0]

    def test_unbounded_failure(self):
        f = lambda x: 1.0 + 1.0 / (1.0 + x)
        with pytest.raises(UnboundedBracketError) as err:
            expand_bracket_decreasing(f, np.array([0.5]))
        with pytest.raises(UnboundedBracketError) as want:
            expand_bracket_scalar(f, 1.0, 0.5)
        assert str(err.value) == str(want.value)
        # the message names the last x where f was evaluated, 2^60
        assert str(err.value) == (
            "f stayed above target 0.5 out to x = 1.152921504606847e+18; "
            "no bracket found"
        )

    def test_unbounded_names_target_open_at_last_rung(self):
        # f(2^60) == 2^-60 meets the first target exactly, so the open
        # lane is the second
        with pytest.raises(UnboundedBracketError) as err:
            expand_bracket_decreasing(lambda x: 1.0 / x, [2.0**-60, 2.0**-70])
        assert str(err.value).startswith(f"f stayed above target {2.0**-70} out to")

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(2, 120), share=st.floats(1e-3, 1.0, exclude_max=True))
    def test_one_lane_equals_scalar(self, k, share):
        # theta a share of theta_cr(k): every bracket, or the same failure
        theta = share * theta_cr(k)
        target = theta ** (k + 1)
        if target >= eta(1.0, k):
            return  # merged with x = 1; the critical band keeps it from a bracket
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
            want = find_root(g, float(lo[i]), float(hi[i]), float(f_lo[i]), float(f_hi[i]))
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
            a, z = float(lo[i]), float(hi[i])
            assert got[i] == find_root(g, a, z, g(a), g(z))

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(rootfind, "_MAX_ITER", 3)
        f, lo, hi, f_lo, f_hi = _lanes([(0.3, 1.3, 1.7, 1.0, 1.0)])
        with pytest.raises(ConvergenceError) as err:
            _find_roots(f, lo, hi, f_lo, f_hi)
        text = str(err.value)
        assert text.startswith("1 lane(s) did not converge after 3 steps; lane 0 ")
        final = _bracket_in(text)
        assert lo[0] <= final[0] < final[1] <= hi[0]
        # the lane stops where find_root stops, so both messages name one bracket
        g = lambda t: f(np.array([0]), np.array([t]))[0]
        with pytest.raises(ConvergenceError) as scalar:
            find_root(g, float(lo[0]), float(hi[0]), float(f_lo[0]), float(f_hi[0]))
        assert _bracket_in(str(scalar.value)) == final

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
