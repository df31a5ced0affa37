import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hcsos.model import (
    Branch,
    ModelParams,
    TisgmSolution,
    activity_matrix,
    branch_of,
)


def _wand_weight(theta: float, i: int, j: int) -> float:
    """Edge weight of (i, j) read off the wand graph's definition."""
    if i == j and i % 2 == 0:
        return 1.0
    return theta if abs(i - j) == 1 else 0.0


class TestAdmissibility:
    # a pair is admissible iff its activity is positive

    def test_unit_step_allowed(self):
        assert activity_matrix(2, 1.0)[0, 1] > 0.0

    def test_odd_loop_forbidden(self):
        assert activity_matrix(2, 1.0)[1, 1] == 0.0

    def test_distant_pair_forbidden(self):
        assert activity_matrix(2, 1.0)[0, 2] == 0.0

    def test_even_loops_allowed(self):
        lam = activity_matrix(6, 1.0)
        for s in (0, 2, 4, 6):
            assert lam[s, s] > 0.0
        for s in (1, 3, 5):
            assert lam[s, s] == 0.0

    def test_symmetry_exhaustive(self):
        for m in range(2, 21, 2):
            lam = activity_matrix(m, 0.7)
            assert (lam == lam.T).all()

    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(1, 10), i=st.integers(0, 20), j=st.integers(0, 20))
    def test_symmetry_property(self, p, i, j):
        m = 2 * p
        assume(i <= m and j <= m)
        lam = activity_matrix(m, 1.3)
        assert lam[i, j] == lam[j, i]


class TestActivity:
    def test_even_loop_weight(self):
        assert activity_matrix(2, 0.7)[2, 2] == 1.0

    def test_step_weight(self):
        assert activity_matrix(2, 0.7)[1, 2] == 0.7

    def test_non_edge_weight(self):
        assert activity_matrix(2, 0.7)[0, 2] == 0.0

    def test_zero_exactly_off_the_graph(self):
        for m in range(2, 21, 2):
            lam = activity_matrix(m, 1.3)
            for i in range(m + 1):
                for j in range(m + 1):
                    wand_edge = abs(i - j) == 1 or (i == j and i % 2 == 0)
                    assert (lam[i, j] == 0.0) == (not wand_edge)

    def test_matrix_matches_pointwise(self):
        lam = activity_matrix(4, 0.9)
        for i in range(5):
            for j in range(5):
                assert lam[i, j] == _wand_weight(0.9, i, j)

    def test_invalid_arguments(self):
        for m, theta in ((3, 1.0), (0, 1.0), (2, 0.0), (2, math.inf)):
            with pytest.raises(ValueError):
                activity_matrix(m, theta)


class TestParams:
    def test_valid(self):
        p = ModelParams(k=2, theta=0.5)
        assert p.m == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 1, "theta": 0.5},
            {"k": 2, "theta": 0.0},
            {"k": 2, "theta": -1.0},
            {"k": 2, "theta": 0.5, "m": 3},
            {"k": 2, "theta": 0.5, "m": 0},
            {"k": 2, "theta": math.inf},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestSolutionType:
    def test_branch_tagging(self):
        assert branch_of(1.0) is Branch.SYMMETRIC
        assert branch_of(1.0 + 5e-10) is Branch.SYMMETRIC
        assert branch_of(1.0 + 1e-8) is Branch.UPPER
        assert branch_of(1.0 - 1e-8) is Branch.LOWER

    def test_inconsistent_branch_rejected(self):
        with pytest.raises(ValueError):
            TisgmSolution(x=2.0, y=1.0, branch=Branch.LOWER)
        with pytest.raises(ValueError):
            TisgmSolution(x=1.0, y=1.0, branch=Branch.UPPER)

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            TisgmSolution(x=-1.0, y=1.0, branch=Branch.LOWER)
        with pytest.raises(ValueError):
            TisgmSolution(x=1.0, y=0.0, branch=Branch.SYMMETRIC)
