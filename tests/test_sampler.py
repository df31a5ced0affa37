import dataclasses
import itertools
import math
import random
import sys
import threading
import tracemalloc
from collections import defaultdict

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcsos import sampler
from hcsos.chain import TransitionKernel, kernel_of, stationary
from hcsos.model import Branch, TisgmSolution, branch_of
from hcsos.sampler import Configuration, TreeConfig, estimate_marginals, sample
from hcsos.tisgm import (
    enumerate_solutions,
    solve_asymmetric,
    solve_symmetric,
    theta_cr,
)
import reference
from reference import count_inadmissible_edges, draw_spins, parents, spin_counts

UNIFORM = TisgmSolution(x=1.0, y=1.0, branch=Branch.SYMMETRIC)


def _uniform_kernel():
    return kernel_of(UNIFORM, 2, 1.0)


class TestTreeGeometry:
    @pytest.mark.parametrize(
        "k,depth,count",
        [(2, 0, 1), (2, 1, 4), (2, 2, 10), (2, 4, 46), (3, 2, 17), (4, 3, 106)],
    )
    def test_vertex_count(self, k, depth, count):
        cfg = TreeConfig(k=k, depth=depth)
        assert cfg.vertex_count == count
        if depth >= 1:
            # root has k+1 children, everyone else k
            assert cfg.vertex_count == 1 + (k + 1) * (k**depth - 1) // (k - 1)

    def test_level_sizes(self):
        cfg = TreeConfig(k=2, depth=3)
        assert cfg.level_sizes == (1, 3, 6, 12)
        assert cfg.level_offsets == (0, 1, 4, 10, 22)

    def test_parent_arithmetic(self):
        cfg = TreeConfig(k=2, depth=2)
        par = parents(cfg)
        assert list(par[1:4]) == [0, 0, 0]
        assert list(par[4:10]) == [1, 1, 2, 2, 3, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            TreeConfig(k=1, depth=2)
        with pytest.raises(ValueError):
            TreeConfig(k=2, depth=-1)


class TestSampling:
    def test_depth_zero(self):
        cfg = TreeConfig(k=2, depth=0, seed=5)
        config = sample(_uniform_kernel(), cfg)
        assert config.spins.shape == (1,)
        assert config.spins[0] in (0, 1, 2)

    def test_seed_determinism(self):
        cfg = TreeConfig(k=2, depth=4, seed=123)
        a = sample(_uniform_kernel(), cfg)
        b = sample(_uniform_kernel(), cfg)
        assert np.array_equal(a.spins, b.spins)

    def test_different_seeds_differ(self):
        kern = _uniform_kernel()
        a = sample(kern, TreeConfig(k=2, depth=5, seed=1))
        b = sample(kern, TreeConfig(k=2, depth=5, seed=2))
        assert not np.array_equal(a.spins, b.spins)

    def test_no_inadmissible_edges_single_configs(self):
        for theta, sol in [
            (1.0, UNIFORM),
            (0.9, solve_asymmetric(2, 0.9)[0]),
            (0.5, solve_symmetric(2, 0.5)),
        ]:
            kern = kernel_of(sol, 2, theta)
            for seed in range(25):
                config = sample(kern, TreeConfig(k=2, depth=5, seed=seed))
                assert count_inadmissible_edges(config) == 0

    def test_counts_forbidden_pairs(self):
        # root 0 with children 2, 1, 1: only the pair (0, 2) is forbidden
        cfg = TreeConfig(k=2, depth=1)
        config = Configuration(spins=np.array([0, 2, 1, 1], dtype=np.int8), tree=cfg)
        assert count_inadmissible_edges(config) == 1
        with pytest.raises(ValueError):
            count_inadmissible_edges(config, m=3)

    def test_no_inadmissible_edges_bulk(self):
        # 2000 sampled configurations at depth 6, checked edge by edge; the
        # pair table's forbidden entries are zero by construction
        kern = kernel_of(solve_asymmetric(2, 0.7)[1], 2, 0.7)
        for seed in range(2000):
            config = sample(kern, TreeConfig(k=2, depth=6, seed=seed))
            assert count_inadmissible_edges(config) == 0


class TestMarginals:
    def test_single_sample_indicators(self):
        stats = estimate_marginals(
            _uniform_kernel(), TreeConfig(k=2, depth=1, seed=3), 1
        )
        assert stats.n_samples == 1
        root_freq = stats.level_frequencies[0]
        assert sorted(root_freq) == [0.0, 0.0, 1.0]

    def test_frequencies_normalized(self):
        stats = estimate_marginals(
            _uniform_kernel(), TreeConfig(k=2, depth=3, seed=11), 500
        )
        for freq in stats.level_frequencies:
            assert abs(sum(freq) - 1.0) <= 1e-12
        assert abs(sum(map(sum, stats.pair_frequencies)) - 1.0) <= 1e-12

    def test_levels_track_stationary_uniform(self):
        n = 20_000
        stats = estimate_marginals(
            _uniform_kernel(), TreeConfig(k=2, depth=3, seed=42), n
        )
        sigma = np.sqrt((1.0 / 3.0) * (2.0 / 3.0) / n)
        for freq in stats.level_frequencies:
            assert np.max(np.abs(np.subtract(freq, 1.0 / 3.0))) <= 4.0 * sigma

    def test_levels_track_stationary_skewed(self):
        theta = 0.5
        kern = kernel_of(solve_symmetric(2, theta), 2, theta)
        pi = np.array(stationary(kern))
        n = 30_000
        stats = estimate_marginals(kern, TreeConfig(k=2, depth=2, seed=8), n)
        sigma = float(np.sqrt(np.max(pi * (1 - pi)) / n))
        for freq in stats.level_frequencies:
            assert np.max(np.abs(freq - pi)) <= 4.0 * sigma
        # stationarity pushes through one step: level-1 marginal is pi P = pi
        assert np.max(np.abs(stats.level_frequencies[1] - pi @ kern.p)) <= 4 * sigma

    def test_pair_frequencies_track_edge_law(self):
        kern = _uniform_kernel()
        pi = np.array(stationary(kern))
        stats = estimate_marginals(kern, TreeConfig(k=2, depth=3, seed=21), 30_000)
        expected = pi[:, None] * kern.p
        assert np.max(np.abs(stats.pair_frequencies - expected)) <= 0.01

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            estimate_marginals(_uniform_kernel(), TreeConfig(k=2, depth=1), 0)


def _kernel(k, theta=0.5):
    return kernel_of(solve_symmetric(k, theta), k, theta)


def _level_counts(stats, cfg):
    """Per-level spin counts (depth + 1, 3) behind ``level_frequencies``."""
    sizes = np.array(cfg.level_sizes)[:, None] * stats.n_samples
    return np.rint(np.array(stats.level_frequencies) * sizes).astype(np.int64)


def _assert_counts_valid(stats, cfg, n):
    """What every draw of the counts satisfies, whatever the seed."""
    assert all(type(c) is int for row in stats.pair_counts for c in row)
    pc = np.array(stats.pair_counts)
    assert pc[0, 2] == pc[1, 1] == pc[2, 0] == 0
    assert (pc >= 0).all() and pc.sum() == n * (cfg.vertex_count - 1)
    levels = _level_counts(stats, cfg)
    assert (levels >= 0).all()
    assert (levels.sum(axis=1) == n * np.array(cfg.level_sizes)).all()
    # every child has one parent, every parent k + 1 (root) or k children
    assert (pc.sum(axis=0) == levels[1:].sum(axis=0)).all()
    per_parent = np.array([cfg.k + (level == 0) for level in range(cfg.depth)])
    assert (pc.sum(axis=1) == (per_parent[:, None] * levels[:-1]).sum(axis=0)).all()


def _oracle_stats(kern, cfg, n):
    """Level counts and pair counts of n vertex-by-vertex samples of the
    reference sampler, as one vector."""
    levels, pairs = spin_counts(draw_spins(kern, cfg, n), cfg)
    return np.concatenate([levels.ravel(), pairs.ravel()])


def _route_stats(kern, cfg, n):
    stats = estimate_marginals(kern, cfg, n)
    return np.concatenate([_level_counts(stats, cfg).ravel(), np.ravel(stats.pair_counts)])


def _assert_same_law(kern, cfg, n, reps=400):
    """Two-sample test over seeds 0 .. reps - 1 of each side, count by count
    of (level counts, pair counts).

    Means: Welch z within 5.  Variances, where both sides average at least
    1: for near-normal counts the log of the ratio of two sample variances
    has standard deviation about 2 / sqrt(reps) = 0.1, and 0.6 also covers
    the heavier tails of counts that expect a few.  A count that is
    constant on both sides must be the same constant."""
    a, b = (
        np.array([draw(kern, dataclasses.replace(cfg, seed=s), n) for s in range(reps)])
        for draw in (_route_stats, _oracle_stats)
    )
    mean_a, mean_b = a.mean(axis=0), b.mean(axis=0)
    var_a, var_b = a.var(axis=0, ddof=1), b.var(axis=0, ddof=1)
    const = (var_a == 0) & (var_b == 0)
    assert np.array_equal(mean_a[const], mean_b[const])
    z = (mean_a - mean_b)[~const] / np.sqrt((var_a + var_b)[~const] / reps)
    assert np.max(np.abs(z), initial=0.0) <= 5.0
    filled = (np.minimum(mean_a, mean_b) >= 1.0) & ~const
    assert np.max(np.abs(np.log(var_a[filled] / var_b[filled])), initial=0.0) <= 0.6


class TestStreamingMatchesOneShotDraw:
    """``sample`` against the one-shot sampler kept in reference.py, bit for
    bit, and the counts of ``estimate_marginals`` against its law."""

    # per k, a depth whose last level spans several of sample's blocks
    DEEP = {2: 17, 3: 11, 5: 8}

    @classmethod
    def _cases(cls, k):
        return [
            (TreeConfig(k=k, depth=0, seed=3), 5),
            (TreeConfig(k=k, depth=2, seed=11), 1),
            (TreeConfig(k=k, depth=3, seed=7), 37),
            (TreeConfig(k=k, depth=cls.DEEP[k], seed=20240810), 3),
        ]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_counts_follow_oracle_law(self, k):
        theta = 0.9 * theta_cr(k)
        kernels = [_kernel(k), kernel_of(solve_asymmetric(k, theta)[0], k, theta)]
        for kern in kernels:
            for cfg, n in self._cases(k)[:3]:
                _assert_same_law(kern, cfg, n)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_sample_equals_oracle_row(self, k, monkeypatch):
        deep = TreeConfig(k=k, depth=self.DEEP[k])
        assert deep.level_sizes[-1] > 2 * sampler._UNIFORMS_AT_ONCE
        kern = _kernel(k)
        for cfg, n in self._cases(k):
            want = draw_spins(kern, cfg, 1)[0]
            got = sample(kern, cfg).spins
            assert got.dtype == want.dtype and np.array_equal(got, want)
            _assert_counts_valid(estimate_marginals(kern, cfg, n), cfg, n)
        # blocks of one parent's children and blocks that end inside a level
        for block in (1, 5, 64):
            monkeypatch.setattr(sampler, "_UNIFORMS_AT_ONCE", block)
            for depth in range(5):
                cfg = TreeConfig(k=k, depth=depth, seed=depth)
                want = draw_spins(kern, cfg, 1)[0]
                assert np.array_equal(sample(kern, cfg).spins, want)

    # Hand-built wand kernels for the edges of the inverse-CDF rule, as
    # (P00, P01, P10, P12, P21, P22).
    EDGE_KERNELS = {
        "p00 zero": (0.0, 1.0, 0.4, 0.6, 0.3, 0.7),
        "row 0 one ulp short": (
            0.25, float(np.nextafter(0.75, 0.0)), 0.4, 0.6, 0.3, 0.7
        ),
        "p12 zero": (0.5, 0.5, 1.0, 0.0, 0.3, 0.7),
        "p22 zero": (0.5, 0.5, 0.4, 0.6, 1.0, 0.0),
    }

    @pytest.fixture
    def uniform_root(self, monkeypatch):
        # p12 = 0 leaves state 2 transient, which stationary() refuses; a
        # uniform root law makes every parent state occur in every case
        def uniform(kern):
            return np.full(3, 1.0 / 3.0)

        monkeypatch.setattr(sampler, "stationary", uniform)
        monkeypatch.setattr(reference, "stationary", uniform)

    @staticmethod
    def _edge_kernel(name):
        return TransitionKernel(*TestStreamingMatchesOneShotDraw.EDGE_KERNELS[name])

    @staticmethod
    def _assert_matches_oracle(kern, cfg, n):
        """``sample`` is the oracle's first row bit for bit; the counts of n
        samples are consistent (their law is checked by the two-sample and
        exact-law tests)."""
        want = draw_spins(kern, cfg, 1)[0]
        got = sample(kern, cfg).spins
        assert got.dtype == want.dtype and np.array_equal(got, want)
        _assert_counts_valid(estimate_marginals(kern, cfg, n), cfg, n)

    @pytest.mark.usefixtures("uniform_root")
    @pytest.mark.parametrize("name", sorted(EDGE_KERNELS))
    @pytest.mark.parametrize("k", [2, 3])
    def test_edge_kernels_equal_oracle_bitwise(self, name, k):
        kern = self._edge_kernel(name)
        if name == "row 0 one ulp short":
            assert kern.p[0, 0] + kern.p[0, 1] == np.nextafter(1.0, 0.0)
        for cfg, n in self._cases(k):
            self._assert_matches_oracle(kern, cfg, n)
        _assert_same_law(kern, TreeConfig(k=k, depth=3), 20, reps=200)

    @pytest.mark.usefixtures("uniform_root")
    def test_edge_kernels_force_their_rows(self):
        cfg = TreeConfig(k=3, depth=3, seed=4)
        pc = {
            name: estimate_marginals(self._edge_kernel(name), cfg, 200).pair_counts
            for name in self.EDGE_KERNELS
        }
        assert pc["p00 zero"][0][0] == 0 < pc["p00 zero"][0][1]  # row 0 gives 1
        assert pc["p12 zero"][1][2] == 0 < pc["p12 zero"][1][0]  # row 1 gives 0
        assert pc["p22 zero"][2][2] == 0 < pc["p22 zero"][2][1]  # row 2 gives 1

    @settings(max_examples=60, deadline=None)
    @given(
        xk=st.floats(1e-6, 1e6),
        w=st.floats(1e-6, 1e6),
        k=st.sampled_from([2, 3, 5]),
        depth=st.integers(0, 3),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_positive_kernels_equal_oracle_bitwise(self, xk, w, k, depth, n, seed):
        # a kernel depends on (x^k, w = theta y^k) alone: x = x^k at k = 1, y = 1
        kern = kernel_of(TisgmSolution(x=xk, y=1.0, branch=branch_of(xk)), 1, w)
        self._assert_matches_oracle(kern, TreeConfig(k, depth, seed), n)

    def test_zero_pattern_fixes_one_comparison_per_row(self):
        # each row has two live states (P02 = P11 = P20 = 0), which the
        # aggregate law relies on: in the snapped rows c01 = 1, c11 = c10
        # and c20 = 0
        checked = 0
        for k in (2, 3, 5, 8, 50):
            for theta in np.geomspace(1e-3, 1e3, 61):
                try:
                    sols = enumerate_solutions(k, float(theta)).solutions
                except (ValueError, ArithmeticError):
                    continue  # known solver defects at extreme theta
                for sol in sols:
                    p = kernel_of(sol, k, theta).p
                    assert p[0, 2] == p[1, 1] == p[2, 0] == 0.0
                    cum = sampler._snapped_cumulative(p)
                    assert cum[0, 1] == 1.0
                    assert cum[1, 1] == cum[1, 0]
                    assert cum[2, 0] == 0.0
                    checked += 1
        assert checked >= 500


def _measure_kernels():
    """(name, kernel) of mu0, mu1 and mu2 at k = 2, theta = 0.7."""
    k, theta = 2, 0.7
    mu1, mu2 = solve_asymmetric(k, theta)
    sols = {"mu0": solve_symmetric(k, theta), "mu1": mu1, "mu2": mu2}
    return {name: kernel_of(sol, k, theta) for name, sol in sols.items()}


class TestAggregateLaw:
    """The law of the counts that ``estimate_marginals`` draws."""

    CFG = TreeConfig(k=2, depth=2)  # V = 10: 3^10 configurations

    @staticmethod
    def _enumerated_law(kern, cfg, n):
        """pmf of (level counts, pair table) of n independent samples, from
        the probability of every configuration under the chain."""
        v = cfg.vertex_count
        spins = np.array(list(itertools.product(range(3), repeat=v)))
        child = np.arange(1, v)
        parent = parents(cfg)[child]
        prob = np.array(stationary(kern))[spins[:, 0]] * np.prod(
            kern.p[spins[:, parent], spins[:, child]], axis=1
        )
        offsets = cfg.level_offsets
        levels = [
            (spins[:, offsets[lv] : offsets[lv + 1], None] == np.arange(3)).sum(axis=1)
            for lv in range(cfg.depth + 1)
        ]
        pair_index = 3 * spins[:, parent] + spins[:, child]
        pairs = (pair_index[:, :, None] == np.arange(9)).sum(axis=1)
        stats = np.hstack([*levels, pairs])
        # a count vector packed one byte per count (every count here is
        # below 256), so adding packed vectors adds the counts
        one = defaultdict(float)
        for row, pr in zip(stats[prob > 0].tolist(), prob[prob > 0].tolist()):
            one[int.from_bytes(bytes(row), "little")] += pr
        law = {0: 1.0}
        for _ in range(n):
            law_n = defaultdict(float)
            for key_a, pr_a in law.items():
                for key_b, pr_b in one.items():
                    law_n[key_a + key_b] += pr_a * pr_b
            law = law_n
        return {tuple(key.to_bytes(stats.shape[1], "little")): pr for key, pr in law.items()}

    @staticmethod
    def _route_law(kern, cfg, n):
        """pmf of the same counts under the aggregate route: Multinomial(n, pi)
        at the root, then per level and parent state a, n_a ~ Bin(m_a, q_a)
        children in the larger of their two states."""
        pi = stationary(kern)
        p = kern.p.tolist()
        q = (p[0][1], p[1][2], p[2][2])

        def binom(m, x, r):
            return math.comb(m, x) * r**x * (1.0 - r) ** (m - x)

        # (level counts so far, pair table so far) -> probability
        law = defaultdict(float)
        for n0, n1 in itertools.product(range(n + 1), repeat=2):
            n2 = n - n0 - n1
            if n2 >= 0:
                ways = math.factorial(n) // math.prod(map(math.factorial, (n0, n1, n2)))
                pr = ways * pi[0] ** n0 * pi[1] ** n1 * pi[2] ** n2
                law[((n0, n1, n2),), (0,) * 9] += pr
        for level in range(1, cfg.depth + 1):
            law_l = defaultdict(float)
            for (levels, pairs), pr in law.items():
                m0, m1, m2 = (c * (cfg.k + (level == 1)) for c in levels[-1])
                for x0, x1, x2 in itertools.product(
                    range(m0 + 1), range(m1 + 1), range(m2 + 1)
                ):
                    table = (m0 - x0, x0, 0, m1 - x1, 0, x1, 0, m2 - x2, x2)
                    below = (table[0] + table[3], table[1] + table[7], table[5] + table[8])
                    w = pr * binom(m0, x0, q[0]) * binom(m1, x1, q[1]) * binom(m2, x2, q[2])
                    law_l[levels + (below,), tuple(map(sum, zip(pairs, table)))] += w
            law = law_l
        return {sum(levels, ()) + pairs: pr for (levels, pairs), pr in law.items()}

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("measure", ["mu0", "mu1", "mu2"])
    def test_exact_law_matches_enumeration(self, measure, n):
        kern = _measure_kernels()[measure]
        want = self._enumerated_law(kern, self.CFG, n)
        got = self._route_law(kern, self.CFG, n)
        assert abs(sum(want.values()) - 1.0) <= 1e-12
        for key in set(want) | set(got):
            assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= 1e-12, key
        # every outcome the route can draw is a reachable one
        assert {key for key, pr in got.items() if pr > 0} <= set(want)

    def test_route_draws_these_binomials(self, monkeypatch):
        calls, nested = [], []
        binomial = sampler._binomial

        def record(rng, m, p):
            # the reflection p > 0.5 calls _binomial again: keep the outer call
            nested.append(None)
            try:
                x = binomial(rng, m, p)
            finally:
                nested.pop()
            if not nested:
                calls.append((m, p, x))
            return x

        monkeypatch.setattr(sampler, "_binomial", record)
        cases = [(TreeConfig(k=2, depth=0, seed=1), 9), (self.CFG, 3)]
        cases += [(TreeConfig(k=k, depth=5, seed=k), 1000) for k in (2, 3, 7)]
        for name, kern in _measure_kernels().items():
            for cfg, n in cases:
                calls.clear()
                stats = estimate_marginals(kern, cfg, n)
                assert len(calls) == 2 + 3 * cfg.depth
                pi = stationary(kern)
                (m, p, n0), (m1, p1, n1) = calls[:2]
                assert (m, p) == (n, pi[0])
                assert (m1, p1) == (n - n0, pi[1] / (pi[1] + pi[2]))
                above = np.array([n0, n1, n - n0 - n1])
                want_levels, pairs = [above], np.zeros((3, 3), dtype=np.int64)
                for level in range(1, cfg.depth + 1):
                    (m0, q0, x0), (m1, q1, x1), (m2, q2, x2) = calls[3 * level - 1 : 3 * level + 2]
                    assert [m0, m1, m2] == ((cfg.k + (level == 1)) * above).tolist()
                    assert (q0, q1, q2) == (kern.p[0, 1], kern.p[1, 2], kern.p[2, 2])
                    table = np.array([[m0 - x0, x0, 0], [m1 - x1, 0, x1], [0, m2 - x2, x2]])
                    pairs += table
                    above = table.sum(axis=0)
                    want_levels.append(above)
                assert np.array_equal(stats.pair_counts, pairs), name
                assert np.array_equal(_level_counts(stats, cfg), np.array(want_levels))

    def test_seed_determinism(self):
        kern = _kernel(3)
        cfg = TreeConfig(k=3, depth=4, seed=2**64 - 1)
        a, b = (estimate_marginals(kern, cfg, 5000) for _ in range(2))
        assert np.array_equal(a.pair_counts, b.pair_counts)
        c = estimate_marginals(kern, dataclasses.replace(cfg, seed=0), 5000)
        assert not np.array_equal(a.pair_counts, c.pair_counts)


def _binomial_pmf(n, p):
    """Binomial(n, p) pmf from math.comb, in log space (exact integers)."""
    return [
        math.exp(math.log(math.comb(n, x)) + x * math.log(p) + (n - x) * math.log1p(-p))
        for x in range(n + 1)
    ]


class TestBinomial:
    """``sampler._binomial``, the variate behind the aggregate draw."""

    DRAWS = 20_000

    @pytest.mark.parametrize(
        "n,p",
        [
            (1, 0.3),  # n = 1: one uniform
            (30, 0.1),  # geometric method, n p = 3
            (2000, 0.002),  # geometric method, n p = 4
            (60, 0.5),  # BTRS at p = 0.5, not reflected
            (1000, 0.3),  # BTRS
            (40, 0.95),  # reflected to p = 0.05, geometric
            (1000, 0.8),  # reflected to p = 0.2, BTRS
        ],
    )
    def test_chi_square_against_pmf(self, n, p):
        rng = random.Random(n)
        counts = np.bincount(
            [sampler._binomial(rng, n, p) for _ in range(self.DRAWS)], minlength=n + 1
        )
        expected = self.DRAWS * np.array(_binomial_pmf(n, p))
        # pool neighbouring outcomes until each cell expects at least 5
        cells, obs, exp = [], 0, 0.0
        for o, e in zip(counts.tolist(), expected.tolist()):
            obs, exp = obs + o, exp + e
            if exp >= 5.0:
                cells.append((obs, exp))
                obs, exp = 0, 0.0
        last_obs, last_exp = cells.pop()
        cells.append((last_obs + obs, last_exp + exp))
        chi2 = sum((o - e) ** 2 / e for o, e in cells)
        df = len(cells) - 1
        assert df >= 1
        p_value = mp.gammainc(df / 2, chi2 / 2, mp.inf, regularized=True)
        assert p_value > 1e-6, (chi2, df)

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_moments_at_the_largest_count(self, p):
        # math.comb is out of reach at n = 2^40, so check the mean and the
        # variance of the standardised draws (standard errors 0.007 and
        # 0.01); the same test at n = 2^49 reads a variance of 1.16
        n = sampler.MAX_VERTEX_SAMPLES
        rng = random.Random(3)
        z = np.array([sampler._binomial(rng, n, p) for _ in range(self.DRAWS)])
        z = (z - n * p) / math.sqrt(n * p * (1.0 - p))
        assert abs(z.mean()) < 0.04 and abs(z.var() - 1.0) < 0.05

    @pytest.mark.parametrize("n", [0, 1, 7, 10**6, 2**60])
    def test_edges(self, n):
        rng = random.Random(5)
        state = rng.getstate()
        assert sampler._binomial(rng, n, 0.0) == 0
        assert sampler._binomial(rng, n, 1.0) == n
        assert rng.getstate() == state  # no uniform is drawn
        if n == 0:
            for p in (1e-300, 0.3, 0.5, 0.7, 1.0 - 1e-16):
                assert sampler._binomial(rng, 0, p) == 0
        if n == 1:
            assert {sampler._binomial(rng, 1, 0.5) for _ in range(100)} == {0, 1}
        with pytest.raises(ValueError):
            sampler._binomial(rng, n, 1.5)

    def test_equal_seeds_give_equal_counts(self):
        shapes = [(1, 0.3), (30, 0.1), (1000, 0.3), (1000, 0.8), (10**12, 0.4)]

        def draws(seed):
            rng = random.Random(seed)
            return [sampler._binomial(rng, n, p) for n, p in shapes * 20]

        assert draws(2**64 - 1) == draws(2**64 - 1)
        assert draws(1) != draws(2)

    @pytest.mark.skipif(
        not hasattr(random.Random, "binomialvariate"),
        reason="Random.binomialvariate is new in Python 3.12",
    )
    def test_equals_binomialvariate(self):
        shapes = [(1, 0.3), (0, 0.4), (30, 0.1), (60, 0.5), (1000, 0.3), (40, 0.95),
                  (1000, 0.8), (10**12, 0.4)]
        for seed in range(20):
            ours, theirs = random.Random(seed), random.Random(seed)
            for n, p in shapes:
                assert sampler._binomial(ours, n, p) == theirs.binomialvariate(n, p)


def _on_threads(calls):
    """Results of the zero-argument ``calls``, each run on a thread of its
    own, all released together."""
    results, errors = [None] * len(calls), []
    barrier = threading.Barrier(len(calls), timeout=30)

    def run(i):
        try:
            barrier.wait()
            results[i] = calls[i]()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results


class TestParallelDraw:
    """Calls made on several threads at once.  Neither function keeps state
    between calls, so every thread gets what a lone call gets: ``sample``
    the oracle's row, ``estimate_marginals`` the same counts."""

    @pytest.fixture(autouse=True)
    def frequent_switches(self):
        # hand the interpreter lock over every microsecond, so that the
        # threads' draws interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    @pytest.mark.parametrize("n,block", [(64, 7), (200, 40), (200, 1 << 16)])
    def test_small_chunks_and_blocks_equal_oracle(self, monkeypatch, workers, n, block):
        # each thread counts n samples and draws one sample in blocks of
        # `block` uniforms: a few parents' rows, blocks ending inside a
        # level, a whole level
        monkeypatch.setattr(sampler, "_UNIFORMS_AT_ONCE", block)
        for cfg in [
            TreeConfig(k=2, depth=0, seed=1),
            TreeConfig(k=2, depth=3, seed=2),
            TreeConfig(k=3, depth=2, seed=2**64 - workers),
            TreeConfig(k=2, depth=5, seed=3),  # V = 94
        ]:
            kern = _kernel(cfg.k)
            cfgs = [dataclasses.replace(cfg, seed=cfg.seed + i) for i in range(workers)]
            got = _on_threads(
                [lambda c=c: (sample(kern, c), estimate_marginals(kern, c, n)) for c in cfgs]
            )
            for c, (config, stats) in zip(cfgs, got, strict=True):
                want = draw_spins(kern, c, 1)[0]
                assert np.array_equal(config.spins, want)
                alone = estimate_marginals(kern, c, n)
                assert np.array_equal(stats.pair_counts, alone.pair_counts)
                for a, b in zip(
                    stats.level_frequencies, alone.level_frequencies, strict=True
                ):
                    assert np.array_equal(a, b)
                _assert_counts_valid(stats, c, n)

    def test_sample_equals_oracle_with_two_workers(self):
        kern = _kernel(3)
        for depth in (0, 1, 4, 11):
            cfgs = [TreeConfig(k=3, depth=depth, seed=depth + i) for i in range(2)]
            got = _on_threads([lambda c=c: sample(kern, c) for c in cfgs])
            for c, config in zip(cfgs, got, strict=True):
                want = draw_spins(kern, c, 1)[0]
                assert config.spins.dtype == want.dtype
                assert np.array_equal(config.spins, want)


class TestThreadHygiene:
    """Both functions draw on the calling thread and leave no thread behind."""

    CFG = TreeConfig(k=3, depth=4, seed=0)

    @pytest.fixture(autouse=True)
    def baseline(self):
        self.baseline = threading.active_count()

    @staticmethod
    def _record_threads(monkeypatch, name):
        """The set of threads that call ``sampler.<name>`` from now on."""
        threads = set()
        original = getattr(sampler, name)

        def record(*args):
            threads.add(threading.get_ident())
            return original(*args)

        monkeypatch.setattr(sampler, name, record)
        return threads

    def test_pool_ends_with_estimate(self, monkeypatch):
        threads = self._record_threads(monkeypatch, "_binomial")
        estimate_marginals(_kernel(3), self.CFG, 40_000)
        assert threads == {threading.get_ident()}
        assert threading.active_count() == self.baseline

    def test_sample_runs_on_calling_thread(self, monkeypatch):
        threads = self._record_threads(monkeypatch, "_snapped_cumulative")
        sample(_kernel(3), self.CFG)
        assert threads == {threading.get_ident()}
        assert threading.active_count() == self.baseline

    def test_pool_ends_after_error_in_a_chunk(self, monkeypatch):
        calls = []
        binomial = sampler._binomial

        def fail_third_draw(rng, n, p):
            calls.append(n)
            if len(calls) == 3:
                raise RuntimeError("draw failed")
            return binomial(rng, n, p)

        monkeypatch.setattr(sampler, "_binomial", fail_third_draw)
        with pytest.raises(RuntimeError, match="draw failed"):
            estimate_marginals(_kernel(3), self.CFG, 40_000)
        assert len(calls) == 3
        assert threading.active_count() == self.baseline


class TestMemoryBound:
    def test_peak_independent_of_samples(self):
        # k = 3, depth 4: 161 vertices; 40000 samples hold 6.4e6 vertex-samples,
        # which the one-shot draw kept as ~170 MB of arrays
        kern = kernel_of(solve_asymmetric(3, 0.5)[0], 3, 0.5)
        cfg = TreeConfig(k=3, depth=4, seed=0)
        tracemalloc.start()
        try:
            estimate_marginals(kern, cfg, 40_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_large_tree_row_not_held_as_uniforms(self):
        # the counts of the largest tree hold O(depth) numbers, no row;
        # sample holds its int8 spins and one block of uniforms (V = 3145726:
        # one level of float64 uniforms would be 12.6 MB)
        kern = _kernel(2)
        cfg = TreeConfig(k=2, depth=20, seed=5)
        largest = TreeConfig(k=2, depth=24)
        n = sampler.MAX_VERTEX_SAMPLES // largest.vertex_count
        for draw, bound in [
            (lambda: estimate_marginals(kern, largest, n), 2**16),
            (lambda: sample(kern, cfg), cfg.vertex_count + 2**22),
        ]:
            tracemalloc.start()
            try:
                draw()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound


class TestSizeLimit:
    def test_largest_allowed_tree(self):
        cfg = TreeConfig(k=2, depth=24)
        assert cfg.vertex_count == 50_331_646 <= sampler.MAX_VERTICES

    @pytest.mark.parametrize(
        "k,depth,size",
        [
            (2, 25, "100663294"),
            (3, 20, "6973568801"),
            (2, 60, "3458764513820540926"),
            (2000, 80, "more than 2000^80"),
            (2, 10**9, "more than 2^1000000000"),
        ],
    )
    def test_refuses_over_large_tree(self, k, depth, size):
        with pytest.raises(ValueError) as err:
            TreeConfig(k=k, depth=depth)
        msg = str(err.value)
        assert f"k={k}, depth={depth}" in msg and f"V = {size} vertices" in msg

    def test_refuses_too_many_vertex_samples(self, monkeypatch):
        def never(*args):
            raise AssertionError("a count was drawn")

        monkeypatch.setattr(sampler, "_binomial", never)
        cfg = TreeConfig(k=2, depth=4)  # V = 46
        for n in (sampler.MAX_VERTEX_SAMPLES // 46 + 1, 10**30):
            with pytest.raises(ValueError) as err:
                estimate_marginals(_kernel(2), cfg, n)
            assert str(err.value) == (
                f"too many vertex-samples to count: {n} samples of V = 46 "
                "vertices exceed the limit of 2^40"
            )

    @pytest.mark.parametrize("k,depth", [(2, 0), (2, 1), (3, 4)])
    def test_largest_vertex_sample_count(self, k, depth):
        cfg = TreeConfig(k=k, depth=depth, seed=9)
        n = sampler.MAX_VERTEX_SAMPLES // cfg.vertex_count
        stats = estimate_marginals(_kernel(k), cfg, n)
        _assert_counts_valid(stats, cfg, n)
