import numpy as np
import pytest

from hcsos.chain import kernel_of, stationary
from hcsos.model import Branch, TisgmSolution
from hcsos.sampler import (
    Configuration,
    TreeConfig,
    count_inadmissible_edges,
    estimate_marginals,
    sample,
)
from hcsos.tisgm import solve_asymmetric, solve_symmetric

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
        parents = cfg.parents()
        assert list(parents[1:4]) == [0, 0, 0]
        assert list(parents[4:10]) == [1, 1, 2, 2, 3, 3]

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
        # 10^4 independent configurations at depth 6: the aggregated
        # parent-child pair table must hold no mass on (0,2), (1,1), (2,0)
        kern = kernel_of(solve_asymmetric(2, 0.7)[1], 2, 0.7)
        stats = estimate_marginals(kern, TreeConfig(k=2, depth=6, seed=9), 10_000)
        pf = stats.pair_frequencies
        assert pf[0, 2] == 0.0 and pf[1, 1] == 0.0 and pf[2, 0] == 0.0


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
            assert abs(freq.sum() - 1.0) <= 1e-12
        assert abs(stats.pair_frequencies.sum() - 1.0) <= 1e-12

    def test_levels_track_stationary_uniform(self):
        n = 20_000
        stats = estimate_marginals(
            _uniform_kernel(), TreeConfig(k=2, depth=3, seed=42), n
        )
        sigma = np.sqrt((1.0 / 3.0) * (2.0 / 3.0) / n)
        for freq in stats.level_frequencies:
            assert np.max(np.abs(freq - 1.0 / 3.0)) <= 4.0 * sigma

    def test_levels_track_stationary_skewed(self):
        theta = 0.5
        kern = kernel_of(solve_symmetric(2, theta), 2, theta)
        pi = stationary(kern)
        n = 30_000
        stats = estimate_marginals(kern, TreeConfig(k=2, depth=2, seed=8), n)
        sigma = float(np.sqrt(np.max(pi * (1 - pi)) / n))
        for freq in stats.level_frequencies:
            assert np.max(np.abs(freq - pi)) <= 4.0 * sigma
        # stationarity pushes through one step: level-1 marginal is pi P = pi
        assert np.max(np.abs(stats.level_frequencies[1] - pi @ kern.p)) <= 4 * sigma

    def test_pair_frequencies_track_edge_law(self):
        kern = _uniform_kernel()
        pi = stationary(kern)
        stats = estimate_marginals(kern, TreeConfig(k=2, depth=3, seed=21), 30_000)
        expected = pi[:, None] * kern.p
        assert np.max(np.abs(stats.pair_frequencies - expected)) <= 0.01

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            estimate_marginals(_uniform_kernel(), TreeConfig(k=2, depth=1), 0)
