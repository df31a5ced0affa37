import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcsos import sampler
from hcsos.chain import TransitionKernel, kernel_of, stationary
from hcsos.model import Branch, TisgmSolution, branch_of
from hcsos.sampler import Configuration, TreeConfig, estimate_marginals, sample
from hcsos.tisgm import enumerate_solutions, solve_asymmetric, solve_symmetric
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


def _kernel(k, theta=0.5):
    return kernel_of(solve_symmetric(k, theta), k, theta)


class TestStreamingMatchesOneShotDraw:
    """The chunked draw against the one-shot sampler kept in reference.py."""

    @staticmethod
    def _cases(k):
        shallow = TreeConfig(k=k, depth=3, seed=7)
        rows = max(1, sampler._CHUNK // shallow.vertex_count)
        # the shallowest tree with more vertices than one chunk holds: rows = 1
        depth = next(
            d for d in range(30)
            if TreeConfig(k=k, depth=d).vertex_count > sampler._CHUNK
        )
        return [
            (TreeConfig(k=k, depth=0, seed=3), 5),
            (TreeConfig(k=k, depth=2, seed=11), 1),
            (shallow, 2 * rows + 7),
            (TreeConfig(k=k, depth=depth, seed=20240810), 3),
        ]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_counts_equal_oracle_bitwise(self, k):
        kern = _kernel(k)
        for cfg, n in self._cases(k):
            levels, pairs = spin_counts(draw_spins(kern, cfg, n), cfg)
            stats = estimate_marginals(kern, cfg, n)
            assert stats.pair_counts.dtype == np.int64
            assert np.array_equal(stats.pair_counts, pairs)
            for got, want in zip(stats.level_frequencies, levels, strict=True):
                assert np.array_equal(got, want / want.sum())
            want_pf = pairs.astype(float)
            if cfg.depth >= 1:
                want_pf /= pairs.sum()
            assert np.array_equal(stats.pair_frequencies, want_pf)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_sample_equals_oracle_row(self, k):
        kern = _kernel(k)
        for cfg, _ in self._cases(k):
            want = draw_spins(kern, cfg, 1)[0]
            got = sample(kern, cfg).spins
            assert got.dtype == want.dtype and np.array_equal(got, want)

    # Hand-built wand kernels for the edges of the one-comparison rule.
    EDGE_KERNELS = {
        "p00 zero": [[0.0, 1.0, 0.0], [0.4, 0.0, 0.6], [0.0, 0.3, 0.7]],
        "row 0 one ulp short": [
            [0.25, float(np.nextafter(0.75, 0.0)), 0.0],
            [0.4, 0.0, 0.6],
            [0.0, 0.3, 0.7],
        ],
        "p12 zero": [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.3, 0.7]],
        "p22 zero": [[0.5, 0.5, 0.0], [0.4, 0.0, 0.6], [0.0, 1.0, 0.0]],
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
        p = np.array(TestStreamingMatchesOneShotDraw.EDGE_KERNELS[name])
        return TransitionKernel(p=p, source=UNIFORM, k=2, theta=1.0)

    @staticmethod
    def _assert_matches_oracle(kern, cfg, n):
        spins = draw_spins(kern, cfg, n)
        levels, pairs = spin_counts(spins, cfg)
        stats = estimate_marginals(kern, cfg, n)
        assert np.array_equal(stats.pair_counts, pairs)
        for got, want in zip(stats.level_frequencies, levels, strict=True):
            assert np.array_equal(got, want / want.sum())
        got = sample(kern, cfg).spins
        assert got.dtype == spins.dtype and np.array_equal(got, spins[0])

    @pytest.mark.usefixtures("uniform_root")
    @pytest.mark.parametrize("name", sorted(EDGE_KERNELS))
    @pytest.mark.parametrize("k", [2, 3])
    def test_edge_kernels_equal_oracle_bitwise(self, name, k):
        kern = self._edge_kernel(name)
        if name == "row 0 one ulp short":
            assert kern.p[0, 0] + kern.p[0, 1] == np.nextafter(1.0, 0.0)
        for cfg, n in self._cases(k):
            self._assert_matches_oracle(kern, cfg, n)

    @pytest.mark.usefixtures("uniform_root")
    def test_edge_kernels_force_their_rows(self):
        cfg = TreeConfig(k=3, depth=3, seed=4)
        pc = {
            name: estimate_marginals(self._edge_kernel(name), cfg, 200).pair_counts
            for name in self.EDGE_KERNELS
        }
        assert pc["p00 zero"][0, 0] == 0 < pc["p00 zero"][0, 1]  # row 0 gives 1
        assert pc["p12 zero"][1, 2] == 0 < pc["p12 zero"][1, 0]  # row 1 gives 0
        assert pc["p22 zero"][2, 2] == 0 < pc["p22 zero"][2, 1]  # row 2 gives 1

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
        # the rule assumes c01 = 1, c11 = c10 and c20 = 0 in the snapped rows
        checked = 0
        for k in (2, 3, 5, 8, 50):
            for theta in np.geomspace(1e-3, 1e3, 61):
                try:
                    sols = enumerate_solutions(k, float(theta)).solutions
                except (ValueError, ArithmeticError):
                    continue  # known solver defects at extreme theta
                for sol in sols:
                    cum = sampler._snapped_cumulative(kernel_of(sol, k, theta).p)
                    assert cum[0, 1] == 1.0
                    assert cum[1, 1] == cum[1, 0]
                    assert cum[2, 0] == 0.0
                    checked += 1
        assert checked >= 500


def _record_threads(monkeypatch):
    """The set of threads that run each chunk task from now on."""
    threads = set()
    draw_rows = sampler._draw_rows

    def record(*args):
        threads.add(threading.get_ident())
        return draw_rows(*args)

    monkeypatch.setattr(sampler, "_draw_rows", record)
    return threads


class TestParallelDraw:
    """Chunks drawn on worker threads, each from its own stream offset."""

    @staticmethod
    def _stats(kern, cfg, n, workers, chunk, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_workers", lambda: workers)
            mp.setattr(sampler, "_CHUNK", chunk)
            mp.setattr(sampler, "_BLOCK", block)
            return estimate_marginals(kern, cfg, n)

    @staticmethod
    def _assert_equal_oracle(stats, kern, cfg, n):
        levels, pairs = spin_counts(draw_spins(kern, cfg, n), cfg)
        assert np.array_equal(stats.pair_counts, pairs)
        for got, want in zip(stats.level_frequencies, levels, strict=True):
            assert np.array_equal(got, want / want.sum())

    def test_chunk_offsets_cover_every_residue(self):
        # with rows * V odd, the chunk starts sit at (start * V) % 4 = 0,
        # 1, 2 and 3; the last chunk holds 7 rows
        cfg = next(
            TreeConfig(k=k, depth=d, seed=99)
            for k in (3, 5, 7)
            for d in (2, 3, 4)
            if (sampler._CHUNK // TreeConfig(k, d).vertex_count)
            * TreeConfig(k, d).vertex_count
            % 2
        )
        rows = sampler._CHUNK // cfg.vertex_count
        assert {(j * rows * cfg.vertex_count) % 4 for j in range(4)} == {0, 1, 2, 3}
        kern = _kernel(cfg.k)
        n = 3 * rows + 7
        one = self._stats(kern, cfg, n, 1, sampler._CHUNK, sampler._BLOCK)
        two = self._stats(kern, cfg, n, 2, sampler._CHUNK, sampler._BLOCK)
        assert np.array_equal(one.pair_counts, two.pair_counts)
        self._assert_equal_oracle(two, kern, cfg, n)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    @pytest.mark.parametrize("chunk,block", [(64, 7), (200, 40), (200, 1 << 16)])
    def test_small_chunks_and_blocks_equal_oracle(self, workers, chunk, block):
        # blocks shorter than a row, blocks splitting rows, and many chunks
        kern = _kernel(2)
        for cfg, n in [
            (TreeConfig(k=2, depth=0, seed=1), 70),
            (TreeConfig(k=2, depth=3, seed=2), 41),
            (TreeConfig(k=3, depth=2, seed=2**64 - 1), 33),
            (TreeConfig(k=2, depth=5, seed=3), 5),  # V = 94 > 64
        ]:
            stats = self._stats(kern, cfg, n, workers, chunk, block)
            self._assert_equal_oracle(stats, kern, cfg, n)

    def test_sample_equals_oracle_with_two_workers(self, monkeypatch):
        monkeypatch.setattr(sampler, "_workers", lambda: 2)
        kern = _kernel(3)
        for depth in (0, 1, 4, 11):
            cfg = TreeConfig(k=3, depth=depth, seed=depth)
            got = sample(kern, cfg).spins
            want = draw_spins(kern, cfg, 1)[0]
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.sampled_from([2, 3, 5]),
        depth=st.integers(0, 4),
        n=st.integers(1, 60),
        seed=st.integers(0, 2**64 - 1),
        chunk=st.integers(1, 300),
        block=st.integers(1, 300),
    )
    def test_threaded_equals_oracle(self, k, depth, n, seed, chunk, block):
        kern = _kernel(k)
        cfg = TreeConfig(k=k, depth=depth, seed=seed)
        stats = self._stats(kern, cfg, n, 2, chunk, block)
        self._assert_equal_oracle(stats, kern, cfg, n)

    def test_chunks_run_on_worker_threads(self, monkeypatch):
        seen = set()
        packed_bits = sampler._packed_bits
        # the first two chunks wait for each other, so they must be in
        # flight at once, on two threads
        barrier = threading.Barrier(2, timeout=30)

        def record(seed, first, rows, v, cum):
            if first < 2 * rows * v:
                barrier.wait()
            seen.add(threading.get_ident())
            return packed_bits(seed, first, rows, v, cum)

        monkeypatch.setattr(sampler, "_workers", lambda: 2)
        monkeypatch.setattr(sampler, "_packed_bits", record)
        cfg = TreeConfig(k=3, depth=4, seed=0)
        estimate_marginals(_kernel(3), cfg, 5 * (sampler._CHUNK // cfg.vertex_count))
        assert threading.get_ident() not in seen and len(seen) == 2

    @pytest.mark.parametrize("workers", [2, 3])
    def test_one_chunk_per_worker_in_flight(self, monkeypatch, workers):
        started = []
        packed_bits = sampler._packed_bits

        def record(seed, first, rows, v, cum):
            started.append(first)
            return packed_bits(seed, first, rows, v, cum)

        monkeypatch.setattr(sampler, "_workers", lambda: workers)
        monkeypatch.setattr(sampler, "_packed_bits", record)
        cfg = TreeConfig(k=3, depth=4, seed=0)
        rows = sampler._CHUNK // cfg.vertex_count
        for i, _ in enumerate(sampler._draw(_kernel(3), cfg, 9 * rows)):
            assert len(started) <= i + workers
        assert sorted(started) == [j * rows * cfg.vertex_count for j in range(9)]


class TestThreadHygiene:
    CFG = TreeConfig(k=3, depth=4, seed=0)

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(sampler, "_workers", lambda: 2)
        self.baseline = threading.active_count()
        self.n = 6 * (sampler._CHUNK // self.CFG.vertex_count)

    def test_pool_ends_with_estimate(self):
        estimate_marginals(_kernel(3), self.CFG, self.n)
        assert threading.active_count() == self.baseline

    def test_pool_ends_when_draw_is_closed_early(self):
        draw = sampler._draw(_kernel(3), self.CFG, self.n)
        next(draw)
        assert threading.active_count() > self.baseline
        draw.close()
        assert threading.active_count() == self.baseline

    def test_sample_runs_on_calling_thread(self, monkeypatch):
        threads = _record_threads(monkeypatch)
        sample(_kernel(3), self.CFG)
        assert threads == {threading.get_ident()}
        assert threading.active_count() == self.baseline

    def test_pool_ends_after_error_in_a_chunk(self, monkeypatch):
        packed_bits = sampler._packed_bits

        def fail_third_chunk(seed, first, rows, v, cum):
            if first == 2 * rows * v:
                raise RuntimeError("chunk failed")
            return packed_bits(seed, first, rows, v, cum)

        monkeypatch.setattr(sampler, "_packed_bits", fail_third_chunk)
        with pytest.raises(RuntimeError, match="chunk failed"):
            estimate_marginals(_kernel(3), self.CFG, self.n)
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

    def test_large_tree_row_not_held_as_uniforms(self, monkeypatch):
        # V = 393214 > _CHUNK: one row in flight, drawn on the calling
        # thread whatever the CPU count, its uniforms drawn in blocks, so
        # the peak stays below one row of float64 uniforms
        threads = _record_threads(monkeypatch)
        monkeypatch.setattr(sampler, "_workers", lambda: 2)
        kern = _kernel(2)
        cfg = TreeConfig(k=2, depth=17, seed=5)
        assert cfg.vertex_count > sampler._CHUNK
        tracemalloc.start()
        try:
            estimate_marginals(kern, cfg, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert threads == {threading.get_ident()}
        assert peak < 8 * cfg.vertex_count


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
