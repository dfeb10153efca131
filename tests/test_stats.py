"""Oracles for summaries, confidence intervals, the pooled t-test and
Fisher's exact test."""
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from scipy import stats as scipy_stats

from defield.grids import ValidationError
from defield.stats import (
    CHUNK_INDICES,
    Contingency2x2,
    SummaryStats,
    bootstrap_ci,
    fisher_exact,
    hypergeom_pmfs,
    normal_ci,
    pooled_t_test,
    summarize,
)


def width(interval):
    return interval.hi - interval.lo


class TestSummarize:
    def test_equal_samples(self):
        s = summarize([2.0, 2.0, 2.0])
        assert (s.n, s.mean, s.sd) == (3, 2.0, 0.0)

    def test_hand_arithmetic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.sd == pytest.approx(1.0)

    def test_single_sample_flagged(self):
        s = summarize([4.5])
        assert s.n == 1 and s.sd == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            summarize([])


class TestNormalCI:
    def test_degenerate_sd(self):
        ci = normal_ci(SummaryStats(10, 3.0, 0.0))
        assert ci.lo == ci.hi == 3.0

    def test_hand_arithmetic(self):
        ci = normal_ci(summarize([1.0, 2.0, 3.0]))
        assert ci.lo == pytest.approx(0.868, abs=1e-3)
        assert ci.hi == pytest.approx(3.132, abs=1e-3)

    def test_width_scales_with_sqrt_n(self):
        w1 = width(normal_ci(SummaryStats(100, 0.0, 1.0)))
        w2 = width(normal_ci(SummaryStats(200, 0.0, 1.0)))
        assert w1 / w2 == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            normal_ci(SummaryStats(1, 0.0, 0.0))


class TestBootstrapCI:
    def test_constant_samples(self):
        ci = bootstrap_ci([2.5] * 50, b=200, seed=1)
        assert ci.lo == ci.hi == 2.5

    def test_agrees_with_normal_ci_on_large_sample(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(1.0, 0.1, size=100_000)
        boot = bootstrap_ci(samples, b=1000, seed=3)
        norm = normal_ci(summarize(samples))
        assert width(boot) == pytest.approx(width(norm), rel=0.10)
        assert boot.lo == pytest.approx(norm.lo, abs=0.2 * width(norm))

    def test_width_shrinks_with_n(self):
        rng = np.random.default_rng(8)
        small = bootstrap_ci(rng.normal(size=100), b=400, seed=5)
        large = bootstrap_ci(rng.normal(size=10_000), b=400, seed=5)
        assert width(large) < width(small)

    def test_seed_reproducible_bitwise(self):
        rng = np.random.default_rng(9)
        samples = rng.normal(size=500)
        a = bootstrap_ci(samples, b=300, seed=42)
        b = bootstrap_ci(samples, b=300, seed=42)
        assert (a.lo, a.hi) == (b.lo, b.hi)

    # (lo.hex(), hi.hex()) per (n, b) on seed-n normal samples, bootstrap
    # seed 11; recorded before the draws and the means were pipelined. The
    # cases cover a single sample, b not a multiple of the chunk size
    # (317), one resample per chunk (2**17) and n above it.
    GOLDEN = {
        (1, 100): ("0x1.08d8d2104b14ap+0", "0x1.08d8d2104b14ap+0"),
        (2, 100): ("0x1.e53c3b4bf6070p-1", "0x1.04d6faf1333c9p+0"),
        (317, 1000): ("0x1.f6873b20612c8p-1", "0x1.00e4e091f09b9p+0"),
        (2**17, 200): ("0x1.ffdae7de90c40p-1", "0x1.002d3a143d494p+0"),
        (200_003, 100): ("0x1.ffc6086fc864ap-1", "0x1.00225554b88e2p+0"),
    }

    @pytest.mark.parametrize("n, b", list(GOLDEN))
    def test_golden_intervals(self, n, b):
        samples = np.random.default_rng(n).normal(1.0, 0.1, size=n)
        ci = bootstrap_ci(samples, b=b, seed=11)
        assert (ci.lo.hex(), ci.hi.hex()) == self.GOLDEN[(n, b)]

    @pytest.mark.parametrize("b", [100, 1000, 1001])
    @pytest.mark.parametrize("n", [1, 2, 335, CHUNK_INDICES, CHUNK_INDICES + 1])
    def test_block_means_match_per_resample_means(self, n, b):
        """Each row of a chunk's gathered (k, n) block reduces to the bits of
        that resample's own mean, so the interval is the one from drawing
        and averaging one resample at a time."""
        samples = np.random.default_rng(n).normal(1.0, 0.1, size=n)
        rng = np.random.default_rng(11)
        k = max(1, CHUNK_INDICES // n)
        block, single = [], []
        for start in range(0, b, k):
            indices = rng.integers(0, n, size=(min(k, b - start), n))
            block.append(samples[indices].mean(axis=1))
            single.extend(samples[row].mean() for row in indices)
        assert np.concatenate(block).tobytes() == np.array(single).tobytes()
        lo, hi = np.quantile(single, [0.025, 0.975])
        ci = bootstrap_ci(samples, b=b, seed=11)
        assert (ci.lo.hex(), ci.hi.hex()) == (float(lo).hex(), float(hi).hex())

    def test_leaves_no_thread_behind(self):
        # a helper thread that outlives the call would be inherited, dead,
        # by the children of a later fork (run_cohort's process pool)
        before = threading.active_count()
        bootstrap_ci(np.random.default_rng(12).normal(size=5000), b=200, seed=1)
        assert threading.active_count() == before

    def test_concurrent_calls_match_serial(self):
        """Calls from several Python threads at once (more threads than
        cores, with a short switch interval) give the serial intervals."""
        cases = [(np.random.default_rng(n).normal(size=n), b)
                 for n, b in ((317, 1000), (5000, 400), (60_000, 100))]
        serial = [bootstrap_ci(x, b=b, seed=4) for x, b in cases]
        results = [None] * len(cases)

        def run(i):
            x, b = cases[i]
            results[i] = bootstrap_ci(x, b=b, seed=4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, got in zip(serial, results):
            assert got is not None
            assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex())

    def test_validation(self):
        with pytest.raises(ValidationError):
            bootstrap_ci([], b=200)
        with pytest.raises(ValidationError):
            bootstrap_ci([1.0], b=50)


class TestPooledTTest:
    def test_identical_summaries(self):
        s = SummaryStats(50, 1.0, 0.2)
        t, p = pooled_t_test(s, s)
        assert t == 0.0 and p == 1.0

    def test_swap_negates_t(self):
        x = SummaryStats(40, 1.05, 0.1)
        y = SummaryStats(60, 0.97, 0.15)
        t_xy, p_xy = pooled_t_test(x, y)
        t_yx, p_yx = pooled_t_test(y, x)
        assert t_xy == -t_yx
        assert p_xy == p_yx

    def test_hand_value(self):
        x = SummaryStats(1000, 1.04, 0.1)
        y = SummaryStats(1000, 1.00, 0.1)
        t, p = pooled_t_test(x, y)
        assert t == pytest.approx(8.944, abs=1e-2)
        assert p < 1e-15

    def test_p_against_tabulated_quantile(self):
        # t = 2.228 on 10 dof is the tabulated 97.5% point: two-sided p = 0.05
        se = math.sqrt(1 / 6 + 1 / 6)
        x = SummaryStats(6, 2.228 * se, 1.0)
        y = SummaryStats(6, 0.0, 1.0)
        t, p = pooled_t_test(x, y)
        assert t == pytest.approx(2.228, rel=1e-9)
        assert p == pytest.approx(0.05, abs=2e-4)

    def test_monotone_in_mean_difference(self):
        y = SummaryStats(100, 0.0, 1.0)
        t_small, _ = pooled_t_test(SummaryStats(100, 0.1, 1.0), y)
        t_large, _ = pooled_t_test(SummaryStats(100, 0.5, 1.0), y)
        assert abs(t_large) > abs(t_small)

    def test_degenerate_variance(self):
        with pytest.raises(ValidationError):
            pooled_t_test(SummaryStats(5, 1.0, 0.0), SummaryStats(5, 1.0, 0.0))
        t, p = pooled_t_test(SummaryStats(5, 2.0, 0.0), SummaryStats(5, 1.0, 0.0))
        assert math.isinf(t) and t > 0 and p == 0.0

    def test_matches_scipy_ttest_ind(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            nx, ny = (int(n) for n in rng.integers(2, 60, size=2))
            x = rng.normal(rng.normal(), rng.uniform(0.1, 2.0), nx)
            y = rng.normal(rng.normal(), rng.uniform(0.1, 2.0), ny)
            t, p = pooled_t_test(summarize(x), summarize(y))
            ref = scipy_stats.ttest_ind(x, y, equal_var=True)
            assert t == pytest.approx(ref.statistic, rel=1e-12)
            assert p == pytest.approx(ref.pvalue, rel=1e-11)


class TestFisherExact:
    def test_full_course_table(self):
        orat, p = fisher_exact(Contingency2x2(12, 4, 9, 13))
        assert orat == pytest.approx(4.33, abs=0.01)
        assert p == pytest.approx(0.051, abs=0.005)

    def test_three_week_table(self):
        orat, p = fisher_exact(Contingency2x2(11, 3, 10, 14))
        assert orat == pytest.approx(5.13, abs=0.01)
        assert p == pytest.approx(0.043, abs=0.005)

    def test_no_association(self):
        orat, p = fisher_exact(Contingency2x2(5, 5, 5, 5))
        assert orat == 1.0
        assert p == 1.0

    def test_transpose_invariance(self):
        t = Contingency2x2(12, 4, 9, 13)
        tt = Contingency2x2(12, 9, 4, 13)
        assert fisher_exact(t)[1] == pytest.approx(fisher_exact(tt)[1], rel=1e-12)

    def test_row_and_column_swap_invariance(self):
        t = Contingency2x2(11, 3, 10, 14)
        swapped = Contingency2x2(14, 10, 3, 11)
        assert fisher_exact(t)[1] == pytest.approx(fisher_exact(swapped)[1], rel=1e-12)
        assert fisher_exact(t)[0] == pytest.approx(fisher_exact(swapped)[0], rel=1e-12)

    def test_zero_cell_gives_infinite_odds(self):
        orat, p = fisher_exact(Contingency2x2(3, 0, 1, 4))
        assert math.isinf(orat)
        assert 0 < p <= 1

    @pytest.mark.parametrize("table", [
        (12, 4, 9, 13), (11, 3, 10, 14), (1, 0, 0, 1), (50, 20, 30, 60),
        (200, 100, 150, 250),
    ])
    def test_hypergeometric_mass_sums_to_one(self, table):
        _, pmf, _ = hypergeom_pmfs(Contingency2x2(*table))
        assert abs(pmf.sum() - 1.0) < 1e-9

    def test_p_in_unit_interval_property(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a, b, c, d = rng.integers(0, 30, size=4)
            if a + b + c + d == 0:
                continue
            _, p = fisher_exact(Contingency2x2(int(a), int(b), int(c), int(d)))
            assert 0 < p <= 1

    def test_matches_scipy_fisher_exact(self):
        # random tables, then every table with cells in 0..3, zero rows and
        # columns included: the odds ratio is 0/0 = nan when a*d == b*c == 0
        rng = np.random.default_rng(19)
        tables = [tuple(int(v) for v in rng.integers(0, 40, size=4))
                  for _ in range(100)]
        for a, b, c, d in tables + list(itertools.product(range(4), repeat=4)):
            if a + b + c + d == 0:
                continue
            orat, p = fisher_exact(Contingency2x2(a, b, c, d))
            ref_odds, ref_p = scipy_stats.fisher_exact([[a, b], [c, d]])
            assert p == pytest.approx(ref_p, rel=1e-11), (a, b, c, d)
            assert orat == pytest.approx(ref_odds, rel=1e-12, nan_ok=True), (a, b, c, d)

    def test_counts_validated(self):
        with pytest.raises(ValidationError):
            Contingency2x2(-1, 2, 3, 4)
        with pytest.raises(ValidationError):
            Contingency2x2(0, 0, 0, 0)
