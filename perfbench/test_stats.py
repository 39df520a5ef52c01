"""Arithmetic behind the benchmark's percentiles, self times and error rate."""

import math

import pytest

from perfbench import stats


class TestTailPercentile:
    def test_p95_when_enough_samples_lie_beyond(self):
        values = list(range(1, 401))  # 400 samples: rank 380 leaves 20 above
        assert stats.tail_percentile(values) == (380, 95.0)

    def test_lowers_the_percentile_to_keep_ten_samples_beyond(self):
        values = list(range(1, 101))  # p95 would leave 5 above; p90 leaves 10
        value, level = stats.tail_percentile(values)
        assert (value, level) == (90, 90.0)
        assert sum(v > value for v in values) == 10

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        assert stats.tail_percentile(values) == stats.tail_percentile(sorted(values))

    def test_falls_back_to_the_median_with_too_few_samples(self):
        values = [float(v) for v in range(1, 17)]  # 16 samples: rank 6 is below the median
        assert stats.tail_percentile(values) == (8.5, 50.0)
        assert stats.tail_percentile([7.0]) == (7.0, 50.0)

    def test_first_rank_above_the_median(self):
        values = list(range(1, 22))  # 21 samples: rank 11 leaves 10 above
        assert stats.tail_percentile(values) == (11, pytest.approx(100 * 11 / 21))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats.tail_percentile([])


class TestErrorRate:
    def test_ratio_of_failed_to_attempted(self):
        assert stats.error_rate(200, 3) == 0.015
        assert stats.error_rate(5, 0) == 0.0
        assert stats.error_rate(4, 4) == 1.0

    @pytest.mark.parametrize("attempted, failed", [(0, 0), (3, 4), (3, -1)])
    def test_impossible_counts_rejected(self, attempted, failed):
        with pytest.raises(ValueError):
            stats.error_rate(attempted, failed)


class TestSelfTimes:
    def test_leaf_span_keeps_its_duration(self):
        assert stats.self_times([("a", 1.0, 3.5, None)]) == [2.5]

    def test_children_are_subtracted_from_parent_only(self):
        spans = [
            ("root", 0.0, 10.0, None),
            ("child", 1.0, 4.0, 0),
            ("grandchild", 2.0, 3.0, 1),
            ("child", 5.0, 6.0, 0),
        ]
        assert stats.self_times(spans) == [6.0, 2.0, 1.0, 1.0]

    def test_charged_time_is_subtracted_from_its_parent(self):
        spans = [("backward", 0.0, 1.0, None), ("other", 2.0, 3.0, None)]
        charged = [(0, 0.25), (0, 0.5)]
        assert stats.self_times(spans, charged) == [0.25, 1.0]

    def test_self_times_add_up_to_root_duration(self):
        spans = [("r", 0.0, 8.0, None), ("a", 0.5, 3.0, 0), ("b", 1.0, 2.0, 1), ("c", 4.0, 7.5, 0)]
        assert math.isclose(sum(stats.self_times(spans, [(2, 0.25)])) + 0.25, 8.0)


class TestRandomOrderMrr:
    def test_single_positive_is_harmonic_mean_of_ranks(self):
        # one cause among c candidates: uniform rank, E[1/R] = H_c / c
        assert stats.random_order_mrr([(4, 1)]) == pytest.approx((1 + 1 / 2 + 1 / 3 + 1 / 4) / 4)

    def test_all_positive_is_one(self):
        assert stats.random_order_mrr([(3, 3)]) == pytest.approx(1.0)

    def test_two_of_three(self):
        # first positive at rank 1 w.p. 2/3, rank 2 w.p. 1/3
        assert stats.random_order_mrr([(3, 2)]) == pytest.approx(2 / 3 + 1 / 6)

    def test_mean_over_instances(self):
        assert stats.random_order_mrr([(1, 1), (2, 1)]) == pytest.approx((1 + 0.75) / 2)

    @pytest.mark.parametrize("bad", [[], [(2, 0)], [(2, 3)]])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            stats.random_order_mrr(bad)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = (9.725, 10.0, 10.275)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)
