import pytest

import stats


def test_percentile_reports_value_and_sample_count():
    values = list(range(1, 101))  # 1..100
    p50 = stats.percentile(values, 50)
    assert (p50.value, p50.count) == (50, 100)
    p90 = stats.percentile(values, 90)
    assert (p90.value, p90.count) == (90, 100)


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    values = list(range(100))
    # p90 of 100 leaves exactly 10 beyond: allowed.
    assert stats.percentile(values, 90).value == 89
    # p95 of 100 leaves 5 beyond: refused.
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values, 95)
    # p50 of 19 leaves 9 beyond: refused; of 20 leaves 10: allowed.
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 50)
    assert stats.percentile(list(range(20)), 50).count == 20
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 50)


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert stats.percentile(values, 50).value == 3.0


def test_relative_iqr_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_iqr(values) == pytest.approx((q3 - q1) / q2)
    assert stats.relative_iqr([3.0]) == 0.0
