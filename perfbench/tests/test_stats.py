import pytest

from perfbench import stats


def test_percentile_matches_statistics_quantiles():
    values = list(range(1, 101))          # 1..100
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 90) == pytest.approx(90.1)
    assert stats.percentile(reversed(values), 90) == pytest.approx(90.1)
    assert stats.percentile([7.0], 50) == 7.0
    assert stats.percentile([5.0] * 30, 50) == pytest.approx(5.0)


def test_median_has_no_ten_beyond_floor():
    assert stats.percentile([3, 1, 2], 50) == pytest.approx(2)


def test_tail_needs_ten_samples_beyond():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(99), 90)
    assert stats.percentile(range(100), 90) == pytest.approx(89.1)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(999), 99)
    stats.percentile(range(1000), 99)
    assert stats.supports(100, 90) and not stats.supports(99, 90)


def test_empty_sample_is_refused():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 50)


def test_geomean():
    assert stats.geomean([1, 4]) == pytest.approx(2.0)
    assert stats.geomean([2.0]) == pytest.approx(2.0)


def test_drift_ignores_input_mix_and_sees_growth():
    # Two classes, one 10x slower; which comes first must not matter.
    steady = [("slow", 10.0)] * 10 + [("fast", 1.0)] * 10
    steady = steady + list(reversed(steady))
    assert stats.drift(steady) == pytest.approx(1.0)
    growing = [("only", 1.0 + index) for index in range(100)]
    assert stats.drift(growing) > 5

