"""Percentile helper of the benchmark, including the samples-beyond rule."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from stats import MIN_BEYOND, min_samples, percentile, quartile_spread, samples_beyond  # noqa: E402


def test_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50, beyond=0) == 50
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 90) == 90
    assert percentile([7.0], 100, beyond=0) == 7.0


def test_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(110, 90) == 11
    assert samples_beyond(10, 50) == 5


def test_ten_beyond_rule():
    assert MIN_BEYOND == 10
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    assert samples_beyond(min_samples(99), 99) >= 10
    assert samples_beyond(min_samples(99) - 1, 99) < 10
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == 89


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0
    spread = quartile_spread([8, 9, 10, 10, 10, 10, 10, 11, 12, 13])
    assert 0 < spread < 0.3
