import math
import random

import pytest

from stats import loglog_fit, median_by_x


@pytest.mark.parametrize("exponent", [0.75, 1.0, 1.85, 2.0])
def test_fit_recovers_power_law_exponent(exponent):
    points = [(n, 3e-4 * n**exponent) for n in (250, 500, 1000, 2000, 4000)]
    slope, r2 = loglog_fit(points)
    assert slope == pytest.approx(exponent)
    assert r2 == pytest.approx(1.0)


def test_fit_under_noise_stays_close_and_r2_drops():
    rng = random.Random(0)
    points = [(n, 1e-6 * n**1.85 * math.exp(rng.gauss(0, 0.1))) for n in range(100, 5000, 100)]
    slope, r2 = loglog_fit(points)
    assert slope == pytest.approx(1.85, abs=0.05)
    assert 0.9 < r2 < 1.0


def test_fit_needs_two_sizes():
    with pytest.raises(ValueError):
        loglog_fit([(10, 1.0), (10, 2.0)])


def test_median_by_x_collapses_repetitions():
    runs = [[(1, 1.0), (2, 4.0)], [(1, 3.0), (2, 5.0)], [(1, 2.0), (2, 9.0)]]
    assert median_by_x(runs) == [(1, 2.0), (2, 5.0)]
