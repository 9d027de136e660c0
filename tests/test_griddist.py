"""Grid-uniform product distribution: exact moments and log statistics."""

from fractions import Fraction
from math import fsum, log

import pytest

from probelearn import DEFAULT_GRID, ProductDistribution, UsageError
from probelearn.griddist import _power_sum

# Frozen from an independent math.fsum pass over the full 2^20+1 grid.
LOG_MEAN = 0.38629432323920987
LOG_VAR = 0.03909405093425991
# Continuous uniform-[1,2] references: E[ln x] = 2 ln 2 - 1 and the matching
# variance 2 ln^2 2 - 4 ln 2 + 2 - (2 ln 2 - 1)^2.
CONT_MEAN = 2 * log(2) - 1
CONT_VAR = 2 * log(2) ** 2 - 4 * log(2) + 2 - CONT_MEAN ** 2


def test_grid_values():
    dist = ProductDistribution()
    assert dist.value(0) == 1
    assert dist.value(DEFAULT_GRID) == 2
    assert dist.value(1) == Fraction(DEFAULT_GRID + 1, DEFAULT_GRID)
    with pytest.raises(UsageError):
        dist.value(-1)
    with pytest.raises(UsageError):
        dist.value(DEFAULT_GRID + 1)
    with pytest.raises(UsageError):
        ProductDistribution(0)


def test_power_sum_matches_brute_force():
    for j in range(6):
        for n in range(-1, 12):
            assert _power_sum(j, n) == sum(u ** j for u in range(n + 1))


def test_moments_closed_forms():
    dist = ProductDistribution()
    m = DEFAULT_GRID
    assert dist.moment(0) == 1
    assert dist.moment(1) == Fraction(3, 2)
    assert dist.moment(2) == Fraction(7, 3) + Fraction(1, 6 * m)
    with pytest.raises(UsageError):
        dist.moment(-1)


def test_moments_match_brute_force_small_grid():
    m = 8
    dist = ProductDistribution(m)
    for j in range(7):
        brute = Fraction(sum(Fraction(m + u, m) ** j for u in range(m + 1)), m + 1)
        assert dist.moment(j) == brute


def test_log_stats_frozen_and_near_continuous():
    dist = ProductDistribution()
    log_mean, log_second = dist._log_moments()
    assert abs(log_mean - LOG_MEAN) < 1e-12
    assert abs(dist.log_var() - LOG_VAR) < 1e-12
    assert abs(log_mean - CONT_MEAN) < 1e-6
    assert abs(dist.log_var() - CONT_VAR) < 1e-6
    assert abs(log_second - (dist.log_var() + log_mean ** 2)) < 1e-15


def test_log_stats_small_grid_fsum():
    m = 64
    dist = ProductDistribution(m)
    pts = [log(1 + j / m) for j in range(m + 1)]
    log_mean, log_second = dist._log_moments()
    assert abs(log_mean - fsum(pts) / (m + 1)) < 1e-15
    assert abs(log_second - fsum(p * p for p in pts) / (m + 1)) < 1e-15
