"""Product distributions on the rational grid {1 + j/M : 0 <= j <= M}.

Each feature is drawn independently and uniformly from the grid, so the
distribution lives on [1, 2] and every sampled value is the exact rational
(M + j) / M.  Generated datasets store it as the integer numerator M + j over
the shared denominator M (see dataset.py); `value` builds the Fraction for
callers that want one value at a time.  All power moments E[x^j] are exact
rationals computed in closed form (sums of j-th powers via the Faulhaber
recurrence — no 2^20-term loops).  Log-moments, needed only as
floating-point constants, are evaluated over the grid with numpy and cached.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import UsageError

DEFAULT_GRID = 2 ** 20


@lru_cache(maxsize=None)
def _power_sum(j: int, n: int) -> int:
    """Sum of u^j for u = 0..n, exactly."""
    if n < 0:
        return 0
    if j == 0:
        return n + 1
    total = (n + 1) ** (j + 1)
    for k in range(j):
        total -= comb(j + 1, k) * _power_sum(k, n)
    q, r = divmod(total, j + 1)
    assert r == 0
    return q


class ProductDistribution:
    """Independent coordinates, each uniform on the (M+1)-point grid."""

    def __init__(self, m_grid: int = DEFAULT_GRID):
        if m_grid < 1:
            raise UsageError("grid resolution must be at least 1")
        self.m_grid = m_grid
        self._moments = {}
        self._log_stats = None

    # -- values ------------------------------------------------------------

    def value(self, j: int) -> Fraction:
        """Grid point with index j, as an exact rational 1 + j/M."""
        if not (0 <= j <= self.m_grid):
            raise UsageError(f"grid index {j} out of range")
        return Fraction(self.m_grid + j, self.m_grid)

    def sample_indices(self, rng: np.random.Generator, shape):
        return rng.integers(0, self.m_grid + 1, size=shape)

    # -- moments -----------------------------------------------------------

    def moment(self, j: int) -> Fraction:
        """E[x^j], exact."""
        if j < 0:
            raise UsageError("moment order must be nonnegative")
        if j not in self._moments:
            m = self.m_grid
            num = _power_sum(j, 2 * m) - _power_sum(j, m - 1)
            self._moments[j] = Fraction(num, (m + 1) * m ** j)
        return self._moments[j]

    def _log_moments(self):
        if self._log_stats is None:
            pts = np.log1p(np.arange(self.m_grid + 1) / self.m_grid)
            self._log_stats = (float(pts.mean()), float((pts * pts).mean()))
        return self._log_stats

    def log_mean(self) -> float:
        """E[ln x] over the grid."""
        return self._log_moments()[0]

    def log_second_moment(self) -> float:
        """E[ln^2 x] over the grid."""
        return self._log_moments()[1]

    def log_var(self) -> float:
        """Var(ln x); the variance floor c of this distribution."""
        m1, m2 = self._log_moments()
        return m2 - m1 * m1
