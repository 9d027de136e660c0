"""Learning monomials over a product distribution with probe-metered data.

A target is an exponent vector g in N^N with total degree at most d; labels
are P_g(x) = prod_i x_i^{g_i} on grid-rational examples.  Taking logs makes
each exponent a one-dimensional regression: the population identity

    <Q_g, ln x_i - E ln x_i> = g_i * Var(ln x_i),   Q_g = ln P_g,

recovers g_i exactly.  Exact mode evaluates that identity through the hidden
target (the per-feature oracle used by the exactness guarantees); sampled
mode runs the empirical estimator and rounds.  Dictionary learning stores
past targets as columns of a representation matrix, probes only a maximal
independent set of feature rows, solves for the combination exactly over
rationals, and verifies the candidate on a single sample — a polynomial
identity test that is exact up to grid collisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (InternalError, OracleMisuseError, UsageError,
                     VarianceUnderflowError)
from .exactla import independent_rows, invert, mat_vec

EXACT = "exact"
SAMPLED = "sampled"

LEARNED = "learned"
FAILED = "failed"


# -- exponent vectors ------------------------------------------------------


def degree(g) -> int:
    return int(np.sum(g))

def support(g) -> list:
    return [int(i) for i in np.nonzero(np.asarray(g))[0]]


def eval_monomial(g, values) -> Fraction:
    """P_g at one example; `values` indexable by feature, Fraction entries."""
    out = Fraction(1)
    for i in support(g):
        out *= Fraction(values[i]) ** int(g[i])
    return out


def monomial_to_json_obj(g) -> dict:
    return {str(i): int(g[i]) for i in support(g)}


def monomial_from_json_obj(obj, n_features: int) -> np.ndarray:
    g = np.zeros(n_features, dtype=np.int64)
    for key, exp in obj.items():
        i = int(key)
        if not (0 <= i < n_features):
            raise UsageError(f"feature {i} out of range")
        if int(exp) < 0:
            raise UsageError("exponents must be natural numbers")
        g[i] = int(exp)
    return g


# -- power estimation ------------------------------------------------------


@dataclass
class SampledConfig:
    """Parameters of the sampled-mode estimator's sample-size bound."""

    constant: float = 4.0
    delta: float = 0.1
    n_tasks: int = 1


def sample_size_bound(d: int, c: float, n_features: int, n_tasks: int,
                      delta: float, constant: float = 4.0) -> int:
    """S large enough that each rounded exponent errs w.p. <= delta."""
    scale = min(c * c / d, c / d, 1.0)
    return math.ceil(constant * (d / scale ** 2) * math.log(n_features * n_tasks / delta))


def estimate_power(ds, i: int, dist, mode: str, d: int,
                   target=None, sampled: SampledConfig = None) -> int:
    """Estimate the exponent of feature i from labels Q_g = ln P_g.

    Exact mode charges the same probes the estimator would and resolves the
    population identity through the hidden target — the estimate is g_i
    exactly.  Sampled mode computes the empirical centered cross-moment over
    the analytic-variance denominator and rounds.
    """
    if mode == EXACT:
        if target is None:
            raise OracleMisuseError("exact-mode estimation needs the hidden target")
        ds.probe_column(i)
        return int(target[i])
    if mode != SAMPLED:
        raise UsageError(f"unknown mode {mode!r}")
    cfg = sampled or SampledConfig()
    c = dist.log_var()
    need = sample_size_bound(d, c, ds.n_features, cfg.n_tasks, cfg.delta, cfg.constant)
    if ds.n_examples < need:
        raise UsageError(f"sampled mode needs at least {need} examples, got {ds.n_examples}")
    logs = np.log(ds.probe_column(i))
    var = float(logs.var())
    if var < c / 2:
        raise VarianceUnderflowError(f"empirical log-variance {var:.2g} below c/2")
    q = np.log(np.array([float(lab) for lab in ds.labels]))
    num = float(np.mean(q * (logs - logs.mean())))
    return int(round(num / var))


def learn_monomial_scratch(ds, dist, d: int, mode: str,
                           target=None, sampled: SampledConfig = None) -> np.ndarray:
    """Probe everything and estimate every exponent independently."""
    from .errors import RealizabilityError

    ds.probe_all()
    g = np.array([estimate_power(ds, i, dist, mode, d, target, sampled)
                  for i in range(ds.n_features)], dtype=np.int64)
    if (g < 0).any() or degree(g) > d:
        raise RealizabilityError("estimated exponents leave the degree-d simplex")
    return g


# -- representation --------------------------------------------------------


class RepresentationMatrix:
    """Past targets as columns; always kept linearly independent.

    Caches the greedy lowest-index independent row set I and the exact
    inverse of the square submatrix on I, which is what LFD probes & solves.
    """

    def __init__(self, n_features: int):
        self.n_features = n_features
        self.columns = []  # np.int64 exponent vectors
        self._rows = None
        self._inv = None

    @property
    def k(self) -> int:
        return len(self.columns)

    def rows(self) -> list:
        if self._rows is None:
            self._rows = independent_rows(self.columns, self.n_features)
        return self._rows

    def _inverse(self) -> list:
        if self._inv is None:
            idx = self.rows()
            square = [[int(col[r]) for col in self.columns] for r in idx]
            self._inv = invert(square)
        return self._inv

    def solve(self, g_restricted) -> list:
        """w with F[I] w = g[I], exact Fractions."""
        return mat_vec(self._inverse(), [Fraction(v) for v in g_restricted])

    def combine(self, w) -> list:
        """F w as a length-N Fraction vector."""
        out = [Fraction(0)] * self.n_features
        for weight, col in zip(w, self.columns):
            if weight:
                for r in range(self.n_features):
                    if col[r]:
                        out[r] += Fraction(weight) * int(col[r])
        return out

    def contains(self, g) -> bool:
        if self.k == 0:
            return not np.any(np.asarray(g))
        w = self.solve([g[r] for r in self.rows()])
        lift = self.combine(w)
        return all(lift[r] == int(g[r]) for r in range(self.n_features))

    def insert(self, g) -> None:
        g = np.asarray(g, dtype=np.int64)
        if len(g) != self.n_features:
            raise UsageError("column length does not match feature count")
        if self.contains(g):
            raise InternalError("column already spanned: verification false-pass")
        self.columns.append(g.copy())
        self._rows = None
        self._inv = None


@dataclass
class MonomialResult:
    outcome: str
    monomial: np.ndarray = None
    reason: str = None

    @property
    def learned(self) -> bool:
        return self.outcome == LEARNED


def lfd_monomial(ds, rep: RepresentationMatrix, dist, d: int, mode: str,
                 target=None, sampled: SampledConfig = None) -> MonomialResult:
    """Learn through the representation: probe the independent rows only.

    Estimates the target's exponents on rep's row set I, solves for the
    rational combination of stored columns exactly, rejects candidates that
    leave the natural degree-d simplex, and verifies the survivor on a single
    sample by exact rational evaluation.
    """
    if rep.k == 0:
        return MonomialResult(FAILED, reason="empty-representation")
    idx = rep.rows()
    g_restricted = [estimate_power(ds, i, dist, mode, d, target, sampled) for i in idx]
    w = rep.solve(g_restricted)
    lift = rep.combine(w)
    if any(v.denominator != 1 or v < 0 for v in lift):
        return MonomialResult(FAILED, reason="non-natural-combination")
    g = np.array([int(v) for v in lift], dtype=np.int64)
    if degree(g) > d:
        return MonomialResult(FAILED, reason="degree")
    e = ds.n_examples - 1
    value = Fraction(1)
    for i in support(g):
        value *= Fraction(ds.probe(e, i)) ** int(g[i])
    if value != Fraction(ds.label(e)):
        return MonomialResult(FAILED, reason="verification")
    return MonomialResult(LEARNED, monomial=g)


def improve_rep_monomial(rep: RepresentationMatrix, g) -> int:
    """Append a freshly scratch-learned target unless already spanned.

    With exact estimates a learn-from-data failure implies the target is
    outside the span, but sampled runs can fail spuriously; skipping the
    insert keeps the representation a basis either way.
    """
    if rep.contains(g):
        return 0
    rep.insert(g)
    return 1


def naive_lfd_seen_monomial(ds, seen, dist, d: int, mode: str,
                            target=None, sampled: SampledConfig = None) -> MonomialResult:
    """Baseline: estimate only previously seen features, assume 0 elsewhere."""
    g = np.zeros(ds.n_features, dtype=np.int64)
    for i in sorted(seen):
        g[i] = estimate_power(ds, i, dist, mode, d, target, sampled)
    if (g < 0).any() or degree(g) > d:
        return MonomialResult(FAILED, reason="degree")
    e = ds.n_examples - 1
    value = Fraction(1)
    for i in support(g):
        value *= Fraction(ds.probe(e, i)) ** int(g[i])
    if value != Fraction(ds.label(e)):
        return MonomialResult(FAILED, reason="verification")
    return MonomialResult(LEARNED, monomial=g)
