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
from operator import mul

import numpy as np

from .errors import (InternalError, OracleMisuseError, RealizabilityError,
                     UsageError, VarianceUnderflowError)
from .exactla import independent_rows, invert, mat_vec

EXACT = "exact"
SAMPLED = "sampled"

LEARNED = "learned"
FAILED = "failed"


# -- exponent vectors ------------------------------------------------------


def degree(g) -> int:
    return sum(np.asarray(g).tolist())


def support(g) -> list:
    return [i for i, e in enumerate(np.asarray(g).tolist()) if e]


def term_key(g) -> tuple:
    """Canonical hashable key of an exponent vector: ((var, exp), ...)."""
    return tuple([(i, e) for i, e in enumerate(np.asarray(g).tolist()) if e])


def eval_monomial(g, values) -> Fraction:
    """P_g at one example; `values` indexable by feature, Fraction entries."""
    out = Fraction(1)
    for i in support(g):
        out *= Fraction(values[i]) ** int(g[i])
    return out


def monomial_to_json_obj(g) -> dict:
    return {str(i): int(g[i]) for i in support(g)}


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


def estimate_powers(ds, features, dist, mode: str, d: int,
                    target=None, sampled: SampledConfig = None) -> list:
    """Estimate the exponents of `features` from labels Q_g = ln P_g.

    Exact mode charges the probes the estimator would, as one metered read
    of the features on every example (`meter`: no value is gathered), and
    resolves the population identity through the hidden target: each
    estimate is g_i exactly.  Sampled mode
    computes, per feature, the empirical centered cross-moment over the
    analytic-variance denominator and rounds.
    """
    if mode == EXACT:
        if target is None:
            raise OracleMisuseError("exact-mode estimation needs the hidden target")
        ds.meter(features)
        return [int(target[i]) for i in features]
    if mode != SAMPLED:
        raise UsageError(f"unknown mode {mode!r}")
    cfg = sampled or SampledConfig()
    c = dist.log_var()
    need = sample_size_bound(d, c, ds.n_features, cfg.n_tasks, cfg.delta, cfg.constant)
    if ds.n_examples < need:
        raise UsageError(f"sampled mode needs at least {need} examples, got {ds.n_examples}")
    q = np.log(np.array([float(lab) for lab in ds.labels]))
    out = []
    for i in features:
        logs = np.log(ds.probe_column(i))
        var = float(logs.var())
        if var < c / 2:
            raise VarianceUnderflowError(f"empirical log-variance {var:.2g} below c/2")
        num = float(np.mean(q * (logs - logs.mean())))
        out.append(int(round(num / var)))
    return out


def estimate_power(ds, i: int, dist, mode: str, d: int,
                   target=None, sampled: SampledConfig = None) -> int:
    """The exponent of feature i: `estimate_powers` of that one feature."""
    return estimate_powers(ds, [i], dist, mode, d, target, sampled)[0]


def learn_monomial_scratch(ds, dist, d: int, mode: str,
                           target=None, sampled: SampledConfig = None) -> np.ndarray:
    """Probe everything and estimate every exponent independently."""
    ds.probe_all()
    g = np.array(estimate_powers(ds, range(ds.n_features), dist, mode, d,
                                 target, sampled), dtype=np.int64)
    if (g < 0).any() or degree(g) > d:
        raise RealizabilityError("estimated exponents leave the degree-d simplex")
    return g


# -- representation --------------------------------------------------------


class RepresentationMatrix:
    """Past targets as columns; always kept linearly independent.

    Caches, once per change of the columns, the greedy lowest-index
    independent row set I, the exact inverse of the square submatrix F[I]
    (Fractions, for `solve`), and the integer forms that `lift` and
    `contains` run on: the inverse as integer rows `adj` over one positive
    denominator `den` (the LCM of its entries' denominators, so F[I]^-1 =
    adj / den), and F itself as integer rows.  A lift is then two Python-int
    mat-vecs, den * F w = F (adj g[I]), whose entries are natural iff each is
    >= 0 and divisible by den.  Lifts are memoized per (g[I], d) until the
    next insert, since the same restricted patterns recur across tasks.
    """

    def __init__(self, n_features: int):
        self.n_features = n_features
        self.columns = []  # np.int64 exponent vectors
        self._reset()

    def _reset(self) -> None:
        self._rows = None
        self._inv = None
        self._snapshot = None
        self._lifts = {}  # (g[I] as ints, d) -> (g as ints or None, reason)

    @property
    def k(self) -> int:
        return len(self.columns)

    def rows(self) -> list:
        if self._rows is None:
            self._rows = independent_rows(self.columns, self.n_features)
        return self._rows

    def _inverse(self) -> list:
        if self._inv is None:
            f_rows = [[int(col[r]) for col in self.columns]
                      for r in range(self.n_features)]
            inv = invert([f_rows[r] for r in self.rows()])
            self._den = math.lcm(*(v.denominator for row in inv for v in row))
            self._adj = [[v.numerator * (self._den // v.denominator) for v in row]
                         for row in inv]
            self._f_rows = f_rows
            self._inv = inv
        return self._inv

    @staticmethod
    def _check_length(v, n: int, what: str) -> None:
        if len(v) != n:
            raise UsageError(f"{what} has length {len(v)}, expected {n}")

    def _scaled_lift(self, g_restricted) -> list:
        """den * F w for the w with F[I] w = g[I], in Python ints."""
        self._inverse()
        g_i = [int(v) for v in g_restricted]
        w = [sum(map(mul, row, g_i)) for row in self._adj]
        return [sum(map(mul, row, w)) for row in self._f_rows]

    def solve(self, g_restricted) -> list:
        """w with F[I] w = g[I], exact Fractions."""
        self._check_length(g_restricted, self.k, "pattern")
        return mat_vec(self._inverse(), [int(v) for v in g_restricted])

    def combine(self, w) -> list:
        """F w as a length-N Fraction vector."""
        self._check_length(w, self.k, "weights")
        out = [Fraction(0)] * self.n_features
        for weight, col in zip(w, self.columns):
            if weight:
                for r in range(self.n_features):
                    if col[r]:
                        out[r] += weight * int(col[r])
        return out

    def lift(self, g_restricted, d: int):
        """F w for the w that matches `g_restricted` on the row set I, as
        (g, None) when natural of degree <= d, else (None, reason) with reason
        "non-natural-combination" or "degree".  The verdict is memoized until
        the next insert; each call returns a fresh array."""
        self._check_length(g_restricted, self.k, "pattern")
        key = (tuple([int(v) for v in g_restricted]), d)
        hit = self._lifts.get(key)
        if hit is None:
            hit = self._lifts[key] = self._lift(key[0], d)
        g, reason = hit
        return (None, reason) if g is None else (np.array(g, dtype=np.int64), None)

    def _lift(self, g_restricted, d: int):
        scaled = self._scaled_lift(g_restricted)
        den = self._den
        if any(v < 0 or v % den for v in scaled):
            return None, "non-natural-combination"
        g = [v // den for v in scaled]
        if sum(g) > d:
            return None, "degree"
        return g, None

    def contains(self, g) -> bool:
        self._check_length(g, self.n_features, "column")
        if self.k == 0:
            return not np.any(np.asarray(g))
        scaled = self._scaled_lift([g[r] for r in self.rows()])
        den = self._den
        return all(v == int(x) * den for v, x in zip(scaled, g))

    def insert(self, g) -> None:
        g = np.asarray(g, dtype=np.int64)
        if self.contains(g):
            raise InternalError("column already spanned: verification false-pass")
        self.columns.append(g.copy())
        self._reset()

    def snapshot(self) -> tuple:
        """The columns as a tuple of int tuples, cached until the next insert."""
        if self._snapshot is None:
            self._snapshot = tuple(tuple(int(v) for v in col)
                                   for col in self.columns)
        return self._snapshot


@dataclass
class Result:
    """An attempt through the representation: the verified hypothesis when
    learned, else the reason it failed."""

    outcome: str
    hypothesis: object = None
    reason: str = None

    @property
    def learned(self) -> bool:
        return self.outcome == LEARNED


def _verify(ds, hypothesis, terms: dict) -> Result:
    """Single-sample identity test of `hypothesis`, given as `terms`
    (term_key -> coefficient; a monomial g is {term_key(g): 1}): meter the
    last example's cells on the features the terms read; learned iff
    `ds.evaluate` of the terms there, exact over the integer row, equals
    its label."""
    e = ds.n_examples - 1
    ds.meter(sorted({i for key in terms for i, _ in key}), 1 << e)
    if ds.evaluate(e, terms) != ds.label(e):
        return Result(FAILED, reason="verification")
    return Result(LEARNED, hypothesis=hypothesis)


def lfd_monomial(ds, rep: RepresentationMatrix, dist, d: int, mode: str,
                 target=None, sampled: SampledConfig = None) -> Result:
    """Learn through the representation: probe the independent rows only.

    Estimates the target's exponents on rep's row set I, solves for the
    rational combination of stored columns exactly, rejects candidates that
    leave the natural degree-d simplex, and verifies the survivor on a single
    sample by exact evaluation over that example's integer row (`_verify`).
    Its reads are metered, not gathered: exact mode resolves them through
    the hidden target.
    """
    if rep.k == 0:
        return Result(FAILED, reason="empty-representation")
    idx = rep.rows()
    g_restricted = estimate_powers(ds, idx, dist, mode, d, target, sampled)
    g, reason = rep.lift(g_restricted, d)
    if g is None:
        return Result(FAILED, reason=reason)
    return _verify(ds, g, {term_key(g): 1})


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

