"""Learning t-sparse degree-d polynomials over a known product distribution.

Targets are sums of at most t monomials with rational coefficients.  The
learner only ever sees correlations: build, per coordinate, the monic
orthogonal polynomial family H_0..H_{2d} for the marginal (exact rational
Gram-Schmidt against the moment table), then find the lexicographically
largest remaining monomial power-by-power — the detection test

    < prod_{j<i} H_{2g_j}(x_j) * H_{2d'}(x_i), (P_G - P_Gtilde)^2 >  >  0

fires first at the true maximal power, and the coefficient drops out of a
single linear correlation divided by the basis norms.  The exact oracle
computes these expectations symbolically through the hidden target; the
sampled oracle estimates them on the probe-metered sample with a positivity
threshold.

Monic basis note: the orthonormal family is H_k / sqrt(n_k) with n_k =
E[H_k^2]; the leading coefficient of the orthonormal version is 1/sqrt(n_k),
so the textbook coefficient formula becomes <prod H_{g_i}, dP> / prod n_{g_i}
and every quantity stays rational.  Detection-test signs are unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dataset import _parse_frac
from .errors import InternalError, ModelViolationError, UsageError
from .monomials import RepresentationMatrix, degree, support

LEARNED = "learned"
FAILED = "failed"


# -- sparse polynomials ----------------------------------------------------


def term_key(g) -> tuple:
    """Canonical hashable key of an exponent vector: ((var, exp), ...)."""
    return tuple((int(i), int(g[i])) for i in np.nonzero(np.asarray(g))[0])


def key_to_vector(key, n_features: int) -> np.ndarray:
    g = np.zeros(n_features, dtype=np.int64)
    for i, e in key:
        g[i] = e
    return g


class Polynomial:
    """Sparse polynomial: distinct monomials, nonzero rational coefficients."""

    def __init__(self, n_features: int):
        self.n_features = n_features
        self.terms = {}  # term_key -> Fraction

    def add_term(self, g, coeff) -> None:
        key = term_key(g)
        new = self.terms.get(key, Fraction(0)) + Fraction(coeff)
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def monomials(self) -> list:
        return [key_to_vector(key, self.n_features) for key in sorted(self.terms)]

    def coefficient(self, g) -> Fraction:
        return self.terms.get(term_key(g), Fraction(0))

    def sparsity(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        return max((sum(e for _, e in key) for key in self.terms), default=0)

    def evaluate(self, values) -> Fraction:
        total = Fraction(0)
        for key, coeff in self.terms.items():
            prod = coeff
            for i, e in key:
                prod *= Fraction(values[i]) ** e
            total += prod
        return total

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            mono = "*".join(f"x{i}^{e}" for i, e in key) or "1"
            bits.append(f"{self.terms[key]}*{mono}")
        return " + ".join(bits)

    def to_json(self) -> str:
        terms = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            terms.append({
                "monomial": {str(i): e for i, e in key},
                "coeff": f"{coeff.numerator}/{coeff.denominator}",
            })
        return json.dumps({"n_features": self.n_features, "terms": terms},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Polynomial":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"polynomial is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError("polynomial JSON must be an object")
        missing = [k for k in ("n_features", "terms") if k not in doc]
        if missing:
            raise UsageError(f"polynomial JSON lacks {', '.join(missing)}")
        n = doc["n_features"]
        if not isinstance(n, int) or n < 1:
            raise UsageError(f"bad n_features {n!r}")
        if not isinstance(doc["terms"], list):
            raise UsageError("polynomial terms must be a list")
        poly = cls(n)
        for item in doc["terms"]:
            try:
                powers = [(int(i), int(e)) for i, e in item["monomial"].items()]
                coeff = item["coeff"]
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise UsageError(f"bad polynomial term {item!r}") from exc
            if any(not 0 <= i < n or e < 0 for i, e in powers):
                raise UsageError(f"bad monomial {item['monomial']!r}")
            if not isinstance(coeff, str):
                raise UsageError(f"bad coefficient {coeff!r}")
            g = np.zeros(n, dtype=np.int64)
            for i, e in powers:
                g[i] = e
            poly.add_term(g, _parse_frac(coeff))
        return poly


def _residual_terms(target: Polynomial, partial: Polynomial) -> dict:
    out = dict(target.terms)
    for key, coeff in partial.terms.items():
        new = out.get(key, Fraction(0)) - coeff
        if new == 0:
            out.pop(key, None)
        else:
            out[key] = new
    return out


def _square_terms(terms: dict) -> dict:
    out = {}
    items = list(terms.items())
    for a, (ka, ca) in enumerate(items):
        for kb, cb in items[a:]:
            coeff = ca * cb if ka == kb else 2 * ca * cb
            merged = dict(ka)
            for i, e in kb:
                merged[i] = merged.get(i, 0) + e
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v != 0}


# -- orthogonal basis ------------------------------------------------------


class OrthogonalBasis:
    """Monic orthogonal polynomials H_0..H_{max_degree} for one marginal."""

    def __init__(self, dist, max_degree: int):
        self.dist = dist
        self.max_degree = max_degree
        self.coeffs = []  # coeffs[k][j]: coefficient of x^j in H_k, monic
        self.norms = []   # E[H_k^2]
        self._cross = {}
        for k in range(max_degree + 1):
            vec = [Fraction(0)] * (k + 1)
            vec[k] = Fraction(1)
            for j in range(k):
                proj = self._power_inner(k, j) / self.norms[j]
                for c, coeff in enumerate(self.coeffs[j]):
                    vec[c] -= proj * coeff
            self.coeffs.append(vec)
            norm = sum(coeff * dist.moment(c + k) for c, coeff in enumerate(vec))
            if norm <= 0:
                raise InternalError("orthogonal basis produced a nonpositive norm")
            self.norms.append(norm)

    def _power_inner(self, power: int, k: int) -> Fraction:
        """<x^power, H_k> under the marginal."""
        return sum(coeff * self.dist.moment(c + power)
                   for c, coeff in enumerate(self.coeffs[k]))

    def inner_with_power(self, k: int, e: int) -> Fraction:
        """E[H_k(x) * x^e], cached."""
        if (k, e) not in self._cross:
            self._cross[(k, e)] = self._power_inner(e, k)
        return self._cross[(k, e)]

    def evaluate(self, k: int, value) -> Fraction:
        x = Fraction(value)
        return sum(coeff * x ** c for c, coeff in enumerate(self.coeffs[k]))


def build_orthogonal_basis(dist, d: int) -> OrthogonalBasis:
    """Basis through degree 2d (detection squares the residual)."""
    return OrthogonalBasis(dist, 2 * d)


# -- correlation oracles ---------------------------------------------------


class ExactCorrelation:
    """Population correlations computed symbolically through the target."""

    sampled = False

    def __init__(self, target: Polynomial, dist, basis: OrthogonalBasis):
        self.target = target
        self.dist = dist
        self.basis = basis
        self._squares = {}  # partial's terms -> squared residual terms

    def _expectation(self, lhs: dict, terms: dict) -> Fraction:
        total = Fraction(0)
        for key, coeff in terms.items():
            prod = coeff
            exps = dict(key)
            for var, k in lhs.items():
                prod *= self.basis.inner_with_power(k, exps.pop(var, 0))
                if prod == 0:
                    break
            else:
                for e in exps.values():
                    prod *= self.dist.moment(e)
                total += prod
        return total

    def corr_sq(self, lhs: dict, partial: Polynomial) -> Fraction:
        """E[prod_v H_{lhs[v]}(x_v) * (P_target - P_partial)^2]."""
        key = frozenset(partial.terms.items())
        if key not in self._squares:
            self._squares[key] = _square_terms(_residual_terms(self.target, partial))
        return self._expectation(lhs, self._squares[key])

    def corr_lin(self, lhs: dict, partial: Polynomial) -> Fraction:
        """E[prod_v H_{lhs[v]}(x_v) * (P_target - P_partial)]."""
        return self._expectation(lhs, _residual_terms(self.target, partial))

    def positive(self, value) -> bool:
        return value > 0

    def coefficient(self, g, partial: Polynomial) -> Fraction:
        lhs = {i: int(g[i]) for i in support(g)}
        value = self.corr_lin(lhs, partial)
        for i in support(g):
            value /= self.basis.norms[int(g[i])]
        return value


class SampledCorrelation:
    """Empirical correlations on the probe-metered sample.

    Every evaluation probes the features it touches; positivity uses the
    threshold tau, and coefficients are snapped to small rationals.
    """

    sampled = True

    def __init__(self, ds, basis: OrthogonalBasis, tau: float = 1e-6,
                 coeff_floor: float = 1e-3, denominator_cap: int = 64):
        self.ds = ds
        self.basis = basis
        self.tau = tau
        self.coeff_floor = coeff_floor
        self.denominator_cap = denominator_cap
        self._basis_float = [[float(c) for c in vec] for vec in basis.coeffs]
        self._residuals = {}  # partial's terms -> residual per example

    def _residual_values(self, partial: Polynomial) -> np.ndarray:
        key = frozenset(partial.terms.items())
        if key in self._residuals:
            return self._residuals[key]
        ds = self.ds
        vals = np.zeros(ds.n_examples)
        touched = set()
        for term in partial.terms:
            touched.update(i for i, _ in term)
        for e in range(ds.n_examples):
            row = {i: ds.probe(e, i) for i in touched}
            vals[e] = float(Fraction(ds.label(e)) - partial.evaluate(row))
        self._residuals[key] = vals
        return vals

    def _lhs_values(self, lhs: dict) -> np.ndarray:
        out = np.ones(self.ds.n_examples)
        for var, k in lhs.items():
            x = self.ds.probe_column(var)
            h = np.zeros_like(x)
            for c, coeff in enumerate(self._basis_float[k]):
                h += coeff * x ** c
            out *= h
        return out

    def corr_sq(self, lhs: dict, partial: Polynomial) -> float:
        res = self._residual_values(partial)
        return float(np.mean(self._lhs_values(lhs) * res * res))

    def corr_lin(self, lhs: dict, partial: Polynomial) -> float:
        return float(np.mean(self._lhs_values(lhs) * self._residual_values(partial)))

    def positive(self, value) -> bool:
        return value > self.tau

    def coefficient(self, g, partial: Polynomial) -> Fraction:
        value = self.corr_lin({i: int(g[i]) for i in support(g)}, partial)
        for i in support(g):
            value /= float(self.basis.norms[int(g[i])])
        if abs(value) < self.coeff_floor:
            return Fraction(0)
        return Fraction(value).limit_denominator(self.denominator_cap)


# -- learners --------------------------------------------------------------


def _extract_largest(oracle, variables, budget: int, partial: Polynomial) -> dict:
    """Exponents of the lexicographically largest residual monomial w.r.t.
    `variables` (ascending order), found power-by-power, highest first."""
    lhs = {}
    exponents = {}
    remaining = budget
    for i in variables:
        for dp in range(remaining, -1, -1):
            test = dict(lhs)
            if dp:
                test[i] = 2 * dp
            if oracle.positive(oracle.corr_sq(test, partial)):
                if dp:
                    lhs[i] = 2 * dp
                exponents[i] = dp
                remaining -= dp
                break
        else:
            if oracle.sampled:
                exponents[i] = 0  # below threshold; settle for zero
            else:
                raise InternalError("detection scan found no power, not even 0")
    return exponents


def learn_polynomial_scratch(oracle, n_features: int, d: int, t: int,
                             ds=None) -> Polynomial:
    """Extract up to t monomials, largest-first, with their coefficients."""
    if ds is not None:
        ds.probe_all()
    out = Polynomial(n_features)
    for _ in range(t):
        if not oracle.positive(oracle.corr_sq({}, out)):
            return out
        exps = _extract_largest(oracle, range(n_features), d, out)
        g = np.array([exps[i] for i in range(n_features)], dtype=np.int64)
        coeff = oracle.coefficient(g, out)
        if coeff == 0:
            if oracle.sampled:
                return out
            raise InternalError("detected monomial has zero coefficient")
        out.add_term(g, coeff)
    if oracle.positive(oracle.corr_sq({}, out)):
        raise ModelViolationError(f"target has more than {t} monomials")
    return out


@dataclass
class PolynomialResult:
    outcome: str
    polynomial: Polynomial = None
    reason: str = None

    @property
    def learned(self) -> bool:
        return self.outcome == LEARNED


def lfd_polynomial(ds, rep: RepresentationMatrix, oracle, d: int, t: int) -> PolynomialResult:
    """Learn through the representation, probing only its independent rows.

    The lexicographic search runs restricted to the row set I; each
    restricted pattern is lifted through the exact solve to a full monomial.
    Per example this costs at most k probes for I plus t*d for evaluating the
    partial hypothesis, and a final single-sample rational verification
    rejects any off-span lift.
    """
    if rep.k == 0:
        return PolynomialResult(FAILED, reason="empty-representation")
    idx = rep.rows()
    for i in idx:
        ds.probe_column(i)
    partial = Polynomial(ds.n_features)
    for _ in range(t):
        if not oracle.positive(oracle.corr_sq({}, partial)):
            break
        exps = _extract_largest(oracle, sorted(idx), d, partial)
        w = rep.solve([exps[i] for i in idx])
        lift = rep.combine(w)
        if any(v.denominator != 1 or v < 0 for v in lift):
            return PolynomialResult(FAILED, reason="non-natural-combination")
        g = np.array([int(v) for v in lift], dtype=np.int64)
        if degree(g) > d:
            return PolynomialResult(FAILED, reason="degree")
        for i in support(g):
            ds.probe_column(i)  # partial-hypothesis evaluations touch these
        coeff = oracle.coefficient(g, partial)
        if coeff == 0:
            return PolynomialResult(FAILED, reason="zero-coefficient")
        partial.add_term(g, coeff)
    e = ds.n_examples - 1
    touched = sorted({i for key in partial.terms for i, _ in key})
    row = {i: ds.probe(e, i) for i in touched}
    if partial.evaluate(row) != Fraction(ds.label(e)):
        return PolynomialResult(FAILED, reason="verification")
    return PolynomialResult(LEARNED, polynomial=partial)


def improve_rep_polynomial(rep: RepresentationMatrix, target: Polynomial) -> int:
    """Add the target's monomials that fall outside the current span."""
    added = 0
    for g in target.monomials():
        if not rep.contains(g):
            rep.insert(g)
            added += 1
    return added


def naive_lfd_seen_polynomial(ds, oracle, seen, d: int, t: int) -> PolynomialResult:
    """Baseline: run the full extraction but only over seen variables."""
    variables = sorted(seen)
    for i in variables:
        ds.probe_column(i)
    partial = Polynomial(ds.n_features)
    for _ in range(t):
        if not oracle.positive(oracle.corr_sq({}, partial)):
            break
        exps = _extract_largest(oracle, variables, d, partial)
        g = np.zeros(ds.n_features, dtype=np.int64)
        for i, e in exps.items():
            g[i] = e
        coeff = oracle.coefficient(g, partial)
        if coeff == 0:
            break
        partial.add_term(g, coeff)
    e = ds.n_examples - 1
    touched = sorted({i for key in partial.terms for i, _ in key})
    row = {i: ds.probe(e, i) for i in touched}
    if partial.evaluate(row) != Fraction(ds.label(e)):
        return PolynomialResult(FAILED, reason="verification")
    return PolynomialResult(LEARNED, polynomial=partial)
