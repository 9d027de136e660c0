"""Learning t-sparse degree-d polynomials over a known product distribution.

Targets are sums of at most t monomials with rational coefficients.  The
learner only ever sees correlations: build, per coordinate, the monic
orthogonal polynomial family H_0..H_{2d} for the marginal (exact rational
Gram-Schmidt against the moment table), then find the lexicographically
largest remaining monomial power-by-power — the detection test

    < prod_{j<i} H_{2g_j}(x_j) * H_{2d'}(x_i), (P_G - P_Gtilde)^2 >  >  0

fires first at the true maximal power, and the coefficient drops out of a
single linear correlation divided by the basis norms.  The sampled oracle
estimates these expectations on the probe-metered sample with a positivity
threshold.  The exact oracle reads the hidden target and answers each test
in closed form from the residual's terms (`_ExactScan`), squaring nothing.

Closed form (derived here, not in the paper).  Write the residual as
R = sum_t c_t x^{e_t}, and call a term *live* while e_t agrees with every
power g_j a scan has fixed.  Each g_j is the largest exponent of x_j among
the terms live before it, so a product in R^2 with a non-live term has, at
the first fixed j where the pair deviates, an exponent sum below 2 g_j, and
E[H_{2g_j}(x) x^e] = 0 for e < 2 g_j: only live pairs count.  Let m be the
largest exponent of x_i among live terms.  A test H_k(x_i) with k > 2m sees
only exponent sums below k, so it is 0.  At k = 2m only the live terms with
x_i^m are left, and the test is n_{2m} * prod_j n_{2g_j} * E[Q^2], Q being
their sum with x_i and the fixed variables divided out: a nonzero
polynomial of degree at most d per coordinate on a grid of more than 2d
points per coordinate (the basis's positive norms through 2d say so), so
E[Q^2] > 0 and the test fires.  A test with k < 2m is reached only when a
live term's degree exceeds the budget; that input is outside the model and
raises `ModelViolationError` instead of a verdict.  With nothing fixed, the
same argument gives E[R^2] > 0 iff R has a term.

Monic basis note: the orthonormal family is H_k / sqrt(n_k) with n_k =
E[H_k^2]; the leading coefficient of the orthonormal version is 1/sqrt(n_k),
so the textbook coefficient formula becomes <prod H_{g_i}, dP> / prod n_{g_i}
and every quantity stays rational.  Detection-test signs are unchanged.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .errors import InternalError, ModelViolationError, UsageError
from .monomials import (FAILED, RepresentationMatrix, Result, _verify,
                        improve_rep_monomial, support, term_key)

COEFF_FLOOR = 1e-3  # sampled coefficients below this in magnitude read as 0
DENOMINATOR_CAP = 64  # the others snap to a rational with this denominator cap


# -- sparse polynomials ----------------------------------------------------


def key_to_vector(key, n_features: int) -> np.ndarray:
    g = np.zeros(n_features, dtype=np.int64)
    for i, e in key:
        if not 0 <= i < n_features:
            raise UsageError(f"variable {i} outside 0..{n_features - 1}")
        g[i] = e
    return g


class Polynomial:
    """Sparse polynomial: distinct monomials, nonzero rational coefficients."""

    def __init__(self, n_features: int):
        self.n_features = n_features
        self.terms = {}  # term_key -> Fraction

    def add_term(self, g, coeff) -> None:
        """Add coeff * x^g, dropping the term if it cancels.  `g` must be
        n_features non-negative int exponents, else UsageError.  A Fraction
        coefficient is kept as it is (stored itself on a new monomial);
        anything else goes through Fraction()."""
        exps = np.asarray(g).tolist()
        if (not isinstance(exps, list) or len(exps) != self.n_features
                or not all(type(e) is int and e >= 0 for e in exps)):
            raise UsageError(f"monomial {exps!r} is not {self.n_features} "
                             "non-negative int exponents")
        key = tuple([(i, e) for i, e in enumerate(exps) if e])
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        old = self.terms.get(key)
        new = coeff if old is None else old + coeff
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

    def to_json_obj(self) -> dict:
        terms = [{"coeff": f"{coeff.numerator}/{coeff.denominator}",
                  "monomial": {str(i): e for i, e in key}}
                 for key, coeff in sorted(self.terms.items())]
        return {"n_features": self.n_features, "terms": terms}

    @classmethod
    def from_json(cls, text: str) -> "Polynomial":
        """Parse the JSON text of `to_json_obj`; any malformed input is a
        UsageError."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"polynomial is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("terms"), list):
            raise UsageError("polynomial JSON must be an object with a terms list")
        n = doc.get("n_features")
        if not isinstance(n, int) or n < 1:
            raise UsageError(f"bad n_features {n!r}")
        poly = cls(n)
        for item in doc["terms"]:
            try:
                powers = [(int(i), int(e)) for i, e in item["monomial"].items()]
                num, den = item["coeff"].split("/")
                coeff = Fraction(int(num), int(den))
            except (AttributeError, KeyError, TypeError, ValueError,
                    ZeroDivisionError) as exc:
                raise UsageError(f"bad polynomial term {item!r}") from exc
            poly.add_term(key_to_vector(powers, n), coeff)
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


# -- orthogonal basis ------------------------------------------------------


class OrthogonalBasis:
    """Monic orthogonal polynomials H_0..H_{max_degree} for one marginal.

    `power_table` holds every E[H_k(x) x^e] (row k = 0: the moments E[x^e])
    as Python ints over one common scale, the LCM of their denominators.  It
    is built once per basis, not once per correlation oracle, and rebuilt
    wider only when a power e beyond the table is asked for.
    """

    def __init__(self, dist, max_degree: int):
        self.dist = dist
        self.max_degree = max_degree
        self.coeffs = []  # coeffs[k][j]: coefficient of x^j in H_k, monic
        self.norms = []   # E[H_k^2]
        self._table = None
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

    def power_table(self, top: int):
        """(scale, rows) with rows[k][e] = scale * E[H_k(x) x^e], an int, for
        k <= max_degree and e <= max(top, max_degree)."""
        if self._table is None or len(self._table[1][0]) <= top:
            powers = range(max(top, self.max_degree) + 1)
            values = [[self._power_inner(e, k) for e in powers]
                      for k in range(self.max_degree + 1)]
            scale = math.lcm(*(v.denominator for row in values for v in row))
            self._table = (scale, [[v.numerator * (scale // v.denominator)
                                    for v in row] for row in values])
        return self._table

    def evaluate(self, k: int, value) -> Fraction:
        x = Fraction(value)
        return sum(coeff * x ** c for c, coeff in enumerate(self.coeffs[k]))


def build_orthogonal_basis(dist, d: int) -> OrthogonalBasis:
    """Basis through degree 2d, which only the sampled scan and `corr_sq`
    read; the exact scan needs its positive norms only as the proof that
    the grid has more than 2d points per coordinate."""
    return OrthogonalBasis(dist, 2 * d)


# -- correlation oracles ---------------------------------------------------


_ZERO = Fraction(0)  # the one result of every vanishing expectation


def _terms_key(partial: Polynomial) -> frozenset:
    """Hashable key of a polynomial's terms from ints only: (term key,
    numerator, denominator) per term, so no Fraction is hashed."""
    return frozenset((key, c.numerator, c.denominator)
                     for key, c in partial.terms.items())


def _integer_terms(terms: dict):
    """Rational terms as integers over their LCM: (lcm, width, top, rows),
    rows[j] = (lcm * coeff, {var: exp}); width is the most variables in one
    term and top the largest exponent."""
    scale = math.lcm(*(c.denominator for c in terms.values()))
    rows = [(c.numerator * (scale // c.denominator), dict(key))
            for key, c in terms.items()]
    width = max((len(key) for key in terms), default=0)
    top = max((e for key in terms for _, e in key), default=0)
    return scale, width, top, rows


def _square_terms(terms):
    """The square of integer terms from `_integer_terms`, in the same form:
    products of the rows' integer coefficients over the square of their
    scale, with cancelled terms dropped."""
    scale, _, _, rows = terms
    out = {}
    for a, (ca, ea) in enumerate(rows):
        for b, (cb, eb) in enumerate(rows[a:]):
            merged = dict(ea)
            for i, e in eb.items():
                merged[i] = merged.get(i, 0) + e
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0) + (ca * cb if b == 0 else 2 * ca * cb)
    squared = [(c, dict(key)) for key, c in out.items() if c]
    width = max((len(exps) for _, exps in squared), default=0)
    top = max((e for _, exps in squared for e in exps.values()), default=0)
    return scale * scale, width, top, squared


class ExactCorrelation:
    """Population correlations computed symbolically through the target.

    Each expectation is a sum over residual terms of products of per-variable
    factors E[H_k(x_v) x_v^e], read as ints from the basis's `power_table`
    over its scale D.  The residual's coefficients are ints over their LCM L,
    built once per partial and cached on an integer key of its terms.
    `_expectation` pads a product with fewer than len(lhs) + width factors by
    powers of D and returns an int numerator over L * D^(len(lhs) + width);
    `coefficient` multiplies the basis norms into that pair, so it builds one
    reduced Fraction.  Detection squares nothing: `_ExactScan` answers each
    test in closed form from the residual's exponents (derived in the module
    docstring), and a residual exponent above the basis's d raises
    `ModelViolationError`.  `corr_sq` (squaring on demand) and `corr_lin`,
    the exact reference values, return one reduced Fraction (a vanishing
    one is a shared Fraction(0)), whose sign `positive` reads off.
    """

    sampled = False

    def __init__(self, target: Polynomial, dist, basis: OrthogonalBasis):
        # every moment is read from the basis's table, so it must be dist's
        if dist.m_grid != basis.dist.m_grid:
            raise UsageError("the basis belongs to another distribution")
        self.target = target
        self.basis = basis
        self._residuals = {}  # partial's terms -> integer residual

    def _expectation(self, lhs: dict, terms) -> tuple:
        """E[prod_v H_{lhs[v]}(x_v) * sum(terms)] as (numerator, denominator)
        ints, the denominator positive; `terms` from _integer_terms."""
        den, width, top, rows = terms
        scale, table = self.basis.power_table(top)
        moments = table[0]
        factors = [(var, table[k]) for var, k in lhs.items()]
        total = 0
        for prod, exps in rows:
            for var, row in factors:
                factor = row[exps.get(var, 0)]
                if not factor:
                    break
                prod *= factor
            else:
                pad = width
                for var, e in exps.items():
                    if var in lhs:
                        continue
                    prod *= moments[e]
                    pad -= 1
                total += prod * scale ** pad
        return total, den * scale ** (len(lhs) + width)

    def _residual(self, partial: Polynomial) -> tuple:
        """The integer residual of target - partial, cached."""
        key = _terms_key(partial)
        cached = self._residuals.get(key)
        if cached is None:
            cached = self._residuals[key] = _integer_terms(
                _residual_terms(self.target, partial))
        return cached

    def _fraction(self, lhs: dict, terms) -> Fraction:
        num, den = self._expectation(lhs, terms)
        return Fraction(num, den) if num else _ZERO

    def corr_sq(self, lhs: dict, partial: Polynomial) -> Fraction:
        """E[prod_v H_{lhs[v]}(x_v) * (P_target - P_partial)^2]."""
        return self._fraction(lhs, _square_terms(self._residual(partial)))

    def corr_lin(self, lhs: dict, partial: Polynomial) -> Fraction:
        """E[prod_v H_{lhs[v]}(x_v) * (P_target - P_partial)]."""
        return self._fraction(lhs, self._residual(partial))

    def positive(self, value) -> bool:
        return value.numerator > 0

    def detection(self, partial: Polynomial, variables) -> _ExactScan:
        """The detection test of one scan for `partial`; `variables` is the
        scan's order, which the closed form does not need."""
        _, _, top, rows = self._residual(partial)
        if 2 * top > self.basis.max_degree:
            raise ModelViolationError(
                f"residual exponent {top} exceeds the basis's degree "
                f"{self.basis.max_degree // 2}")
        return _ExactScan([exps for _, exps in rows])

    def coefficient(self, g, partial: Polynomial) -> Fraction:
        """corr_lin(g's exponents, partial) / prod_v n_{g_v}, built as one
        reduced Fraction (the norms are positive)."""
        lhs = dict(term_key(g))
        num, den = self._expectation(lhs, self._residual(partial))
        if not num:
            return _ZERO
        norms = self.basis.norms
        for k in lhs.values():
            num *= norms[k].denominator
            den *= norms[k].numerator
        return Fraction(num, den)


class _ExactScan:
    """The exact detection test of one scan, in closed form.

    `residual_left()` is positive(corr_sq({}, partial)).  With lhs the
    variables fixed so far, `fires(i, k)` is positive(corr_sq(lhs + {i: k},
    partial)) for k >= 1, and `fix(i, k)` fixes i at k (k = 0: no factor);
    it is called once for every variable, in order.

    The scan keeps the live terms' exponents.  With m the largest exponent
    of x_i among them, a test fires iff k == 2m, and `fix` keeps the live
    terms with exponent k/2 at i (none when k > 2m: every later test is 0).
    A test or a fix below 2m means a live term's degree exceeds the budget:
    `ModelViolationError`.
    """

    def __init__(self, live: list):
        self.live = live  # exponent dict of each live residual term
        self._peaks = (None, 0)  # (variable, twice its largest live exponent)

    def residual_left(self) -> bool:
        return bool(self.live)

    def _peak(self, i, k: int) -> int:
        """Twice x_i's largest live exponent, checked against test power k."""
        var, top = self._peaks
        if var != i:
            top = 2 * max([exps.get(i, 0) for exps in self.live], default=0)
            self._peaks = (i, top)
        if k < top:
            raise ModelViolationError(
                f"a residual term of degree above the budget has x{i}^{top // 2}")
        return top

    def fires(self, i, k: int) -> bool:
        return k == self._peak(i, k)

    def fix(self, i, k: int) -> None:
        self._peak(i, k)
        if k:  # k = 0 passed the check, so every live exponent at i is 0
            self.live = [exps for exps in self.live if 2 * exps.get(i, 0) == k]
            self._peaks = (None, 0)


class _CorrScan:
    """A detection test that asks the oracle's `corr_sq` once per test (the
    sampled oracle's); same interface as `_ExactScan`."""

    def __init__(self, oracle, partial: Polynomial):
        self.oracle = oracle
        self.partial = partial
        self.lhs = {}

    def residual_left(self) -> bool:
        return self.oracle.positive(self.oracle.corr_sq({}, self.partial))

    def fires(self, i, k: int) -> bool:
        test = dict(self.lhs)
        test[i] = k
        return self.oracle.positive(self.oracle.corr_sq(test, self.partial))

    def fix(self, i, k: int) -> None:
        if k:
            self.lhs[i] = k


class SampledCorrelation:
    """Empirical correlations on the probe-metered sample.

    Every evaluation probes the features it touches; positivity uses the
    threshold tau, and coefficients are snapped to small rationals.  The
    residual of a partial is metered once on every example and evaluated
    exactly at every example by `ds.evaluate_all`, which builds the
    partial's integer weights once, then rounded to float.
    """

    sampled = True

    def __init__(self, ds, basis: OrthogonalBasis, tau: float = 1e-6):
        self.ds = ds
        self.basis = basis
        self.tau = tau
        self._basis_float = [[float(c) for c in vec] for vec in basis.coeffs]
        self._residuals = {}  # partial's terms -> residual per example

    def _residual_values(self, partial: Polynomial) -> np.ndarray:
        key = _terms_key(partial)
        if key in self._residuals:
            return self._residuals[key]
        ds = self.ds
        terms = partial.terms
        ds.meter(sorted({i for term in terms for i, _ in term}))
        vals = np.array([float(label - value) for label, value
                         in zip(ds.labels, ds.evaluate_all(terms))])
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

    def detection(self, partial: Polynomial, variables) -> _CorrScan:
        return _CorrScan(self, partial)

    def coefficient(self, g, partial: Polynomial) -> Fraction:
        lhs = dict(term_key(g))
        value = self.corr_lin(lhs, partial)
        for k in lhs.values():
            value /= float(self.basis.norms[k])
        if abs(value) < COEFF_FLOOR:
            return Fraction(0)
        return Fraction(value).limit_denominator(DENOMINATOR_CAP)


# -- learners --------------------------------------------------------------


def _extract_largest(oracle, variables, budget: int, partial: Polynomial):
    """Exponents of the lexicographically largest residual monomial w.r.t.
    `variables` (ascending order), found power-by-power, highest first, by
    the oracle's detection test for this scan; None when no residual is left
    to extract, i.e. when positive(corr_sq({}, partial)) fails."""
    scan = oracle.detection(partial, variables)
    if not scan.residual_left():
        return None
    exponents = {}
    remaining = budget
    for i in variables:
        # d' = 0 needs no test: with no new factor it repeats the last test
        # that fired (at the first variable, the residual check)
        dp = next((dp for dp in range(remaining, 0, -1)
                   if scan.fires(i, 2 * dp)), 0)
        scan.fix(i, 2 * dp)
        exponents[i] = dp
        remaining -= dp
    return exponents


def learn_polynomial_scratch(oracle, n_features: int, d: int, t: int,
                             ds=None) -> Polynomial:
    """Extract up to t monomials, largest-first, with their coefficients."""
    if ds is not None:
        ds.probe_all()
    out = Polynomial(n_features)
    for _ in range(t):
        exps = _extract_largest(oracle, range(n_features), d, out)
        if exps is None:
            return out
        g = np.array([exps[i] for i in range(n_features)], dtype=np.int64)
        coeff = oracle.coefficient(g, out)
        if coeff == 0:
            if oracle.sampled:
                return out
            raise InternalError("detected monomial has zero coefficient")
        out.add_term(g, coeff)
    if oracle.detection(out, ()).residual_left():
        raise ModelViolationError(f"target has more than {t} monomials")
    return out


def lfd_polynomial(ds, rep: RepresentationMatrix, oracle, d: int, t: int) -> Result:
    """Learn through the representation, probing only its independent rows.

    The lexicographic search runs restricted to the row set I; each
    restricted pattern is lifted to a full monomial by `rep.lift`.
    Per example this costs at most k probes for I plus t*d for evaluating the
    partial hypothesis.  Both are charged with `meter` on every example and
    gather nothing, since the oracle resolves every value; a final
    single-sample verification, exact over that example's integer row
    (`_verify`), rejects any off-span lift.
    """
    if rep.k == 0:
        return Result(FAILED, reason="empty-representation")
    idx = rep.rows()
    ds.meter(idx)
    partial = Polynomial(ds.n_features)
    for _ in range(t):
        exps = _extract_largest(oracle, sorted(idx), d, partial)
        if exps is None:
            break
        g, reason = rep.lift([exps[i] for i in idx], d)
        if g is None:
            return Result(FAILED, reason=reason)
        ds.meter(support(g))  # the partial's evaluations read g
        coeff = oracle.coefficient(g, partial)
        if coeff == 0:
            return Result(FAILED, reason="zero-coefficient")
        partial.add_term(g, coeff)
    return _verify(ds, partial, partial.terms)


def improve_rep_polynomial(rep: RepresentationMatrix, target: Polynomial) -> int:
    """Add the target's monomials that fall outside the current span."""
    return sum(improve_rep_monomial(rep, g) for g in target.monomials())
