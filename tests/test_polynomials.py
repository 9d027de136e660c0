"""Sparse polynomials: orthogonal bases, correlation oracles, extraction."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from probelearn import (CostlyDataset, ExactCorrelation, InternalError,
                        ModelViolationError, Polynomial, ProductDistribution,
                        RepresentationMatrix, SampledCorrelation, StreamSpec,
                        UsageError, build_orthogonal_basis, gen_poly_stream,
                        improve_rep_polynomial, learn_polynomial_scratch,
                        lfd_polynomial, support)
from probelearn.polynomials import _extract_largest, key_to_vector, term_key

DIST = ProductDistribution()  # module-level: moment/basis caches are shared


def vec(*entries):
    return np.array(entries, dtype=np.int64)


def poly(n_features, *terms):
    out = Polynomial(n_features)
    for g, coeff in terms:
        out.add_term(g, coeff)
    return out


def brute_expect(dist, n_vars, fn):
    """Exact E[fn(x)] by full-grid enumeration (tiny grids only)."""
    m = dist.m_grid
    total = Fraction(0)
    for tup in itertools.product(range(m + 1), repeat=n_vars):
        total += fn([dist.value(j) for j in tup])
    return total / (m + 1) ** n_vars


# -- container --------------------------------------------------------------


def test_term_key_round_trip():
    g = vec(0, 2, 1)
    assert term_key(g) == ((1, 2), (2, 1))
    assert (key_to_vector(term_key(g), 3) == g).all()


def test_polynomial_terms_cancel():
    p = Polynomial(2)
    p.add_term(vec(1, 1), Fraction(3, 2))
    p.add_term(vec(1, 1), Fraction(-3, 2))
    assert p.sparsity() == 0
    assert p == Polynomial(2)


def test_add_term_keeps_a_fraction_coefficient_as_it_is():
    p = Polynomial(2)
    coeff = Fraction(-7, 3)
    p.add_term(vec(1, 0), coeff)
    assert p.terms[term_key(vec(1, 0))] is coeff
    p.add_term(vec(0, 1), 2)  # anything else goes through Fraction()
    assert type(p.terms[term_key(vec(0, 1))]) is Fraction
    p.add_term(vec(1, 0), "7/3")
    assert p.terms == {term_key(vec(0, 1)): 2}


def test_polynomial_accessors():
    p = poly(3, (vec(2, 0, 0), 3), (vec(1, 1, 0), Fraction(-5, 2)))
    assert p.sparsity() == 2
    assert p.coefficient(vec(2, 0, 0)) == 3
    assert p.coefficient(vec(0, 0, 1)) == 0
    row = [Fraction(3, 2), Fraction(2), Fraction(1)]
    assert p.evaluate(row) == 3 * Fraction(9, 4) - Fraction(5, 2) * 3


def test_polynomial_json_round_trip():
    p = poly(3, (vec(2, 0, 0), 3), (vec(1, 1, 0), Fraction(-5, 2)))
    assert Polynomial.from_json(json.dumps(p.to_json_obj())) == p
    empty = Polynomial(3)
    assert Polynomial.from_json(json.dumps(empty.to_json_obj())) == empty


def _poly_json(terms=None, **doc):
    doc.setdefault("n_features", 3)
    doc.setdefault("terms", terms if terms is not None
                   else [{"monomial": {"0": 1}, "coeff": "3/2"}])
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    '{"n_features": 3, "terms": [',
    json.dumps({"terms": []}),
    _poly_json(n_features="3"),
    _poly_json(terms={"0": 1}),
    _poly_json([{"monomial": {"0": 1}, "coeff": "3|2"}]),
    _poly_json([{"monomial": {"0": 1}, "coeff": "3/0"}]),
    _poly_json([{"monomial": {"0": 1}}]),
    _poly_json([{"monomial": {"x": 1}, "coeff": "1/1"}]),
    _poly_json([{"monomial": {"3": 1}, "coeff": "1/1"}]),
    _poly_json([{"monomial": {"0": -1}, "coeff": "1/1"}]),
    _poly_json([{"monomial": [0, 1], "coeff": "1/1"}]),
    "[]",
], ids=["not-json", "no-n-features", "n-features-not-int", "terms-not-a-list",
        "coeff-bar", "coeff-zero-denominator", "no-coeff", "var-not-int",
        "var-out-of-range", "negative-exponent", "monomial-not-an-object",
        "not-an-object"])
def test_malformed_polynomial_raises_usage_error(text):
    with pytest.raises(UsageError):
        Polynomial.from_json(text)


# -- orthogonal basis -------------------------------------------------------


def test_basis_low_degrees_exact():
    basis = build_orthogonal_basis(DIST, 2)
    m = DIST.m_grid
    assert basis.coeffs[0] == [Fraction(1)]
    assert basis.norms[0] == 1
    assert basis.coeffs[1] == [Fraction(-3, 2), Fraction(1)]  # x - E[x]
    assert basis.norms[1] == Fraction(1, 12) + Fraction(1, 6 * m)


def test_basis_monic_and_positive_norms():
    basis = build_orthogonal_basis(DIST, 3)
    for k, coeffs in enumerate(basis.coeffs):
        assert coeffs[k] == 1
        assert basis.norms[k] > 0


def test_basis_orthogonality_exact():
    # independent expansion: E[H_j H_k] as a double sum over the moment table
    basis = build_orthogonal_basis(DIST, 2)
    for j in range(5):
        for k in range(5):
            inner = sum(a * b * DIST.moment(ca + cb)
                        for ca, a in enumerate(basis.coeffs[j])
                        for cb, b in enumerate(basis.coeffs[k]))
            if j == k:
                assert inner == basis.norms[k]
            else:
                assert inner == 0


def test_basis_orthonormal_float_cross_check():
    basis = build_orthogonal_basis(DIST, 2)
    scaled = [np.array([float(c) for c in basis.coeffs[k]]) / float(basis.norms[k]) ** 0.5
              for k in range(5)]
    for j in range(5):
        for k in range(5):
            inner = sum(a * b * float(DIST.moment(ca + cb))
                        for ca, a in enumerate(scaled[j])
                        for cb, b in enumerate(scaled[k]))
            # float route suffers cancellation at the top degrees; the exact
            # orthogonality test above carries the zero-tolerance claim
            assert abs(inner - (1.0 if j == k else 0.0)) < 1e-7


def test_basis_evaluate_matches_coefficients():
    basis = build_orthogonal_basis(DIST, 2)
    x = Fraction(7, 4)
    assert basis.evaluate(1, x) == x - Fraction(3, 2)
    expect = sum(c * x ** i for i, c in enumerate(basis.coeffs[3]))
    assert basis.evaluate(3, x) == expect


# -- exact oracle vs full-grid brute force ----------------------------------


def test_exact_oracle_matches_tiny_grid_enumeration():
    tiny = ProductDistribution(4)
    basis = build_orthogonal_basis(tiny, 2)
    target = poly(2, (vec(2, 0), 3), (vec(1, 1), -5))
    for partial in (Polynomial(2), poly(2, (vec(2, 0), 3))):
        oracle = ExactCorrelation(target, tiny, basis)
        for lhs in ({}, {0: 2}, {1: 1}, {0: 2, 1: 2}):
            def lin(values):
                out = target.evaluate(values) - partial.evaluate(values)
                for var, k in lhs.items():
                    out *= basis.evaluate(k, values[var])
                return out

            def sq(values):
                res = target.evaluate(values) - partial.evaluate(values)
                out = res * res
                for var, k in lhs.items():
                    out *= basis.evaluate(k, values[var])
                return out

            assert oracle.corr_lin(lhs, partial) == brute_expect(tiny, 2, lin)
            assert oracle.corr_sq(lhs, partial) == brute_expect(tiny, 2, sq)


def random_terms(rng, n_vars, n_terms, pool):
    out = Polynomial(n_vars)
    for _ in range(n_terms):
        g = rng.integers(0, 3, size=n_vars)
        out.add_term(g, pool[int(rng.integers(len(pool)))])
    return out


def test_exact_oracle_matches_enumeration_on_random_partials():
    """corr_lin/corr_sq against full-grid enumeration, for partials that
    leave a zero residual, flip signs, cancel target terms or add new ones.
    Two grids share the basis degrees (a table keyed by degree alone would go
    stale), one basis is lower than the squared residual's powers (its table
    must widen), and each oracle is reused across partials."""
    rng = np.random.default_rng(51)
    pool = [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 3)]
    # x0^2 + 2 x0 x1 - 2 x1^2: the x0^2 x1^2 terms of its square cancel
    cancelling = poly(2, (vec(2, 0), 1), (vec(1, 1), 2), (vec(0, 2), -2))
    checked = 0
    for m_grid in (4, 5):
        dist = ProductDistribution(m_grid)
        points = [[dist.value(a), dist.value(b)]
                  for a in range(m_grid + 1) for b in range(m_grid + 1)]
        for half in (1, 2):
            basis = build_orthogonal_basis(dist, half)
            targets = [cancelling] + [random_terms(rng, 2, int(rng.integers(1, 4)),
                                                   pool) for _ in range(3)]
            for target in targets:
                oracle = ExactCorrelation(target, dist, basis)
                flipped = Polynomial(2)
                for key, coeff in target.terms.items():
                    flipped.add_term(key_to_vector(key, 2), -coeff)
                partials = [Polynomial(2), target, flipped,
                            random_terms(rng, 2, 2, pool)]
                swapped = Polynomial(2)  # cancels one target term, adds one
                key, coeff = sorted(target.terms.items())[0]
                swapped.add_term(key_to_vector(key, 2), coeff)
                swapped.add_term(vec(1, 2), Fraction(-1, 2))
                swapped.add_term(vec(0, 1), 0)
                partials.append(swapped)
                for partial in partials:
                    res = [target.evaluate(x) - partial.evaluate(x) for x in points]
                    for lhs in ({}, {0: 2 * half}, {1: 1}, {0: 1, 1: 2 * half}):
                        weight = [Fraction(1)] * len(points)
                        for var, k in lhs.items():
                            weight = [w * basis.evaluate(k, x[var])
                                      for w, x in zip(weight, points)]
                        lin = sum(w * r for w, r in zip(weight, res))
                        sq = sum(w * r * r for w, r in zip(weight, res))
                        assert oracle.corr_lin(lhs, partial) == lin / len(points)
                        assert oracle.corr_sq(lhs, partial) == sq / len(points)
                        checked += 1
    assert checked == 2 * 2 * 4 * 5 * 4


def test_exact_oracle_rejects_a_basis_of_another_distribution():
    basis = build_orthogonal_basis(ProductDistribution(4), 1)
    with pytest.raises(UsageError):
        ExactCorrelation(Polynomial(2), DIST, basis)


def test_zero_residual_correlates_to_zero():
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(2, (vec(1, 1), Fraction(7, 3)))
    oracle = ExactCorrelation(target, DIST, basis)
    assert oracle.corr_lin({}, target) == 0
    assert oracle.corr_sq({0: 2}, target) == 0


def test_coefficient_identity_single_monomial():
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(2, (vec(1, 1), 3))
    oracle = ExactCorrelation(target, DIST, basis)
    empty = Polynomial(2)
    # <H_1(x0) H_1(x1), 3 x0 x1> = 3 n_1^2, so the coefficient drops out
    assert oracle.corr_lin({0: 1, 1: 1}, empty) == 3 * basis.norms[1] ** 2
    assert oracle.coefficient(vec(1, 1), empty) == 3


def test_coefficient_matches_corr_lin_over_the_basis_norms():
    """coefficient(g, partial) is corr_lin(g's exponents, partial) divided
    by each basis norm n_{g_v}, on random targets and partials, partials
    holding terms the target lacks, and monomials whose coefficient
    vanishes."""
    rng = np.random.default_rng(52)
    pool = [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 3)]
    basis = build_orthogonal_basis(DIST, 2)
    seen = {"outside": 0, "zero": 0, "nonzero": 0}
    for _ in range(12):
        target = random_terms(rng, 3, int(rng.integers(1, 4)), pool)
        oracle = ExactCorrelation(target, DIST, basis)
        for partial in (Polynomial(3), random_terms(rng, 3, 2, pool), target):
            seen["outside"] += any(key not in target.terms
                                   for key in partial.terms)
            for exps in itertools.product(range(3), repeat=3):
                g = vec(*exps)
                want = oracle.corr_lin(dict(term_key(g)), partial)
                for k in exps:
                    if k:
                        want /= basis.norms[k]
                got = oracle.coefficient(g, partial)
                assert type(got) is Fraction and got == want
                seen["zero" if got == 0 else "nonzero"] += 1
    assert min(seen.values()) >= 5, seen


def test_coefficient_follows_partial_updates():
    """The cached integer residual is keyed by the partial's current terms,
    as the squared one is (test_corr_sq_follows_partial_updates)."""
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(2, (vec(1, 1), 2), (vec(2, 0), -1))
    cached = ExactCorrelation(target, DIST, basis)
    partial = Polynomial(2)
    assert cached.coefficient(vec(1, 1), partial) == 2
    assert cached.coefficient(vec(2, 0), partial) == -1
    partial.add_term(vec(1, 1), Fraction(1, 2))
    after = cached.coefficient(vec(1, 1), partial)
    fresh = ExactCorrelation(target, DIST, basis)
    assert after == fresh.coefficient(vec(1, 1), partial) == Fraction(3, 2)
    partial.add_term(vec(2, 0), -1)
    assert cached.coefficient(vec(2, 0), partial) == 0
    assert cached.coefficient(vec(1, 1), Polynomial(2)) == 2


def test_detection_fires_at_the_top_power():
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(2, (vec(2, 0), 1))
    oracle = ExactCorrelation(target, DIST, basis)
    empty = Polynomial(2)
    assert oracle.corr_sq({0: 4}, empty) > 0       # d' = 2 fires
    assert oracle.corr_sq({1: 2}, empty) == 0      # x1 carries nothing
    assert _extract_largest(oracle, range(2), 2, empty) == {0: 2, 1: 0}


# -- the exact detection scan against corr_sq --------------------------------


def per_call_extract(oracle, variables, budget, partial):
    """The residual check and the detection loop as one `corr_sq` per test:
    the reference that the per-scan integer test must reproduce."""
    if not oracle.positive(oracle.corr_sq({}, partial)):
        return None
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


class CheckedScan:
    """Wraps one scan's detection test and compares every verdict with
    positive(corr_sq(test, partial)) for the lhs fixed so far."""

    def __init__(self, oracle, partial, variables, visited):
        self.scan = ExactCorrelation.detection(oracle, partial, variables)
        self.oracle = oracle
        self.partial = partial
        self.lhs = {}
        self.visited = visited

    def residual_left(self):
        got = self.scan.residual_left()
        assert got is self.oracle.positive(self.oracle.corr_sq({}, self.partial))
        return got

    def fires(self, i, k):
        test = dict(self.lhs)
        test[i] = k
        got = self.scan.fires(i, k)
        want = self.oracle.positive(self.oracle.corr_sq(test, self.partial))
        assert got is want, (test, self.partial)
        self.visited.append((tuple(sorted(self.lhs.items())), i, k))
        return got

    def fix(self, i, k):
        self.scan.fix(i, k)
        if k:
            self.lhs[i] = k


def check_scans(target, partials, variables, d):
    """Every verdict of each scan equals corr_sq's and the scan's result
    equals the per-call loop's; returns the (prefix, i, k) tests visited."""
    basis = build_orthogonal_basis(DIST, d)
    oracle = ExactCorrelation(target, DIST, basis)
    visited = []
    oracle.detection = lambda partial, scanned: CheckedScan(
        oracle, partial, scanned, visited)
    for partial in partials:
        assert _extract_largest(oracle, variables, d, partial) == \
            per_call_extract(oracle, variables, d, partial)
    return visited


def test_detection_drops_rows_without_a_fixed_variable():
    """x0^2 + x1^3 squared holds the row x1^6, which lacks x0: once x0 is
    fixed at H_4 it adds nothing, so x1 must not fire at H_2."""
    target = poly(2, (vec(2, 0), 1), (vec(0, 3), 1))
    visited = check_scans(target, [Polynomial(2)], range(2), 3)
    assert (((0, 4),), 1, 2) in visited
    assert _extract_largest(ExactCorrelation(
        target, DIST, build_orthogonal_basis(DIST, 3)), range(2), 3,
        Polynomial(2)) == {0: 2, 1: 0}


def test_detection_weighs_rows_by_their_later_moments():
    """(x0 x1 - x0 x1^2)^2 = x0^2 (x1^2 - 2 x1^3 + x1^4): its rows cancel
    unless each is weighed by its moments over x1, a variable the scan
    visits after x0."""
    target = poly(2, (vec(1, 1), 1))
    partial = poly(2, (vec(1, 2), 1))
    visited = check_scans(target, [partial], range(2), 3)
    assert ((), 0, 2) in visited


def test_detection_scan_matches_corr_sq_on_random_targets():
    """Seeded random targets (N <= 5, d <= 3, t <= 3) and partials: empty,
    one true term, a wrong coefficient, a term outside the target and the
    full target; each scanned over all variables and over a row subset
    with partial terms on variables outside it."""
    rng = np.random.default_rng(52)
    pool = [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 3)]

    def monomial(n, d):
        g = np.zeros(n, dtype=np.int64)
        for _ in range(int(rng.integers(1, d + 1))):
            g[int(rng.integers(n))] += 1
        return g

    visited = 0
    for _ in range(60):
        n, d, t = (int(rng.integers(2, 6)), int(rng.integers(1, 4)),
                   int(rng.integers(1, 4)))
        target = Polynomial(n)
        for _ in range(8 * t):
            if target.sparsity() < t:
                target.add_term(monomial(n, d),
                                pool[int(rng.integers(len(pool)))])
        (key, coeff), *_ = sorted(target.terms.items())
        true_term = poly(n, (key_to_vector(key, n), coeff))
        wrong = poly(n, (key_to_vector(key, n), coeff + 1))
        outside = poly(n, (np.zeros(n, dtype=np.int64), Fraction(-1, 3)))
        for _ in range(8):
            g = monomial(n, d)
            if term_key(g) not in target.terms:
                outside = poly(n, (g, pool[int(rng.integers(len(pool)))]))
                break
        partials = [Polynomial(n), true_term, wrong, outside, target]
        visited += len(check_scans(target, partials, range(n), d))

        subset = sorted(int(i) for i in rng.choice(n, int(rng.integers(1, n)),
                                                   replace=False))
        off = [i for i in range(n) if i not in subset]
        beside = Polynomial(n)
        beside.add_term(key_to_vector(((off[0], 1),), n), Fraction(1, 2))
        for partial in partials[1:4]:
            for key, coeff in partial.terms.items():
                beside.add_term(key_to_vector(key, n), coeff)
        visited += len(check_scans(target, partials + [beside], subset, d))
    assert visited > 1000


def test_sampled_detection_scan_matches_the_per_call_loop():
    """The sampled oracle's scan asks corr_sq per test, as the loop did,
    and finds nothing once no residual clears the threshold."""
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(3, (vec(1, 1, 0), 2), (vec(2, 0, 1), -1))
    ds = sampled_ds(np.random.default_rng(49), target, 400, 3)
    oracle = SampledCorrelation(ds, basis)
    for partial in (Polynomial(3), poly(3, (vec(2, 0, 1), -1)), target):
        for variables in (range(3), [0, 2]):
            assert _extract_largest(oracle, variables, 2, partial) == \
                per_call_extract(oracle, variables, 2, partial)
    assert _extract_largest(oracle, range(3), 2, target) is None


# -- scratch learning -------------------------------------------------------


def test_scratch_empty_target():
    basis = build_orthogonal_basis(DIST, 2)
    oracle = ExactCorrelation(Polynomial(2), DIST, basis)
    assert learn_polynomial_scratch(oracle, 2, 2, 2) == Polynomial(2)


def test_scratch_single_term():
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(2, (vec(1, 1), 3))
    oracle = ExactCorrelation(target, DIST, basis)
    assert learn_polynomial_scratch(oracle, 2, 2, 2) == target


def test_scratch_two_terms_exact():
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(2, (vec(2, 0), 3), (vec(1, 1), -5))
    oracle = ExactCorrelation(target, DIST, basis)
    assert learn_polynomial_scratch(oracle, 2, 2, 2) == target


def test_scratch_early_stop_leaves_budget_unused():
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(2, (vec(0, 1), Fraction(1, 2)))
    oracle = ExactCorrelation(target, DIST, basis)
    assert learn_polynomial_scratch(oracle, 2, 2, 3) == target


def test_scratch_sparsity_violation():
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(2, (vec(1, 0), 1), (vec(0, 1), 1), (vec(1, 1), 1))
    oracle = ExactCorrelation(target, DIST, basis)
    with pytest.raises(ModelViolationError):
        learn_polynomial_scratch(oracle, 2, 2, 2)


def test_scratch_random_targets_exact():
    basis = build_orthogonal_basis(DIST, 3)
    rng = np.random.default_rng(40)
    pool = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 4)]
    for _ in range(20):
        n, t = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        target = Polynomial(n)
        for _ in range(t):
            g = np.zeros(n, dtype=np.int64)
            for _ in range(int(rng.integers(1, 4))):
                g[int(rng.integers(n))] += 1
            target.terms.pop(term_key(g), None)
            target.add_term(g, pool[int(rng.integers(len(pool)))])
        oracle = ExactCorrelation(target, DIST, basis)
        assert learn_polynomial_scratch(oracle, n, 3, t) == target


@pytest.mark.parametrize("value", [
    Fraction(-3, 7), Fraction(-1, 10 ** 30), Fraction(0), Fraction(0, 5),
    Fraction(1, 10 ** 30), Fraction(22, 7)])
def test_exact_positive_agrees_with_greater_than_zero(value):
    basis = build_orthogonal_basis(DIST, 1)
    oracle = ExactCorrelation(Polynomial(1), DIST, basis)
    assert oracle.positive(value) is (value > 0)


def test_exact_positive_on_oracle_results():
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(2, (vec(1, 1), 2), (vec(2, 0), -1))
    oracle = ExactCorrelation(target, DIST, basis)
    seen = set()
    for lhs in ({}, {0: 2}, {1: 2}, {0: 4}, {0: 2, 1: 2}, {0: 1}, {1: 3}):
        for partial in (Polynomial(2), poly(2, (vec(2, 0), -1)), target):
            for value in (oracle.corr_sq(lhs, partial),
                          oracle.corr_lin(lhs, partial)):
                assert oracle.positive(value) is (value > 0)
                seen.add((value > 0) - (value < 0))
    assert seen == {-1, 0, 1}


# -- sampled oracle ---------------------------------------------------------


def sampled_ds(rng, target, n_examples, n_features):
    idx = rng.integers(0, DIST.m_grid + 1, (n_examples, n_features))
    values = [[DIST.value(int(idx[e, i])) for i in range(n_features)]
              for e in range(n_examples)]
    labels = [target.evaluate(row) for row in values]
    return CostlyDataset.from_rational(values, labels)


def test_sampled_oracle_tracks_exact():
    basis = build_orthogonal_basis(DIST, 2)
    rng = np.random.default_rng(41)
    target = poly(2, (vec(1, 1), 2), (vec(2, 0), -1))
    exact = ExactCorrelation(target, DIST, basis)
    ds = sampled_ds(rng, target, 4000, 2)
    sampled = SampledCorrelation(ds, basis)
    for lhs in ({}, {0: 2}, {0: 1, 1: 1}):
        for partial in (Polynomial(2), poly(2, (vec(1, 1), 2))):
            e = float(exact.corr_sq(lhs, partial))
            s = sampled.corr_sq(lhs, partial)
            assert abs(e - s) < 0.05 * max(1.0, abs(e))
            e = float(exact.corr_lin(lhs, partial))
            s = sampled.corr_lin(lhs, partial)
            assert abs(e - s) < 0.05 * max(1.0, abs(e))


def test_sampled_positivity_threshold_and_floor():
    basis = build_orthogonal_basis(DIST, 1)
    ds = sampled_ds(np.random.default_rng(42), Polynomial(1), 10, 1)
    oracle = SampledCorrelation(ds, basis, tau=1e-6)
    assert oracle.positive(1e-5)
    assert not oracle.positive(5e-7)
    assert not oracle.positive(-1.0)
    # residual is identically zero: coefficient snaps to 0 via the floor
    assert oracle.coefficient(vec(1), Polynomial(1)) == 0


def test_sampled_lhs_values_match_cellwise_reference():
    basis = build_orthogonal_basis(DIST, 2)
    ds = sampled_ds(np.random.default_rng(46), Polynomial(2), 50, 2)
    lhs = {0: 3, 1: 4}
    want = np.ones(50)
    for var, k in lhs.items():
        coeffs = [float(c) for c in basis.coeffs[k]]
        want *= [sum(c * float(ds.peek(e, var)) ** p
                     for p, c in enumerate(coeffs)) for e in range(50)]
    got = SampledCorrelation(ds, basis)._lhs_values(lhs)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_sampled_residual_values_match_cellwise_reference():
    """One block read per new partial leaves the ledger and the residual
    vector that probing each touched cell would."""
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(4, (vec(1, 1, 0, 0), 2), (vec(0, 2, 0, 1), Fraction(-1, 3)))
    ds = sampled_ds(np.random.default_rng(48), target, 30, 4)
    ref = CostlyDataset.from_rational(ds.peek_all(), ds.labels)
    oracle = SampledCorrelation(ds, basis)
    for partial in (Polynomial(4), poly(4, (vec(1, 1, 0, 0), 2)),
                    poly(4, (vec(0, 2, 0, 1), 1), (vec(0, 0, 0, 0), 3))):
        got = oracle._residual_values(partial)
        touched = {i for term in partial.terms for i, _ in term}
        want = np.zeros(ref.n_examples)
        for e in range(ref.n_examples):
            row = {i: ref.probe(e, i) for i in touched}
            want[e] = float(Fraction(ref.label(e)) - partial.evaluate(row))
        assert np.array_equal(got, want)
        assert (ds.ledger.mask() == ref.ledger.mask()).all()


@pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
def test_corr_sq_follows_partial_updates(sampled):
    """The cached squared residual is keyed by the partial's current terms."""
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(2, (vec(1, 1), 2), (vec(2, 0), -1))
    ds = sampled_ds(np.random.default_rng(47), target, 200, 2)

    def oracle():
        if sampled:
            return SampledCorrelation(ds, basis)
        return ExactCorrelation(target, DIST, basis)

    cached = oracle()
    partial = Polynomial(2)
    before = cached.corr_sq({0: 2}, partial)
    partial.add_term(vec(2, 0), -1)
    after = cached.corr_sq({0: 2}, partial)
    assert after == oracle().corr_sq({0: 2}, partial)
    assert after != before
    assert cached.corr_sq({0: 2}, Polynomial(2)) == before


# -- LFD --------------------------------------------------------------------


def test_lfd_in_span_exact_with_probe_cap():
    basis = build_orthogonal_basis(DIST, 4)  # detection squares: degree 2d
    rng = np.random.default_rng(43)
    rep = RepresentationMatrix(3)
    rep.insert(vec(1, 1, 0))
    rep.insert(vec(0, 0, 1))
    target = poly(3, (vec(1, 1, 0), 3), (vec(1, 1, 2), Fraction(1, 2)))
    oracle = ExactCorrelation(target, DIST, basis)
    ds = sampled_ds(rng, target, 5, 3)
    result = lfd_polynomial(ds, rep, oracle, d=4, t=2)
    assert result.learned
    assert result.hypothesis == target
    assert ds.ledger.per_example_max() <= rep.k + 2 * 4  # k + t*d


def test_lfd_probes_rows_and_lift_supports_as_whole_columns():
    """The mask after each attempt equals the per-column reference: every
    row of I and every feature of each learned monomial, on all examples."""
    sp = StreamSpec(family="polynomial", n_features=8, k=3, d=3, t=3, m=12,
                    sample_size=6, seed=5).validate()
    tasks, _ = gen_poly_stream(sp)
    basis = build_orthogonal_basis(DIST, sp.d)
    rep = RepresentationMatrix(sp.n_features)
    learned = 0
    for task in tasks:
        oracle = ExactCorrelation(task.target, DIST, basis)
        result = lfd_polynomial(task.ds, rep, oracle, sp.d, sp.t)
        if result.learned:
            learned += 1
            ref = CostlyDataset.from_rational(task.ds.peek_all(),
                                              task.ds.labels)
            for i in rep.rows():
                ref.probe_column(i)
            for g in result.hypothesis.monomials():
                for i in support(g):
                    ref.probe_column(i)
            assert (task.ds.ledger.mask() == ref.ledger.mask()).all()
        improve_rep_polynomial(rep, task.target)
    assert learned >= 6


def test_lfd_meters_its_row_set_and_lift_supports_in_one_read_each():
    """On a seeded stream, each exact attempt meters its row set on every
    example in one read, then each lifted monomial's support in one read,
    and verifies on the last example only; a learned attempt meters
    exactly these."""
    sp = StreamSpec(family="polynomial", n_features=8, k=3, d=3, t=3, m=12,
                    sample_size=6, seed=5).validate()
    tasks, _ = gen_poly_stream(sp)
    basis = build_orthogonal_basis(DIST, sp.d)
    rep = RepresentationMatrix(sp.n_features)
    learned = 0
    for task in tasks:
        ds = task.ds
        last = 1 << (ds.n_examples - 1)
        reads, samples = [], []
        meter = ds.meter

        def spy(features, rows=None):
            (reads if rows is None else samples).append(list(features))
            assert rows in (None, last)
            meter(features, rows)

        ds.meter = spy
        oracle = ExactCorrelation(task.target, DIST, basis)
        result = lfd_polynomial(ds, rep, oracle, sp.d, sp.t)
        if not rep.k:
            assert reads == samples == []
        elif result.learned:
            keys = list(result.hypothesis.terms)  # in order of detection
            assert reads == [rep.rows()] + [[i for i, _ in key]
                                            for key in keys]
            assert samples == [sorted({i for key in keys for i, _ in key})]
            learned += 1
        else:
            assert reads[0] == rep.rows() and len(samples) <= 1
        improve_rep_polynomial(rep, task.target)
    assert learned >= 6


def test_lfd_empty_rep():
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(2, (vec(1, 0), 1))
    ds = sampled_ds(np.random.default_rng(44), target, 3, 2)
    result = lfd_polynomial(ds, RepresentationMatrix(2),
                            ExactCorrelation(target, DIST, basis), 2, 1)
    assert not result.learned
    assert result.reason == "empty-representation"


def test_lfd_off_span_fails_verification():
    basis = build_orthogonal_basis(DIST, 2)
    rep = RepresentationMatrix(2)
    rep.insert(vec(1, 0))
    target = poly(2, (vec(1, 1), 2))
    ds = sampled_ds(np.random.default_rng(45), target, 4, 2)
    # restricted search finds 3*x0; that only matches the label when x1 = 3/2
    assert ds.peek(3, 1) != Fraction(3, 2)
    result = lfd_polynomial(ds, rep, ExactCorrelation(target, DIST, basis), 2, 1)
    assert not result.learned
    assert result.reason == "verification"


def test_lfd_non_natural_lift():
    # rep holds x0^2*x1; lifting the restricted pattern x0^1 gives x1^(1/2)
    basis = build_orthogonal_basis(DIST, 2)
    rep = RepresentationMatrix(2)
    rep.insert(vec(2, 1))
    target = poly(2, (vec(1, 0), 1))
    ds = sampled_ds(np.random.default_rng(46), target, 4, 2)
    result = lfd_polynomial(ds, rep, ExactCorrelation(target, DIST, basis), 2, 1)
    assert not result.learned
    assert result.reason == "non-natural-combination"


# -- improvement -----------------------------------------------------------


def test_improve_rep_adds_only_off_span_monomials():
    rep = RepresentationMatrix(3)
    assert improve_rep_polynomial(rep, poly(3, (vec(1, 0, 0), 1),
                                            (vec(0, 1, 0), 2))) == 2
    assert rep.k == 2
    assert improve_rep_polynomial(rep, poly(3, (vec(1, 1, 0), 5))) == 0
    # two monomials spanning one new direction add exactly one column
    assert improve_rep_polynomial(rep, poly(3, (vec(0, 0, 1), 1),
                                            (vec(0, 0, 2), 1))) == 1
    assert rep.k == 3

