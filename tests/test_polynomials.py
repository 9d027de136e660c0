"""Sparse polynomials: orthogonal bases, correlation oracles, extraction."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from probelearn import (CostlyDataset, ExactCorrelation, ModelViolationError,
                        OrthogonalBasis, Polynomial, ProductDistribution,
                        RepresentationMatrix, SampledCorrelation, UsageError,
                        build_orthogonal_basis, improve_rep_polynomial,
                        learn_polynomial_scratch, lfd_polynomial,
                        naive_lfd_seen_polynomial)
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


def test_polynomial_accessors():
    p = poly(3, (vec(2, 0, 0), 3), (vec(1, 1, 0), Fraction(-5, 2)))
    assert p.sparsity() == 2
    assert p.total_degree() == 2
    assert p.coefficient(vec(2, 0, 0)) == 3
    assert p.coefficient(vec(0, 0, 1)) == 0
    row = [Fraction(3, 2), Fraction(2), Fraction(1)]
    assert p.evaluate(row) == 3 * Fraction(9, 4) - Fraction(5, 2) * 3


def test_polynomial_json_round_trip():
    p = poly(3, (vec(2, 0, 0), 3), (vec(1, 1, 0), Fraction(-5, 2)))
    assert Polynomial.from_json(p.to_json()) == p
    assert Polynomial.from_json(Polynomial(3).to_json()) == Polynomial(3)


# -- orthogonal basis -------------------------------------------------------


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


def test_detection_fires_at_the_top_power():
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(2, (vec(2, 0), 1))
    oracle = ExactCorrelation(target, DIST, basis)
    empty = Polynomial(2)
    assert oracle.corr_sq({0: 4}, empty) > 0       # d' = 2 fires
    assert oracle.corr_sq({1: 2}, empty) == 0      # x1 carries nothing
    assert _extract_largest(oracle, range(2), 2, empty) == {0: 2, 1: 0}


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
    oracle = SampledCorrelation(ds, basis, tau=1e-6, coeff_floor=1e-3)
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
    assert result.polynomial == target
    assert ds.ledger.per_example_max() <= rep.k + 2 * 4  # k + t*d


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


# -- improvement and baseline -----------------------------------------------


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


def test_naive_seen_polynomial():
    basis = build_orthogonal_basis(DIST, 2)
    target = poly(3, (vec(1, 1, 0), 2))
    oracle = ExactCorrelation(target, DIST, basis)
    ds = sampled_ds(np.random.default_rng(47), target, 4, 3)
    result = naive_lfd_seen_polynomial(ds, oracle, {0, 1}, 2, 1)
    assert result.learned and result.polynomial == target

    ds2 = sampled_ds(np.random.default_rng(48), target, 4, 3)
    assert ds2.peek(3, 1) != Fraction(3, 2)
    result2 = naive_lfd_seen_polynomial(ds2, oracle, {0}, 2, 1)
    assert not result2.learned
