"""Monomial learning: log-correlation estimates, exact rational LFD."""

from fractions import Fraction
from math import fsum, log

import numpy as np
import pytest

from probelearn import (CostlyDataset, InternalError, OracleMisuseError,
                        ProductDistribution, RealizabilityError,
                        RepresentationMatrix, SampledConfig, StreamSpec,
                        UsageError, VarianceUnderflowError, degree,
                        estimate_power, eval_monomial, gen_monomial_stream,
                        improve_rep_monomial, learn_monomial_scratch,
                        lfd_monomial, sample_size_bound, support)
from probelearn.monomials import _verify, monomial_to_json_obj, term_key

SAMPLED_CONSTANT = 2e-4  # calibrated: zero empirical rounding errors at d<=2


def vec(*entries):
    return np.array(entries, dtype=np.int64)


def grid_ds(rng, dist, g, n_examples, n_features):
    idx = rng.integers(0, dist.m_grid + 1, (n_examples, n_features))
    values = [[dist.value(int(idx[e, i])) for i in range(n_features)]
              for e in range(n_examples)]
    labels = [eval_monomial(g, row) for row in values]
    return CostlyDataset.from_rational(values, labels)


# -- exponent vectors -------------------------------------------------------


def test_degree_support_eval():
    g = vec(2, 0, 1)
    assert degree(g) == 3
    assert support(g) == [0, 2]
    row = [Fraction(3, 2), Fraction(2), Fraction(5, 4)]
    assert eval_monomial(g, row) == Fraction(9, 4) * Fraction(5, 4)
    assert eval_monomial(vec(0, 0, 0), row) == 1


def test_monomial_json():
    g = vec(2, 0, 1)
    obj = monomial_to_json_obj(g)
    assert obj == {"0": 2, "2": 1}


# -- estimation -------------------------------------------------------------


def test_population_identity_on_full_tiny_grid():
    # Brute-force oracle for the estimator: over the complete M=4 grid in two
    # variables, mean(Q_g * (ln x_0 - mean)) / var(ln x_0) must equal g_0.
    m = 4
    pts = [1 + j / m for j in range(m + 1)]
    grid = [(a, b) for a in pts for b in pts]
    logs0 = [log(a) for a, _ in grid]
    mean0 = fsum(logs0) / len(grid)
    var0 = fsum((l - mean0) ** 2 for l in logs0) / len(grid)
    for g in (vec(2, 1), vec(0, 3), vec(1, 0)):
        q = [g[0] * log(a) + g[1] * log(b) for a, b in grid]
        num = fsum(qi * (l - mean0) for qi, l in zip(q, logs0)) / len(grid)
        assert abs(num / var0 - g[0]) < 1e-9


def test_estimate_exact_mode():
    rng = np.random.default_rng(20)
    dist = ProductDistribution()
    g = vec(2, 1, 0)
    ds = grid_ds(rng, dist, g, 3, 3)
    assert estimate_power(ds, 0, dist, "exact", 3, target=g) == 2
    assert estimate_power(ds, 2, dist, "exact", 3, target=g) == 0
    # exact mode still pays for the column it reads
    assert ds.ledger.total_probes == 2 * ds.n_examples


def test_estimate_mode_errors():
    rng = np.random.default_rng(21)
    dist = ProductDistribution()
    ds = grid_ds(rng, dist, vec(1, 0), 2, 2)
    with pytest.raises(OracleMisuseError):
        estimate_power(ds, 0, dist, "exact", 2)
    with pytest.raises(UsageError):
        estimate_power(ds, 0, dist, "approximate", 2)


def test_estimate_sampled_recovers_exponents():
    dist = ProductDistribution()
    cfg = SampledConfig(constant=SAMPLED_CONSTANT, delta=0.1, n_tasks=1)
    need = sample_size_bound(2, dist.log_var(), 2, 1, 0.1, SAMPLED_CONSTANT)
    for seed, g in ((0, vec(2, 0)), (1, vec(1, 1)), (2, vec(0, 2))):
        rng = np.random.default_rng(seed)
        ds = grid_ds(rng, dist, g, need, 2)
        for i in range(2):
            got = estimate_power(ds, i, dist, "sampled", 2, sampled=cfg)
            assert got == g[i]


def test_estimate_sampled_needs_enough_examples():
    rng = np.random.default_rng(22)
    dist = ProductDistribution()
    ds = grid_ds(rng, dist, vec(1, 0), 10, 2)
    with pytest.raises(UsageError):
        estimate_power(ds, 0, dist, "sampled", 2,
                       sampled=SampledConfig(constant=SAMPLED_CONSTANT))


def test_variance_underflow():
    dist = ProductDistribution()
    need = sample_size_bound(2, dist.log_var(), 1, 1, 0.1, SAMPLED_CONSTANT)
    values = [[Fraction(3, 2)] for _ in range(need)]
    labels = [Fraction(3, 2) for _ in range(need)]
    ds = CostlyDataset.from_rational(values, labels)
    with pytest.raises(VarianceUnderflowError):
        estimate_power(ds, 0, dist, "sampled", 2,
                       sampled=SampledConfig(constant=SAMPLED_CONSTANT))


def test_sample_size_bound_frozen_and_monotone():
    dist = ProductDistribution()
    c = dist.log_var()
    assert sample_size_bound(2, c, 2, 1, 0.1, SAMPLED_CONSTANT) == 2053
    assert (sample_size_bound(3, c, 2, 1, 0.1, SAMPLED_CONSTANT)
            > sample_size_bound(2, c, 2, 1, 0.1, SAMPLED_CONSTANT))
    assert (sample_size_bound(2, c, 2, 1, 0.01, SAMPLED_CONSTANT)
            > sample_size_bound(2, c, 2, 1, 0.1, SAMPLED_CONSTANT))


# -- scratch ----------------------------------------------------------------


def test_scratch_zero_monomial():
    rng = np.random.default_rng(23)
    dist = ProductDistribution()
    g = vec(0, 0, 0)
    ds = grid_ds(rng, dist, g, 4, 3)
    out = learn_monomial_scratch(ds, dist, 3, "exact", target=g)
    assert (out == g).all()
    assert ds.ledger.total_probes == 4 * 3


def test_scratch_single_feature():
    rng = np.random.default_rng(24)
    dist = ProductDistribution()
    g = vec(0, 1, 0, 0)
    ds = grid_ds(rng, dist, g, 3, 4)
    out = learn_monomial_scratch(ds, dist, 2, "exact", target=g)
    assert (out == g).all()


def test_scratch_rejects_over_degree():
    rng = np.random.default_rng(25)
    dist = ProductDistribution()
    g = vec(4, 0)
    ds = grid_ds(rng, dist, g, 3, 2)
    with pytest.raises(RealizabilityError):
        learn_monomial_scratch(ds, dist, 3, "exact", target=g)


# -- representation matrix --------------------------------------------------


def test_rep_rows_single_column():
    rep = RepresentationMatrix(5)
    rep.insert(vec(0, 0, 0, 1, 0))
    assert rep.rows() == [3]


def test_rep_rows_lowest_index():
    rep = RepresentationMatrix(3)
    rep.insert(vec(1, 1, 0))
    rep.insert(vec(0, 1, 1))
    assert rep.rows() == [0, 1]


def test_rep_solve_and_combine():
    rep = RepresentationMatrix(3)
    rep.insert(vec(1, 1, 0))
    rep.insert(vec(0, 1, 1))
    g = vec(1, 3, 2)  # f1 + 2 f2
    w = rep.solve([g[r] for r in rep.rows()])
    assert w == [Fraction(1), Fraction(2)]
    assert rep.combine(w) == [Fraction(1), Fraction(3), Fraction(2)]
    assert rep.contains(g)
    assert not rep.contains(vec(0, 0, 5))


def test_rep_lift():
    rep = RepresentationMatrix(3)
    rep.insert(vec(2, 1, 0))
    rep.insert(vec(0, 1, 1))
    assert rep.rows() == [0, 1]
    # natural: f1 + 2 f2, degree 7; numpy ints on the row set are accepted
    g, reason = rep.lift([np.int64(2), np.int64(3)], 7)
    assert reason is None
    assert g.dtype == np.int64 and g.tolist() == [2, 3, 2]
    # non-natural: w = (1/2, 1/2) lifts to (1, 1, 1/2)
    assert rep.lift([1, 1], 7) == (None, "non-natural-combination")
    # negative: w = (1, -1) lifts to (2, 0, -1)
    assert rep.lift([2, 0], 7) == (None, "non-natural-combination")
    # over degree: the natural lift (2, 3, 2) has degree 7 > 6
    assert rep.lift([2, 3], 6) == (None, "degree")


def reference_lift(rep, g_restricted, d):
    """`lift` recomputed through the exact-Fraction solve and combine."""
    full = rep.combine(rep.solve(g_restricted))
    if any(v.denominator != 1 or v < 0 for v in full):
        return None, "non-natural-combination"
    g = [int(v) for v in full]
    return (g, None) if sum(g) <= d else (None, "degree")


def reference_contains(rep, g):
    full = rep.combine(rep.solve([g[r] for r in rep.rows()]))
    return all(full[r] == int(g[r]) for r in range(rep.n_features))


def random_rep(rng, n_features, k):
    """A rank-k representation whose columns have entries 0..3, so that the
    inverse of F[I] usually has denominators > 1."""
    rep = RepresentationMatrix(n_features)
    while rep.k < k:
        col = np.zeros(n_features, dtype=np.int64)
        size = int(rng.integers(1, min(3, n_features) + 1))
        rows = rng.choice(n_features, size=size, replace=False)
        col[rows] = rng.integers(1, 4, size=len(rows))
        if not rep.contains(col):
            rep.insert(col)
    return rep


def test_rep_integer_lift_and_contains_match_fraction_reference():
    rng = np.random.default_rng(50)
    seen = {"natural": 0, "degree": 0, "fractional": 0, "negative": 0,
            "in-span": 0, "off-span": 0}
    den_above_one = 0
    for _ in range(40):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(k, 33))
        rep = random_rep(rng, n, k)
        idx = rep.rows()
        units = [[int(r == c) for c in range(k)] for r in range(k)]
        den_above_one += max(v.denominator for u in units
                             for v in rep.solve(u)) > 1
        for _ in range(8):
            w = rng.integers(-1, 3, size=k)
            g = sum(int(wj) * col for wj, col in zip(w, rep.columns))
            probes = [
                [g[r] for r in idx],                          # numpy ints
                [int(v) for v in rng.integers(-2, 7, size=k)],  # usually fractional
            ]
            for g_restricted in probes:
                for d in (int(np.abs(g).sum()), int(np.abs(g).sum()) - 1):
                    want = reference_lift(rep, g_restricted, d)
                    got, reason = rep.lift(g_restricted, d)
                    assert (None if got is None else got.tolist(), reason) == want
                    if reason is None:
                        seen["natural"] += 1
                    elif reason == "degree":
                        seen["degree"] += 1
                    elif any(v.denominator != 1 for v in rep.solve(g_restricted)):
                        seen["fractional"] += 1
                    else:
                        seen["negative"] += 1
            bumped = g.copy()
            bumped[int(rng.integers(n))] += 1
            for cand in (g, bumped, rng.integers(0, 3, size=n)):
                want = reference_contains(rep, cand)
                assert rep.contains(cand) == want
                seen["in-span" if want else "off-span"] += 1
    assert den_above_one >= 20
    assert min(seen.values()) >= 20, seen


def test_rep_lift_is_memoized_until_the_next_insert():
    """Across a sequence of inserts, every lift matches `reference_lift` on
    the representation of the moment; a pattern asked again before the
    next insert is served from the memo, and after an insert every pattern
    is worked out anew."""
    rng = np.random.default_rng(53)
    hits = misses = 0
    for _ in range(12):
        n = int(rng.integers(2, 10))
        rep = RepresentationMatrix(n)
        computed = []
        scaled_lift = rep._scaled_lift
        rep._scaled_lift = lambda g: computed.append(g) or scaled_lift(g)
        while rep.k < min(n, 5):
            col = rng.integers(0, 3, size=n)
            if rep.contains(col):
                continue
            rep.insert(col)
            asked = set()
            w = rng.integers(-1, 3, size=rep.k)
            g = sum(int(wj) * c for wj, c in zip(w, rep.columns))
            patterns = [[int(g[r]) for r in rep.rows()],
                        [int(v) for v in rng.integers(-2, 7, size=rep.k)]]
            for _ in range(3):
                for g_restricted in patterns:
                    for d in (int(np.abs(g).sum()), int(np.abs(g).sum()) - 1):
                        key = (tuple(g_restricted), d)
                        before = len(computed)
                        got, reason = rep.lift(g_restricted, d)
                        assert (None if got is None else got.tolist(),
                                reason) == reference_lift(rep, g_restricted, d)
                        assert len(computed) - before == (key not in asked)
                        hits += key in asked
                        misses += key not in asked
                        asked.add(key)
    assert hits >= 100 and misses >= 50


def test_rep_lift_returns_a_fresh_array_each_call():
    rep = RepresentationMatrix(3)
    rep.insert(vec(2, 1, 0))
    rep.insert(vec(0, 1, 1))
    g, _ = rep.lift([2, 3], 7)
    g[:] = 9
    again, reason = rep.lift([2, 3], 7)
    assert reason is None and again.tolist() == [2, 3, 2]
    assert again is not g


def test_rep_wrong_length_vectors_are_usage_errors():
    """Patterns and weights have k entries and columns N, at every entry
    point; a wrong length is a UsageError, and no lift verdict is kept."""
    rep = RepresentationMatrix(3)
    rep.insert(vec(2, 1, 0))
    rep.insert(vec(0, 1, 1))
    calls = [lambda: rep.lift([2, 3, 5], 7), lambda: rep.lift([2], 7),
             lambda: rep.solve([2]), lambda: rep.solve([2, 3, 5]),
             lambda: rep.contains([2, 1]), lambda: rep.contains([2, 1, 0, 9]),
             lambda: rep.combine([1]), lambda: rep.combine([1, 2, 3]),
             lambda: rep.insert([1, 0])]
    for call in calls:
        with pytest.raises(UsageError, match="length"):
            call()
    assert rep._lifts == {} and rep.k == 2
    empty = RepresentationMatrix(3)
    for g in ([0, 0], [0, 0, 0, 0]):
        with pytest.raises(UsageError, match="length"):
            empty.contains(g)


def test_rep_contains_on_empty():
    rep = RepresentationMatrix(3)
    assert rep.contains(vec(0, 0, 0))
    assert not rep.contains(vec(1, 0, 0))


def test_rep_insert_guards():
    rep = RepresentationMatrix(3)
    rep.insert(vec(1, 0, 0))
    with pytest.raises(InternalError):
        rep.insert(vec(2, 0, 0))  # already spanned
    with pytest.raises(UsageError):
        rep.insert(vec(1, 0))


# -- LFD --------------------------------------------------------------------


def test_lfd_single_metafeature():
    rng = np.random.default_rng(26)
    dist = ProductDistribution()
    g = vec(1, 2, 0)
    rep = RepresentationMatrix(3)
    rep.insert(g)
    ds = grid_ds(rng, dist, g, 4, 3)
    result = lfd_monomial(ds, rep, dist, 3, "exact", target=g)
    assert result.learned
    assert (result.hypothesis == g).all()
    assert ds.ledger.per_example_max() <= rep.k + 3


def test_lfd_combination():
    rng = np.random.default_rng(27)
    dist = ProductDistribution()
    rep = RepresentationMatrix(3)
    rep.insert(vec(1, 1, 0))
    rep.insert(vec(0, 0, 1))
    g = vec(1, 1, 2)  # f1 + 2 f2
    ds = grid_ds(rng, dist, g, 4, 3)
    result = lfd_monomial(ds, rep, dist, 4, "exact", target=g)
    assert result.learned
    assert (result.hypothesis == g).all()


def test_lfd_empty_rep():
    rng = np.random.default_rng(28)
    dist = ProductDistribution()
    ds = grid_ds(rng, dist, vec(1, 0), 3, 2)
    result = lfd_monomial(ds, RepresentationMatrix(2), dist, 2, "exact",
                          target=vec(1, 0))
    assert not result.learned
    assert result.reason == "empty-representation"


def test_lfd_verification_catches_off_span_target():
    rng = np.random.default_rng(29)
    dist = ProductDistribution()
    rep = RepresentationMatrix(3)
    rep.insert(vec(1, 0, 0))
    g = vec(1, 1, 0)  # off the span, but g[I] is solvable
    ds = grid_ds(rng, dist, g, 4, 3)
    assert ds.peek(3, 1) != 1  # generic verification sample
    result = lfd_monomial(ds, rep, dist, 3, "exact", target=g)
    assert not result.learned
    assert result.reason == "verification"


def test_verify_rejects_an_off_span_hypothesis():
    """`_verify` meters only the last example's cells on the hypothesis's
    features and compares the exact integer evaluation with the label."""
    rng = np.random.default_rng(31)
    dist = ProductDistribution()
    g = vec(1, 1, 0)
    ds = grid_ds(rng, dist, g, 4, 3)
    assert ds.peek(3, 1) != 1  # x1 = 1 would make x0 pass for g
    result = _verify(ds, vec(1, 0, 0), {((0, 1),): 1})
    assert not result.learned
    assert result.reason == "verification"
    assert ds.ledger.mask().tolist() == [[False] * 3] * 3 + [[True, False, False]]
    result = _verify(ds, g, {term_key(g): 1})
    assert result.learned and result.hypothesis is g
    assert ds.ledger.total_probes == 2
    # the terms' coefficients count: 2 * x0 * x1 is off by a factor of 2
    assert _verify(ds, g, {term_key(g): 2}).reason == "verification"


def test_lfd_rejects_non_natural_lift():
    rng = np.random.default_rng(30)
    dist = ProductDistribution()
    rep = RepresentationMatrix(3)
    rep.insert(vec(2, 1, 0))
    g = vec(1, 0, 0)
    ds = grid_ds(rng, dist, g, 4, 3)
    result = lfd_monomial(ds, rep, dist, 3, "exact", target=g)
    assert not result.learned
    assert result.reason == "non-natural-combination"


def test_lfd_rejects_negative_lift():
    rng = np.random.default_rng(31)
    dist = ProductDistribution()
    rep = RepresentationMatrix(3)
    rep.insert(vec(1, 0, 1))
    rep.insert(vec(1, 1, 0))
    g = vec(0, 1, 0)  # solves to w = (-1, 1), lifting to (0, 1, -1)
    ds = grid_ds(rng, dist, g, 4, 3)
    result = lfd_monomial(ds, rep, dist, 3, "exact", target=g)
    assert not result.learned
    assert result.reason == "non-natural-combination"


def test_lfd_rejects_over_degree_lift():
    rng = np.random.default_rng(32)
    dist = ProductDistribution()
    rep = RepresentationMatrix(2)
    rep.insert(vec(2, 0))
    g = vec(4, 0)
    ds = grid_ds(rng, dist, g, 4, 2)
    result = lfd_monomial(ds, rep, dist, 3, "exact", target=g)
    assert not result.learned
    assert result.reason == "degree"


def test_lfd_reads_its_row_set_in_one_block():
    """On a seeded stream, each exact attempt makes one metered read on
    every example, of its row set, and leaves the ledger the per-column
    reference leaves: every row of I on all examples, plus the verified
    lift's support on the last example."""
    spec = StreamSpec(family="monomial", n_features=10, k=4, d=4, m=30,
                      sample_size=6, seed=3).validate()
    tasks, _ = gen_monomial_stream(spec)
    dist = ProductDistribution()
    rep = RepresentationMatrix(spec.n_features)
    outcomes = set()
    for task in tasks:
        ds = task.ds
        ref = CostlyDataset.from_rational(ds.peek_all(), ds.labels)
        reads = []
        meter = ds.meter

        def spy(features, rows=None):
            if rows is None:  # a read on every example
                reads.append(list(features))
            meter(features, rows)

        ds.meter = spy
        result = lfd_monomial(ds, rep, dist, spec.d, "exact", target=task.target)
        outcomes.add(result.reason)
        if rep.k:
            idx = rep.rows()
            assert reads == [idx]
            for i in idx:
                ref.probe_column(i)
            g, _ = rep.lift([task.target[i] for i in idx], spec.d)
            if g is not None:
                for i in support(g):
                    ref.probe(ds.n_examples - 1, i)
        assert ds.ledger.total_probes == ref.ledger.total_probes
        assert (ds.ledger.per_example_probes()
                == ref.ledger.per_example_probes()).all()
        if not result.learned:
            improve_rep_monomial(rep, task.target)
    assert {None, "empty-representation", "verification"} <= outcomes


# -- improvement -----------------------------------------------------------


def test_improve_rep_counts():
    rep = RepresentationMatrix(3)
    assert improve_rep_monomial(rep, vec(1, 0, 0)) == 1
    assert improve_rep_monomial(rep, vec(0, 1, 0)) == 1
    assert rep.k == 2
    # spanned targets are skipped (spurious sampled-mode failures)
    assert improve_rep_monomial(rep, vec(2, 3, 0)) == 0
    assert rep.k == 2

