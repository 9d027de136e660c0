"""Probe metering: memoized cells, free labels, ledger accounting."""

import math
from fractions import Fraction

import numpy as np
import pytest

from probelearn import CostlyDataset, UsageError
from probelearn.dataset import column_bits, pack_columns


def small_bool(n_examples=2, n_features=3):
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2, (n_examples, n_features))
    labels = rng.integers(0, 2, n_examples).astype(bool)
    return CostlyDataset.from_bool(values, labels)


def test_probe_returns_value_and_meters_once():
    ds = small_bool()
    v1 = ds.probe(0, 0)
    v2 = ds.probe(0, 0)
    assert v1 == v2
    assert ds.ledger.total_probes == 1


def test_probe_counts_per_example():
    ds = small_bool()
    ds.probe(0, 0)
    ds.probe(0, 1)
    assert ds.ledger.total_probes == 2
    assert ds.ledger.per_example_probes()[0] == 2
    assert ds.ledger.per_example_probes()[1] == 0
    assert ds.ledger.per_example_max() == 2


def test_probe_every_cell():
    ds = small_bool(3, 5)
    for e in range(3):
        for i in range(5):
            ds.probe(e, i)
    assert ds.ledger.total_probes == 15


def test_probe_all_totals_and_idempotence():
    ds = small_bool(2, 3)
    ds.probe_all()
    assert ds.ledger.total_probes == 6
    ds.probe_all()
    assert ds.ledger.total_probes == 6

    ds = small_bool(2, 3)
    for i in range(2):
        ds.probe(0, i)
        ds.probe(1, i)
    ds.probe_all()
    assert ds.ledger.total_probes == 6


def test_probe_rows_meters_fresh_cells_only():
    ds = small_bool(4, 3)
    ds.probe_rows(np.array([0, 2]), 1)
    assert ds.ledger.total_probes == 2
    ds.probe_rows(np.array([0, 1, 2]), 1)
    assert ds.ledger.total_probes == 3
    ds.probe_column(0)
    assert ds.ledger.total_probes == 7


def small_rational(n_examples, n_features):
    rng = np.random.default_rng(8)
    values = [[Fraction(int(n), int(d)) for n, d in zip(row_n, row_d)]
              for row_n, row_d in zip(rng.integers(1, 9, (n_examples, n_features)),
                                      rng.integers(1, 5, (n_examples, n_features)))]
    return CostlyDataset.from_rational(values, [Fraction(1)] * n_examples)


def test_probe_block_matches_per_column_probe_rows():
    # reference: one metered probe(e, f) per cell, on bool and rational data
    rows, features = np.array([3, 0, 2]), [4, 1, 2]
    for make in (small_bool, small_rational):
        block_ds, column_ds, cell_ds = make(5, 6), make(5, 6), make(5, 6)
        for ds in (block_ds, column_ds, cell_ds):
            ds.probe(0, 1)
        block = block_ds.probe_block(rows, features)
        assert block.shape == (3, 3)
        for j, feature in enumerate(features):
            cells = [float(cell_ds.probe(int(e), feature)) for e in rows]
            assert block[:, j].tolist() == cells
            assert column_ds.probe_rows(rows, feature).tolist() == cells
        assert (block_ds.ledger.mask() == cell_ds.ledger.mask()).all()
        assert (column_ds.ledger.mask() == cell_ds.ledger.mask()).all()
        assert block_ds.ledger.total_probes == 9  # (0, 1) was already read


@pytest.mark.parametrize("features", [[0, 3], [-1], [1, 2, 7]])
def test_probe_block_out_of_range_feature(features):
    ds = small_bool(2, 3)
    with pytest.raises(UsageError):
        ds.probe_block(np.array([0, 1]), features)
    assert ds.ledger.total_probes == 0


@pytest.mark.parametrize("features, offender", [
    ([1, 5, -1], 5), ([0, -2, 9], -2), (np.array([2, 0, 4]), 4)])
def test_probe_block_names_first_offending_feature(features, offender):
    ds = small_bool(2, 3)
    with pytest.raises(UsageError, match=rf"^feature {offender} out of range$"):
        ds.probe_block(np.array([0, 1]), features)
    assert ds.ledger.total_probes == 0
    assert ds.probe_block(np.array([0, 1]), np.array([2, 0])).shape == (2, 2)
    assert ds.probe_block(np.array([0, 1]), []).shape == (2, 0)


# -- bitsets: S = 1 .. 130, so one or several words, whole bytes or not ----

BIT_SHAPES = [(1, 3), (7, 4), (16, 5), (63, 3), (64, 4), (65, 3), (100, 6),
              (130, 2)]


def bits_of(flags):
    return sum(1 << e for e, flag in enumerate(flags) if flag)


def bool_data(n_examples, n_features):
    rng = np.random.default_rng(n_examples * 31 + n_features)
    return (rng.integers(0, 2, (n_examples, n_features)),
            rng.integers(0, 2, n_examples).astype(bool))


@pytest.mark.parametrize("n_examples, n_features", BIT_SHAPES)
def test_column_and_label_bitsets_match_the_matrix(n_examples, n_features):
    values, labels = bool_data(n_examples, n_features)
    ds = CostlyDataset.from_bool(values, labels)
    cols = [bits_of(values[:, f]) for f in range(n_features)]
    words = pack_columns(values)
    assert len(words) == n_features * max(1, -(-n_examples // 64))
    assert [column_bits(words, n_examples, f)
            for f in range(n_features)] == cols
    assert [ds.peek_bits(f) for f in range(n_features)] == cols
    assert ds.label_bits == bits_of(labels)
    assert (ds.peek_all() == values).all()
    assert ds.ledger.total_probes == 0

    rows = bits_of(np.random.default_rng(n_examples).integers(0, 2, n_examples))
    features = list(range(n_features))[::-1]
    assert ds.probe_bits(rows, features) == [cols[f] & rows for f in features]
    assert ds.ledger.total_probes == n_features * rows.bit_count()


@pytest.mark.parametrize("n_examples, n_features", BIT_SHAPES)
def test_ledger_mask_matches_cell_by_cell_records(n_examples, n_features):
    values, labels = bool_data(n_examples, n_features)
    bit_ds, block_ds, cell_ds = (CostlyDataset.from_bool(values, labels)
                                 for _ in range(3))
    want = np.zeros((n_examples, n_features), dtype=bool)
    rng = np.random.default_rng(n_features)
    for _ in range(5):
        rows = np.flatnonzero(rng.random(n_examples) < 0.4)
        features = sorted(rng.choice(n_features, size=int(rng.integers(
            0, n_features + 1)), replace=False).tolist())
        bit_ds.probe_bits(bits_of(np.isin(np.arange(n_examples), rows)),
                          features)
        block_ds.probe_block(rows, features)
        for e in rows.tolist():
            for f in features:
                cell_ds.probe(e, f)
        want[np.ix_(rows, features)] = True
        for ds in (bit_ds, block_ds, cell_ds):
            mask = ds.ledger.mask()
            assert mask.dtype == bool and mask.shape == want.shape
            assert (mask == want).all()
            assert ds.ledger.total_probes == want.sum()
            assert (ds.ledger.per_example_probes() == want.sum(axis=1)).all()
            assert ds.ledger.per_example_max() == want.sum(axis=1).max()
    # after probe_all every cell is read, and later reads record nothing
    for ds in (bit_ds, block_ds, cell_ds):
        ds.probe_all()
        ds.probe_bits(1, [0])
        ds.probe(0, 0)
        assert ds.ledger.mask().all()
        assert ds.ledger.total_probes == n_examples * n_features
        assert ds.ledger.per_example_max() == n_features


@pytest.mark.parametrize("features, offender", [
    ([0, 3], 3), ([-1], -1), ([1, 2, 7, -4], 7)])
def test_probe_bits_out_of_range_feature(features, offender):
    ds = small_bool(2, 3)
    with pytest.raises(UsageError, match=rf"^feature {offender} out of range$"):
        ds.probe_bits(0b11, features)
    assert ds.ledger.total_probes == 0
    assert ds.probe_bits(0b11, []) == []


def test_labels_and_peeks_are_free():
    ds = small_bool(3, 4)
    ds.label(0)
    _ = ds.label_bits
    _ = ds.labels
    ds.peek(1, 1)
    ds.peek_bits(2)
    ds.peek_all()
    assert ds.ledger.total_probes == 0


def test_out_of_range_probe():
    ds = small_bool(2, 3)
    with pytest.raises(UsageError):
        ds.probe(2, 0)
    with pytest.raises(UsageError):
        ds.probe(0, 3)
    with pytest.raises(UsageError):
        ds.probe(-1, 0)


def test_constructor_validation():
    with pytest.raises(UsageError):
        CostlyDataset("complex", np.zeros((2, 2)), [True, False])
    with pytest.raises(UsageError):
        CostlyDataset.from_bool(np.zeros((2, 2)), [True])  # label mismatch


def test_rational_reads():
    values = [[Fraction(3, 2), Fraction(1)], [Fraction(7, 4), Fraction(5, 3)]]
    ds = CostlyDataset.from_rational(values, [Fraction(1), Fraction(2)])
    assert ds._values.dtype == np.int64
    assert ds.probe(1, 1) == Fraction(5, 3)
    assert type(ds.probe(1, 1).numerator) is int
    assert (ds.peek_all() == np.array(values, dtype=object)).all()
    assert [ds.peek(1, 0), ds.peek(0, 0)] == [Fraction(7, 4), Fraction(3, 2)]
    # column reads are floats, correctly rounded like float(Fraction)
    col = ds.probe_column(1)
    assert col.dtype == np.float64
    assert col.tolist() == [float(values[0][1]), float(values[1][1])]
    assert ds.ledger.total_probes == 2  # (1, 1) was already read
    block = ds.probe_block(np.array([1, 0]), [1, 0])
    assert block.dtype == np.float64
    assert block.tolist() == [[float(values[1][1]), float(values[1][0])],
                              [float(values[0][1]), float(values[0][0])]]
    assert ds.ledger.total_probes == 4


@pytest.mark.parametrize("make", [
    lambda: CostlyDataset.from_bool([[0, 1], [1]], [True, False]),
    lambda: CostlyDataset.from_rational(
        [[Fraction(1), Fraction(3, 2)], [Fraction(1)]], [1, 1]),
    lambda: CostlyDataset.from_rational([], []),
    # 2^62 over the common denominator 3 leaves int64
    lambda: CostlyDataset.from_rational([[Fraction(2 ** 62), Fraction(1, 3)]],
                                        [1]),
], ids=["ragged-bool-row", "ragged-rational-row", "no-examples",
        "int64-overflow"])
def test_malformed_dataset_raises_usage_error(make):
    with pytest.raises(UsageError):
        make()


# -- labels built on read ---------------------------------------------------


def random_terms(rng, n_features):
    """A random term dict: up to four terms of degree <= 4 with signed,
    often fractional coefficients."""
    terms = {}
    for _ in range(int(rng.integers(0, 5))):
        exps = {}
        for _ in range(int(rng.integers(0, 5))):
            i = int(rng.integers(n_features))
            exps[i] = exps.get(i, 0) + 1
        coeff = Fraction(int(rng.choice([-5, -3, -1, 1, 2, 7])),
                         int(rng.integers(1, 7)))
        terms[tuple(sorted(exps.items()))] = coeff
    return terms


LABEL_TERMS = [
    {},  # the zero polynomial
    {(): Fraction(5, 3)},  # a constant
    {((0, 1),): Fraction(-7, 2), ((1, 2), (2, 1)): Fraction(3, 4),
     (): Fraction(-2)},
    {((0, 4),): Fraction(1), ((1, 1), (3, 3)): Fraction(-1, 6)},  # degree 4
] + [random_terms(np.random.default_rng(seed), 4) for seed in range(12)]


def eager_labels(values, den, terms):
    rows = [[Fraction(int(v), den) for v in row] for row in values]
    return [sum((math.prod((row[i] ** e for i, e in key), start=c)
                 for key, c in terms.items()), Fraction(0)) for row in rows]


def test_label_terms_cover_the_required_cases():
    coeffs = [c for terms in LABEL_TERMS for c in terms.values()]
    assert {} in LABEL_TERMS
    assert any(() in terms for terms in LABEL_TERMS)
    assert any(c < 0 for c in coeffs) and any(c.denominator > 1 for c in coeffs)
    assert any(sum(e for _, e in key) == 4
               for terms in LABEL_TERMS for key in terms)


@pytest.mark.parametrize("terms", LABEL_TERMS)
def test_labels_built_on_read_match_eager_fractions(terms):
    den = 7
    values = np.random.default_rng(9).integers(den, 2 * den + 1, (6, 4))
    want = eager_labels(values, den, terms)
    eager = CostlyDataset.from_rational(values, want, denominator=den)

    def lazy():
        return CostlyDataset.from_rational(values, denominator=den,
                                           terms=terms)

    # each read path on a fresh dataset, so each one builds its own labels
    ds = lazy()
    assert [ds.label(e) for e in range(6)] == want
    assert lazy().label(-1) == want[-1]
    assert list(lazy().labels) == want
    assert lazy().to_json_obj() == eager.to_json_obj()
    ds = lazy()
    ds.label(3)
    assert list(ds.labels) == want  # a memoized label among built ones
    assert ds.ledger.total_probes == 0


def test_labels_are_built_once_and_only_when_read():
    terms = {((0, 2), (1, 1)): Fraction(-3, 4)}
    ds = CostlyDataset.from_rational(np.full((3, 2), 5), denominator=4,
                                     terms=terms)
    assert ds._labels == [None] * 3
    first = ds.label(1)
    assert first == Fraction(-3, 4) * Fraction(5, 4) ** 3
    assert ds.label(1) is first
    assert ds._labels.count(None) == 2


@pytest.mark.parametrize("kw", [{}, {"labels": [Fraction(1)], "terms": {}}],
                         ids=["neither", "both"])
def test_from_rational_needs_labels_or_terms(kw):
    with pytest.raises(UsageError):
        CostlyDataset.from_rational([[Fraction(1)]], **kw)
