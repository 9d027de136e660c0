"""Probe metering: memoized cells, free labels, ledger accounting."""

import math
from array import array
from fractions import Fraction

import numpy as np
import pytest

from probelearn import CostlyDataset, Polynomial, UsageError
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


def test_block_reads_match_per_cell_probes():
    # reference: one metered probe(e, f) per cell, on bool and rational data
    rows, features = np.array([3, 0, 2]), [4, 1, 2]
    row_bits = bits_of(np.isin(np.arange(5), rows))
    for make in (small_bool, small_rational):
        meter_ds, column_ds, bits_ds, cell_ds = (make(5, 6) for _ in range(4))
        for ds in (meter_ds, column_ds, bits_ds, cell_ds):
            ds.probe(0, 1)
        meter_ds.meter(features, row_bits)
        assert meter_ds.ledger.total_probes == 9  # (0, 1) was already read
        cells = [[float(cell_ds.probe(int(e), f)) for e in rows] for f in features]
        assert [column_ds.probe_rows(rows, f).tolist() for f in features] == cells
        checked = [meter_ds, column_ds]
        if make is small_bool:  # the bool block read: one bitset per feature
            block = bits_ds.probe_bits(row_bits, features)
            assert [[float(b >> int(e) & 1) for e in rows] for b in block] == cells
            checked.append(bits_ds)
        for ds in checked:
            assert (ds.ledger.mask() == cell_ds.ledger.mask()).all()


@pytest.mark.parametrize("features", [[0, 3], [-1], [1, 2, 7]])
def test_block_reads_out_of_range_feature(features):
    bool_ds, rational_ds = small_bool(2, 3), small_rational(2, 3)
    with pytest.raises(UsageError):
        bool_ds.probe_bits(0b11, features)
    for ds in (bool_ds, rational_ds):
        with pytest.raises(UsageError):
            ds.meter(features, 0b11)
        assert ds.ledger.total_probes == 0


@pytest.mark.parametrize("features, offender", [
    ([1, 5, -1], 5), ([0, -2, 9], -2), (np.array([2, 0, 4]), 4)])
def test_meter_names_first_offending_feature(features, offender):
    for ds in (small_bool(2, 3), small_rational(2, 3)):
        with pytest.raises(UsageError,
                           match=rf"^feature {offender} out of range$"):
            ds.meter(features)
        assert ds.ledger.total_probes == 0
        ds.meter(np.array([2, 0]), 0b10)
        assert ds.ledger.total_probes == 2


def test_meter_on_no_examples_names_the_feature():
    ds = CostlyDataset.from_bool(np.zeros((0, 3)), labels=[])
    with pytest.raises(UsageError, match=r"^feature 5 out of range$"):
        ds.meter([5])
    ds.meter([0, 2])
    assert ds.ledger.total_probes == 0


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


@pytest.mark.parametrize("n_examples", [1, 63, 64, 65, 130])
def test_bool_dataset_keeps_only_bitsets_and_reads_its_matrix(n_examples):
    """A bool dataset keeps its shape and bitsets, no S x N matrix, yet every
    public read returns the matrix it was built from, and the ledger
    charges each fresh cell once."""
    n_features = 5
    values, labels = bool_data(n_examples, n_features)
    ds = CostlyDataset.from_bool(values, labels)
    assert not [v for v in vars(ds).values() if isinstance(v, np.ndarray)]
    assert (ds.n_examples, ds.n_features) == values.shape
    cells = ds.peek_all()
    assert cells.dtype == np.uint8 and np.array_equal(cells, values)
    assert [[ds.peek(e, f) for f in range(n_features)]
            for e in range(n_examples)] == values.tolist()
    assert [ds.label(e) for e in range(n_examples)] == labels.tolist()
    assert np.array_equal(ds.labels, labels)
    assert ds.to_json_obj() == {
        "examples": values.tolist(),
        "labels": ["+" if label else "-" for label in labels],
        "n_features": n_features, "value_kind": "bool"}
    assert ds.ledger.total_probes == 0

    rng = np.random.default_rng(n_examples)
    read = np.zeros(values.shape, dtype=bool)
    for _ in range(4):
        rows = rng.permutation(n_examples)[:int(rng.integers(1, n_examples + 1))]
        features = rng.permutation(n_features)[:3].tolist()
        flags = np.isin(np.arange(n_examples), rows)
        assert ds.probe_bits(bits_of(flags), features) == [
            bits_of(flags & (values[:, f] == 1)) for f in features]
        read[np.ix_(rows, features)] = True
        feature = int(rng.integers(n_features))
        column = ds.probe_rows(rows, feature)
        assert column.dtype == np.uint8
        assert np.array_equal(column, values[rows, feature])
        read[rows, feature] = True
        e = int(rng.integers(n_examples))
        assert ds.probe(e, feature) == values[e, feature]
        read[e, feature] = True
        assert ds.ledger.total_probes == read.sum()
        assert (ds.ledger.mask() == read).all()
    feature = int(rng.integers(n_features))
    assert np.array_equal(ds.probe_column(feature), values[:, feature])
    read[:, feature] = True
    assert (ds.ledger.mask() == read).all()
    with pytest.raises(UsageError):
        ds.peek(n_examples, 0)
    with pytest.raises(UsageError):
        ds.label(n_examples)


@pytest.mark.parametrize("n_examples, n_features", BIT_SHAPES)
def test_ledger_mask_matches_cell_by_cell_records(n_examples, n_features):
    values, labels = bool_data(n_examples, n_features)
    bit_ds, meter_ds, cell_ds = (CostlyDataset.from_bool(values, labels)
                                 for _ in range(3))
    want = np.zeros((n_examples, n_features), dtype=bool)
    rng = np.random.default_rng(n_features)
    for _ in range(5):
        rows = np.flatnonzero(rng.random(n_examples) < 0.4)
        features = sorted(rng.choice(n_features, size=int(rng.integers(
            0, n_features + 1)), replace=False).tolist())
        bits = bits_of(np.isin(np.arange(n_examples), rows))
        bit_ds.probe_bits(bits, features)
        meter_ds.meter(features, bits)
        for e in rows.tolist():
            for f in features:
                cell_ds.probe(e, f)
        want[np.ix_(rows, features)] = True
        for ds in (bit_ds, meter_ds, cell_ds):
            mask = ds.ledger.mask()
            assert mask.dtype == bool and mask.shape == want.shape
            assert (mask == want).all()
            assert ds.ledger.total_probes == want.sum()
            assert (ds.ledger.per_example_probes() == want.sum(axis=1)).all()
            assert ds.ledger.per_example_max() == want.sum(axis=1).max()
    # after probe_all every cell is read, and later reads record nothing
    for ds in (bit_ds, meter_ds, cell_ds):
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


@pytest.mark.parametrize("rows, feature", [(1 << 9, 1), (-1, 0)])
def test_probe_bits_rows_out_of_range(rows, feature):
    ds = small_bool(4, 3)
    with pytest.raises(UsageError):
        ds.probe_bits(rows, [feature])
    assert ds.ledger.total_probes == 0
    assert ds.ledger.per_example_probes().tolist() == [0] * 4


@pytest.mark.parametrize("kind", ["bool", "rational"])
@pytest.mark.parametrize("rows", [[-1], [4], [0, 4], [2, -3]])
def test_probe_rows_rows_out_of_range(kind, rows):
    """A negative index must not wrap to example S - 1, nor S reach numpy's
    IndexError: either is a UsageError that charges nothing."""
    ds = small_bool(4, 3) if kind == "bool" else small_rational(4, 3)
    with pytest.raises(UsageError, match="out of range"):
        ds.probe_rows(np.array(rows), 1)
    assert ds.ledger.total_probes == 0
    assert ds.ledger.per_example_probes().tolist() == [0] * 4
    assert ds.probe_rows(np.array([3, 0]), 1).shape == (2,)
    assert ds.ledger.total_probes == 2


@pytest.mark.parametrize("kind", ["bool", "rational"])
@pytest.mark.parametrize("rows", [[], (), np.array([])],
                         ids=["list", "tuple", "array"])
def test_probe_rows_on_no_examples_is_an_empty_free_read(kind, rows):
    """An empty index list (a float64 array once numpy reads it) gives an
    empty column of the dataset's kind and charges nothing; a bad feature is
    still a UsageError, and charges nothing either."""
    ds = small_bool(4, 3) if kind == "bool" else small_rational(4, 3)
    ds.probe_rows([0], 1)
    column = ds.probe_rows(rows, 2)
    assert column.shape == (0,)
    assert column.dtype == (np.uint8 if kind == "bool" else np.float64)
    assert ds.ledger.total_probes == 1
    with pytest.raises(UsageError, match="out of range"):
        ds.probe_rows(rows, 3)
    assert ds.ledger.total_probes == 1


@pytest.mark.parametrize("read", [lambda ds: ds.probe_bits(0b11, [0, 1]),
                                  lambda ds: ds.peek_bits(0),
                                  lambda ds: ds.gather_bits(0b11, [0, 1])],
                         ids=["probe_bits", "peek_bits", "gather_bits"])
def test_bit_reads_on_rational_data_are_usage_errors(read):
    """A rational dataset has no bitsets: a bit read is a UsageError raised
    before the ledger records anything."""
    ds = small_rational(2, 2)
    ds.probe_rows([0], 1)
    with pytest.raises(UsageError, match="bool dataset"):
        read(ds)
    assert ds.ledger.total_probes == 1
    assert ds.ledger.per_example_probes().tolist() == [1, 0]


@pytest.mark.parametrize("n_examples, n_features", BIT_SHAPES)
def test_probe_bits_is_meter_plus_gather_bits(n_examples, n_features):
    """`gather_bits` returns what `probe_bits` does and charges nothing;
    `meter` charges what `probe_bits` does."""
    values, labels = bool_data(n_examples, n_features)
    rng = np.random.default_rng(n_examples)
    rows = bits_of(rng.integers(0, 2, n_examples))
    features = sorted(rng.choice(n_features, size=2, replace=False).tolist())
    probed, gathered, metered = (CostlyDataset.from_bool(values, labels)
                                 for _ in range(3))
    assert gathered.gather_bits(rows, features) == \
        probed.probe_bits(rows, features)
    assert gathered.ledger.total_probes == 0
    metered.meter(features, rows)
    assert (metered.ledger.mask() == probed.ledger.mask()).all()


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
    rows = ds.probe_rows(np.array([1, 0]), 0)
    assert rows.dtype == np.float64
    assert rows.tolist() == [float(values[1][0]), float(values[0][0])]
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
    assert lazy().label(5) == want[5]
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


# -- meter: metered reads that return nothing --------------------------------


READS = ["probe", "probe_rows", "probe_column", "probe_bits"]


def read_cells(ds, read, rows, features):
    """The cells that `read` returns on the examples `rows` (an index array;
    every example for `probe_column`) x features, one list per feature."""
    if read == "probe":
        return [[ds.probe(e, f) for e in rows.tolist()] for f in features]
    if read == "probe_bits":
        return ds.probe_bits(bits_of(np.isin(np.arange(ds.n_examples), rows)),
                             features)
    columns = [ds.probe_column(f) if read == "probe_column"
               else ds.probe_rows(rows, f) for f in features]
    kind = np.uint8 if ds.value_kind == "bool" else np.float64
    assert all(column.dtype == kind for column in columns)
    return [column.tolist() for column in columns]


def peeked_cells(cells, read, rows, features):
    """What `read_cells` should return, from the `peek_all` matrix."""
    if read == "probe_bits":
        flags = np.isin(np.arange(len(cells)), rows)
        return [bits_of(flags & (cells[:, f] == 1)) for f in features]
    if cells.dtype == object and read != "probe":  # rational columns: float64
        return [[float(v) for v in cells[rows, f]] for f in features]
    return [cells[rows, f].tolist() for f in features]


@pytest.mark.parametrize("kind", ["bool", "rational"])
@pytest.mark.parametrize("n_examples", [1, 63, 64, 65, 130])
def test_each_read_leaves_the_ledger_meter_leaves(kind, n_examples):
    """Every metered read is `meter` on its cells plus an unmetered gather
    of the cells `peek_all` gives."""
    n_features = 6
    if kind == "bool":
        values, labels = bool_data(n_examples, n_features)
        make, reads = lambda: CostlyDataset.from_bool(values, labels), READS
    else:
        make, reads = lambda: small_rational(n_examples, n_features), READS[:3]
    cells = make().peek_all()
    pairs = {read: (make(), make()) for read in reads}  # (read, meter)
    rng = np.random.default_rng(n_examples)
    every = np.arange(n_examples)
    for _ in range(6):
        features = rng.choice(n_features, size=int(rng.integers(
            0, n_features + 1)), replace=False).tolist()
        some = np.flatnonzero(rng.random(n_examples) < 0.4)
        for read, (ds, ref) in pairs.items():
            rows = every if read == "probe_column" else some
            assert read_cells(ds, read, rows, features) == peeked_cells(
                cells, read, rows, features)
            ref.meter(features, bits_of(np.isin(every, rows)))
            a, b = ds.ledger, ref.ledger
            assert a.total_probes == b.total_probes
            assert (a.mask() == b.mask()).all()
            assert a.per_example_max() == b.per_example_max()
    # after probe_all every cell is read, and later reads record nothing
    for read, (ds, _) in pairs.items():
        ds.probe_all()
        read_cells(ds, read, every, [0])
        assert ds.ledger.total_probes == n_examples * n_features


@pytest.mark.parametrize("features", [[0, 3], [-1], [1, 2, 7]])
def test_meter_out_of_range_feature(features):
    for ds in (small_bool(2, 3), small_rational(2, 3)):
        with pytest.raises(UsageError):
            ds.meter(features)
        assert ds.ledger.total_probes == 0
        ds.meter([])
        assert ds.ledger.total_probes == 0


@pytest.mark.parametrize("rows", [-1, 0b100, 1 << 9])
def test_meter_rows_out_of_range(rows):
    ds = small_bool(2, 3)
    with pytest.raises(UsageError):
        ds.meter([0], rows)
    assert ds.ledger.total_probes == 0


# -- evaluate: a polynomial at one example's integer row ---------------------


def polynomial_at(terms, row):
    poly = Polynomial(len(row))
    poly.terms = dict(terms)
    return poly.evaluate(row)


EVALUATE_TERMS = LABEL_TERMS + [
    {((0, 1), (2, 2)): Fraction(-9, 4), ((3, 1),): Fraction(-1)},
    {((1, 3),): Fraction(12, 5), (): Fraction(-1, 7)},
]


@pytest.mark.parametrize("terms", EVALUATE_TERMS)
def test_evaluate_matches_polynomial_evaluate(terms):
    den = 5
    values = np.random.default_rng(10).integers(den, 2 * den + 1, (5, 4))
    lazy = CostlyDataset.from_rational(values, denominator=den,
                                       terms={((0, 1),): Fraction(1)})
    lcm_ds = small_rational(5, 4)  # Fraction rows over the LCM denominator
    assert lcm_ds._den > 1
    for ds in (lazy, lcm_ds):
        rows = ds.peek_all()
        for e in range(ds.n_examples):
            got = ds.evaluate(e, terms)
            assert isinstance(got, Fraction)
            assert got == polynomial_at(terms, rows[e])
        assert ds.ledger.total_probes == 0


def test_evaluate_terms_cover_signed_and_non_unit_coefficients():
    coeffs = [c for terms in EVALUATE_TERMS for c in terms.values()]
    assert {} in EVALUATE_TERMS
    assert any(c < 0 for c in coeffs)
    assert any(abs(c.numerator) > 1 for c in coeffs)


def test_evaluate_of_the_labeling_terms_is_the_label():
    terms = {((0, 2), (1, 1)): Fraction(-3, 4), (): Fraction(2)}
    ds = CostlyDataset.from_rational(
        np.random.default_rng(11).integers(4, 9, (4, 2)), denominator=4,
        terms=terms)
    assert [ds.evaluate(e, terms) for e in range(4)] == list(ds.labels)
    with pytest.raises(UsageError):
        small_bool().evaluate(0, terms)


@pytest.mark.parametrize("terms", EVALUATE_TERMS)
def test_evaluate_all_is_evaluate_at_every_example(terms):
    ds = small_rational(6, 4)
    got = ds.evaluate_all(terms)
    assert got == [ds.evaluate(e, terms) for e in range(6)]
    assert all(isinstance(v, Fraction) for v in got)
    assert ds.ledger.total_probes == 0


def test_evaluate_all_needs_a_rational_dataset():
    with pytest.raises(UsageError):
        small_bool().evaluate_all({(): Fraction(1)})


# -- bool construction from bitsets ------------------------------------------


@pytest.mark.parametrize("n_examples, n_features", BIT_SHAPES)
def test_from_bool_takes_label_bits(n_examples, n_features):
    values, labels = bool_data(n_examples, n_features)
    want = CostlyDataset.from_bool(values, labels)
    ds = CostlyDataset.from_bool(values, columns=pack_columns(values),
                                 label_bits=bits_of(labels))
    assert ds.label_bits == want.label_bits
    assert np.array_equal(ds.labels, labels)
    assert ds.to_json_obj() == want.to_json_obj()


@pytest.mark.parametrize("kw", [{}, {"labels": [True, False], "label_bits": 1},
                                {"label_bits": 0b100},
                                {"label_bits": -1}],
                         ids=["neither", "both", "too-high", "negative"])
def test_from_bool_label_bits_validation(kw):
    with pytest.raises(UsageError):
        CostlyDataset.from_bool([[0, 1], [1, 0]], **kw)


@pytest.mark.parametrize("n_words", [2, 5])
def test_from_bool_checks_the_column_word_count(n_words):
    """S = 4 and N = 3 take 3 words, one per column; a shorter array would
    fail on a read and a longer one on `peek_all`."""
    values, labels = bool_data(4, 3)
    words = pack_columns(values)
    assert len(words) == 3
    columns = array("Q", (list(words) * 2)[:n_words])
    with pytest.raises(UsageError, match=f"{n_words} column words"):
        CostlyDataset.from_bool(values, columns=columns,
                                label_bits=bits_of(labels))


@pytest.mark.parametrize("n_examples", [1, 63, 64, 65, 130])
def test_padded_appends_the_pad_columns(n_examples):
    values, labels = bool_data(n_examples, 5)
    pad = np.random.default_rng(n_examples).integers(0, 2, (n_examples, 3))
    ds = CostlyDataset.from_bool(values, labels)
    ds.probe_all()
    full = ds.padded(pad)
    want = CostlyDataset.from_bool(np.concatenate([values, pad], axis=1),
                                   labels)
    assert (full.n_examples, full.n_features) == (n_examples, 8)
    assert full._cols == want._cols
    assert full.label_bits == want.label_bits
    assert full.to_json_obj() == want.to_json_obj()
    assert full.ledger.total_probes == 0


@pytest.mark.parametrize("pad", [np.zeros((2, 1)), np.zeros(3)],
                         ids=["rows", "ndim"])
def test_padded_validation(pad):
    with pytest.raises(UsageError):
        small_bool(3, 2).padded(pad)
    with pytest.raises(UsageError):
        small_rational(3, 2).padded(np.zeros((3, 1)))


@pytest.mark.parametrize("kind", ["bool", "rational"])
@pytest.mark.parametrize("rows", [[1.0], ["0"], [True, False],
                                  np.array([0.0, 1.0]), [Fraction(1)]],
                         ids=["float", "string", "bools", "float-array",
                              "fraction"])
def test_probe_rows_rejects_indices_that_are_not_integers(kind, rows):
    """A float, string or Fraction index must not reach numpy's IndexError
    or UFuncTypeError, nor a list of bools be read as a mask that charges
    example 0 alone: each is a UsageError that charges nothing."""
    ds = small_bool(2, 3) if kind == "bool" else small_rational(2, 3)
    with pytest.raises(UsageError, match="integer indices"):
        ds.probe_rows(rows, 1)
    assert ds.ledger.total_probes == 0
    assert ds.ledger.per_example_probes().tolist() == [0, 0]
    assert ds.probe_rows([1, 0], 1).shape == (2,)
    assert ds.ledger.total_probes == 2


TERMS = {((0, 1),): Fraction(1)}  # the polynomial x0


@pytest.mark.parametrize("kind", ["bool", "rational"])
@pytest.mark.parametrize("read, what", [
    (lambda ds: ds.peek(-1, 0), "example -1"),
    (lambda ds: ds.peek(4, 0), "example 4"),
    (lambda ds: ds.peek(0, -1), "feature -1"),
    (lambda ds: ds.peek(0, 3), "feature 3"),
    (lambda ds: ds.label(-1), "example -1"),
    (lambda ds: ds.label(4), "example 4"),
    (lambda ds: ds.evaluate(-1, TERMS), "example -1"),
    (lambda ds: ds.evaluate(4, TERMS), "example 4"),
], ids=["peek-example-neg", "peek-example-S", "peek-feature-neg",
        "peek-feature-N", "label-neg", "label-S", "evaluate-neg",
        "evaluate-S"])
def test_free_reads_check_their_indices(kind, read, what):
    """A negative index must not wrap to the last example or feature, nor
    an index past the end reach numpy's or the list's IndexError: on both
    kinds each is the same UsageError, raised before anything is read."""
    ds = small_bool(4, 3) if kind == "bool" else small_rational(4, 3)
    with pytest.raises(UsageError, match=rf"^{what} out of range$"):
        read(ds)
    assert ds.ledger.total_probes == 0


def test_label_out_of_range_builds_no_label():
    """A rational label built on read is not built for a bad index."""
    ds = CostlyDataset.from_rational(np.full((3, 2), 5), denominator=4,
                                     terms=TERMS)
    with pytest.raises(UsageError, match="example -1 out of range"):
        ds.label(-1)
    assert ds._labels == [None] * 3
    assert ds.label(2) == Fraction(5, 4)


def two_by_two():
    """Rows (1/2, 3/2) and (1, 2) over the denominator 4."""
    return CostlyDataset.from_rational(np.array([[2, 6], [4, 8]]),
                                       denominator=4, terms=TERMS)


@pytest.mark.parametrize("variable", [-1, 2])
@pytest.mark.parametrize("read", [lambda ds, terms: ds.evaluate(0, terms),
                                  lambda ds, terms: ds.evaluate_all(terms)],
                         ids=["evaluate", "evaluate_all"])
def test_evaluate_checks_term_variables(read, variable):
    """A term variable outside [0, N) must not wrap to feature N - 1 nor
    reach the list's IndexError: it is a UsageError."""
    ds = two_by_two()
    with pytest.raises(UsageError,
                       match=rf"^term variable {variable} out of range$"):
        read(ds, {((variable, 1),): 1})
    assert ds.evaluate(0, {((1, 1),): 1}) == Fraction(3, 2)
    assert ds.ledger.total_probes == 0


@pytest.mark.parametrize("variable", [-1, 2, 5])
def test_terms_labels_check_their_variables(variable):
    """Labels built on read from `terms` reject a bad variable when the
    dataset is built, not at the first label."""
    with pytest.raises(UsageError,
                       match=rf"^term variable {variable} out of range$"):
        CostlyDataset.from_rational(np.array([[2, 6], [4, 8]]),
                                    denominator=4,
                                    terms={((0, 1), (variable, 2)): 1})
