"""Probe metering: memoized cells, free labels, ledger accounting, JSON."""

import json
from fractions import Fraction

import numpy as np
import pytest

from probelearn import CostlyDataset, UsageError


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


def test_probe_block_matches_per_column_probe_rows():
    rows, features = np.array([3, 0, 2]), [4, 1, 2]
    block_ds, column_ds = small_bool(5, 6), small_bool(5, 6)
    block_ds.probe(0, 1)
    column_ds.probe(0, 1)
    block = block_ds.probe_block(rows, features)
    for j, feature in enumerate(features):
        assert block[:, j].tolist() == column_ds.probe_rows(rows, feature).tolist()
    assert block.shape == (3, 3)
    assert (block_ds.ledger._mask == column_ds.ledger._mask).all()
    assert block_ds.ledger.total_probes == 9  # (0, 1) was already read


@pytest.mark.parametrize("features", [[0, 3], [-1], [1, 2, 7]])
def test_probe_block_out_of_range_feature(features):
    ds = small_bool(2, 3)
    with pytest.raises(UsageError):
        ds.probe_block(np.array([0, 1]), features)
    assert ds.ledger.total_probes == 0


def test_labels_and_peeks_are_free():
    ds = small_bool(3, 4)
    ds.label(0)
    ds.labels_at(np.array([0, 2]))
    _ = ds.labels
    ds.peek(1, 1)
    ds.peek_rows(np.array([0, 1]), 2)
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


def test_bool_json_round_trip():
    ds = small_bool(3, 4)
    text = ds.to_json()
    back = CostlyDataset.from_json(text)
    assert back.value_kind == "bool"
    assert (back.peek_all() == ds.peek_all()).all()
    assert list(back.labels) == list(ds.labels)
    assert back.ledger.total_probes == 0  # fresh ledger, probes don't travel
    assert back.to_json() == text


def test_rational_json_round_trip():
    values = [[Fraction(3, 2), Fraction(1)], [Fraction(7, 4), Fraction(5, 3)]]
    labels = [Fraction(21, 8), Fraction(35, 12)]
    ds = CostlyDataset.from_rational(values, labels)
    back = CostlyDataset.from_json(ds.to_json())
    assert back.peek(0, 0) == Fraction(3, 2)
    assert back.peek(1, 1) == Fraction(5, 3)
    assert back.label(1) == Fraction(35, 12)
    assert back.to_json() == ds.to_json()


def test_malformed_json_rejected():
    good = small_bool(2, 2).to_json()
    with pytest.raises(UsageError):
        CostlyDataset.from_json(good.replace('"bool"', '"octonion"'))
    with pytest.raises(UsageError):
        CostlyDataset.from_json(good.replace('"n_features": 2', '"n_features": 5'))
    rational = CostlyDataset.from_rational([[Fraction(3, 2)]], [Fraction(3, 2)])
    bad = rational.to_json().replace("3/2", "3|2")
    with pytest.raises(UsageError):
        CostlyDataset.from_json(bad)


def test_rational_reads():
    values = [[Fraction(3, 2), Fraction(1)], [Fraction(7, 4), Fraction(5, 3)]]
    ds = CostlyDataset.from_rational(values, [Fraction(1), Fraction(2)])
    assert ds._values.dtype == np.int64
    assert ds.probe(1, 1) == Fraction(5, 3)
    assert type(ds.probe(1, 1).numerator) is int
    assert (ds.peek_all() == np.array(values, dtype=object)).all()
    assert list(ds.peek_rows(np.array([1, 0]), 0)) == [Fraction(7, 4),
                                                       Fraction(3, 2)]
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


def _dataset_json(examples, labels=None, kind="rational", n_features=2):
    doc = {"n_features": n_features, "examples": examples, "value_kind": kind}
    if labels is not None:
        doc["labels"] = labels
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    _dataset_json([[0, 1], [1]], ["+", "-"], kind="bool"),
    _dataset_json([["1/1", "3/2"], ["1/1"]], ["1/1", "1/1"]),
    _dataset_json([], []),
    _dataset_json([["1/1", "3/2"]]),
    # 2^62 over the common denominator 3 leaves int64
    _dataset_json([[f"{2 ** 62}/1", "1/3"]], ["1/1"]),
    '{"examples": [',
    "[]",
], ids=["ragged-bool-row", "ragged-rational-row", "no-examples",
        "no-labels", "int64-overflow", "not-json", "not-an-object"])
def test_malformed_dataset_raises_usage_error(text):
    with pytest.raises(UsageError):
        CostlyDataset.from_json(text)
