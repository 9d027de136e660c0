"""Probe-metered datasets.

A training set is an S x N matrix of feature values plus S labels.  Reading a
cell (example, feature) costs one probe the first time; repeat reads of the
same cell are free (the value is memoized), and labels are always free.  A
ProbeLedger attached to each dataset meters every read, which is what all the
probe-complexity bounds in this package are asserted against.

Two value kinds are supported: boolean features (decision trees / lists) and
rational features (monomials and sparse polynomials, on the grid
{1 + j/M : 0 <= j <= M}).  A rational matrix is stored as int64 numerators
over one integer denominator: generated streams store M + j over M, and
Fraction input is brought over the least common multiple of its
denominators.  Exact Fractions exist only where exactness is needed: scalar
reads (`probe`, `peek*`) and labels.  Column and block reads (`probe_rows`,
`probe_column`, `probe_block`) return float64 numerator / denominator, the
correctly rounded value of each cell, for the sampled estimators.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import UsageError

BOOL = "bool"
RATIONAL = "rational"
_INT64_MAX = int(np.iinfo(np.int64).max)


class ProbeLedger:
    """Meters feature reads on one dataset.

    The ledger is a boolean S x N mask of cells read so far.  Cost of a read
    is 1 for a fresh cell and 0 for a memoized one, so `total_probes` is just
    the number of True cells.
    """

    def __init__(self, n_examples: int, n_features: int):
        self._mask = np.zeros((n_examples, n_features), dtype=bool)

    def record(self, example: int, feature: int) -> None:
        self._mask[example, feature] = True

    def record_rows(self, rows, feature: int) -> None:
        self._mask[rows, feature] = True

    def record_block(self, rows, features) -> None:
        """Record every cell of the rows x features block."""
        self._mask[np.asarray(rows)[:, None], features] = True

    def record_all(self) -> None:
        self._mask[:, :] = True

    @property
    def total_probes(self) -> int:
        return int(self._mask.sum())

    def per_example_probes(self) -> np.ndarray:
        """Distinct features probed for each example."""
        return self._mask.sum(axis=1)

    def per_example_max(self) -> int:
        return int(self._mask.sum(axis=1).max()) if self._mask.size else 0


class CostlyDataset:
    """An S x N feature matrix whose cells must be probed to be read.

    `probe*` methods meter reads through the ledger; `peek*` methods are the
    unmetered oracle channel, reserved for teacher gain, exact-mode oracles
    and test assertions.  Rational values are int64 numerators over
    `self._den`, which `from_rational` sets.
    """

    def __init__(self, value_kind: str, values: np.ndarray, labels):
        if value_kind not in (BOOL, RATIONAL):
            raise UsageError(f"unknown value kind {value_kind!r}")
        if values.ndim != 2:
            raise UsageError("values must be a 2-d matrix")
        if value_kind == RATIONAL and values.dtype != np.int64:
            raise UsageError("rational values must be int64 numerators")
        if len(labels) != values.shape[0]:
            raise UsageError("labels must match the number of examples")
        self.value_kind = value_kind
        self._values = values
        self._labels = labels
        self._den = 1
        self.ledger = ProbeLedger(*values.shape)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_bool(cls, values, labels) -> "CostlyDataset":
        try:
            vals = np.asarray(values, dtype=np.uint8)
        except ValueError as exc:
            raise UsageError(f"bad boolean matrix: {exc}") from exc
        labs = np.asarray(labels, dtype=bool)
        return cls(BOOL, vals, labs)

    @classmethod
    def from_rational(cls, values, labels, denominator=None) -> "CostlyDataset":
        """values: rows of Fractions (nested lists or an object array), stored
        as numerators over the LCM of their denominators; or, given
        `denominator`, an integer matrix of numerators over it.
        labels: Fractions."""
        if denominator is None:
            values, denominator = _common_numerators(values)
        else:
            values = np.asarray(values, dtype=np.int64)
        if not 0 < denominator <= _INT64_MAX:
            raise UsageError("rational denominator must lie in [1, 2^63)")
        ds = cls(RATIONAL, values, [Fraction(v) for v in labels])
        ds._den = denominator
        return ds

    # -- shape -------------------------------------------------------------

    @property
    def n_examples(self) -> int:
        return self._values.shape[0]

    @property
    def n_features(self) -> int:
        return self._values.shape[1]

    def _check(self, example: int, feature: int) -> None:
        if not (0 <= example < self.n_examples):
            raise UsageError(f"example {example} out of range")
        if not (0 <= feature < self.n_features):
            raise UsageError(f"feature {feature} out of range")

    # -- metered reads -----------------------------------------------------

    def probe(self, example: int, feature: int):
        """Read one cell, charging one probe unless it was read before."""
        self._check(example, feature)
        self.ledger.record(example, feature)
        return self.peek(example, feature)

    def probe_rows(self, rows, feature: int) -> np.ndarray:
        """Read one feature on a set of examples (one probe per fresh cell).

        Rational cells come back as float64 numerator / denominator."""
        self._check(0, feature)
        self.ledger.record_rows(rows, feature)
        if self.value_kind == BOOL:
            return self._values[rows, feature]
        return self._values[rows, feature] / self._den

    def probe_block(self, rows, features) -> np.ndarray:
        """Read several features on a set of examples in one metered read:
        column j of the result holds features[j] (one probe per fresh cell).

        Rational cells come back as float64 numerator / denominator."""
        for feature in features:
            self._check(0, feature)
        cols = np.asarray(features, dtype=np.intp)
        self.ledger.record_block(rows, cols)
        block = self._values[np.asarray(rows)[:, None], cols]
        if self.value_kind == BOOL:
            return block
        return block / self._den

    def probe_column(self, feature: int) -> np.ndarray:
        return self.probe_rows(np.arange(self.n_examples), feature)

    def probe_all(self) -> None:
        """Read the whole matrix (the scratch-learn opening move)."""
        self.ledger.record_all()

    # -- free reads --------------------------------------------------------

    def label(self, example: int):
        return self._labels[example]

    def labels_at(self, rows):
        if self.value_kind == BOOL:
            return self._labels[rows]
        return [self._labels[int(e)] for e in rows]

    @property
    def labels(self):
        return self._labels

    def peek(self, example: int, feature: int):
        """Unmetered read — oracle/audit channel only."""
        if self.value_kind == BOOL:
            return self._values[example, feature]
        return Fraction(int(self._values[example, feature]), self._den)

    def peek_rows(self, rows, feature: int):
        if self.value_kind == BOOL:
            return self._values[rows, feature]
        return self._fractions(self._values[rows, feature])

    def peek_all(self):
        if self.value_kind == BOOL:
            return self._values
        return self._fractions(self._values)

    def _fractions(self, nums: np.ndarray) -> np.ndarray:
        """Numerators as an object array of exact Fractions."""
        out = np.empty(nums.shape, dtype=object)
        out.flat = [Fraction(n, self._den) for n in nums.ravel().tolist()]
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        if self.value_kind == BOOL:
            examples = self._values.astype(int).tolist()
            labels = ["+" if l else "-" for l in self._labels]
        else:
            examples = [[_frac_str(v) for v in row] for row in self.peek_all()]
            labels = [_frac_str(v) for v in self._labels]
        doc = {
            "n_features": self.n_features,
            "examples": examples,
            "labels": labels,
            "value_kind": self.value_kind,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CostlyDataset":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"dataset is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError("dataset JSON must be an object")
        missing = [k for k in ("examples", "labels", "n_features") if k not in doc]
        if missing:
            raise UsageError(f"dataset JSON lacks {', '.join(missing)}")
        kind = doc.get("value_kind")
        examples = doc["examples"]
        if examples and len(examples[0]) != doc["n_features"]:
            raise UsageError("n_features does not match example width")
        if kind == BOOL:
            labels = [lab == "+" for lab in doc["labels"]]
            return cls.from_bool(examples, labels)
        if kind == RATIONAL:
            values = [[_parse_frac(v) for v in row] for row in examples]
            labels = [_parse_frac(v) for v in doc["labels"]]
            return cls.from_rational(values, labels)
        raise UsageError(f"unknown value kind {kind!r}")


def _common_numerators(rows):
    """Rows of rationals as an int64 numerator matrix over the LCM of their
    denominators."""
    rows = [[Fraction(v) for v in row] for row in rows]
    if not rows or not rows[0]:
        raise UsageError("a rational dataset needs at least one example "
                         "and one feature")
    if any(len(row) != len(rows[0]) for row in rows):
        raise UsageError("rational rows differ in length")
    den = lcm(*{v.denominator for row in rows for v in row})
    nums = [[v.numerator * (den // v.denominator) for v in row] for row in rows]
    try:
        return np.array(nums, dtype=np.int64), den
    except OverflowError as exc:
        raise UsageError("rational numerators overflow int64") from exc


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _parse_frac(text: str) -> Fraction:
    try:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational literal {text!r}") from exc
