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
reads (`probe`, `peek*`) and labels.  Every metered column read goes
through `probe_block` (`probe_rows` and `probe_column` are one-column block
reads), which returns float64 numerator / denominator, the correctly rounded
value of each cell, for the sampled estimators.

Labels are built on read when a rational dataset is labeled by a
polynomial (`from_rational(..., terms=...)`, as every generated stream is):
the dataset keeps the polynomial as integer weights over one label
denominator and builds an example's exact label from its integer row the
first time any read path (`label`, `labels_at`, `labels`, `to_json_obj`)
asks for it, then memoizes it.  Labels are free, so this changes nothing
the ledger sees.
"""

from __future__ import annotations

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
    `self._den`, which `from_rational` sets, as are the integer label
    weights `self._weights` of a dataset whose labels are built on read.
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
        self._weights = None  # (label denominator, [(weight, term key)])
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
    def from_rational(cls, values, labels=None, denominator=None,
                      terms=None) -> "CostlyDataset":
        """values: rows of Fractions (nested lists or an object array), stored
        as numerators over the LCM of their denominators; or, given
        `denominator`, an integer matrix of numerators over it.
        labels: Fractions; or, given `terms` instead (term_key -> rational,
        as in Polynomial.terms), each example is labeled by that polynomial
        at its row, built on read."""
        if denominator is None:
            values, denominator = _common_numerators(values)
        else:
            values = np.asarray(values, dtype=np.int64)
        if not 0 < denominator <= _INT64_MAX:
            raise UsageError("rational denominator must lie in [1, 2^63)")
        if (labels is None) == (terms is None):
            raise UsageError("give exactly one of labels and terms")
        weights = None
        if terms is None:
            labels = [v if isinstance(v, Fraction) else Fraction(v)
                      for v in labels]
        else:
            labels = [None] * values.shape[0]
            weights = _integer_weights(terms, denominator)
        ds = cls(RATIONAL, values, labels)
        ds._den = denominator
        ds._weights = weights
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
        """Read one feature on a set of examples (one probe per fresh cell):
        the one-column block read `probe_block(rows, [feature])`."""
        return self.probe_block(rows, [feature])[:, 0]

    def probe_block(self, rows, features) -> np.ndarray:
        """Read several features on the examples `rows` (integer indices) in
        one metered read: column j of the result holds features[j] (one probe
        per fresh cell).

        Rational cells come back as float64 numerator / denominator."""
        if len(features) and (min(features) < 0
                              or max(features) >= self.n_features):
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
        lab = self._labels[example]
        return self._build_label(example) if lab is None else lab

    def labels_at(self, rows):
        if self.value_kind == BOOL:
            return self._labels[rows]
        return [self.label(int(e)) for e in rows]

    @property
    def labels(self):
        if self._weights is not None:
            for e in range(self.n_examples):
                self.label(e)
        return self._labels

    def _build_label(self, example: int) -> Fraction:
        """The polynomial label of one example, from its integer row."""
        den, weighted = self._weights
        row = self._values[example].tolist()
        total = 0
        for weight, key in weighted:
            for i, e in key:
                weight *= row[i] ** e
            total += weight
        lab = self._labels[example] = Fraction(total, den)
        return lab

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

    def to_json_obj(self) -> dict:
        if self.value_kind == BOOL:
            examples = self._values.astype(int).tolist()
            labels = ["+" if l else "-" for l in self._labels]
        else:
            examples = [[_frac_str(v) for v in row] for row in self.peek_all()]
            labels = [_frac_str(v) for v in self.labels]
        return {"examples": examples, "labels": labels,
                "n_features": self.n_features, "value_kind": self.value_kind}


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


def _integer_weights(terms: dict, den: int):
    """A polynomial over variables x_i = n_i / den as integer weights over one
    label denominator: P(x) = sum(weight * prod n_i^e) / (lcd * den^top),
    where lcd is the LCM of the coefficients' denominators, top the largest
    term degree and weight = lcd * coeff * den^(top - term degree)."""
    lcd = lcm(*(c.denominator for c in terms.values()))
    degrees = [sum(e for _, e in key) for key in terms]
    top = max(degrees, default=0)
    weighted = [(c.numerator * (lcd // c.denominator) * den ** (top - deg),
                 key) for (key, c), deg in zip(terms.items(), degrees)]
    return lcd * den ** top, weighted


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"

