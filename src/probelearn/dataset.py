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
reads (`probe`, `peek*`) and labels.  Every metered column read on
integer example indices goes through `probe_block` (`probe_rows` and
`probe_column` are one-column block reads), which returns float64
numerator / denominator, the correctly rounded value of each cell, for the
sampled estimators.

A bool dataset also holds its columns and labels as bitsets, bit e for
example e: `pack_columns` packs column f into max(1, ceil(S/64)) uint64
words of one compact array, which become one Python int on read.  The
tree growers hold each node's examples as a bitset too, and read with
`probe_bits`: it takes the node's bitset and returns, per candidate, the
bitset of the node's examples with the feature set, so a node's purity
test, split counts and children are int AND / popcount operations.
`peek_bits` and `label_bits` are its unmetered and free counterparts.

For every value kind, the ledger keeps one bitset per feature read: the
examples read on it.  A read that sets no new bit keeps nothing, a read
after `probe_all` records nothing, and `total_probes`, the per-example
counts and the S x N `mask` are computed from the touched features when
asked for.

Labels are built on read when a rational dataset is labeled by a
polynomial (`from_rational(..., terms=...)`, as every generated stream is):
the dataset keeps the polynomial as integer weights over one label
denominator and builds an example's exact label from its integer row the
first time any read path (`label`, `labels`, `to_json_obj`)
asks for it, then memoizes it.  Labels are free, so this changes nothing
the ledger sees.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import UsageError

BOOL = "bool"
RATIONAL = "rational"
_INT64_MAX = int(np.iinfo(np.int64).max)


class ProbeLedger:
    """Meters feature reads on one dataset.

    The ledger keeps, for each feature read so far, the bitset of examples
    read on it (bit e = example e); after `record_all` every cell counts as
    read and nothing more is kept.  Cost of a read is 1 for a fresh cell and
    0 for a memoized one, so `total_probes` is just the number of set bits.
    """

    def __init__(self, n_examples: int, n_features: int):
        self.n_examples, self.n_features = n_examples, n_features
        self._read = {}  # feature -> bitset of the examples read on it
        self._all = False

    def record(self, example: int, feature: int) -> None:
        self.record_bits(1 << example, (feature,))

    def record_bits(self, rows: int, features) -> None:
        """Record every cell of the bitset `rows` x features block."""
        if self._all:
            return
        read = self._read
        for feature in features:
            old = read.get(feature, 0)
            new = old | rows
            if new != old:
                read[feature] = new

    def record_block(self, rows, features) -> None:
        """Record every cell of the rows (integer indices) x features block."""
        if not self._all:
            flags = np.zeros(self.n_examples, dtype=bool)
            flags[rows] = True
            self.record_bits(to_bits(flags), np.asarray(features).tolist())

    def record_all(self) -> None:
        self._all, self._read = True, {}

    @property
    def total_probes(self) -> int:
        if self._all:
            return self.n_examples * self.n_features
        return sum(bits.bit_count() for bits in self._read.values())

    def mask(self) -> np.ndarray:
        """The S x N bool mask of cells read so far."""
        out = np.full((self.n_examples, self.n_features), self._all)
        out[:, list(self._read)] = bit_rows(self._read.values(),
                                            self.n_examples).T
        return out

    def per_example_probes(self) -> np.ndarray:
        """Distinct features probed for each example."""
        if self._all:
            return np.full(self.n_examples, self.n_features)
        return bit_rows(self._read.values(), self.n_examples).sum(
            axis=0, dtype=np.int64)

    def per_example_max(self) -> int:
        """The most features probed on one example.  The per-example counts
        are kept bit-sliced, digits[i] being the bitset of examples whose
        count has bit i set: each touched feature's bitset is added with a
        ripple carry, and the maximum is read from the top digit down.  For
        the few features one learner touches this is cheaper than
        unpacking the bitsets."""
        if self._all:
            return self.n_features if self.n_examples else 0
        digits = []
        for carry in self._read.values():
            for i, digit in enumerate(digits):
                if not carry:
                    break
                digits[i], carry = digit ^ carry, digit & carry
            if carry:
                digits.append(carry)
        best, rows = 0, -1  # rows: the examples that reach `best` so far
        for i in reversed(range(len(digits))):
            if rows & digits[i]:
                rows, best = rows & digits[i], best | 1 << i
        return best


class CostlyDataset:
    """An S x N feature matrix whose cells must be probed to be read.

    `probe*` methods meter reads through the ledger; `peek*` methods are the
    unmetered oracle channel, reserved for teacher gain, exact-mode oracles
    and test assertions.  Rational values are int64 numerators over
    `self._den`, which `from_rational` sets, as are the integer label
    weights `self._weights` of a dataset whose labels are built on read.
    `from_bool` sets a bool dataset's bitsets: `self._cols`, the
    `pack_columns` words, and `self._label_bits`.
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
        self._cols, self._label_bits = None, 0
        self.ledger = ProbeLedger(*values.shape)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_bool(cls, values, labels, columns=None) -> "CostlyDataset":
        """values: an S x N 0/1 matrix; labels: S bools.  `columns` is
        `pack_columns(values)`, for a caller that has packed them already."""
        try:
            vals = np.asarray(values, dtype=np.uint8)
        except ValueError as exc:
            raise UsageError(f"bad boolean matrix: {exc}") from exc
        labs = np.asarray(labels, dtype=bool)
        ds = cls(BOOL, vals, labs)
        ds._cols = pack_columns(vals) if columns is None else columns
        ds._label_bits = to_bits(labs)
        return ds

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

    def _check_features(self, features) -> None:
        if len(features) and (min(features) < 0
                              or max(features) >= self.n_features):
            for feature in features:
                self._check(0, feature)

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
        self._check_features(features)
        cols = np.asarray(features, dtype=np.intp)
        self.ledger.record_block(rows, cols)
        block = self._values[np.asarray(rows)[:, None], cols]
        if self.value_kind == BOOL:
            return block
        return block / self._den

    def probe_bits(self, rows: int, features) -> list:
        """Read several features of a bool dataset on the examples of the
        bitset `rows` in one metered read: item j is the bitset of those
        examples with features[j] set (one probe per fresh cell)."""
        self._check_features(features)
        self.ledger.record_bits(rows, features)
        if self.n_examples <= 64:  # one word per column: index it directly
            words = self._cols
            return [words[feature] & rows for feature in features]
        return [self.peek_bits(feature) & rows for feature in features]

    def probe_column(self, feature: int) -> np.ndarray:
        return self.probe_rows(np.arange(self.n_examples), feature)

    def probe_all(self) -> None:
        """Read the whole matrix (the scratch-learn opening move)."""
        self.ledger.record_all()

    # -- free reads --------------------------------------------------------

    def label(self, example: int):
        lab = self._labels[example]
        return self._build_label(example) if lab is None else lab

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

    @property
    def label_bits(self) -> int:
        """The bitset of a bool dataset's positive examples (labels are free)."""
        return self._label_bits

    def peek_bits(self, feature: int) -> int:
        """Unmetered bitset of the examples with the feature set."""
        return column_bits(self._cols, self.n_examples, feature)

    def peek(self, example: int, feature: int):
        """Unmetered read — oracle/audit channel only."""
        if self.value_kind == BOOL:
            return self._values[example, feature]
        return Fraction(int(self._values[example, feature]), self._den)

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


def _width(n_examples: int) -> int:
    """uint64 words per packed column."""
    return max(1, -(-n_examples // 64))


def pack_columns(values) -> array:
    """An S x N 0/1 matrix as N column bitsets in one compact array of
    uint64 words: column f is words f*W to (f+1)*W - 1, W = `_width(S)`,
    and bit e of the column is bit e % 64 of its word e // 64."""
    n_examples, n_features = values.shape
    padded = np.zeros((n_features, 64 * _width(n_examples)), dtype=np.uint8)
    padded[:, :n_examples] = values.T
    words = array("Q")
    words.frombytes(np.packbits(padded, axis=1, bitorder="little")
                    .view("<u8").astype(np.uint64, copy=False).tobytes())
    return words


def column_bits(words: array, n_examples: int, feature: int) -> int:
    """Column `feature` of `pack_columns` words over n examples as one int."""
    if n_examples <= 64:
        return words[feature]
    width = _width(n_examples)
    start = feature * width
    return sum(words[start + j] << 64 * j for j in range(width))


def to_bits(flags) -> int:
    """A bool vector as a bitset, bit e set iff flags[e]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(),
                          "little")


def bit_rows(bitsets, n: int) -> np.ndarray:
    """A sized collection of bitsets over n examples as the rows of a 0/1
    uint8 matrix."""
    width = (n + 7) // 8
    raw = b"".join([bits.to_bytes(width, "little") for bits in bitsets])
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(bitsets), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


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

