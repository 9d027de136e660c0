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
reads (`probe`, `peek*`), labels and `evaluate`.

Every metered read is `meter` plus an unmetered gather.  `meter(features,
rows)` charges the features on the examples of the bitset `rows` (every
example by default) and returns nothing; the other reads call it, then
gather what they return: `probe` one cell through `peek`, and `probe_rows`
and `probe_column` one column (float64 numerator / denominator, the
correctly rounded value of each cell, for the sampled estimators).  A
caller that resolves the values it pays for elsewhere (the exact oracles,
single-sample verification through `evaluate`, and a tree split, whose gain
gathers only what it scores through `gather_bits`) calls `meter` alone.
`probe_all` alone bypasses it: afterwards every cell counts as read.

A bool dataset holds only bitsets, bit e for example e, and its shape:
`pack_columns` packs column f into max(1, ceil(S/64)) uint64 words of one
compact array, which become one Python int on read, and the labels are
one int.  No S x N matrix is kept: `peek`, `peek_all`, the column reads
and `to_json_obj` unpack the cells they return from the columns on each
call.  The tree growers hold example sets as bitsets too: for a split,
the unmetered `gather_bits` returns the node's examples with each
candidate set; `peek_bits` (one column), `column_words` (the packed
words) and the free `label_bits` are the other bit reads.

For every value kind, the ledger keeps one bitset per feature read: the
examples read on it.  A read that sets no new bit keeps nothing, a read after
`probe_all` records nothing, and `total_probes`, the per-example counts and
the S x N `mask` are computed from the touched features when asked for.

Labels are built on read when a rational dataset is labeled by a polynomial
(`from_rational(..., terms=...)`, as every generated stream is): the dataset
keeps the polynomial as integer weights over one label denominator and builds
an example's exact label from its integer row the first time any read path
(`label`, `labels`, `to_json_obj`) asks for it, then memoizes it.  Labels are
free, so this changes nothing the ledger sees.  `evaluate` runs any
polynomial through the same integer evaluation, unmetered: a hypothesis is
checked against a label without forming a Fraction per cell.
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
    A read on no example records nothing, and keeps no feature.
    """

    def __init__(self, n_examples: int, n_features: int):
        self.n_examples, self.n_features = n_examples, n_features
        self._read = {}  # feature -> bitset of the examples read on it
        self._all = False

    def record_bits(self, rows: int, features) -> None:
        """Record every cell of the bitset `rows` x features block."""
        if self._all or not rows:
            return
        read = self._read
        for feature in features:
            read[feature] = read.get(feature, 0) | rows

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

    `meter` charges a read through the ledger without returning its
    values, and the other `probe*` methods are `meter` plus an unmetered
    gather; `peek*` methods, `gather_bits` and `evaluate` are the unmetered
    oracle channel, reserved for teacher gain, exact-mode oracles, reads
    after `meter` and test assertions.  Rational values are int64 numerators over
    `self._den`, which `from_rational` sets, as are the integer label
    weights `self._weights` of a dataset whose labels are built on read.
    A bool dataset keeps its shape and the bitsets `from_bool` sets:
    `self._cols`, the `pack_columns` words, and `self._label_bits`; the
    matrix it was built from is dropped.
    """

    def __init__(self, value_kind: str, values: np.ndarray, labels):
        if value_kind not in (BOOL, RATIONAL):
            raise UsageError(f"unknown value kind {value_kind!r}")
        if values.ndim != 2:
            raise UsageError("values must be a 2-d matrix")
        if value_kind == RATIONAL and values.dtype != np.int64:
            raise UsageError("rational values must be int64 numerators")
        if labels is not None and len(labels) != values.shape[0]:
            raise UsageError("labels must match the number of examples")
        self.value_kind = value_kind
        self._shape = values.shape
        if value_kind == RATIONAL:
            self._values, self._labels = values, labels
        self._den = 1
        self._weights = None  # (label denominator, [(weight, term key)])
        self._cols, self._label_bits = None, 0
        self.ledger = ProbeLedger(*values.shape)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_bool(cls, values, labels=None, columns=None,
                  label_bits=None) -> "CostlyDataset":
        """values: an S x N 0/1 matrix; labels: S bools, or, given
        `label_bits` instead, the bitset of the positive examples.  `columns`
        is `pack_columns(values)`, for a caller that has packed them already;
        then only the shape of `values` is read, and `columns` must hold
        N * max(1, ceil(S/64)) words.  Only the bitsets are kept."""
        try:
            vals = np.asarray(values, dtype=np.uint8)
        except ValueError as exc:
            raise UsageError(f"bad boolean matrix: {exc}") from exc
        if (labels is None) == (label_bits is None):
            raise UsageError("give exactly one of labels and label_bits")
        if label_bits is None:
            labels = np.asarray(labels, dtype=bool)
        elif label_bits < 0 or label_bits >> vals.shape[0]:
            raise UsageError("label bits name an example out of range")
        ds = cls(BOOL, vals, labels)
        if columns is None:
            columns = pack_columns(vals)
        elif len(columns) != ds.n_features * _width(ds.n_examples):
            raise UsageError(f"{len(columns)} column words for "
                             f"{ds.n_examples} x {ds.n_features} cells; need "
                             f"{ds.n_features * _width(ds.n_examples)}")
        ds._cols = columns
        ds._label_bits = to_bits(labels) if label_bits is None else label_bits
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
            weights = _integer_weights(terms, denominator, values.shape[1])
        ds = cls(RATIONAL, values, labels)
        ds._den = denominator
        ds._weights = weights
        return ds

    # -- shape -------------------------------------------------------------

    @property
    def n_examples(self) -> int:
        return self._shape[0]

    @property
    def n_features(self) -> int:
        return self._shape[1]

    def _check(self, example: int, features=()) -> None:
        if not 0 <= example < self.n_examples:
            raise UsageError(f"example {example} out of range")
        self._check_features(features)

    def _check_features(self, features) -> None:
        if len(features) and not (0 <= min(features)
                                  and max(features) < self._shape[1]):
            bad = next(f for f in features if not 0 <= f < self._shape[1])
            raise UsageError(f"feature {bad} out of range")

    # -- metered reads -----------------------------------------------------

    def meter(self, features, rows: int = None) -> None:
        """Charge a read of `features` on the examples of the bitset `rows`
        (default: every example) and return nothing (one probe per fresh
        cell).  Every other metered read but `probe_all` goes through here;
        a caller that resolves the values it pays for through an exact
        oracle or `evaluate` calls it alone."""
        n_examples = self._shape[0]
        self._check_features(features)
        if rows is None:
            rows = (1 << n_examples) - 1
        elif rows < 0 or rows >> n_examples:
            raise UsageError("rows name an example out of range")
        self.ledger.record_bits(rows, features)

    def probe(self, example: int, feature: int):
        """Read one cell, charging one probe unless it was read before."""
        self._check(example)
        self.meter((feature,), 1 << example)
        return self.peek(example, feature)

    def probe_rows(self, rows, feature: int) -> np.ndarray:
        """Read one feature on the examples `rows` (integer indices in
        [0, S)), one probe per fresh cell; rational cells come back as
        float64.  An index that is not an integer (a bool would read as a
        mask) or is out of range is a UsageError; it and an empty read
        charge nothing."""
        # numpy reads an empty list as float64, which indexes nothing
        rows = np.asarray(rows) if len(rows) else np.zeros(0, dtype=np.intp)
        if rows.dtype.kind not in "iu":
            raise UsageError(f"rows must be integer indices, got {rows.dtype}")
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_examples):
            raise UsageError("rows name an example out of range")
        flags = np.zeros(self.n_examples, dtype=bool)
        flags[rows] = True
        self.meter((feature,), to_bits(flags))
        return self._column(feature)[rows]

    def probe_column(self, feature: int) -> np.ndarray:
        """Read one feature on every example, as `probe_rows` does."""
        self.meter((feature,))
        return self._column(feature)

    def probe_all(self) -> None:
        """Read the whole matrix (the scratch-learn opening move)."""
        self.ledger.record_all()

    # -- free reads --------------------------------------------------------

    def label(self, example: int):
        self._check(example)
        if self.value_kind == BOOL:
            return bool(self._label_bits >> example & 1)
        lab = self._labels[example]
        return self._build_label(example) if lab is None else lab

    @property
    def labels(self):
        if self.value_kind == BOOL:
            return bit_rows([self._label_bits], self.n_examples)[0].view(bool)
        if self._weights is not None:
            for e in range(self.n_examples):
                self.label(e)
        return self._labels

    def _build_label(self, example: int) -> Fraction:
        """The polynomial label of one example, from its integer row."""
        lab = self._labels[example] = _weighted_sum(
            self._values[example].tolist(), self._weights)
        return lab

    def evaluate(self, example: int, terms: dict) -> Fraction:
        """The polynomial `terms` (term_key -> rational, as in
        Polynomial.terms) at one example of a rational dataset, exactly and
        unmetered: the caller pays for the cells with `meter`."""
        self._check(example)
        weights = self._term_weights(terms)
        return _weighted_sum(self._values[example].tolist(), weights)

    def evaluate_all(self, terms: dict) -> list:
        """`evaluate` at every example, in order, from one build of the
        terms' integer weights."""
        weights = self._term_weights(terms)
        return [_weighted_sum(row, weights) for row in self._values.tolist()]

    def _term_weights(self, terms: dict):
        if self.value_kind != RATIONAL:
            raise UsageError("evaluate needs a rational dataset")
        return _integer_weights(terms, self._den, self.n_features)

    @property
    def label_bits(self) -> int:
        """The bitset of a bool dataset's positive examples (labels are free)."""
        return self._label_bits

    @property
    def column_words(self) -> array:
        """A bool dataset's `pack_columns` words, unmetered."""
        self.need_bits()
        return self._cols

    def peek_bits(self, feature: int) -> int:
        """Unmetered bitset of the examples with the feature set; with S <=
        64 the column's one word, read as `gather_bits` reads it.  A
        feature outside [0, N) is a UsageError."""
        if not 0 <= feature < self._shape[1]:
            raise UsageError(f"feature {feature} out of range")
        if self._shape[0] <= 64 and self._cols is not None:
            return self._cols[feature]
        self.need_bits()
        return column_bits(self._cols, self.n_examples, feature)

    def gather_bits(self, rows: int, features) -> list:
        """Unmetered, for a caller that has charged the read with `meter`:
        item j is the bitset of the examples of `rows` with features[j]
        set.  A feature outside [0, N) is a UsageError."""
        self.need_bits()
        self._check_features(features)
        words, n_examples = self._cols, self.n_examples
        if n_examples <= 64:  # one word per column: index it directly
            return [words[feature] & rows for feature in features]
        return [column_bits(words, n_examples, feature) & rows
                for feature in features]

    def need_bits(self) -> None:
        """Refuse with UsageError a dataset that is not bool: the bit reads
        need its column bitsets."""
        if self._cols is None:
            raise UsageError("bit reads need a bool dataset")

    def peek(self, example: int, feature: int):
        """Unmetered read — oracle/audit channel only."""
        self._check(example, (feature,))
        if self.value_kind == BOOL:
            return self.peek_bits(feature) >> example & 1
        return Fraction(int(self._values[example, feature]), self._den)

    def peek_all(self):
        """The whole matrix, unmetered: 0/1 uint8 cells unpacked from a bool
        dataset's columns, or Fractions."""
        if self.value_kind == BOOL:
            words = np.frombuffer(self._cols, dtype=np.uint64).reshape(
                self.n_features, _width(self.n_examples))
            return np.unpackbits(
                words.astype("<u8", copy=False).view(np.uint8), axis=1,
                count=self.n_examples, bitorder="little").T
        return self._fractions(self._values)

    def _column(self, feature: int) -> np.ndarray:
        """One column, unmetered: a bool dataset's 0/1 uint8 cells, or a
        rational dataset's float64 numerator / denominator."""
        if self.value_kind == BOOL:
            return bit_rows([self.peek_bits(feature)], self.n_examples)[0]
        return self._values[:, feature] / self._den

    def _fractions(self, nums: np.ndarray) -> np.ndarray:
        """Numerators as an object array of exact Fractions."""
        out = np.empty(nums.shape, dtype=object)
        out.flat = [Fraction(n, self._den) for n in nums.ravel().tolist()]
        return out

    def padded(self, pad) -> "CostlyDataset":
        """A bool dataset with this one's examples and labels and the 0/1
        columns of `pad` (S rows) appended as features N onward, with a
        fresh ledger.  Columns are packed column-major, so its words are
        this dataset's followed by the pad's: nothing is unpacked."""
        pad = np.asarray(pad, dtype=np.uint8)
        if self.value_kind != BOOL or pad.ndim != 2 \
                or pad.shape[0] != self.n_examples:
            raise UsageError("a pad needs a bool dataset and one row per "
                             "example")
        shape = (self.n_examples, self.n_features + pad.shape[1])
        # a zero-stride stand-in: from_bool reads only its shape
        return CostlyDataset.from_bool(
            np.broadcast_to(np.uint8(0), shape),
            columns=self._cols + pack_columns(pad),
            label_bits=self._label_bits)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        if self.value_kind == BOOL:
            examples = self.peek_all().tolist()
            labels = ["+" if l else "-" for l in self.labels]
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
    return array("Q", np.packbits(padded, bitorder="little")
                 .view("<u8").astype(np.uint64, copy=False).tobytes())


def _pack_blocks(blocks) -> list:
    """`pack_columns` of each of `blocks`, matrices N columns wide, in one
    `np.packbits` pass."""
    if len(blocks) == 1:  # pack_columns is quicker for one block
        return [pack_columns(blocks[0])]
    bits = np.zeros((len(blocks), blocks[0].shape[1],
                     64 * _width(max(map(len, blocks)))), dtype=np.uint8)
    for padded, values in zip(bits, blocks):
        padded[:, :len(values)] = values.T
    words = (np.packbits(bits, bitorder="little").view("<u8")
             .astype(np.uint64, copy=False).reshape(bits.shape[:2] + (-1,)))
    return [array("Q", column[:, :_width(len(values))].tobytes())
            for column, values in zip(words, blocks)]


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


def _weighted_sum(row: list, weights) -> Fraction:
    """A polynomial from `_integer_weights` at one integer row."""
    den, weighted = weights
    total = 0
    for weight, key in weighted:
        for i, e in key:
            weight *= row[i] ** e
        total += weight
    return Fraction(total, den)


def _integer_weights(terms: dict, den: int, n_features: int):
    """A polynomial over variables x_i = n_i / den as integer weights over one
    label denominator: P(x) = sum(weight * prod n_i^e) / (lcd * den^top),
    where lcd is the LCM of the coefficients' denominators, top the largest
    term degree and weight = lcd * coeff * den^(top - term degree).
    UsageError for a variable outside [0, n_features)."""
    if bad := [i for key in terms for i, _ in key if not 0 <= i < n_features]:
        raise UsageError(f"term variable {bad[0]} out of range")
    lcd = lcm(*(c.denominator for c in terms.values()))
    degrees = [sum(e for _, e in key) for key in terms]
    top = max(degrees, default=0)
    weighted = [(c.numerator * (lcd // c.denominator) * den ** (top - deg),
                 key) for (key, c), deg in zip(terms.items(), degrees)]
    return lcd * den ** top, weighted


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"

