"""Seeded task-stream generators for every target family.

All streams are pure functions of (spec, trial): the RNG is seeded with the
pair, so equal inputs emit bit-identical streams and trials parallelize as
independent substreams.  Each task carries its probe-metered dataset plus
the hidden target on the oracle channel; labels are always reproducible
from the target.

Tree targets are compositions of a hidden dictionary of K incomplete
"metafeature" trees: fragments are grafted at empty slots (path variables
never repeat), remaining slots become leaves such that every internal node
keeps both a + and a - leaf beneath it — the reduced-tree property the
teacher gain needs for exact reconstruction on leaf-covering data.  As in
the paper the dictionary is fixed per stream, and so is the work on it: a
stream reads each fragment's variables, depth, size and empty slots once,
and a composition grafts fragment copies into one working tree in place,
keeping its empty slots up to date rather than rescanning them.  Each
task's leaf-covering examples are labeled in bulk, by routing bitsets of
examples down the target.  Tasks that are drawn back to back, with no other
draw between them, share one draw of their cells: the regime generators'
posed stumps take one `leaf_cover_datasets` call, and an agnostic stream's
pad columns come from one `shared_flips`; both draw in runs of at most
CHUNK_CELLS cells, and the tasks of a run are packed in one pass.

The agnostic mixer plants r bad targets over features disjoint from the
dictionary; the lower-bound regime generators emit single-feature stumps
with retroactively designated good features; and the single-feature game
realizes the needle-in-a-haystack adversary with budgeted adaptive probing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .dataset import CostlyDataset, _pack_blocks, column_bits
from .errors import GeneratorExhaustedError, UsageError
from .griddist import DEFAULT_GRID
from .exactla import independent_rows
from .monomials import monomial_to_json_obj
from .polynomials import Polynomial, term_key
from .trees import EMPTY, INTERNAL, LEAF, MINUS, PLUS, Tree, _route_bits

TREE_FAMILIES = ("tree", "list", "anchor", "overcomplete")
FAMILIES = TREE_FAMILIES + ("monomial", "polynomial")
PLACEMENTS = ("random", "adversarial-first", "adversarial-interleaved")
REGIMES = ("realizable", "intermediate", "large1", "large2")
# The StreamSpec fields each family's generator and learner read; placement
# is read only when r >= 1 (`cli._checked_plan`).  K1 x K2, not k, sizes an
# overcomplete dictionary.
_COMMON_READS = ("family", "n_features", "d", "m", "sample_size", "seed")
_TREE_READS = _COMMON_READS + ("k", "s", "mf_depth", "p_min", "r", "placement")
STREAM_READS = {
    "tree": _TREE_READS, "anchor": _TREE_READS,
    "list": _COMMON_READS + ("k", "s", "mf_depth"),
    "overcomplete": _COMMON_READS + ("s", "mf_depth", "p_min", "k1", "k2"),
    "monomial": _COMMON_READS + ("k", "r", "placement"),
    "polynomial": _COMMON_READS + ("k", "t")}


@dataclass
class Task:
    """One task in a stream: a probe-metered dataset plus its hidden target.

    The target rides along on the oracle channel (teacher gain, exact
    correlation oracles, ground-truth comparisons); learners never read it
    through the data path.  `good` marks tasks the stream promises are
    realizable from the shared fragment pool.
    """
    ds: object
    target: object
    good: bool = True
    meta: dict = field(default_factory=dict)


@dataclass
class StreamSpec:
    """Knobs for one stream; every generator draws only from (seed, trial)."""

    family: str = "tree"
    n_features: int = 16
    k: int = 3
    d: int = 3
    s: int = 7
    t: int = 1
    m: int = 50
    r: int = 0
    sample_size: int = 12
    mf_depth: int = 2
    placement: str = "random"
    p_min: float = 0.0
    k1: int = 0
    k2: int = 0
    seed: int = 0

    @property
    def dictionary_size(self) -> int:  # K1 x K2 composites when overcomplete
        return self.k1 * self.k2 if self.family == "overcomplete" else self.k

    def validate(self) -> "StreamSpec":
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}")
        if self.placement not in PLACEMENTS:
            raise UsageError(f"unknown placement {self.placement!r}")
        if self.k > self.n_features and self.family != "overcomplete":
            raise UsageError("K exceeds the number of features")
        if self.d > self.s and self.family in TREE_FAMILIES:
            raise UsageError("depth cap d exceeds size cap s")
        if min(self.k, self.d, self.t, self.m, self.sample_size) < 1:
            raise UsageError("k, d, t, m and sample_size must be >= 1")
        if self.r < 0:
            raise UsageError("r must be >= 0")
        if self.r > 0 and "r" not in STREAM_READS[self.family]:
            raise UsageError(f"agnostic streams not defined for {self.family!r}")
        if self.r > 0 and self.family == "monomial" and self.k >= self.n_features:
            raise UsageError("K exceeds the features left beside the "
                             "bad-target feature")
        if self.p_min < 0 or self.dictionary_size * self.p_min > 1:
            raise UsageError(f"need 0 <= {self.dictionary_size} * p_min <= 1")
        if self.family == "overcomplete":
            if self.k1 < 1 or self.k2 < 1:
                raise UsageError("overcomplete model needs k1 >= 1 variants "
                                 "and k2 >= 1 anchors")
            if self.k2 + self.k1 * max(self.mf_depth - 1, 1) > self.n_features:
                raise UsageError("not enough features for disjoint anchors "
                                 "and bodies")
        elif self.family in ("tree", "list", "anchor"):
            # with r > 0, d features stay apart for the bad targets
            size = _pool_size(self, self.n_features - (self.d if self.r else 0))
            if size < 1 or size < self.mf_depth and self.family == "list":
                raise UsageError("not enough features for the requested "
                                 "dictionary" + (" beside a bad-target pool"
                                                 if self.r else ""))
        return self


# -- tree fragments and composition ----------------------------------------

P_EXTEND = 0.6  # chance that a fragment node below the root splits
P_MORE = 0.6  # chance that a target takes one more fragment or list segment
MAX_TRIES = 64  # draws before a tree generator gives up


def tree_vars(tree: Tree) -> set:
    return {node.var for node, _ in tree.walk() if node.kind == INTERNAL}


def sample_fragment(rng, pool, max_depth: int) -> Tree:
    """Random all-empty decided tree over `pool`, at least one internal node."""
    def build(depth, avail):
        if depth >= max_depth or not avail:
            return Tree.empty()
        if depth > 0 and rng.random() > P_EXTEND:
            return Tree.empty()
        var = int(avail[int(rng.integers(len(avail)))])
        rest = [v for v in avail if v != var]
        return Tree.internal(var, build(depth + 1, rest), build(depth + 1, rest))
    return build(0, list(pool))


def _sample_list_fragment(rng, pool, max_len: int):
    """Random open decision-list segment; returns (tree, spine_end_path).
    It is built bottom-up from its spine's (variable, step) pairs: the child
    a step takes continues the spine, the other is empty."""
    length = int(rng.integers(1, max_len + 1))
    order = list(rng.permutation(np.asarray(pool)))[:length]
    path = tuple(int(rng.integers(2)) for _ in order)
    tree = Tree.empty()
    for var, step in zip(reversed(order), reversed(path)):
        children = (Tree.empty(), tree) if step else (tree, Tree.empty())
        tree = Tree.internal(int(var), *children)
    return tree, path


def fill_labels(rng, tree: Tree) -> Tree:
    """Replace empties with leaves so every internal node has both a + and a
    - leaf beneath it (labels at pre-existing leaves are kept)."""
    out = tree.copy()
    _fill(rng, out)
    return out


def _fill(rng, root: Tree) -> None:
    """`fill_labels` in place: one draw per internal node, in pre-order,
    picks which side needs which label; a lone empty root draws its own.
    The draws are taken in one call, which yields the same bits, and leaves
    the generator in the same state, as one draw per node."""
    draws = iter(rng.integers(2, size=root.size() + (root.kind == EMPTY))
                 .tolist())

    def fill(node, need):
        if node.kind == EMPTY:
            node.kind = LEAF
            node.label = bool(next(draws)) if need is None else need
        elif node.kind == INTERNAL:
            needs = (PLUS, MINUS) if next(draws) else (MINUS, PLUS)
            fill(node.left, needs[0])
            fill(node.right, needs[1])

    fill(root, None)


class _Composer:
    """Draws targets composed from one dictionary under the (d, s) caps,
    then labeled.

    While some (empty slot, fitting fragment) pair is left, a round goes on
    with probability P_MORE and grafts a uniform pair; the pairs are listed
    slots left to right, fragments in dictionary order.  `gen_tree_stream`
    builds one composer per stream and draws every target from it.

    Each fragment's shape, that is its variables, depth, size and empty
    slots, is read once, when the composer is built.  A draw keeps the
    target's empty slots left to right, each as (path, variables above it,
    the fragments that fit it by depth and disjointness); a round only
    filters those fits by the size left.  A graft writes a copy of the
    fragment into the working tree and puts the fragment's own slots in
    place of the one it fills.
    """

    def __init__(self, metafeatures, d: int, s: int):
        self.fragments = list(metafeatures)
        self.d, self.s = d, s
        self.vars = [tree_vars(f) for f in self.fragments]
        self.depths = [f.depth() for f in self.fragments]
        self.sizes = [f.size() for f in self.fragments]
        self.slots = [f.empty_slots() for f in self.fragments]
        self.roots = [[self._slot(path, used) for path, used in slots]
                      for slots in self.slots]

    def _slot(self, path, used):
        depth_left = self.d - len(path)
        return path, used, [j for j, (fvars, fdepth)
                            in enumerate(zip(self.vars, self.depths))
                            if fdepth <= depth_left and fvars.isdisjoint(used)]

    def __call__(self, rng) -> Tree:
        for _ in range(MAX_TRIES):
            i = int(rng.integers(len(self.fragments)))
            size = self.sizes[i]
            if self.depths[i] > self.d or size > self.s:
                continue
            g = self.fragments[i].copy()
            slots = list(self.roots[i])
            while True:
                size_left = self.s - size
                options = [(k, j) for k, (_, _, fits) in enumerate(slots)
                           for j in fits if self.sizes[j] <= size_left]
                if not options or rng.random() > P_MORE:
                    break
                k, j = options[int(rng.integers(len(options)))]
                path, used, _ = slots[k]
                g.node_at(path).graft(self.fragments[j])
                slots[k:k + 1] = [self._slot(path + fpath, used | fused)
                                  for fpath, fused in self.slots[j]]
                size += self.sizes[j]
            _fill(rng, g)
            if g.kind == INTERNAL:  # every graft kept the depth and size caps
                return g
        raise GeneratorExhaustedError(
            "could not compose a target within the depth/size caps")


def _compose_list(rng, segments, d: int) -> Tree:
    """Chain list segments at the spine end, then label side slots.

    `segments` holds each segment's (tree, spine end, variables, depth),
    read once per stream.  Every internal node of a segment lies on its
    spine, so the variables on the spine are those of the chained
    segments."""
    for _ in range(MAX_TRIES):
        i = int(rng.integers(len(segments)))
        frag, end, spine, depth = segments[i]
        g = frag.copy()
        while rng.random() < P_MORE:
            fits = [(f, fend, fvars, fdepth)
                    for f, fend, fvars, fdepth in segments
                    if fvars.isdisjoint(spine) and len(end) + fdepth <= d]
            if not fits:
                break
            f, fend, fvars, fdepth = fits[int(rng.integers(len(fits)))]
            g.node_at(end).graft(f)
            spine = spine | fvars
            depth = max(depth, len(end) + fdepth)
            end = end + fend
        _fill(rng, g)
        if g.kind == INTERNAL and depth <= d:
            return g
    raise GeneratorExhaustedError(
        "could not compose a decision list within the depth cap")


def coin_flips(rng, shape) -> np.ndarray:
    """`rng.integers(0, 2, shape).astype(np.uint8)` from raw generator words:
    the same bits, and the generator left in the same state.

    A range-2 draw never rejects under Lemire's method, so numpy takes each
    cell as the top bit of one 32-bit output.  A 64-bit bit generator such
    as PCG64 gives a word's low half first and keeps its high half pending
    (`has_uint32`, `uinteger`).  So cell k is the top bit of the k-th 32-bit
    half: a pending half first, then the halves of `random_raw` words, low
    half first.  The pending half is then written back as numpy leaves it.
    A generator without that state draws through numpy."""
    bitgen = rng.bit_generator
    state = bitgen.state
    n = math.prod(shape)
    if not n or "has_uint32" not in state:
        return rng.integers(0, 2, shape).astype(np.uint8)
    out = np.empty(n, dtype=np.uint8)
    head = state["has_uint32"]
    if head:
        out[0] = state["uinteger"] >> 31
    rest = n - head
    if rest:
        halves = (bitgen.random_raw((rest + 1) // 2)
                  .astype("<u8", copy=False).view("<u4"))
        np.right_shift(halves[:rest], 31, out=out[head:], casting="unsafe")
        state = bitgen.state
        state["uinteger"] = int(halves[-1])
    state["has_uint32"] = rest & 1
    bitgen.state = state
    return out.reshape(shape)


# numpy's SeedSequence hash constants (a pool of four 32-bit words) and
# PCG64's 128-bit LCG multiplier, from numpy's bit_generator and pcg64
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = (0x43B0D7E5, 0x931E8875, 0x8B51F9DD,
                                      0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(n: int) -> list:
    """A non-negative int as the little-endian uint32 words numpy's
    SeedSequence reads it as (0 is one word)."""
    if n < 0:
        raise UsageError(f"a seed word must be >= 0, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def pcg64_trial_states(seed: int, trials: int, budget: int) -> list:
    """For t in range(trials), the `.state` dict that
    `np.random.PCG64((seed, t, budget))` starts from, in one pass.

    SeedSequence hashes the entropy words (seed's, then t's, then budget's)
    into a pool of four uint32 words and draws four uint64 words from it;
    here every step runs on uint32 arrays over all t at once, wrapping as
    numpy's does.  PCG64 then seeds its 128-bit LCG from those words
    (state = initstate + inc, stepped once) in Python ints."""
    if not 0 <= trials <= 1 << 32:
        raise UsageError("trials must lie in [0, 2^32], one word per trial")
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return out ^ (out >> np.uint32(16))

    entropy = ([np.full(trials, w, np.uint32) for w in _uint32_words(seed)]
               + [np.arange(trials, dtype=np.uint32)]
               + [np.full(trials, w, np.uint32) for w in _uint32_words(budget)])
    pool = [hashmix(entropy[i] if i < len(entropy)
                    else np.zeros(trials, np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, halves = _INIT_B, []
    for i in range(8):  # generate_state(4, uint64): the pool twice round
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        halves.append(value ^ (value >> np.uint32(16)))
    words = np.stack(halves, axis=1).astype("<u4").view("<u8").tolist()
    states = []
    for hi, lo, inc_hi, inc_lo in words:
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((hi << 64 | lo) + inc) * _PCG_MULT + inc & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


CHUNK_CELLS = 1 << 15  # cells per `coin_flips` call of a shared draw


def shared_flips(rng, rows, n_cols: int):
    """Yield a rows[j] x n_cols `coin_flips` draw for each j in order, the
    same bits as one call per item, with the generator left in the same
    state: cell k of a draw is the k-th 32-bit half of the generator's
    output, so one draw of a + b cells is a draw of a cells followed by one
    of b.  The items come from the runs of `_flip_runs`, drawn lazily: take
    every item before drawing anything else from rng."""
    for run in _flip_runs(rng, rows, n_cols):
        yield from run


def _flip_runs(rng, rows, n_cols: int):
    """Yield, per run of items holding at most CHUNK_CELLS cells (a larger
    item is a run of its own), the items as views of one `coin_flips` draw."""
    start = 0
    while start < len(rows):
        stop, total = start + 1, rows[start]
        while stop < len(rows) and \
                (total + rows[stop]) * n_cols <= CHUNK_CELLS:
            total += rows[stop]
            stop += 1
        values, end, run = coin_flips(rng, (total, n_cols)), 0, []
        for j in range(start, stop):
            run.append(values[end:end + rows[j]])
            end += rows[j]
        yield run
        start = stop


def leaf_cover_dataset(rng, g: Tree, n_features: int,
                       sample_size: int) -> CostlyDataset:
    """One example routed to every leaf of g, padded with uniform examples:
    `leaf_cover_datasets` of the one target."""
    return leaf_cover_datasets(rng, [g], n_features, sample_size)[0]


def leaf_cover_datasets(rng, targets, n_features: int,
                        sample_size: int) -> list:
    """For each target in order, one example routed to every leaf of it,
    padded with uniform examples.  Back-to-back tasks share the draws of
    `_flip_runs`, so the datasets and the generator state left behind equal
    those of one call per target.

    Row i of a task takes the (variable, bit) pairs above the target's i-th
    frontier node in `Tree.walk` order, written cell by cell.  A run's tasks
    are packed in one pass, and each is labeled by routing its examples down
    its target as bitsets; the dataset keeps the packed columns and the
    label bitset, not the drawn matrix.  An example that reaches an empty
    leaf raises UsageError."""
    frontiers = [[above for node, above in g.walk() if node.kind != INTERNAL]
                 for g in targets]
    rows = [max(len(frontier), sample_size) for frontier in frontiers]
    out = []
    for run in _flip_runs(rng, rows, n_features):
        for frontier, values in zip(frontiers[len(out):], run):
            cells = values.reshape(-1)  # a view: cell (row, var) is row * N + var
            for row, above in enumerate(frontier):
                for var, bit in above:
                    cells[row * n_features + var] = bit
        for g, values, columns in zip(targets[len(out):], run,
                                      _pack_blocks(run)):
            n, positive = len(values), 0
            for node, reach in _route_bits(
                    g, (1 << n) - 1, functools.partial(column_bits, columns, n)):
                if node.kind == EMPTY and reach:
                    raise UsageError("predict called on an incomplete tree")
                if node.kind == LEAF and node.label:
                    positive |= reach
            out.append(CostlyDataset.from_bool(values, columns=columns,
                                               label_bits=positive))
    return out


# -- tree streams ----------------------------------------------------------


def _pool_size(spec: StreamSpec, n_features: int) -> int:
    """Variables per fragment of the plain/anchor/list dictionary.  The cap
    2^mf_depth - 1 stops binding at the bit length of n_features, so a huge
    mf_depth builds no huge int."""
    depth = min(spec.mf_depth, n_features.bit_length())
    return min(n_features // spec.k, 2 ** depth - 1)


def _sample_dictionary(rng, spec: StreamSpec):
    """The hidden fragment dictionary for the plain/anchor/list sub-models."""
    size = _pool_size(spec, spec.n_features)
    perm = rng.permutation(spec.n_features)
    pools = [perm[i * size:(i + 1) * size].tolist() for i in range(spec.k)]
    frags = []
    seen = set()
    for pool in pools:
        for _ in range(MAX_TRIES):
            if spec.family == "list":
                frag = _sample_list_fragment(rng, pool, spec.mf_depth)
                key = frag[0].key()
            else:
                frag = sample_fragment(rng, pool, spec.mf_depth)
                key = frag.key()
            if key not in seen:
                seen.add(key)
                frags.append(frag)
                break
        else:
            raise GeneratorExhaustedError("could not sample distinct metafeatures")
    return frags


def _overcomplete_dictionary(rng, spec: StreamSpec):
    """K2 anchor variables x K1 shared body variants; composite roots are
    anchors and anchors never occur inside bodies."""
    perm = rng.permutation(spec.n_features)
    anchors = [int(v) for v in perm[:spec.k2]]
    body_depth = max(spec.mf_depth - 1, 1)
    rest = perm[spec.k2:]
    pools = [rest[i * body_depth:(i + 1) * body_depth].tolist()
             for i in range(spec.k1)]
    bodies = [sample_fragment(rng, pool, body_depth) for pool in pools]
    composites = []
    for a in anchors:
        for body in bodies:
            composites.append(Tree.internal(a, body.copy(), Tree.empty()))
    return composites, anchors


def gen_tree_stream(spec: StreamSpec, trial: int = 0):
    """Task stream for the tree sub-models; returns (tasks, dictionary).

    With p_min > 0 the stream is semi-adversarial: each metafeature is posed
    as a whole target with probability at least p_min, the rest of the mass
    going to arbitrary compositions.
    """
    spec.validate()
    rng = np.random.default_rng((spec.seed, trial))
    anchors = None
    if spec.family == "overcomplete":
        dictionary, anchors = _overcomplete_dictionary(rng, spec)
    else:
        dictionary = _sample_dictionary(rng, spec)
    if spec.family == "list":
        segments = [(f, end, tree_vars(f), f.depth()) for f, end in dictionary]
        dictionary = [f for f, _ in dictionary]
        compose = functools.partial(_compose_list, segments=segments, d=spec.d)
    else:
        compose = _Composer(dictionary, spec.d, spec.s)
    posed = spec.p_min > 0 and spec.family != "list"
    tasks = []
    for _ in range(spec.m):
        slot = rng.random() / spec.p_min if posed else len(dictionary)
        if slot < len(dictionary):  # a float: inf at a subnormal p_min
            target = fill_labels(rng, dictionary[int(slot)])
        else:
            target = compose(rng)
        ds = leaf_cover_dataset(rng, target, spec.n_features, spec.sample_size)
        meta = {"anchors": anchors} if anchors is not None else {}
        tasks.append(Task(ds=ds, target=target, good=True, meta=meta))
    return tasks, dictionary


# -- monomial and polynomial streams ---------------------------------------

COEFF_POOL = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3, 4)]
P_MORE_COLUMNS = 0.5  # chance that a combination takes one more column
MATRIX_TRIES = 200  # draws of a rank-K exponent matrix before giving up


def _sample_exponent_matrix(rng, spec: StreamSpec):
    """N x K natural matrix of rank K with column degrees fitting d."""
    max_deg = min(2, spec.d)
    for _ in range(MATRIX_TRIES):
        cols = []
        for _ in range(spec.k):
            col = np.zeros(spec.n_features, dtype=np.int64)
            deg = int(rng.integers(1, max_deg + 1))
            for _ in range(deg):
                col[int(rng.integers(spec.n_features))] += 1
            cols.append(col)
        if len(independent_rows(cols, spec.n_features)) == spec.k:
            return cols
    raise GeneratorExhaustedError("could not sample a rank-K exponent matrix")


def _sample_combination(rng, cols, degs, d: int):
    """A natural combination g = F.w of total degree <= d; `degs` are the
    columns' degrees."""
    picks = []
    budget = d
    while True:
        afford = [j for j, dj in enumerate(degs) if dj <= budget]
        if not afford or (picks and rng.random() > P_MORE_COLUMNS):
            break
        j = afford[int(rng.integers(len(afford)))]
        picks.append(j)
        budget -= degs[j]
    if not picks:
        raise GeneratorExhaustedError("no affordable dictionary column")
    return sum(cols[j] for j in picks)


def _grid_dataset(rng, n_examples: int, n_features: int, terms) -> CostlyDataset:
    """Uniform examples on the default grid, numerators M + j over M, labeled
    by the polynomial `terms` (term_key -> Fraction, as in Polynomial.terms).

    No label is computed here: the dataset keeps `terms` as integer weights
    and builds each exact label from its row the first time it is read.
    """
    m = DEFAULT_GRID
    idx = rng.integers(0, m + 1, size=(n_examples, n_features))
    return CostlyDataset.from_rational(idx + m, denominator=m, terms=terms)


def _monomial_terms(g) -> dict:
    return {term_key(g): Fraction(1)}


def gen_monomial_stream(spec: StreamSpec, trial: int = 0):
    """Monomial tasks g = F.w with natural w and total degree <= d."""
    spec.validate()
    rng = np.random.default_rng((spec.seed, trial))
    cols = _sample_exponent_matrix(rng, spec)
    degs = [int(c.sum()) for c in cols]
    tasks = []
    for _ in range(spec.m):
        g = _sample_combination(rng, cols, degs, spec.d)
        ds = _grid_dataset(rng, spec.sample_size, spec.n_features,
                           _monomial_terms(g))
        tasks.append(Task(ds=ds, target=g, good=True))
    return tasks, cols


def gen_poly_stream(spec: StreamSpec, trial: int = 0):
    """Polynomial tasks: <= t distinct in-span monomials, coefficients drawn
    from a fixed rational pool with magnitude >= 1/4."""
    spec.validate()
    rng = np.random.default_rng((spec.seed, trial))
    cols = _sample_exponent_matrix(rng, spec)
    degs = [int(c.sum()) for c in cols]
    tasks = []
    for _ in range(spec.m):
        target = Polynomial(spec.n_features)
        want = int(rng.integers(1, spec.t + 1))
        for _ in range(8 * want):
            if target.sparsity() >= want:
                break
            g = _sample_combination(rng, cols, degs, spec.d)
            if target.coefficient(g) == 0:
                coeff = COEFF_POOL[int(rng.integers(len(COEFF_POOL)))]
                target.add_term(g, coeff)
        ds = _grid_dataset(rng, spec.sample_size, spec.n_features,
                           target.terms)
        tasks.append(Task(ds=ds, target=target, good=True))
    return tasks, cols


# -- agnostic mixer --------------------------------------------------------


def _bad_positions(rng, m: int, r: int, placement: str):
    total = m + r
    if placement == "adversarial-first":
        return set(range(r))
    if placement == "adversarial-interleaved":
        step = math.ceil(total / r)
        return set(i * step for i in range(r) if i * step < total)
    return set(int(p) for p in rng.choice(total, size=r, replace=False))


def _bad_tree_task(rng, spec: StreamSpec, pool) -> Task:
    """A bad tree target on `pool`: up to MAX_TRIES fragments of depth at
    most d are drawn until one fits the size cap, then labeled."""
    for _ in range(MAX_TRIES):
        shape = sample_fragment(rng, pool, spec.d)
        if shape.size() <= spec.s:
            target = fill_labels(rng, shape)
            ds = leaf_cover_dataset(rng, target, spec.n_features,
                                    spec.sample_size)
            return Task(ds=ds, target=target, good=False)
    raise GeneratorExhaustedError("no bad target fits the caps")


def _bad_monomial_task(rng, spec: StreamSpec, pool) -> Task:
    """A bad monomial target: a power of degree 1..d of the pool's feature."""
    g = np.zeros(spec.n_features, dtype=np.int64)
    g[pool[0]] = int(rng.integers(1, spec.d + 1))
    ds = _grid_dataset(rng, spec.sample_size, spec.n_features,
                       _monomial_terms(g))
    return Task(ds=ds, target=g, good=False)


def gen_agnostic_stream(spec: StreamSpec, trial: int = 0):
    """m good tasks plus r bad ones, placed per spec.placement; flags are
    for reporting only.  The bad targets read only the last `reserve`
    features: d on a `tree` or `anchor` stream, 1 on a `monomial` stream.
    The good tasks are the family's stream over the other N - reserve,
    re-hosted in all N: a tree dataset is padded with uniform columns (the
    target never reads them), drawn back to back through `shared_flips`,
    a monomial takes a 0 exponent and a new
    dataset."""
    spec.validate()
    if spec.r < 1:
        raise UsageError(f"an agnostic stream needs r >= 1, got r={spec.r}")
    rng = np.random.default_rng((spec.seed, trial, 1))
    trees = spec.family != "monomial"  # tree or anchor: validate allows no other
    reserve = spec.d if trees else 1  # validate checked that a dictionary fits
    sub = replace(spec, n_features=spec.n_features - reserve, r=0)
    pool = list(range(sub.n_features, spec.n_features))
    if trees:
        tasks, dictionary = gen_tree_stream(sub, trial)
        rows = [task.ds.n_examples for task in tasks]
        for task, pad in zip(tasks, shared_flips(rng, rows, reserve)):
            task.ds = task.ds.padded(pad)
    else:
        tasks, cols = gen_monomial_stream(sub, trial)
        dictionary = [np.concatenate([c, [0]]) for c in cols]
        for task in tasks:
            task.target = np.concatenate([task.target, [0]])
            task.ds = _grid_dataset(rng, spec.sample_size, spec.n_features,
                                    _monomial_terms(task.target))
    bad_task = _bad_tree_task if trees else _bad_monomial_task
    bad = iter([bad_task(rng, spec, pool) for _ in range(spec.r)])
    positions = _bad_positions(rng, spec.m, spec.r, spec.placement)
    good = iter(tasks)
    return [next(bad if i in positions else good)
            for i in range(spec.m + spec.r)], dictionary


# -- lower-bound regimes ---------------------------------------------------


def stump(feature: int) -> Tree:
    """Depth-1 target labeling + exactly when the feature value is 1."""
    return Tree.internal(feature, Tree.leaf(MINUS), Tree.leaf(PLUS))


def adversary_r_min(n_features: int, k: int, m: int) -> int:
    return max(math.ceil(m / n_features), math.ceil(k * n_features / m), k)


def gen_adversary_stream(regime: str, n_features: int, k: int, m: int, r: int,
                         seed: int, sample_size: int = 4, trial: int = 0):
    """Single-feature stump streams for the lower-bound regimes.

    Realizable: exactly m stumps, all good.  Task j is the stump on the
    j-th of K random distinct features for j < K, else on a uniform pick
    from those K; with m < K only the first m of them are posed.  The other
    regimes pose m' uniform stumps first and designate the K good features
    retroactively — flags are reporting-only, no learner observes them.
    The m' posed stumps are back to back, so their samples come from one
    `leaf_cover_datasets` call; each appended good stump draws its feature
    between two samples, so it takes a call of its own, as does each
    realizable task.
    """
    if regime not in REGIMES:
        raise UsageError(f"unknown regime {regime!r}")
    if k < 1:
        raise UsageError(f"regime {regime} requires K >= 1")
    if k > n_features:
        raise UsageError("K exceeds the number of features")
    if regime in ("intermediate", "large2"):
        if m < 1:
            raise UsageError(f"regime {regime} requires m >= 1")
        r_min = adversary_r_min(n_features, k, m)
        if r < r_min:
            raise UsageError(f"regime {regime} requires r >= {r_min}")
    if regime == "intermediate" and n_features <= k:
        raise UsageError("intermediate regime requires N > K")
    rng = np.random.default_rng((seed, trial, 2))
    sample = max(sample_size, 2)

    def make_task(feature: int, good: bool) -> Task:
        target = stump(feature)
        return Task(ds=leaf_cover_dataset(rng, target, n_features, sample),
                    target=target, good=good)

    if regime == "realizable":
        feats = [int(v) for v in rng.choice(n_features, size=k, replace=False)]
        return [make_task(feats[j] if j < k else feats[int(rng.integers(k))],
                          True) for j in range(m)], feats

    if regime == "intermediate":
        m_prime = math.ceil(r * n_features / (n_features - k))
    elif regime == "large1":
        m_prime = math.ceil(m * n_features / k)
    else:
        m_prime = math.ceil(math.sqrt(r * n_features * m / k))
    posed = [int(rng.integers(n_features)) for _ in range(m_prime)]
    designated = [int(v) for v in rng.choice(n_features, size=k, replace=False)]
    targets = [stump(f) for f in posed]
    datasets = leaf_cover_datasets(rng, targets, n_features, sample)
    tasks = [Task(ds=ds, target=target, good=f in designated)
             for f, target, ds in zip(posed, targets, datasets)]
    if regime in ("intermediate", "large2"):
        for _ in range(m):
            tasks.append(make_task(designated[int(rng.integers(k))], True))
    return tasks, designated


# -- the single-feature adversary game -------------------------------------


class _Forfeit(Exception):
    pass


@dataclass
class GameResult:
    win: bool
    forfeited: bool
    i_star: int
    named: int
    probes_used: int


class _Referee:
    """The probe meter of one game, whose cell (e, j) is 1 iff j = i*.

    Its one read probes the features of an order one after another, each
    on examples 0, 1, ... until a cell reads 0: a miss costs one probe (its
    example 0 reads 0) and i* costs S.  The probe that takes `used` past
    the budget forfeits the game, with `used` = budget + 1."""

    def __init__(self, i_star: int, s: int, budget: int):
        self.i_star, self.s, self.budget, self.used = i_star, s, budget, 0

    def read(self, order, limit: int):
        """Probe `order` (every feature once: a range or a permutation
        list) feature by feature, on at most `limit` features, stopping at
        the first whose S cells are all 1; -> (that feature or None, the
        number of features read)."""
        at = order.index(self.i_star)  # O(1) on a range
        hit, read, cost = ((self.i_star, at + 1, at + self.s) if at < limit
                           else (None, limit, limit))
        self.used += cost
        if self.used > self.budget:
            self.used = self.budget + 1
            raise _Forfeit
        return hit, read


def _scan_learner(rng, referee, n_prime, s, budget):
    """Probe features in order until the budget runs out, then guess.
    Stopping after budget // s features, it sits on the (N'-B-1)/N' floor
    only at s = 1: at s > 1 a miss costs 1 probe, not s."""
    hit, k = referee.read(range(n_prime), budget // s)
    if hit is not None:
        return hit
    rest = range(k, n_prime)  # the unprobed features
    return rest[int(rng.integers(len(rest)))] if rest else 0


def _uniform_learner(rng, referee, n_prime, s, budget):
    """Probe uniformly random features without replacement, then guess."""
    order = rng.permutation(n_prime).tolist()
    hit, k = referee.read(order, budget // s)
    if hit is not None:
        return hit
    return order[k] if k < n_prime else 0  # the first unprobed feature


def _exhaustive_learner(rng, referee, n_prime, s, budget):
    """Ignores the budget: probes features in order until i* (forfeits
    when i* sits past the budget)."""
    return referee.read(range(n_prime), n_prime)[0]


GAME_LEARNERS = {
    "scan": _scan_learner,
    "uniform": _uniform_learner,
    "exhaustive": _exhaustive_learner,
}


def play_single_feature_game(rng, n_prime: int, budget: int, s: int = 1,
                             learner: str = "scan") -> GameResult:
    """Needle in a haystack: cell (e, j) is 1 iff j = i*, labels are all +.

    The learner adaptively probes at most `budget` cells, then names a
    feature; it wins iff it names i*.  Exceeding the budget forfeits.  The
    learner probes through one `_Referee.read` of an order of the features,
    up to its own stopping rule, and charges what a cell-by-cell read
    would: the same result, probes and draws.
    """
    if learner not in GAME_LEARNERS:
        raise UsageError(f"unknown game learner {learner!r}")
    if n_prime < 1 or s < 1:
        raise UsageError("a game needs N' >= 1 features and S >= 1 examples")
    if budget < 0 or budget > s * n_prime:
        raise UsageError("budget must lie in [0, S*N']")
    i_star = int(rng.integers(n_prime))
    referee = _Referee(i_star, s, budget)
    try:
        named = int(GAME_LEARNERS[learner](rng, referee, n_prime, s, budget))
    except _Forfeit:
        return GameResult(False, True, i_star, -1, referee.used)
    return GameResult(named == i_star, False, i_star, named, referee.used)


def game_failure_bound(n_prime: int, budget: int) -> float:
    """The information-theoretic failure floor (N' - B - 1)/N', clipped."""
    return max((n_prime - budget - 1) / n_prime, 0.0)


# -- stream writing ---------------------------------------------------------


def stream_to_json_obj(tasks, family: str) -> dict:
    """The stream as one JSON-ready dict of datasets, targets and flags."""
    out = [{"dataset": task.ds.to_json_obj(),
            "target": (monomial_to_json_obj(task.target) if family == "monomial"
                       else task.target.to_json_obj()),
            "good": task.good} for task in tasks]
    return {"family": family, "tasks": out}
