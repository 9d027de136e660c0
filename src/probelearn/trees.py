"""Incomplete binary decision trees and the superimposition calculus.

A tree node is internal (splits on a variable), a labeled leaf, or an *empty*
leaf — a hole where the tree may still grow.  Trees grow by two moves: graft
a subtree at an empty leaf, or label an empty leaf.  No variable may repeat
on a root-to-leaf path.  `Tree.walk` yields each node with the (variable,
step) pairs above it, a leaf's region; the shape queries filter that walk.

The heart of representation reuse is superimposition: place the root of a
stored fragment f at a node w of a partially grown tree and slide it down the
path toward the node u being grown.  `conflict` says whether any variable
already assigned on that path disagrees with f; `induce` reads off which
variable f predicts at u; both read one walk down g, `_slide`.  Together
they define one placement and the small candidate sets that make
dictionary-based learning probe-cheap.  `lfd_tree` does not call them per
placement: it keeps the placements still alive at each grown node and
advances them from parent to child, which yields the same sets.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import column_bits
from .errors import OracleMisuseError, UsageError

INTERNAL = "internal"
LEAF = "leaf"
EMPTY = "empty"

PLUS, MINUS = True, False


class Tree:
    """One node of a possibly-incomplete binary decision tree.

    Left child is taken on feature value 0, right child on value 1.
    `depth` and `size` recurse: over `walk`, `size` runs several times slower.
    """

    __slots__ = ("kind", "var", "label", "left", "right")

    def __init__(self, kind, var=None, label=None, left=None, right=None):
        self.kind = kind
        self.var = var
        self.label = label
        self.left = left
        self.right = right

    # -- constructors ------------------------------------------------------

    @staticmethod
    def internal(var: int, left: "Tree", right: "Tree") -> "Tree":
        return Tree(INTERNAL, var=var, left=left, right=right)

    @staticmethod
    def leaf(label: bool) -> "Tree":
        return Tree(LEAF, label=bool(label))

    @staticmethod
    def empty() -> "Tree":
        return Tree(EMPTY)

    # -- shape -------------------------------------------------------------

    def depth(self) -> int:
        """Depth of the deepest leaf/empty node; a lone leaf has depth 0."""
        if self.kind != INTERNAL:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def size(self) -> int:
        """Number of internal nodes."""
        if self.kind != INTERNAL:
            return 0
        return 1 + self.left.size() + self.right.size()

    # -- navigation --------------------------------------------------------

    def node_at(self, path) -> "Tree":
        node = self
        for step in path:
            if node.kind != INTERNAL:
                raise UsageError(f"path {path} leaves the tree")
            node = node.right if step else node.left
        return node

    def walk(self):
        """Every node in pre-order, left child first, as (node, above):
        `above` is the tuple of (variable, step) pairs of the internal nodes
        on the way down from the root, step 0 for the left child."""
        stack = [(self, ())]
        while stack:
            node, above = stack.pop()
            yield node, above
            if node.kind == INTERNAL:
                stack.append((node.right, above + ((node.var, 1),)))
                stack.append((node.left, above + ((node.var, 0),)))

    def empty_slots(self) -> list:
        """(path, variables assigned above it) of every empty leaf,
        left-to-right; paths are tuples of 0/1."""
        return [(steps(above), frozenset(var for var, _ in above))
                for node, above in self.walk() if node.kind == EMPTY]

    def frontier_paths(self) -> list:
        """Paths of all leaf and empty nodes, left-to-right."""
        return [steps(above) for node, above in self.walk()
                if node.kind != INTERNAL]

    def graft(self, f2: "Tree") -> None:
        """Turn this empty leaf into a copy of f2, in place.

        A graft that repeats a variable on a root-to-leaf path is not
        refused: legal targets never hold one, and the generators rely on
        their own disjointness (`path_repeats_var` finds a repeat).
        """
        if self.kind != EMPTY:
            raise UsageError("graft target is not an empty leaf")
        new = f2.copy()
        self.kind, self.var, self.label = new.kind, new.var, new.label
        self.left, self.right = new.left, new.right

    # -- structural identity ----------------------------------------------

    def key(self):
        """Hashable structural fingerprint (used for dedup and equality)."""
        if self.kind == EMPTY:
            return ("_",)
        if self.kind == LEAF:
            return ("+",) if self.label else ("-",)
        return (self.var, self.left.key(), self.right.key())

    def __eq__(self, other):
        return isinstance(other, Tree) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def copy(self) -> "Tree":
        if self.kind == INTERNAL:
            return Tree(INTERNAL, self.var, None, self.left.copy(),
                        self.right.copy())
        return Tree(self.kind, None, self.label)

    def __repr__(self):
        if self.kind == EMPTY:
            return "_"
        if self.kind == LEAF:
            return "+" if self.label else "-"
        return f"(x{self.var} {self.left!r} {self.right!r})"

    # -- evaluation --------------------------------------------------------

    def predict(self, x) -> bool:
        """Route a full example vector to a label; complete trees only."""
        node = self
        while node.kind == INTERNAL:
            node = node.right if x[node.var] else node.left
        if node.kind == EMPTY:
            raise UsageError("predict called on an incomplete tree")
        return node.label

    # -- serialization -----------------------------------------------------

    def to_json_obj(self):
        if self.kind == EMPTY:
            return {"empty": True}
        if self.kind == LEAF:
            return {"leaf": "+" if self.label else "-"}
        return {
            "var": self.var,
            "left": self.left.to_json_obj(),
            "right": self.right.to_json_obj(),
        }


# -- path checks -----------------------------------------------------------


def steps(above) -> tuple:
    """The root path, a tuple of 0/1 steps, of the `walk` pairs `above`."""
    return tuple(step for _, step in above)


def path_repeats_var(tree: Tree) -> bool:
    """True iff some variable repeats on a root-to-leaf path."""
    return any(node.var in {var for var, _ in above}
               for node, above in tree.walk() if node.kind == INTERNAL)


def _route_bits(g: Tree, words, n_examples: int) -> list:
    """Each node of g, parents first, as (node, the bitset of the examples
    that reach it): all n examples start at the root, and an internal node
    sends right those whose column in the `pack_columns` words has the bit
    set.  With n <= 64 a column is its one word, read directly."""
    one_word = n_examples <= 64
    out, stack = [], [(g, (1 << n_examples) - 1)]
    while stack:
        node, rows = stack.pop()
        out.append((node, rows))
        if node.kind == INTERNAL:
            one = rows & (words[node.var] if one_word
                          else column_bits(words, n_examples, node.var))
            stack += ((node.right, one), (node.left, rows & ~one))
    return out


# -- superimposition -------------------------------------------------------


def _slide(g: Tree, w, u, f: Tree):
    """One walk of g from the root down u; from depth len(w) on, f slides
    along until it reaches u or runs off onto a leaf/empty node.  Returns
    (`conflict`'s answer, the node of f where the slide stopped)."""
    w, u = tuple(w), tuple(u)
    if u[:len(w)] != w:
        raise UsageError(f"w={w} is not an ancestor of u={u}")
    gnode = g
    for step in w:
        if gnode.kind != INTERNAL:
            raise UsageError(f"path {u} leaves the tree")
        gnode = gnode.right if step else gnode.left
    clash, fnode = False, f
    for step in u[len(w):]:
        if gnode.kind != INTERNAL:
            raise UsageError(f"path {u} leaves the tree")
        if fnode.kind == INTERNAL:
            if gnode.var != fnode.var:
                clash = True
            fnode = fnode.right if step else fnode.left
        gnode = gnode.right if step else gnode.left
    if (len(u) > len(w) and fnode.kind == INTERNAL and gnode.kind == INTERNAL
            and gnode.var != fnode.var):
        clash = True
    return clash, fnode


def conflict(g: Tree, w, u, f: Tree) -> bool:
    """Does superimposing f with its root at w clash with g along w -> u?

    The root of f is mapped onto w and f is slid down the path toward u;
    wherever both the g-node and its image in f are internal, their variables
    must agree.  With w == u nothing is compared.  If the mapping runs off f
    (f is shallower than the path) the unreachable part imposes nothing.
    """
    return _slide(g, w, u, f)[0]


def induce(g: Tree, w, u, f: Tree):
    """Variable that f, superimposed at w, places at u — or None.

    None means the superimposition says nothing at u: the mapping ran off f,
    or landed on a leaf/empty node of f.
    """
    fnode = _slide(g, w, u, f)[1]
    return fnode.var if fnode.kind == INTERNAL else None


# -- gain functions --------------------------------------------------------


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def info_gain(labels: np.ndarray, values: np.ndarray) -> float:
    """Information gain of a boolean feature split on a labeled sample."""
    labels = np.asarray(labels, dtype=bool)
    values = np.asarray(values, dtype=bool)
    n = len(labels)
    if n == 0:
        return 0.0
    return _split_gain(n, int(np.count_nonzero(labels)),
                       int(np.count_nonzero(values)),
                       int(np.count_nonzero(labels & values)))


def _split_gain(n: int, plus: int, k: int, k_plus: int) -> float:
    """Information gain from counts: n > 0 examples, plus of them labelled +,
    k with the feature set and k_plus of those labelled +.  Side False is
    subtracted before side True, and an empty side is skipped."""
    gain = binary_entropy(plus / n)
    for size, pos in ((n - k, plus - k_plus), (k, k_plus)):
        if size:
            gain -= (size / n) * binary_entropy(pos / size)
    return gain


class InfoGain:
    """Empirical information gain over the probed feature column.

    Both calls take a node's examples `rows` and its positive ones `labels`
    as bitsets (see `tree_learners._best_split`), count by popcount and score
    with `_split_gain`, the formula `info_gain` uses.  The per-candidate call
    is handed the candidate's column on `rows`; `best` is called after the
    node's candidates were charged with `meter`, and gathers their columns
    itself through the unmetered `ds.gather_bits`.  It scores every candidate
    of a non-empty node, so its argmax is the per-candidate one.
    """

    def __call__(self, ds, rows, feature, values, labels) -> float:
        n = rows.bit_count()
        if n == 0:
            return 0.0
        return _split_gain(n, labels.bit_count(), values.bit_count(),
                           (values & labels).bit_count())

    def best(self, ds, rows, labels, candidates) -> int:
        n, plus = rows.bit_count(), labels.bit_count()
        best_j, best_gain = 0, -math.inf
        for j, col in enumerate(ds.gather_bits(rows, candidates)):
            gain = _split_gain(n, plus, col.bit_count(),
                               (col & labels).bit_count())
            if gain > best_gain:
                best_j, best_gain = j, gain
        return best_j


class TeacherGain:
    """Test-only gain that knows the hidden target.

    Routes the sample down the target along variables whose values the whole
    sample agrees on; the node where agreement first breaks is the designated
    split, which alone scores 1.0.  This realizes, by construction, the
    assumption that greedy top-down splitting reproduces the target.

    Both calls take a node's examples `rows` and its positive ones `labels`
    as bitsets (see `tree_learners._best_split`); a route step splits `rows`
    by the variable's column bitset.  `best` routes a node's non-empty sample
    once and returns the designated split's index among the candidates, or 0
    when it is not among them; a leaf route runs the label check and returns
    0.  That is the strict argmax of the per-candidate scores.  It reads no
    candidate column: the split gathers only the one it picks.

    The per-candidate `__call__` serves `_best_split`'s fallback, which
    scores every candidate of a node with the same `rows` object: the
    routing is done once per (ds, rows) pair and reused for the node's other
    candidates, so `rows` must not be mutated between calls.  A routing
    that raises is not cached, and the label check runs on every call.
    """

    def __init__(self, target: Tree):
        self.target = target
        self._ds = self._rows = self._node = None

    def __call__(self, ds, rows, feature, values, labels) -> float:
        if ds is not self._ds or rows is not self._rows:
            node = self._route(ds, rows)
            self._ds, self._rows, self._node = ds, rows, node
        node = self._node
        if node.kind == INTERNAL:
            return 1.0 if feature == node.var else 0.0
        self._check_leaf(node, rows, labels)
        return 0.0  # pure sample; the leaf case is handled before gain

    def best(self, ds, rows, labels, candidates) -> int:
        node = self._route(ds, rows)
        if node.kind == INTERNAL:
            return candidates.index(node.var) if node.var in candidates else 0
        self._check_leaf(node, rows, labels)
        return 0

    @staticmethod
    def _check_leaf(node, rows, labels) -> None:
        if labels != (rows if node.label else 0):
            raise OracleMisuseError("sample labels inconsistent with the target")

    def _route(self, ds, rows) -> Tree:
        """The designated split node, or the labeled leaf of a pure route."""
        node = self.target
        while node.kind == INTERNAL:
            ones = ds.peek_bits(node.var) & rows
            if ones == rows:
                node = node.right
            elif not ones:
                node = node.left
            else:
                return node
        if node.kind == EMPTY:
            raise OracleMisuseError("teacher gain routed into an empty leaf")
        return node


# -- membership oracle -----------------------------------------------------


def member_of_dt(g: Tree, metafeatures, d: int, s: int,
                 use_prefixes: bool = False,
                 max_size: int = 12, max_metafeatures: int = 6) -> bool:
    """Exhaustively decide whether g is growable from the given fragments.

    Growth moves: start with some f (or, with use_prefixes, any nonempty
    pruning of some f) at the root, then at every empty leaf either graft
    another fragment or assign a label.  Depth/size caps apply to g itself.
    Small instances only — this is the brute-force oracle the learners are
    checked against.
    """
    if g.size() > max_size or len(metafeatures) > max_metafeatures:
        raise UsageError("member_of_dt is an exhaustive oracle; instance too large")
    if g.depth() > d or g.size() > s or path_repeats_var(g):
        return False
    return _realizable(g, (metafeatures, use_prefixes, {}))


def _realizable(gnode, ctx) -> bool:
    """Can this g-subtree be produced starting fresh (fragment or label)?
    `ctx` is `member_of_dt`'s (fragments, use_prefixes, memo by node id)."""
    if gnode.kind != INTERNAL:
        return True  # a label move, or not yet grown
    memo = ctx[2]
    if id(gnode) not in memo:
        memo[id(gnode)] = False  # cycle guard; overwritten below
        memo[id(gnode)] = any(_covers(f, gnode, True, ctx) for f in ctx[0])
    return memo[id(gnode)]


def _covers(fnode, gnode, at_root: bool, ctx) -> bool:
    """Place fnode at gnode and match every position of f against g."""
    if fnode.kind == EMPTY:
        return _realizable(gnode, ctx)  # graft point
    # Pruning f here turns this position into an empty leaf of the
    # pruned fragment, i.e. a fresh graft/label point.
    if ctx[1] and not at_root and _realizable(gnode, ctx):
        return True
    if fnode.kind == LEAF:
        return gnode.kind == LEAF and gnode.label == fnode.label
    if gnode.kind != INTERNAL or gnode.var != fnode.var:
        return False
    return (_covers(fnode.left, gnode.left, False, ctx)
            and _covers(fnode.right, gnode.right, False, ctx))
