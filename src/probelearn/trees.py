"""Incomplete binary decision trees and the superimposition calculus.

A tree node is internal (splits on a variable), a labeled leaf, or an *empty*
leaf — a hole where the tree may still grow.  Trees grow by two moves: affix
a subtree at an empty leaf, or label an empty leaf.  No variable may repeat
on a root-to-leaf path.

The heart of representation reuse is superimposition: place the root of a
stored fragment f at a node w of a partially grown tree and slide it down the
path toward the node u being grown.  `conflict` says whether any variable
already assigned on that path disagrees with f; `induce` reads off which
variable f predicts at u.  Together they produce the small candidate sets
that make dictionary-based learning probe-cheap.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import OracleMisuseError, UsageError

INTERNAL = "internal"
LEAF = "leaf"
EMPTY = "empty"

PLUS, MINUS = True, False


class Tree:
    """One node of a possibly-incomplete binary decision tree.

    Left child is taken on feature value 0, right child on value 1.
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

    # -- predicates --------------------------------------------------------

    def is_internal(self) -> bool:
        return self.kind == INTERNAL

    def is_leaf(self) -> bool:
        return self.kind == LEAF

    def is_empty(self) -> bool:
        return self.kind == EMPTY

    def is_complete(self) -> bool:
        if self.kind == EMPTY:
            return False
        if self.kind == LEAF:
            return True
        return self.left.is_complete() and self.right.is_complete()

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

    def n_leaves(self) -> int:
        if self.kind != INTERNAL:
            return 1
        return self.left.n_leaves() + self.right.n_leaves()

    # -- navigation --------------------------------------------------------

    def node_at(self, path) -> "Tree":
        node = self
        for step in path:
            if node.kind != INTERNAL:
                raise UsageError(f"path {path} leaves the tree")
            node = node.right if step else node.left
        return node

    def path_vars(self, path) -> set:
        """Variables assigned at internal nodes strictly above `path`'s end,
        plus at the end itself when it is internal."""
        out = set()
        node = self
        for step in path:
            if node.kind != INTERNAL:
                raise UsageError(f"path {path} leaves the tree")
            out.add(node.var)
            node = node.right if step else node.left
        if node.kind == INTERNAL:
            out.add(node.var)
        return out

    def empty_slots(self) -> list:
        """(path, variables assigned above it) of every empty leaf,
        left-to-right; paths are tuples of 0/1."""
        found = []

        def walk(node, path, used):
            if node.kind == EMPTY:
                found.append((path, used))
            elif node.kind == INTERNAL:
                used = used | {node.var}
                walk(node.left, path + (0,), used)
                walk(node.right, path + (1,), used)

        walk(self, (), frozenset())
        return found

    def frontier_paths(self) -> list:
        """Paths of all leaf and empty nodes, left-to-right."""
        found = []

        def walk(node, path):
            if node.kind == INTERNAL:
                walk(node.left, path + (0,))
                walk(node.right, path + (1,))
            else:
                found.append(path)

        walk(self, ())
        return found

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
            return Tree.internal(self.var, self.left.copy(), self.right.copy())
        if self.kind == LEAF:
            return Tree.leaf(self.label)
        return Tree.empty()

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @staticmethod
    def from_json_obj(obj) -> "Tree":
        if not isinstance(obj, dict):
            raise UsageError(f"tree node must be an object, got {obj!r}")
        if "empty" in obj:
            return Tree.empty()
        if "leaf" in obj:
            if obj["leaf"] not in ("+", "-"):
                raise UsageError(f"bad leaf label {obj['leaf']!r}")
            return Tree.leaf(obj["leaf"] == "+")
        if "var" in obj:
            missing = [k for k in ("left", "right") if k not in obj]
            if missing:
                raise UsageError(f"internal node lacks {', '.join(missing)}")
            try:
                var = int(obj["var"])
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad variable {obj['var']!r}") from exc
            if var < 0:
                raise UsageError(f"negative variable {var}")
            return Tree.internal(var, Tree.from_json_obj(obj["left"]),
                                 Tree.from_json_obj(obj["right"]))
        raise UsageError(f"bad tree node {obj!r}")

    @staticmethod
    def from_json(text: str) -> "Tree":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"tree is not valid JSON: {exc}") from exc
        return Tree.from_json_obj(obj)


# -- growth moves ----------------------------------------------------------


def affix(f: Tree, path, f2: Tree, strict: bool = False) -> Tree:
    """Return a copy of f with a copy of f2 grafted at the empty leaf `path`.

    With strict=True, refuse grafts that repeat a variable on any root-to-leaf
    path (legal targets never do; generators rely on their own disjointness).
    """
    target = f.node_at(path)
    if not target.is_empty():
        raise UsageError(f"affix target {path} is not an empty leaf")
    out = f.copy()
    node = out.node_at(path)
    graft = f2.copy()
    node.kind, node.var, node.label = graft.kind, graft.var, graft.label
    node.left, node.right = graft.left, graft.right
    if strict and path_repeats_var(out):
        raise UsageError("affix would repeat a variable on a path")
    return out


def label_leaf(f: Tree, path, label: bool) -> Tree:
    """Return a copy of f with the empty leaf at `path` labeled."""
    target = f.node_at(path)
    if not target.is_empty():
        raise UsageError(f"label target {path} is not an empty leaf")
    out = f.copy()
    node = out.node_at(path)
    node.kind, node.label = LEAF, bool(label)
    return out


def path_repeats_var(tree: Tree) -> bool:
    """True iff some variable repeats on a root-to-leaf path."""

    def walk(node, seen):
        if node.kind != INTERNAL:
            return False
        if node.var in seen:
            return True
        seen = seen | {node.var}
        return walk(node.left, seen) or walk(node.right, seen)

    return walk(tree, set())


# -- superimposition -------------------------------------------------------


def _validate_span(g: Tree, w, u) -> None:
    if tuple(u[: len(w)]) != tuple(w):
        raise UsageError(f"w={w} is not an ancestor of u={u}")
    g.node_at(u)  # raises if u not in g


def conflict(g: Tree, w, u, f: Tree) -> bool:
    """Does superimposing f with its root at w clash with g along w -> u?

    The root of f is mapped onto w and f is slid down the path toward u;
    wherever both the g-node and its image in f are internal, their variables
    must agree.  With w == u nothing is compared.  If the mapping runs off f
    (f is shallower than the path) the unreachable part imposes nothing.
    """
    w, u = tuple(w), tuple(u)
    _validate_span(g, w, u)
    if w == u:
        return False
    gnode = g.node_at(w)
    fnode = f
    rel = u[len(w):]
    idx = 0
    while True:
        if fnode.kind != INTERNAL:
            return False  # ran off f; nothing further is constrained
        if gnode.kind == INTERNAL and gnode.var != fnode.var:
            return True
        if idx == len(rel) or gnode.kind != INTERNAL:
            return False
        step = rel[idx]
        gnode = gnode.right if step else gnode.left
        fnode = fnode.right if step else fnode.left
        idx += 1


def induce(g: Tree, w, u, f: Tree):
    """Variable that f, superimposed at w, places at u — or None.

    None means the superimposition says nothing at u: the mapping ran off f,
    or landed on a leaf/empty node of f.
    """
    w, u = tuple(w), tuple(u)
    _validate_span(g, w, u)
    fnode = f
    for step in u[len(w):]:
        if fnode.kind != INTERNAL:
            return None
        fnode = fnode.right if step else fnode.left
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
    base = binary_entropy(labels.mean())
    gain = base
    for side in (False, True):
        part = labels[values == side]
        if len(part):
            gain -= (len(part) / n) * binary_entropy(part.mean())
    return gain


class InfoGain:
    """Empirical information gain over the probed feature column."""

    def __call__(self, ds, rows, feature, values, labels) -> float:
        return info_gain(labels, values)


class TeacherGain:
    """Test-only gain that knows the hidden target.

    Routes the sample down the target along variables whose values the whole
    sample agrees on; the node where agreement first breaks is the designated
    split, which alone scores 1.0.  This realizes, by construction, the
    assumption that greedy top-down splitting reproduces the target.

    The growers score every candidate of a node with the same `rows` array
    object, so the routing is done once per (ds, rows) pair and reused for
    the node's other candidates; `rows` must not be mutated between calls.
    A routing that raises is not cached, and the label check runs on every
    call.
    """

    def __init__(self, target: Tree):
        self.target = target
        self._ds = self._rows = self._node = None

    def __call__(self, ds, rows, feature, values, labels) -> float:
        if len(rows) == 0:
            return 0.0
        if ds is not self._ds or rows is not self._rows:
            node = self._route(ds, rows)
            self._ds, self._rows, self._node = ds, rows, node
        node = self._node
        if node.kind == INTERNAL:
            return 1.0 if feature == node.var else 0.0
        labs = np.asarray(labels, dtype=bool)
        if not (labs == node.label).all():
            raise OracleMisuseError("sample labels inconsistent with the target")
        return 0.0  # pure sample; the leaf case is handled before gain

    def _route(self, ds, rows) -> Tree:
        """The designated split node, or the labeled leaf of a pure route."""
        node = self.target
        while node.kind == INTERNAL:
            col = np.asarray(ds.peek_rows(rows, node.var), dtype=bool)
            if col.all():
                node = node.right
            elif not col.any():
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
    if g.depth() > d or g.size() > s:
        return False
    if path_repeats_var(g):
        return False

    memo = {}

    def realizable(gnode) -> bool:
        """Can this g-subtree be produced starting fresh (fragment or label)?"""
        if gnode.kind == LEAF:
            return True  # label move
        if gnode.kind == EMPTY:
            return True  # not yet grown
        key = id(gnode)
        if key in memo:
            return memo[key]
        memo[key] = False  # cycle guard; overwritten below
        ok = any(cover(f, gnode, at_root=True) for f in metafeatures)
        memo[key] = ok
        return ok

    def cover(fnode, gnode, at_root: bool) -> bool:
        """Place fnode at gnode and match every position of f against g."""
        if fnode.kind == EMPTY:
            return realizable(gnode)  # graft point
        if use_prefixes and not at_root and realizable_after_prune(gnode):
            return True
        if fnode.kind == LEAF:
            return gnode.kind == LEAF and gnode.label == fnode.label
        if gnode.kind != INTERNAL or gnode.var != fnode.var:
            return False
        return (cover(fnode.left, gnode.left, False)
                and cover(fnode.right, gnode.right, False))

    def realizable_after_prune(gnode) -> bool:
        # Pruning f here turns this position into an empty leaf of the
        # pruned fragment, i.e. a fresh graft/label point.
        return realizable(gnode)

    return realizable(g)
