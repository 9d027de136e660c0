"""Learners for decision trees over probe-metered data.

`learn_tree_scratch` probes the whole matrix and grows the tree top-down by
gain.  `lfd_tree` learns through a representation F~ of stored fragments,
probing only the tiny candidate sets that superimposition induces; on any
target growable from prunings of F~ (with teacher gain and leaf-covering
data) it reproduces the target exactly, probing at most 2|F~| + 2d distinct
features per example.  The ImproveRep variants decide what to add to F~ after
a failure: path subtrees (general trees), a single suffix (decision lists), a
single anchored subtree (anchor model), or an anchor partition (overcomplete
model).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InternalError, ModelViolationError, RealizabilityError
from .trees import EMPTY, INTERNAL, LEAF, PLUS, Tree, conflict, induce

LEARNED = "learned"
FAILED = "failed"


@dataclass
class LfdResult:
    outcome: str                 # "learned" | "failed"
    tree: Tree                   # complete when learned, partial otherwise
    failed_path: tuple = None    # root path through the violating node
    reason: str = None           # "depth" | "size" | "no-candidate"

    @property
    def learned(self) -> bool:
        return self.outcome == LEARNED


# -- choosing a split --------------------------------------------------------


def _best_split(ds, gain, rows, labels, candidates):
    """Probe `candidates` on `rows` in one block read and split on the strict
    gain argmax; ties go to the earliest candidate, and every grower lists
    its candidates in ascending order.  Returns (feature, its bool column).

    Every candidate is scored with the same `rows` object, which lets a gain
    do per-node work once (see `TeacherGain`).
    """
    block = np.asarray(ds.probe_block(rows, candidates), dtype=bool)
    best_j, best_gain = None, -math.inf
    for j, feature in enumerate(candidates):
        g = gain(ds, rows, feature, block[:, j], labels)
        if g > best_gain:
            best_j, best_gain = j, g
    return candidates[best_j], block[:, best_j]


# -- scratch ---------------------------------------------------------------


def learn_tree_scratch(ds, gain, d: int, s: int) -> Tree:
    """Probe everything, then grow top-down by gain within the (d, s) caps."""
    ds.probe_all()
    size = [0]

    def build(rows, path_vars, depth):
        if len(rows) == 0:
            return Tree.leaf(PLUS)
        labels = np.asarray(ds.labels_at(rows), dtype=bool)
        if labels.all() or not labels.any():
            return Tree.leaf(bool(labels[0]))
        if depth >= d:
            raise RealizabilityError(f"mixed sample at depth cap {d}")
        if size[0] >= s:
            raise RealizabilityError(f"size cap {s} reached")
        candidates = [i for i in range(ds.n_features) if i not in path_vars]
        if not candidates:
            raise RealizabilityError("all features already used on this path")
        best_i, col = _best_split(ds, gain, rows, labels, candidates)
        size[0] += 1
        left = build(rows[~col], path_vars | {best_i}, depth + 1)
        right = build(rows[col], path_vars | {best_i}, depth + 1)
        return Tree.internal(best_i, left, right)

    return build(np.arange(ds.n_examples), set(), 0)


# -- learning from the representation --------------------------------------


def lfd_tree(ds, rep, gain, d: int, s: int) -> LfdResult:
    """Grow a tree using only features the stored fragments can induce.

    At each mixed node u, every fragment f in rep is superimposed at every
    node w on the root path (including u itself); conflict-free placements
    contribute their induced variable to the candidate set I, ancestors'
    variables are removed, and only I is probed on the examples reaching u.
    Fails when the depth/size caps break or no candidate remains.
    """
    root = Tree.empty()
    size = 0
    queue = deque([(root, (), np.arange(ds.n_examples))])
    while queue:
        node, path, rows = queue.popleft()
        if len(path) > d:
            return LfdResult(FAILED, root, failed_path=path, reason="depth")
        if size > s:
            return LfdResult(FAILED, root, failed_path=path, reason="size")
        if len(rows) == 0:
            node.kind, node.label = LEAF, PLUS
            continue
        labels = np.asarray(ds.labels_at(rows), dtype=bool)
        if labels.all() or not labels.any():
            node.kind, node.label = LEAF, bool(labels[0])
            continue
        candidates = set()
        for f in rep:
            for wlen in range(len(path) + 1):
                w = path[:wlen]
                if conflict(root, w, path, f):
                    continue
                var = induce(root, w, path, f)
                if var is not None:
                    candidates.add(var)
        candidates -= root.path_vars(path)
        if not candidates:
            return LfdResult(FAILED, root, failed_path=path, reason="no-candidate")
        best_i, col = _best_split(ds, gain, rows, labels, sorted(candidates))
        node.kind, node.var = INTERNAL, best_i
        node.left, node.right = Tree.empty(), Tree.empty()
        size += 1
        queue.append((node.left, path + (0,), rows[~col]))
        queue.append((node.right, path + (1,), rows[col]))
    return LfdResult(LEARNED, root)


def per_example_probe_bound_check(ledger, rep_size: int, d: int):
    """Check the per-example probe bound 2|F~| + 2d for one LFD task.

    Returns (ok, observed_max, bound).
    """
    bound = 2 * rep_size + 2 * d
    observed = ledger.per_example_max()
    return observed <= bound, observed, bound


# -- failure analysis shared by the ImproveRep variants ---------------------

VAR_MISMATCH = "var-mismatch"
FRONTIER = "frontier-at-internal"
OVERLONG = "overlong"


def _walk_difference(g: Tree, gtilde: Tree, path):
    """Walk g along a root path of gtilde, comparing assigned variables.

    Returns (segment, diff_kind): `segment` is the list of internal g-nodes
    visited from the root down to (and including) the first disagreement, and
    diff_kind describes it — a variable mismatch, the gtilde path stopping at
    an unfinished/labeled node where g is internal, or the gtilde path
    outliving g's.  diff_kind is None when the walk found no disagreement.
    """
    segment = []
    gnode, tnode = g, gtilde
    for j in range(len(path) + 1):
        if gnode.kind != INTERNAL:
            if tnode.kind == INTERNAL:
                return segment, OVERLONG
            return segment, None
        segment.append(gnode)
        if tnode.kind != INTERNAL:
            return segment, FRONTIER  # gtilde stopped short of g here
        if tnode.var != gnode.var:
            return segment, VAR_MISMATCH
        if j == len(path):
            return segment, None
        step = path[j]
        gnode = gnode.right if step else gnode.left
        tnode = tnode.right if step else tnode.left
    return segment, None


def _find_differing_path(g: Tree, gtilde: Tree, failed_path):
    """The recorded failed path if it disagrees with g, else the first
    disagreeing root path of gtilde in depth-first order."""
    if failed_path is not None:
        segment, kind = _walk_difference(g, gtilde, failed_path)
        if kind is not None:
            return segment, kind
    for path in gtilde.frontier_paths():
        segment, kind = _walk_difference(g, gtilde, path)
        if kind is not None:
            return segment, kind
    raise InternalError("improve-rep called but the hypothesis matches the target")


def _dedup_extend(rep, additions):
    seen = {f.key() for f in rep}
    out = list(rep)
    added = 0
    for tree in additions:
        k = tree.key()
        if k not in seen:
            seen.add(k)
            out.append(tree)
            added += 1
    return out, added


# -- ImproveRep variants ---------------------------------------------------


def improve_rep_tree(rep, g: Tree, result: LfdResult):
    """Add the subtree of g rooted at every node of the mislearned path.

    The path is the corresponding path in g of a root path of the failed
    hypothesis that disagrees with g; one of the added subtrees necessarily
    has a not-yet-represented fragment of the hidden dictionary as a prefix,
    which is what caps scratch learns at K and |F~| at K*d.
    """
    segment, _ = _find_differing_path(g, result.tree, result.failed_path)
    return _dedup_extend(rep, [node.copy() for node in segment])


def improve_rep_list(rep, g: Tree, result: LfdResult):
    """Decision lists: add the suffix of g past its longest prefix matched
    by the failed hypothesis."""
    suffix = _list_suffix(g, result.tree)
    if suffix is None:
        raise InternalError("list improve-rep: hypothesis already matches the target")
    return _dedup_extend(rep, [suffix.copy()])


def _spine_step(gnode: Tree):
    """(direction, side) of a decision-list node; direction None at the end."""
    left_int = gnode.left.kind == INTERNAL
    right_int = gnode.right.kind == INTERNAL
    if left_int and right_int:
        raise ModelViolationError("not a decision list: two internal children")
    if left_int:
        return 0, 1
    if right_int:
        return 1, 0
    return None, None


def _list_suffix(g: Tree, gtilde: Tree):
    gnode, tnode = g, gtilde
    while gnode.kind == INTERNAL:
        direction, side = _spine_step(gnode)
        if tnode.kind != INTERNAL or tnode.var != gnode.var:
            return gnode
        if direction is None:
            # terminal node: both children must be matching leaves
            for child_g, child_t in ((gnode.left, tnode.left), (gnode.right, tnode.right)):
                if child_t.kind != LEAF or child_t.label != child_g.label:
                    return gnode
            return None
        side_g = gnode.right if side else gnode.left
        side_t = tnode.right if side else tnode.left
        if side_t.kind != LEAF or side_t.label != side_g.label:
            return gnode
        gnode = gnode.right if direction else gnode.left
        tnode = tnode.right if direction else tnode.left
    return None


def improve_rep_anchor(rep, g: Tree, result: LfdResult):
    """Anchor model: add only the subtree at the topmost conflicting node.

    Every fragment carries a unique anchor variable at its root, so the first
    disagreement on the failed path always sits at the root of an unlearned
    fragment; one addition per failure suffices and |F~| stays ≤ K.
    """
    segment, kind = _find_differing_path(g, result.tree, result.failed_path)
    if kind == OVERLONG:
        raise InternalError("anchored failure has no conflicting node in g")
    return _dedup_extend(rep, [segment[-1].copy()])


def improve_rep_overcomplete(rep, g: Tree, anchors):
    """Overcomplete model: partition g at anchor occurrences and add pieces.

    Every piece is cut where a known anchor variable starts a nested fragment
    (that position becomes an empty leaf) and has its leaf labels stripped to
    empty, so distinct labelings of the same fragment collapse to one stored
    tree and |F~| stays ≤ K1*K2.
    """
    if g.kind != INTERNAL:
        return list(rep), 0
    if g.var not in anchors:
        raise ModelViolationError(f"target root x{g.var} is not a known anchor")
    pieces = []
    todo = deque([g])
    while todo:
        start = todo.popleft()

        def cut(node):
            if node.kind != INTERNAL:
                return Tree.empty()  # strip labels: they are never induced from
            if node is not start and node.var in anchors:
                todo.append(node)
                return Tree.empty()
            return Tree.internal(node.var, cut(node.left), cut(node.right))

        pieces.append(cut(start))
    return _dedup_extend(rep, pieces)


# -- baselines and bootstrap ----------------------------------------------


def naive_lfd_seen_features(ds, seen, gain, d: int, s: int) -> LfdResult:
    """Baseline: grow top-down probing only previously seen features.

    No superimposition — every seen feature is a candidate at every node, so
    each example pays up to |seen| probes instead of O(|F~| + d).
    """
    root = Tree.empty()
    size = 0
    queue = deque([(root, (), np.arange(ds.n_examples))])
    while queue:
        node, path, rows = queue.popleft()
        if len(path) > d:
            return LfdResult(FAILED, root, failed_path=path, reason="depth")
        if size > s:
            return LfdResult(FAILED, root, failed_path=path, reason="size")
        if len(rows) == 0:
            node.kind, node.label = LEAF, PLUS
            continue
        labels = np.asarray(ds.labels_at(rows), dtype=bool)
        if labels.all() or not labels.any():
            node.kind, node.label = LEAF, bool(labels[0])
            continue
        candidates = sorted(set(seen) - root.path_vars(path))
        if not candidates:
            return LfdResult(FAILED, root, failed_path=path, reason="no-candidate")
        best_i, col = _best_split(ds, gain, rows, labels, candidates)
        node.kind, node.var = INTERNAL, best_i
        node.left, node.right = Tree.empty(), Tree.empty()
        size += 1
        queue.append((node.left, path + (0,), rows[~col]))
        queue.append((node.right, path + (1,), rows[col]))
    return LfdResult(LEARNED, root)


def bootstrap_count(p_min: float, k: int, delta: float) -> int:
    """Targets to learn whole so every fragment tops one of them w.p. ≥ 1-δ."""
    return math.ceil(math.log(k / delta) / p_min)
