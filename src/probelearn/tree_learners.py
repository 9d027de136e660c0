"""Learners for decision trees over probe-metered data.

`learn_tree_scratch` probes the whole matrix and grows the tree top-down by
gain.  `lfd_tree` learns through a representation F~ of stored fragments,
probing only the tiny candidate sets that superimposition induces; on any
target growable from prunings of F~ (with teacher gain and leaf-covering
data) it reproduces the target exactly, probing at most 2|F~| + 2d distinct
features per example.  `naive_lfd_seen_features` is the baseline that
offers every previously seen feature at every node.  All three are one
grower, `_grow`, that differs only in each node's candidate set.  LFD's
sets depend only on F~ and the node's root path, so a caller keeps them
across tasks in one map per F~ (`lfd_tree`'s `paths`).

The grower holds each node's examples as a bitset (bit e = example e).  A
node's purity test ANDs it with the label bitset, one `meter` call charges
its candidates on it, the gain gathers and counts what it scores, and the
children are the chosen column and its complement in the node.  A node's
position is the (variable, step) pairs of the splits above it.

The grower keeps two traversal orders because each decides an output.  LFD
and the baseline grow breadth-first: they stop at the first node that breaks
a cap or has no candidate, after probing every node taken before it, so the
order fixes their probe sets.  Scratch has probed everything already; it
grows depth-first, so its first failing node, and with it the
`RealizabilityError` message, is the first in pre-order.

The ImproveRep variants decide what to add to F~ after a failure: path
subtrees (general trees), a single suffix (decision lists), a single
anchored subtree (anchor model), or an anchor partition (overcomplete
model).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import InternalError, ModelViolationError, RealizabilityError
from .trees import INTERNAL, LEAF, PLUS, Tree, _route_bits, steps
# Not called here: perfbench/tracing.py wraps these names in this module.
from .trees import conflict, induce  # noqa: F401

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
    """Split a node on the strict gain argmax of `candidates` over its
    examples; ties go to the earliest candidate, and every grower lists its
    candidates in ascending order.  Returns (feature, the bitset of the
    node's examples with it set).

    `rows` and `labels` are the bitsets of a mixed, non-empty node's
    examples and of its positive ones.  The split is one `meter` call plus
    an unmetered gather: a dataset that is not bool is refused before
    anything is charged, then the candidates are charged on `rows` in one
    read.  A gain picks the node's split with one call, `gain.best(ds,
    rows, labels, candidates)` -> the argmax's index (see `InfoGain` and
    `TeacherGain`); it gathers what it scores, and only the chosen column
    is gathered here.

    Any other callable is a per-candidate score, `gain(ds, rows, feature,
    cols[j], labels)`, where `cols = ds.gather_bits(rows, candidates)`,
    called once per candidate with the same `rows` object.  That path stays
    because perfbench's gain proxy wraps only the per-candidate call; once
    ROADMAP item 2 points the proxy at `best`, it can go.
    """
    ds.need_bits()
    ds.meter(candidates, rows)
    best = getattr(gain, "best", None)
    if best is not None:
        feature = candidates[best(ds, rows, labels, candidates)]
        return feature, ds.peek_bits(feature) & rows
    cols = ds.gather_bits(rows, candidates)
    best_j, best_gain = None, -math.inf
    for j, feature in enumerate(candidates):
        g = gain(ds, rows, feature, cols[j], labels)
        if g > best_gain:
            best_j, best_gain = j, g
    return candidates[best_j], cols[best_j]


def _grow(ds, gain, d: int, s: int, candidates, depth_first: bool) -> LfdResult:
    """The one top-down grower: split every mixed node on the best feature of
    `candidates(root, above)` (ascending indices) until every node is a leaf;
    `above` holds the node's (variable, step) pairs, as in `Tree.walk`.

    Caps are checked when a node leaves the frontier: a node deeper than d,
    or any node once more than s splits exist, stops the grower, so the split
    that broke a cap has already been probed.  A node no example reaches
    becomes a PLUS leaf, a pure node a leaf of its label, and a mixed node
    with no candidate stops the grower.  The frontier is a FIFO queue, or a
    stack with the left child on top when `depth_first`.  Each node's
    examples are a bitset (bit e = example e), split by the bitset read.
    """
    root = Tree.empty()
    size = 0
    positive = ds.label_bits
    frontier = deque([(root, (), (1 << ds.n_examples) - 1)])
    take = frontier.pop if depth_first else frontier.popleft
    while frontier:
        node, above, rows = take()
        if len(above) > d or size > s:
            return LfdResult(FAILED, root, failed_path=steps(above),
                             reason="depth" if len(above) > d else "size")
        if not rows:
            node.kind, node.label = LEAF, PLUS
            continue
        labels = rows & positive
        if not labels or labels == rows:
            node.kind, node.label = LEAF, labels != 0
            continue
        features = candidates(root, above)
        if not features:
            return LfdResult(FAILED, root, failed_path=steps(above),
                             reason="no-candidate")
        best_i, col = _best_split(ds, gain, rows, labels, features)
        node.kind, node.var = INTERNAL, best_i
        node.left, node.right = Tree.empty(), Tree.empty()
        size += 1
        children = [(node.left, above + ((best_i, 0),), rows & ~col),
                    (node.right, above + ((best_i, 1),), col)]
        frontier.extend(reversed(children) if depth_first else children)
    return LfdResult(LEARNED, root)


# -- scratch ---------------------------------------------------------------


def learn_tree_scratch(ds, gain, d: int, s: int) -> Tree:
    """Probe everything, then grow top-down by gain within the (d, s) caps.

    Depth-first, and a mixed node that the caps forbid to split gets no
    candidates: the grower stops at the first such node in pre-order without
    scoring a split that could only fail.
    """
    ds.probe_all()

    def unused(root, above):
        if len(above) >= d or root.size() >= s:
            return []
        free = list(range(ds.n_features))
        for var in sorted({var for var, _ in above}, reverse=True):
            del free[var]  # from the top down, so lower indices stay put
        return free

    result = _grow(ds, gain, d, s, unused, depth_first=True)
    if result.learned:
        return result.tree
    if len(result.failed_path) >= d:
        raise RealizabilityError(f"mixed sample at depth cap {d}")
    if result.tree.size() >= s:
        raise RealizabilityError(f"size cap {s} reached")
    raise RealizabilityError("all features already used on this path")


def _teacher_rebuilds(ds, target: Tree, d: int, s: int) -> bool:
    """Would `learn_tree_scratch(ds, TeacherGain(target), d, s)` grow the
    target?  Yes if it fits the caps, each internal node's examples hold
    both labels and each leaf's are non-empty and all carry its label (so
    no split is one-sided and no variable repeats on a path)."""
    if target.depth() > d or target.size() > s:
        return False
    positive = ds.label_bits
    for node, rows in _route_bits(target, (1 << ds.n_examples) - 1,
                                  ds.peek_bits):
        labels = rows & positive
        if node.kind == INTERNAL:
            if labels in (0, rows):
                return False
        elif node.kind != LEAF or not rows or labels != rows * node.label:
            return False
    return True


# -- learning from the representation --------------------------------------


def lfd_tree(ds, rep, gain, d: int, s: int, paths: dict = None) -> LfdResult:
    """Grow a tree using only features the stored fragments can induce.

    At each mixed node u, every fragment f in rep is superimposed at every
    node w on the root path (including u itself); every placement that
    `conflict` passes and `induce` maps onto an internal node of f adds that
    node's variable to the candidate set I, ancestors' variables are
    removed, and only I is probed on the examples reaching u.  Fails when
    the depth/size caps break or no candidate remains.

    The placements are advanced, not recomputed: `paths[above]` holds the
    internal f-nodes that the placements alive at that node land on, and
    the node's sorted candidates.  A child keeps the f-nodes of its parent
    whose variable is the split above[-1], steps each one the same way,
    drops the ones that run off f, and adds every internal fragment root
    (the placements at w = u).  The node being grown is still empty, so
    nothing at u itself can clash.  Both depend only on rep and the path,
    so `TreeFamily.attempt` passes one `paths` dict to every task it
    attempts through one rep object: each path is superimposed once per
    representation.
    """
    roots = [f for f in rep if f.kind == INTERNAL]
    paths = {} if paths is None else paths

    def induced(root, above):
        if above not in paths:
            here = list(roots)
            if above:
                var, step = above[-1]
                for fnode in paths[above[:-1]][0]:
                    if fnode.var == var:
                        child = fnode.right if step else fnode.left
                        if child.kind == INTERNAL:
                            here.append(child)
            paths[above] = here, sorted(
                {fnode.var for fnode in here} - {v for v, _ in above})
        return paths[above][1]

    return _grow(ds, gain, d, s, induced, depth_first=False)


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
    seen = set(seen)
    return _grow(ds, gain, d, s,
                 lambda root, above: sorted(seen - {v for v, _ in above}),
                 depth_first=False)


def bootstrap_count(p_min: float, k: int, delta: float) -> int:
    """Targets to learn whole so every fragment tops one of them w.p. ≥ 1-δ."""
    return math.ceil(math.log(k / delta) / p_min)
