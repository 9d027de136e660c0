"""Scratch and dictionary-driven tree learning plus the ImproveRep rules."""

import math

import numpy as np
import pytest

from probelearn import (CostlyDataset, InfoGain, InternalError,
                        ModelViolationError, RealizabilityError, StreamSpec,
                        TeacherGain, Tree, UsageError, bootstrap_count,
                        conflict, fill_labels, gen_tree_stream,
                        improve_rep_anchor, improve_rep_list,
                        improve_rep_overcomplete, improve_rep_tree, induce,
                        leaf_cover_dataset, learn_tree_scratch, lfd_tree,
                        naive_lfd_seen_features, sample_fragment,
                        tree_learners, tree_vars)
from probelearn.tree_learners import LfdResult
from probelearn.trees import steps

E = Tree.empty
L = Tree.leaf
I = Tree.internal


def stump(var):
    return I(var, E(), E())


def covering_ds(rng, target, n_features, sample_size=8):
    return leaf_cover_dataset(rng, target, n_features, sample_size)


def per_example_probe_bound_check(ledger, rep_size: int, d: int):
    """Check the per-example probe bound 2|F~| + 2d for one LFD task.

    Returns (ok, observed_max, bound).
    """
    bound = 2 * rep_size + 2 * d
    observed = ledger.per_example_max()
    return observed <= bound, observed, bound


# -- scratch ---------------------------------------------------------------


def test_scratch_recovers_stump():
    rng = np.random.default_rng(10)
    target = I(1, L(False), L(True))
    ds = covering_ds(rng, target, 5)
    out = learn_tree_scratch(ds, TeacherGain(target), d=3, s=3)
    assert out == target
    assert ds.ledger.total_probes == ds.n_examples * ds.n_features  # probe_all


def test_scratch_pure_labels():
    values = np.zeros((4, 3), dtype=np.uint8)
    ds = CostlyDataset.from_bool(values, [True] * 4)
    out = learn_tree_scratch(ds, InfoGain(), d=2, s=2)
    assert out == L(True)


def test_scratch_reduced_depth3_targets_exactly():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(25):
        shape = sample_fragment(rng, list(range(7)), 3)
        if shape.kind != "internal":
            continue
        target = fill_labels(rng, shape)
        ds = covering_ds(rng, target, 10)
        out = learn_tree_scratch(ds, TeacherGain(target), d=3, s=7)
        assert out == target
        hits += 1
    assert hits > 10


def test_scratch_unrealizable_depth():
    # identical rows with opposite labels cannot be separated at any depth
    values = np.array([[0, 1], [0, 1]], dtype=np.uint8)
    ds = CostlyDataset.from_bool(values, [True, False])
    with pytest.raises(RealizabilityError):
        learn_tree_scratch(ds, InfoGain(), d=2, s=4)


# -- LFD --------------------------------------------------------------------


def test_lfd_with_exact_metafeature():
    rng = np.random.default_rng(12)
    target = fill_labels(rng, I(2, I(4, E(), E()), E()))
    ds = covering_ds(rng, target, 8)
    result = lfd_tree(ds, [target], TeacherGain(target), d=3, s=3)
    assert result.learned
    assert result.tree == target
    ok, observed, bound = per_example_probe_bound_check(ds.ledger, 1, 3)
    assert ok and bound == 2 * 1 + 2 * 3 and observed <= bound


def test_lfd_through_prefix():
    rng = np.random.default_rng(13)
    target = I(1, L(False), L(True))
    deeper = I(1, I(2, E(), E()), I(3, E(), E()))
    ds = covering_ds(rng, target, 6)
    result = lfd_tree(ds, [deeper], TeacherGain(target), d=2, s=3)
    assert result.learned
    assert result.tree == target


def test_lfd_fails_without_candidates():
    rng = np.random.default_rng(14)
    target = I(1, L(False), L(True))
    ds = covering_ds(rng, target, 12)
    result = lfd_tree(ds, [stump(9)], TeacherGain(target), d=3, s=3)
    assert not result.learned
    assert result.reason == "no-candidate"
    assert result.tree is not None
    assert result.failed_path is not None


def test_lfd_empty_rep_fails():
    rng = np.random.default_rng(15)
    target = I(1, L(False), L(True))
    ds = covering_ds(rng, target, 4)
    result = lfd_tree(ds, [], TeacherGain(target), d=2, s=2)
    assert not result.learned


def test_lfd_probes_only_candidates():
    rng = np.random.default_rng(16)
    target = fill_labels(rng, I(3, E(), E()))
    ds = covering_ds(rng, target, 20)
    result = lfd_tree(ds, [stump(3)], TeacherGain(target), d=2, s=2)
    assert result.learned
    # one fragment of depth 1: only feature 3 is ever probed
    assert ds.ledger.per_example_max() <= 1
    assert ds.ledger.total_probes <= ds.n_examples


def test_lfd_per_example_bound_random_streams():
    from probelearn import StreamSpec, gen_tree_stream

    for trial in range(12):
        spec = StreamSpec(family="tree", n_features=12, k=3, d=3, s=7,
                          m=6, mf_depth=2, sample_size=8, seed=600)
        tasks, dictionary = gen_tree_stream(spec, trial)
        rep = list(dictionary)  # the full dictionary: every task is learnable
        for task in tasks:
            result = lfd_tree(task.ds, rep, TeacherGain(task.target),
                              spec.d, spec.s)
            assert result.learned
            ok, observed, bound = per_example_probe_bound_check(
                task.ds.ledger, len(rep), spec.d)
            assert ok, (observed, bound)


# -- ImproveRep -------------------------------------------------------------


def test_improve_tree_adds_path_subtrees():
    g = I(1, I(2, L(True), L(False)), L(True))
    partial = I(1, I(7, E(), E()), E())  # agrees at root, diverges below
    result = LfdResult("failed", partial, failed_path=(0,))
    rep, added = improve_rep_tree([], g, result)
    assert added == 2
    assert rep[0] == g
    assert rep[1] == g.left  # the subtree rooted at x2


def test_improve_tree_failure_at_root():
    g = I(1, L(True), L(False))
    result = LfdResult("failed", I(9, E(), E()), failed_path=())
    rep, added = improve_rep_tree([], g, result)
    assert added == 1 and rep == [g]


def test_improve_tree_dedups():
    g = I(1, L(True), L(False))
    result = LfdResult("failed", I(9, E(), E()), failed_path=())
    rep, added = improve_rep_tree([g], g, result)
    assert added == 0 and rep == [g]


def test_improve_tree_matching_hypothesis_is_an_error():
    g = I(1, L(True), L(False))
    with pytest.raises(InternalError):
        improve_rep_tree([], g, LfdResult("failed", g.copy(), failed_path=()))


def make_list(spine, labels_side, terminal):
    """Decision list descending left; side leaves labeled per labels_side."""
    out = I(spine[-1], L(terminal[0]), L(terminal[1]))
    for var, side in zip(reversed(spine[:-1]), reversed(labels_side)):
        out = I(var, out, L(side))
    return out


def test_improve_list_empty_hypothesis_adds_whole_target():
    g = make_list([1, 2, 3], [True, False], (True, False))
    rep, added = improve_rep_list([], g, LfdResult("failed", E(), failed_path=()))
    assert added == 1 and rep == [g]


def test_improve_list_adds_suffix_past_matched_prefix():
    g = make_list([1, 2, 3], [True, False], (True, False))
    partial = I(1, E(), L(True))  # matched x1 and its side leaf only
    rep, added = improve_rep_list([], g, LfdResult("failed", partial,
                                                   failed_path=(0,)))
    assert added == 1
    assert rep[0] == g.left  # the x2,x3 suffix
    assert rep[0].var == 2


def test_improve_list_rejects_non_list():
    g = I(1, I(2, L(True), L(False)), I(3, L(True), L(False)))
    with pytest.raises(ModelViolationError):
        improve_rep_list([], g, LfdResult("failed", E(), failed_path=()))


def test_improve_anchor_first_failure_adds_target():
    g = I(5, I(2, L(True), L(False)), L(True))
    rep, added = improve_rep_anchor([], g, LfdResult("failed", E(),
                                                     failed_path=()))
    assert added == 1 and rep == [g]


def test_improve_anchor_adds_only_the_deep_subtree():
    # root anchor already represented; the novel anchor sits at depth 1
    g = I(5, I(7, L(True), L(False)), L(True))
    partial = I(5, I(2, E(), E()), E())
    rep, added = improve_rep_anchor([], g, LfdResult("failed", partial,
                                                     failed_path=(0,)))
    assert added == 1
    assert rep[0] == g.left
    assert rep[0].var == 7


def test_improve_overcomplete_partition():
    body = I(2, L(True), L(False))
    g = I(5, body, L(True))  # anchors only at the root
    rep, added = improve_rep_overcomplete([], g, anchors={5})
    assert added == 1
    # labels are stripped to empties in stored pieces
    assert rep[0] == I(5, I(2, E(), E()), E())

    nested = I(5, I(6, I(2, L(True), L(False)), L(False)), L(True))
    rep2, added2 = improve_rep_overcomplete([], nested, anchors={5, 6})
    assert added2 == 2
    assert {p.var for p in rep2} == {5, 6}

    rep3, added3 = improve_rep_overcomplete(rep2, nested, anchors={5, 6})
    assert added3 == 0 and len(rep3) == 2


def test_improve_overcomplete_requires_anchor_root():
    g = I(3, L(True), L(False))
    with pytest.raises(ModelViolationError):
        improve_rep_overcomplete([], g, anchors={5})


def test_improve_variants_do_not_mutate_input_rep():
    g = I(1, L(True), L(False))
    rep = [stump(9)]
    out, _ = improve_rep_tree(rep, g, LfdResult("failed", E(), failed_path=()))
    assert rep == [stump(9)] and len(out) == 2


# -- one block probe per node ----------------------------------------------


def reference_split(ds, gain, rows, labels, candidates):
    """Per-candidate reference for the bitset split: probe one column at a
    time on the node's example indices, keep the first strict gain
    maximum."""
    best_i, best_gain, values = None, -math.inf, {}
    index = np.array([e for e in range(ds.n_examples) if rows >> e & 1])
    for i in candidates:
        column = ds.probe_rows(index, i)
        values[i] = sum(1 << int(e) for e, v in zip(index, column) if v)
        g = gain(ds, rows, i, values[i], labels)
        if g > best_gain:
            best_i, best_gain = i, g
    return best_i, values[best_i]


def grow(grower, task, gain_kind, rep, seen, wrap=None):
    """(outcome, probe mask) of one grower on a fresh copy of the task; `wrap`,
    if given, wraps the gain."""
    ds = CostlyDataset.from_bool(task.ds.peek_all(), task.ds.labels)
    gain = TeacherGain(task.target) if gain_kind == "teacher" else InfoGain()
    if wrap is not None:
        gain = wrap(gain)
    try:
        if grower == "scratch":
            out = learn_tree_scratch(ds, gain, 4, 9).key()
        elif grower == "lfd":
            out = lfd_tree(ds, rep, gain, 4, 9)
        else:
            out = naive_lfd_seen_features(ds, seen, gain, 4, 9)
    except RealizabilityError as exc:
        out = str(exc)
    if isinstance(out, LfdResult):
        out = (out.outcome, out.tree.key(), out.failed_path, out.reason)
    return out, ds.ledger.mask()


class PerCandidateGain:
    """A gain with only the per-candidate call, like perfbench's gain proxy:
    `_best_split` scores its candidates one at a time."""

    def __init__(self, gain):
        self.gain = gain
        self.calls = 0

    def __call__(self, ds, rows, feature, values, labels):
        self.calls += 1
        return self.gain(ds, rows, feature, values, labels)


@pytest.mark.parametrize("gain_kind", ["teacher", "info"])
@pytest.mark.parametrize("grower", ["scratch", "lfd", "naive"])
def test_block_split_matches_per_candidate_probes(monkeypatch, grower,
                                                  gain_kind):
    """Both split paths, node-level `best` and a gain without it, match the
    per-candidate reference."""
    tasks, dictionary = gen_tree_stream(StreamSpec(
        family="tree", n_features=20, k=3, d=4, s=9, mf_depth=3, m=16,
        sample_size=10, seed=71).validate())
    rep = dictionary[:2]
    seen = tree_vars(dictionary[0]) | tree_vars(dictionary[1]) | {0, 19}
    wrapped = []

    def per_candidate(gain):
        wrapped.append(PerCandidateGain(gain))
        return wrapped[-1]

    outcomes = set()
    for task in tasks:
        with monkeypatch.context() as patch:
            patch.setattr(tree_learners, "_best_split", reference_split)
            reference = grow(grower, task, gain_kind, rep, seen)
        for wrap in (None, per_candidate):
            block = grow(grower, task, gain_kind, rep, seen, wrap=wrap)
            assert block[0] == reference[0]
            assert (block[1] == reference[1]).all()
        outcomes.add(block[0][0] if isinstance(block[0], tuple) else "scratch")
    assert sum(gain.calls for gain in wrapped) > len(tasks)
    if grower != "scratch":
        assert outcomes == {"learned", "failed"}


@pytest.mark.parametrize("sample_size", [70, 130])
def test_bitset_split_matches_per_candidate_probes_on_multiword_samples(
        monkeypatch, sample_size):
    """More than 64 examples, so every node bitset spans several words."""
    tasks, dictionary = gen_tree_stream(StreamSpec(
        family="tree", n_features=20, k=3, d=4, s=9, mf_depth=3, m=6,
        sample_size=sample_size, seed=72).validate())
    rep = dictionary[:2]
    seen = tree_vars(dictionary[0]) | tree_vars(dictionary[1]) | {0, 19}
    for task in tasks:
        for grower in ("scratch", "lfd", "naive"):
            for gain_kind in ("teacher", "info"):
                with monkeypatch.context() as patch:
                    patch.setattr(tree_learners, "_best_split",
                                  reference_split)
                    want = grow(grower, task, gain_kind, rep, seen)
                got = grow(grower, task, gain_kind, rep, seen)
                assert got[0] == want[0]
                assert (got[1] == want[1]).all()


@pytest.mark.parametrize("gain", [
    InfoGain(), TeacherGain(I(0, L(False), L(True))),
    PerCandidateGain(InfoGain())], ids=["info", "teacher", "per-candidate"])
def test_split_on_rational_data_charges_nothing(gain):
    """A rational dataset has no bitsets: a split on it is a UsageError
    raised before the ledger records anything."""
    ds = CostlyDataset.from_rational([[1, 2], [2, 1]], [1, 2])
    with pytest.raises(UsageError, match="bool dataset"):
        tree_learners._best_split(ds, gain, 0b11, 0b01, [0, 1])
    assert ds.ledger.total_probes == 0


@pytest.mark.parametrize("gain_kind", ["teacher", "info"])
def test_split_gathers_only_what_the_gain_scores(monkeypatch, gain_kind):
    """A teacher split gathers no candidate column; an information-gain
    split gathers every candidate once, through `gather_bits`.  Either way
    the split returns the chosen column on the node."""
    tasks, _ = gen_tree_stream(StreamSpec(
        family="tree", n_features=20, k=3, d=4, s=9, mf_depth=3, m=4,
        sample_size=10, seed=73).validate())
    for task in tasks:
        ds = task.ds
        gathered = []
        gather = ds.gather_bits
        monkeypatch.setattr(ds, "gather_bits", lambda rows, features: (
            gathered.append(list(features)) or gather(rows, features)))
        gain = TeacherGain(task.target) if gain_kind == "teacher" \
            else InfoGain()
        rows = (1 << ds.n_examples) - 1
        labels = ds.label_bits
        candidates = list(range(ds.n_features))
        feature, col = tree_learners._best_split(ds, gain, rows, labels,
                                                 candidates)
        assert col == ds.peek_bits(feature)
        assert ds.ledger.total_probes == ds.n_examples * ds.n_features
        assert gathered == ([] if gain_kind == "teacher" else [candidates])
        if gain_kind == "teacher":
            assert feature == task.target.var


# -- incremental superimposition --------------------------------------------


def reference_candidates(rep):
    """The placement-by-placement candidate sets `lfd_tree` advances node to
    node: every fragment at every node w on u's root path, through
    `conflict` and `induce`."""
    def induced(root, above):
        path, used = steps(above), {var for var, _ in above}
        found = set()
        for f in rep:
            for wlen in range(len(path) + 1):
                w = path[:wlen]
                if not conflict(root, w, path, f):
                    var = induce(root, w, path, f)
                    if var is not None:
                        found.add(var)
        return sorted(found - used)
    return induced


def scrambled(rng, tree, pool):
    """A copy of `tree` with every variable redrawn from `pool`: variables
    may repeat on a path and reuse the ones above a placement."""
    if tree.kind != "internal":
        return tree.copy()
    return I(int(rng.choice(pool)), scrambled(rng, tree.left, pool),
             scrambled(rng, tree.right, pool))


def superimposition_reps(rng, task, dictionary):
    """Representations for one task: part of the dictionary, labelled
    subtrees of the target (fragments with leaves), mirrored copies, bare
    leaf/empty fragments, and fragments over the target's own variables."""
    pool = sorted(tree_vars(task.target) or {0})
    subtrees, stack = [], [task.target]
    while stack:
        node = stack.pop()
        if node.kind == "internal":
            subtrees.append(node)
            stack.extend((node.left, node.right))

    def mirror(t):
        return I(t.var, mirror(t.right), mirror(t.left)) \
            if t.kind == "internal" else t.copy()

    part = [dictionary[i] for i in sorted(rng.choice(
        len(dictionary), size=max(1, len(dictionary) // 2), replace=False))]
    picked = [subtrees[i].copy() for i in rng.permutation(len(subtrees))[:3]]
    return [
        list(dictionary),
        part,
        part + picked + [L(True), E()],
        [mirror(t) for t in picked] + [scrambled(rng, t, pool) for t in part],
        [scrambled(rng, task.target, pool) for _ in range(3)],
    ]


SUPERIMPOSITION_STREAMS = [
    dict(family="tree", n_features=14, k=3, mf_depth=3),
    dict(family="list", n_features=14, k=3, mf_depth=3),
    dict(family="anchor", n_features=14, k=3, mf_depth=2),
    dict(family="overcomplete", n_features=14, k=4, mf_depth=2, k1=2, k2=2),
]


@pytest.mark.parametrize("kw", SUPERIMPOSITION_STREAMS,
                         ids=lambda kw: kw["family"])
def test_lfd_candidates_match_placement_reference(kw):
    outcomes = set()
    for seed in range(3):
        spec = StreamSpec(d=5, s=11, m=6, sample_size=8, seed=seed,
                          **kw).validate()
        tasks, dictionary = gen_tree_stream(spec)
        rng = np.random.default_rng(seed)
        for task in tasks:
            for rep in superimposition_reps(rng, task, dictionary):
                for d, s in ((2, 2), (3, 4), (5, 11)):
                    for gain_kind in ("teacher", "info"):
                        runs = []
                        for grower in ("lfd", "reference"):
                            ds = CostlyDataset.from_bool(task.ds.peek_all(),
                                                         task.ds.labels)
                            gain = (TeacherGain(task.target)
                                    if gain_kind == "teacher" else InfoGain())
                            if grower == "lfd":
                                res = lfd_tree(ds, rep, gain, d, s)
                            else:
                                res = tree_learners._grow(
                                    ds, gain, d, s, reference_candidates(rep),
                                    depth_first=False)
                            runs.append(((res.outcome, res.tree.key(),
                                          res.failed_path, res.reason),
                                         ds.ledger.mask()))
                        (got, got_mask), (want, want_mask) = runs
                        assert got == want, (rep, d, s, gain_kind)
                        assert (got_mask == want_mask).all()
                        outcomes.add(got[0] if got[0] == "learned" else got[3])
    assert outcomes == {"learned", "depth", "size", "no-candidate"}


# -- baseline and bootstrap -------------------------------------------------


def test_naive_seen_features():
    rng = np.random.default_rng(17)
    target = fill_labels(rng, I(2, I(4, E(), E()), E()))
    ds = covering_ds(rng, target, 9)
    result = naive_lfd_seen_features(ds, {2, 4, 7}, TeacherGain(target), 3, 3)
    assert result.learned and result.tree == target
    assert ds.ledger.per_example_max() <= 3  # at most |seen|

    ds2 = covering_ds(rng, target, 9)
    result2 = naive_lfd_seen_features(ds2, {4, 7}, TeacherGain(target), 3, 3)
    assert not result2.learned


def test_bootstrap_count_values():
    assert bootstrap_count(1 / 3, 3, 0.1) == 11
    assert bootstrap_count(1.0, 1, 0.5) == 1
    assert bootstrap_count(0.5, 2, 0.1) < bootstrap_count(0.25, 2, 0.1)
    assert bootstrap_count(0.5, 2, 0.1) < bootstrap_count(0.5, 2, 0.01)
