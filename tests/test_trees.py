"""Tree algebra: growth moves, superimposition, gains, membership oracle."""

import numpy as np
import pytest

from probelearn import (CostlyDataset, InfoGain, OracleMisuseError, StreamSpec,
                        TeacherGain, Tree, UsageError, binary_entropy,
                        conflict, gen_tree_stream, induce, info_gain,
                        leaf_cover_dataset, member_of_dt, path_repeats_var,
                        tree_vars)
from probelearn.streams import coin_flips

E = Tree.empty
L = Tree.leaf
I = Tree.internal

# Independently recomputed from the entropy formula: H(1/4) and the gain of a
# half-splitting feature on a 3:1 labeled sample.
H_QUARTER = 0.8112781244591328
MIXED_GAIN = 0.31127812445913283


def stump(var):
    return I(var, E(), E())


def chain(*vars_then_stop):
    """Left-descending chain of internals with empty leaves everywhere."""
    out = E()
    for var in reversed(vars_then_stop):
        out = I(var, out, E())
    return out


# -- shape and identity -----------------------------------------------------


def test_shape_counters():
    t = I(0, I(1, L(True), L(False)), L(True))
    assert t.depth() == 2
    assert t.size() == 2
    assert L(True).depth() == 0 and L(True).size() == 0


def test_structural_equality_and_copy():
    a = I(0, L(True), E())
    b = I(0, L(True), E())
    assert a == b and hash(a) == hash(b)
    assert a != I(1, L(True), E())
    assert a != I(0, L(False), E())
    c = a.copy()
    c.left.label = False
    assert a.left.label is True  # deep copy


# -- the walk and the shape queries over it ---------------------------------


def test_walk_of_a_lone_leaf_or_empty_node():
    for t in (L(True), L(False), E()):
        [(node, above)] = t.walk()
        assert node is t and above == ()


def test_walk_is_pre_order_left_first_with_the_pairs_above():
    t = I(3, I(5, L(True), E()), I(1, E(), I(0, L(False), L(True))))
    want = [(t, ()),
            (t.left, ((3, 0),)),
            (t.left.left, ((3, 0), (5, 0))),
            (t.left.right, ((3, 0), (5, 1))),
            (t.right, ((3, 1),)),
            (t.right.left, ((3, 1), (1, 0))),
            (t.right.right, ((3, 1), (1, 1))),
            (t.right.right.left, ((3, 1), (1, 1), (0, 0))),
            (t.right.right.right, ((3, 1), (1, 1), (0, 1)))]
    got = list(t.walk())
    assert len(got) == len(want) == 2 * t.size() + 1
    for (node, above), (want_node, want_above) in zip(got, want):
        assert node is want_node and above == want_above
    # each above names its node: the steps lead there from the root
    for node, above in got:
        assert t.node_at(tuple(step for _, step in above)) is node


# The recursive definitions the walk-based queries replaced, kept as
# references.

def recursive_empty_slots(tree):
    found = []

    def walk(node, path, used):
        if node.kind == "empty":
            found.append((path, used))
        elif node.kind == "internal":
            used = used | {node.var}
            walk(node.left, path + (0,), used)
            walk(node.right, path + (1,), used)

    walk(tree, (), frozenset())
    return found


def recursive_frontier(tree):
    """((var, bit), ...) of every leaf and empty node, left to right."""
    if tree.kind != "internal":
        return [()]
    return ([((tree.var, 0),) + p for p in recursive_frontier(tree.left)]
            + [((tree.var, 1),) + p for p in recursive_frontier(tree.right)])


def recursive_path_repeats_var(tree, seen=frozenset()):
    if tree.kind != "internal":
        return False
    if tree.var in seen:
        return True
    seen = seen | {tree.var}
    return (recursive_path_repeats_var(tree.left, seen)
            or recursive_path_repeats_var(tree.right, seen))


def recursive_tree_vars(tree):
    if tree.kind != "internal":
        return set()
    return ({tree.var} | recursive_tree_vars(tree.left)
            | recursive_tree_vars(tree.right))


def redrawn(rng, tree, pool):
    """A copy of `tree` with every variable redrawn from a small pool, so
    that variables repeat on some paths."""
    if tree.kind != "internal":
        return tree.copy()
    return I(int(rng.choice(pool)), redrawn(rng, tree.left, pool),
             redrawn(rng, tree.right, pool))


SHAPE_STREAMS = [
    dict(family="tree", n_features=14, k=3, mf_depth=3),
    dict(family="list", n_features=14, k=3, mf_depth=3),
    dict(family="anchor", n_features=14, k=3, mf_depth=2),
    dict(family="overcomplete", n_features=14, k=4, mf_depth=2, k1=2, k2=2),
]


@pytest.mark.parametrize("kw", SHAPE_STREAMS, ids=lambda kw: kw["family"])
def test_walk_based_shape_queries_match_the_recursive_ones(kw):
    """On the dictionaries and targets of seeded streams, and on copies
    with variables redrawn, the shape queries over `walk` and the frontier
    that `leaf_cover_dataset` covers equal the recursive definitions."""
    repeats, slots = set(), 0
    for seed in range(3):
        spec = StreamSpec(d=5, s=11, m=6, sample_size=8, seed=seed,
                          **kw).validate()
        tasks, dictionary = gen_tree_stream(spec)
        rng = np.random.default_rng(seed)
        trees = list(dictionary) + [task.target for task in tasks]
        trees += [redrawn(rng, t, [0, 1, 2]) for t in trees]
        for t in trees:
            frontier = recursive_frontier(t)
            assert t.empty_slots() == recursive_empty_slots(t)
            assert t.frontier_paths() == [tuple(b for _, b in p)
                                          for p in frontier]
            assert tree_vars(t) == recursive_tree_vars(t)
            assert path_repeats_var(t) == recursive_path_repeats_var(t)
            repeats.add(path_repeats_var(t))
            slots += len(t.empty_slots())
        for k, task in enumerate(tasks):
            g, n = task.target, spec.n_features
            ds = leaf_cover_dataset(np.random.default_rng(k), g, n, 4)
            frontier = recursive_frontier(g)
            values = coin_flips(np.random.default_rng(k),
                                (max(len(frontier), 4), n))
            for row, path in zip(values, frontier):
                for var, bit in path:
                    row[var] = bit
            assert (ds.peek_all() == values).all()
            assert ds.labels.tolist() == [g.predict(r) for r in values]
    assert repeats == {True, False} and slots


# -- graft -----------------------------------------------------------


def grafted(f, path, f2):
    """A copy of f with f2 grafted at the empty leaf `path`."""
    out = f.copy()
    out.node_at(path).graft(f2)
    return out


def test_graft_base_case():
    out = grafted(E(), (), stump(1))
    assert out == stump(1)


def test_graft_grows_left_child():
    f, f2 = stump(1), stump(2)
    out = grafted(f, (0,), f2)
    assert out == I(1, I(2, E(), E()), E())
    # the originals are untouched, and the graft is a copy of f2
    assert f == stump(1) and f.left.kind == "empty"
    out.left.var = 3
    assert f2 == stump(2)


def test_graft_rejects_non_empty_target():
    with pytest.raises(UsageError):
        grafted(stump(1), (), stump(2))  # root is internal
    t = I(1, L(True), E())
    with pytest.raises(UsageError):
        grafted(t, (0,), stump(2))  # labeled leaf


def test_graft_strict_repetition():
    # graft does not refuse a repeated variable; path_repeats_var finds it
    bad = grafted(stump(1), (0,), stump(1))
    assert path_repeats_var(bad)
    assert not path_repeats_var(grafted(stump(1), (0,), stump(2)))


# -- superimposition --------------------------------------------------------


def test_conflict_exact_match():
    g = chain(1, 2)
    f = chain(1, 2)
    assert conflict(g, (), (0,), f) is False


def test_conflict_disagreement_below_w():
    g = chain(1, 3)
    f = chain(1, 2)
    assert conflict(g, (), (0,), f) is True


def test_conflict_w_equals_u():
    g = chain(1, 3)
    assert conflict(g, (), (), chain(9, 8)) is False
    assert conflict(g, (0,), (0,), stump(7)) is False


def test_conflict_ran_off_f():
    # f shallower than the path constrains nothing past its extent
    g = chain(1, 2, 3)
    assert conflict(g, (), (0, 0), stump(1)) is False


def test_conflict_validates_span():
    g = chain(1, 2)
    with pytest.raises(UsageError):
        conflict(g, (0,), (1,), stump(1))  # w not an ancestor of u
    with pytest.raises(UsageError):
        conflict(g, (), (1, 1), stump(1))  # u outside g


def test_induce_root_mapping():
    g = chain(1, 2)
    assert induce(g, (), (), stump(7)) == 7
    assert induce(g, (0,), (0,), stump(7)) == 7


def test_induce_reads_f_below():
    g = I(1, E(), L(True))
    f = chain(1, 5)
    assert induce(g, (), (0,), f) == 5


def test_induce_exhausted_mapping():
    g = chain(1, 2, 3)
    assert induce(g, (), (0, 0), stump(1)) is None      # runs off f
    assert induce(g, (), (0,), I(1, L(True), E())) is None  # lands on a leaf


def test_conflict_agrees_with_direct_comparison():
    # conflict(g,w,u,f) must equal "some internal position on w->u where the
    # superimposed f is internal too and the variables differ" (with w == u
    # nothing is compared), and induce(g,w,u,f) must be the variable of f's
    # node at u, or None when the slide runs off f or lands on a leaf/empty
    # node -- checked here by sliding f down g by hand, for frontier and
    # internal u alike.
    rng = np.random.default_rng(0)

    def random_tree(depth, pool):
        if depth == 0 or not pool or rng.random() < 0.3:
            kind = rng.integers(2)
            return E() if kind else L(bool(rng.integers(2)))
        var = int(pool[rng.integers(len(pool))])
        rest = [v for v in pool if v != var]
        return I(var, random_tree(depth - 1, rest), random_tree(depth - 1, rest))

    def node_paths(tree, path=()):
        yield path
        if tree.kind == "internal":
            yield from node_paths(tree.left, path + (0,))
            yield from node_paths(tree.right, path + (1,))

    seen = {"w == u": 0, "internal u": 0, "clash": 0, "induced": 0,
            "ran off": 0, "clash then ran off": 0}
    for _ in range(600):
        g = random_tree(3, list(range(6)))
        f = random_tree(3, list(range(6)))
        if g.kind != "internal":
            continue
        paths = list(node_paths(g))
        u = paths[int(rng.integers(len(paths)))]
        w = u[: int(rng.integers(len(u) + 1))]
        rel = u[len(w):]
        clash, var, ran_off = False, None, False
        gnode, fnode = g.node_at(w), f
        for j in range(len(rel) + 1):
            if fnode.kind != "internal":
                ran_off = j < len(rel)
                break
            if rel and gnode.kind == "internal" and gnode.var != fnode.var:
                clash = True
            if j == len(rel):
                var = fnode.var
                break
            gnode = gnode.right if rel[j] else gnode.left
            fnode = fnode.right if rel[j] else fnode.left
        assert conflict(g, w, u, f) is clash
        assert induce(g, w, u, f) == var
        seen["w == u"] += w == u
        seen["internal u"] += g.node_at(u).kind == "internal"
        seen["clash"] += clash
        seen["induced"] += var is not None
        seen["ran off"] += ran_off
        seen["clash then ran off"] += clash and ran_off
    assert all(n > 10 for n in seen.values()), seen


# -- gain functions ---------------------------------------------------------


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.25) - H_QUARTER) < 1e-12


def test_info_gain_perfect_split():
    labels = np.array([True, False])
    values = np.array([0, 1])
    assert info_gain(labels, values) == 1.0


def test_info_gain_degenerate():
    assert info_gain(np.array([True, True, True]), np.array([0, 1, 0])) == 0.0
    assert info_gain(np.array([True, False]), np.array([1, 1])) == 0.0


def test_info_gain_mixed_value():
    labels = np.array([True, True, True, False])
    values = np.array([0, 0, 1, 1])
    assert abs(info_gain(labels, values) - MIXED_GAIN) < 1e-12


def test_info_gain_range_and_encoding_swap():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        labels = rng.integers(0, 2, n).astype(bool)
        values = rng.integers(0, 2, n)
        g = info_gain(labels, values)
        assert -1e-12 <= g <= 1.0 + 1e-12
        assert abs(info_gain(labels, 1 - values) - g) < 1e-12


def bool_ds(values, labels):
    return CostlyDataset.from_bool(np.array(values), np.array(labels, dtype=bool))


def bits(flags):
    """The bitset of a 0/1 sequence: bit e is set iff flags[e]."""
    return sum(1 << e for e, flag in enumerate(flags) if flag)


# The gains take a node's examples and its positive examples as bitsets.


def test_teacher_gain_designates_root():
    target = I(3, L(False), L(True))
    ds = bool_ds([[0, 0, 0, 0], [0, 0, 0, 1]], [False, True])
    gain = TeacherGain(target)
    rows = bits([1, 1])
    labels = bits([0, 1])
    assert gain(ds, rows, 3, None, labels) == 1.0
    assert gain(ds, rows, 1, None, labels) == 0.0


def test_teacher_gain_routes_to_deepest_agreed_node():
    target = I(1, I(2, L(False), L(True)), L(True))
    # both examples have x1 = 0, so the designated split is the left child x2
    ds = bool_ds([[0, 0, 0], [0, 0, 1]], [False, True])
    gain = TeacherGain(target)
    rows = bits([1, 1])
    labels = bits([0, 1])
    assert gain(ds, rows, 2, None, labels) == 1.0
    assert gain(ds, rows, 1, None, labels) == 0.0
    assert gain(ds, rows, 0, None, labels) == 0.0


def test_teacher_gain_pure_sample_scores_zero():
    target = I(1, L(False), L(True))
    ds = bool_ds([[0, 1], [0, 1]], [True, True])  # both routed right
    gain = TeacherGain(target)
    rows = bits([1, 1])
    assert gain(ds, rows, 0, None, bits([1, 1])) == 0.0


def test_teacher_gain_rejects_inconsistent_labels():
    target = I(1, L(False), L(True))
    ds = bool_ds([[0, 1], [0, 1]], [True, False])  # right leaf is +, not -
    gain = TeacherGain(target)
    with pytest.raises(OracleMisuseError):
        gain(ds, bits([1, 1]), 0, None, bits([1, 0]))


def test_teacher_gain_routes_once_per_rows_object(monkeypatch):
    target = I(1, I(2, L(False), L(True)), L(True))
    ds = bool_ds([[0, 0, 0], [0, 0, 1], [0, 1, 0]], [False, True, True])
    reads = []
    peek_bits = ds.peek_bits
    monkeypatch.setattr(ds, "peek_bits",
                        lambda var: reads.append(var) or peek_bits(var))
    gain = TeacherGain(target)
    rows = bits([1, 1, 1])
    labels = bits([0, 1, 1])
    assert [gain(ds, rows, i, None, labels) for i in range(3)] == [0.0, 1.0, 0.0]
    assert reads == [1]  # the root splits the sample: one routing read
    # a new rows object is a new node and is routed again
    left = bits([1, 1])
    assert [gain(ds, left, i, None, bits([0, 1])) for i in range(3)] == [0.0, 0.0, 1.0]
    assert reads == [1, 1, 2]


def test_teacher_gain_label_check_runs_on_every_call():
    target = I(1, L(False), L(True))
    ds = bool_ds([[0, 1], [0, 1]], [True, False])
    gain = TeacherGain(target)
    rows = bits([1, 1])
    for feature in (0, 1, 0):
        with pytest.raises(OracleMisuseError):
            gain(ds, rows, feature, None, bits([1, 0]))
    # the routing itself is cached: consistent labels on the same rows pass
    assert gain(ds, rows, 0, None, bits([1, 1])) == 0.0


def test_teacher_gain_empty_leaf_raises_on_every_call():
    gain = TeacherGain(I(1, E(), L(True)))
    ds = bool_ds([[0, 0], [1, 0]], [True, True])
    rows = bits([1, 1])
    for feature in (0, 1):
        with pytest.raises(OracleMisuseError):
            gain(ds, rows, feature, None, bits([1, 1]))


# -- node-level split choice --------------------------------------------------


def argmax_reference(gain, ds, rows, labels, cols, candidates):
    """The per-candidate strict argmax that `best` stands for: ties go to the
    lowest index, and a raising score ends the scan."""
    best_j, best_gain = None, -np.inf
    for j, feature in enumerate(candidates):
        g = gain(ds, rows, feature, cols[j], labels)
        if g > best_gain:
            best_j, best_gain = j, g
    return best_j


def outcome(fn, *args):
    """An index, or the message of the `OracleMisuseError` raised instead."""
    try:
        return fn(*args)
    except OracleMisuseError as exc:
        return str(exc)


def random_node(rng, ds):
    """(rows, candidates, block, cols) of a random node of `ds` with some
    rows: its sorted example indices, its candidates, its (rows x
    candidates) column block read from the matrix, and each candidate's
    column bitset on the node."""
    size = int(rng.integers(1, ds.n_examples + 1))
    rows = np.sort(rng.choice(ds.n_examples, size=size, replace=False))
    n_cand = int(rng.integers(1, ds.n_features + 1))
    candidates = sorted(rng.choice(ds.n_features, size=n_cand,
                                   replace=False).tolist())
    block = np.asarray(ds.peek_all(), dtype=bool)[np.ix_(rows, candidates)]
    cols = [sum(1 << int(e) for e in rows[column]) for column in block.T]
    return rows, candidates, block, cols


def test_info_gain_best_matches_per_candidate_argmax():
    rng = np.random.default_rng(5)
    ties = 0
    for _ in range(1000):
        n_examples = int(rng.integers(1, 9))
        n_features = int(rng.integers(1, 7))
        ds = bool_ds(rng.integers(0, 2, (n_examples, n_features)),
                     rng.integers(0, 2, n_examples))
        rows, candidates, block, cols = random_node(rng, ds)
        labels = rng.integers(0, 2, len(rows)).astype(bool)
        gains = [info_gain(labels, column) for column in block.T]
        row_bits = sum(1 << int(e) for e in rows)
        label_bits = sum(1 << int(e) for e in rows[labels])
        assert InfoGain().best(ds, row_bits, label_bits, cols,
                               candidates) == gains.index(max(gains))
        assert [InfoGain()(ds, row_bits, f, col, label_bits)
                for f, col in zip(candidates, cols)] == gains
        ties += gains.count(max(gains)) > 1
    assert ties > 150


def test_teacher_gain_best_matches_per_candidate_argmax():
    rng = np.random.default_rng(6)
    seen = set()
    for seed in range(4):
        tasks, dictionary = gen_tree_stream(StreamSpec(
            family="tree", n_features=10, k=3, d=4, s=9, mf_depth=3, m=12,
            sample_size=8, seed=seed).validate())
        for task in tasks:
            # a fragment's empty leaves are routes a teacher must refuse
            for target in (task.target, dictionary[int(rng.integers(3))]):
                for _ in range(12):
                    rows, candidates, _, cols = random_node(rng, task.ds)
                    rows = sum(1 << int(e) for e in rows)
                    labels = rows & task.ds.label_bits
                    if rng.random() < 0.3:
                        labels = rows & ~labels
                    got = outcome(TeacherGain(target).best, task.ds, rows,
                                  labels, cols, candidates)
                    want = outcome(argmax_reference, TeacherGain(target),
                                   task.ds, rows, labels, cols, candidates)
                    assert got == want
                    node = outcome(TeacherGain(target)._route, task.ds, rows)
                    if isinstance(node, str):
                        seen.add(node)
                    elif node.kind != "internal":
                        seen.add("leaf" if isinstance(got, int) else got)
                    elif node.var in candidates:
                        seen.add("routed" if got > 0 else "routed first")
                    else:
                        seen.add("routed var not a candidate")
    assert seen == {"leaf", "routed", "routed first",
                    "routed var not a candidate",
                    "sample labels inconsistent with the target",
                    "teacher gain routed into an empty leaf"}


@pytest.mark.parametrize("sample_size", [70, 130])
def test_gain_best_matches_per_candidate_on_multiword_bitsets(sample_size):
    rng = np.random.default_rng(sample_size)
    tasks, dictionary = gen_tree_stream(StreamSpec(
        family="tree", n_features=10, k=3, d=4, s=9, mf_depth=3, m=6,
        sample_size=sample_size, seed=3).validate())
    routed = 0
    for task in tasks:
        for _ in range(10):
            index, candidates, block, cols = random_node(rng, task.ds)
            rows = sum(1 << int(e) for e in index)
            labels = rows & task.ds.label_bits
            flags = np.asarray(task.ds.labels, dtype=bool)[index]
            gains = [info_gain(flags, column) for column in block.T]
            assert InfoGain().best(task.ds, rows, labels, cols,
                                   candidates) == gains.index(max(gains))
            assert argmax_reference(InfoGain(), task.ds, rows, labels, cols,
                                    candidates) == gains.index(max(gains))
            teacher = TeacherGain(task.target)
            got = outcome(teacher.best, task.ds, rows, labels, cols,
                          candidates)
            assert got == outcome(argmax_reference, TeacherGain(task.target),
                                  task.ds, rows, labels, cols, candidates)
            routed += isinstance(got, int) and got > 0
    assert routed > 0


# -- membership oracle ------------------------------------------------------


def test_member_single_fragment():
    g = I(1, L(True), L(False))
    assert member_of_dt(g, [stump(1)], d=3, s=3)
    assert not member_of_dt(g, [stump(9)], d=3, s=3)


def test_member_needs_both_stumps():
    g = I(1, I(2, L(True), L(False)), L(True))
    assert not member_of_dt(g, [stump(1)], d=3, s=3)
    assert member_of_dt(g, [stump(1), stump(2)], d=3, s=3)


def test_member_prefix_flag():
    frag = chain(1, 2)
    g = I(1, L(True), L(False))
    assert member_of_dt(g, [frag], d=3, s=3, use_prefixes=True)
    assert not member_of_dt(g, [frag], d=3, s=3, use_prefixes=False)


def test_member_respects_caps():
    g = I(1, L(True), L(False))
    assert not member_of_dt(g, [stump(1)], d=0, s=3)  # depth cap
    big = g
    for v in range(2, 9):
        big = I(v, big, L(False))
    with pytest.raises(UsageError):
        member_of_dt(big, [stump(1)] * 2, d=9, s=15, max_size=5)
    with pytest.raises(UsageError):
        member_of_dt(g, [stump(v) for v in range(7)], d=3, s=3)


def test_member_construction_soundness():
    # anything composed from whole fragments is a member without prefixes
    from probelearn import sample_fragment
    from probelearn.streams import _Composer

    rng = np.random.default_rng(2)
    for _ in range(25):
        frags = [sample_fragment(rng, [0, 1, 2], 2), sample_fragment(rng, [3, 4, 5], 2)]
        if any(f.kind != "internal" for f in frags):
            continue
        g = _Composer(frags, d=4, s=8)(rng)
        assert member_of_dt(g, frags, d=4, s=8)


# -- prediction -------------------------------------------------------------


def test_predict():
    assert L(True).predict([0, 0]) is True
    s = I(1, L(True), L(False))
    assert s.predict([0, 1]) is False
    assert s.predict([0, 0]) is True
    with pytest.raises(UsageError):
        stump(1).predict([0, 0])
