"""Stream generators: determinism, structural audits, regimes, the game."""

import gc
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from probelearn import (GameResult, StreamSpec, Tree, UsageError,
                        adversary_r_min, eval_monomial, fill_labels,
                        game_failure_bound, gen_adversary_stream,
                        gen_agnostic_stream, gen_monomial_stream,
                        gen_poly_stream, gen_tree_stream, leaf_cover_dataset,
                        leaf_cover_datasets, member_of_dt, play_single_feature_game,
                        sample_fragment, stream_to_json_obj, stump, tree_vars)
from probelearn import streams
from probelearn.griddist import ProductDistribution
from probelearn.errors import GeneratorExhaustedError
from probelearn.streams import (CHUNK_CELLS, MAX_TRIES, P_MORE, _Composer,
                                _compose_list, _fill, _grid_dataset,
                                _overcomplete_dictionary, _sample_dictionary,
                                coin_flips, shared_flips)
from probelearn.trees import INTERNAL, LEAF, path_repeats_var
from probelearn.cli import _game_failures
from probelearn.streams import pcg64_trial_states


def spec(**kw):
    return StreamSpec(**kw).validate()


def route(g: Tree, row) -> tuple:
    path = []
    node = g
    while node.kind == INTERNAL:
        step = int(row[node.var])
        path.append(step)
        node = node.right if step else node.left
    return tuple(path)


def leaf_signs(node: Tree) -> set:
    if node.kind == LEAF:
        return {node.label}
    return leaf_signs(node.left) | leaf_signs(node.right)


def assert_both_signs_everywhere(g: Tree) -> int:
    checked = 0
    stack = [g]
    while stack:
        node = stack.pop()
        if node.kind == INTERNAL:
            assert leaf_signs(node) == {False, True}
            checked += 1
            stack.extend((node.left, node.right))
    return checked


def is_decision_list(g: Tree) -> bool:
    node = g
    while node.kind == INTERNAL:
        internals = [c for c in (node.left, node.right) if c.kind == INTERNAL]
        if len(internals) > 1:
            return False
        node = internals[0] if internals else node.left
    return True


def serialized(tasks, family: str) -> str:
    return json.dumps(stream_to_json_obj(tasks, family), sort_keys=True)


# -- spec validation --------------------------------------------------------

def test_spec_validation_errors():
    with pytest.raises(UsageError):
        spec(d=5, s=3)
    with pytest.raises(UsageError):
        spec(k=9, n_features=8)
    with pytest.raises(UsageError):
        spec(m=0)
    with pytest.raises(UsageError):
        spec(family="nope")
    with pytest.raises(UsageError):
        spec(placement="nope")
    with pytest.raises(UsageError):
        spec(k=2, p_min=0.6)  # K * p_min > 1
    with pytest.raises(UsageError):
        spec(family="overcomplete", k1=0, k2=2)
    with pytest.raises(UsageError):
        spec(family="overcomplete", n_features=4, k1=3, k2=3, mf_depth=2)
    # checks that depend only on the spec, not on the stream drawn from it
    for bad in (dict(family="list", n_features=6, k=3, mf_depth=3, d=4),
                dict(family="tree", mf_depth=0),
                dict(family="list", mf_depth=0),
                dict(family="anchor", mf_depth=0),
                dict(family="list", r=1),
                dict(family="overcomplete", k1=2, k2=2, r=1),
                dict(family="polynomial", r=1),
                dict(family="tree", n_features=4, k=2, d=3, r=1),
                dict(family="monomial", n_features=3, k=3, r=1)):
        with pytest.raises(UsageError):
            spec(**bad)


@pytest.mark.parametrize("kw, error", [
    # K1 x K2 = 4 composites: at p_min = 0.3 the fourth gets 10% of the draws
    (dict(family="overcomplete", k1=2, k2=2, p_min=0.3), "4 \\* p_min"),
    # 2 composites fit p_min = 0.4, whatever the unread K says
    (dict(family="overcomplete", k1=1, k2=2, p_min=0.4), None),
    # nor does K bind n_features there: K1 x K2 sizes the dictionary
    (dict(family="overcomplete", n_features=2, k1=1, k2=1), None),
    # d <= s binds the tree families only: no other family reads s
    (dict(family="monomial", n_features=12, d=8), None),
    (dict(family="polynomial", n_features=12, d=8), None),
    (dict(family="tree", d=8), "size cap"),
    (dict(family="list", d=8), "size cap"),
    (dict(family="anchor", d=8), "size cap"),
    (dict(family="overcomplete", k1=1, k2=2, d=8), "size cap"),
], ids=["overcomplete-4-composites", "overcomplete-2-composites",
        "overcomplete-k-above-n_features",
        "monomial-d-above-s", "polynomial-d-above-s", "tree-d-above-s",
        "list-d-above-s", "anchor-d-above-s", "overcomplete-d-above-s"])
def test_spec_validation_applies_each_cap_where_it_is_read(kw, error):
    if error is None:
        spec(**kw)
    else:
        with pytest.raises(UsageError, match=error):
            spec(**kw)


# -- primitive builders -----------------------------------------------------

def test_fill_labels_places_both_signs():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(30):
        frag = sample_fragment(rng, list(range(8)), 3)
        if frag.kind != INTERNAL:
            continue
        checked += assert_both_signs_everywhere(fill_labels(rng, frag))
    assert checked > 30


def scalar_fill(rng, node, need=None):
    """The one-draw-per-node reference for `fill_labels`: a scalar draw at
    each internal node in pre-order, and one for a lone empty root."""
    if node.kind == "empty":
        node.kind = LEAF
        node.label = bool(rng.integers(2)) if need is None else need
    elif node.kind == INTERNAL:
        needs = (True, False) if rng.integers(2) else (False, True)
        scalar_fill(rng, node.left, needs[0])
        scalar_fill(rng, node.right, needs[1])


def test_fill_labels_batched_draw_matches_scalar_draws():
    rng = np.random.default_rng(19)
    shapes = [Tree.empty(), Tree.leaf(True)]
    for _ in range(200):
        shape = sample_fragment(rng, list(range(8)), int(rng.integers(0, 4)))
        for path in shape.frontier_paths():  # keep some labels as given
            if rng.random() < 0.3:
                node = shape.node_at(path)
                node.kind, node.label = LEAF, bool(rng.integers(2))
        shapes.append(shape)
    pending = 0
    for i, shape in enumerate(shapes):
        seed = (19, i)
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        # a random prefix of 32- and 64-bit draws, so the generator may
        # hold a pending 32-bit half when the fill starts
        for _ in range(int(got_rng.integers(0, 4))):
            if got_rng.random() < 0.5:
                got_rng.integers(2)
            else:
                got_rng.random()
        want_rng.bit_generator.state = got_rng.bit_generator.state
        pending += got_rng.bit_generator.state["has_uint32"]
        got = fill_labels(got_rng, shape)
        want = shape.copy()
        scalar_fill(want_rng, want)
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.integers(2, size=5).tolist() == \
            want_rng.integers(2, size=5).tolist()
    assert 0 < pending < len(shapes)


def test_compose_target_respects_caps():
    rng = np.random.default_rng(11)
    frags = [sample_fragment(rng, [0, 1, 2], 2),
             sample_fragment(rng, [3, 4, 5], 2)]
    for _ in range(20):
        g, frontier = _Composer(frags, d=4, s=9)(rng)
        assert g.kind == INTERNAL
        assert g.depth() <= 4 and g.size() <= 9
        assert not path_repeats_var(g)
        assert frontier == walk_frontier(g)


def test_leaf_cover_dataset_reaches_every_leaf():
    rng = np.random.default_rng(13)
    g = fill_labels(rng, sample_fragment(rng, [0, 1, 2, 3], 3))
    ds = leaf_cover_dataset(rng, g, 8, 10)
    assert ds.n_examples == max(10, len(g.frontier_paths()))
    rows = ds.peek_all()
    reached = {route(g, row) for row in rows}
    assert reached == set(g.frontier_paths())
    for e in range(ds.n_examples):
        assert ds.label(e) == g.predict(rows[e])


# -- the bulk paths against the per-slot, per-row references ---------------

def walk_frontier(g: Tree) -> list:
    """The (variable, step) pairs above each leaf of g, in `Tree.walk`
    order: what `_fill` hands the leaf cover."""
    return [above for node, above in g.walk() if node.kind != INTERNAL]


def reference_compose(rng, metafeatures, d, s):
    """The composer as one scan of every empty slot per round, each graft
    copying the whole tree."""
    shapes = [(tree_vars(f), f.depth(), f.size()) for f in metafeatures]
    for _ in range(MAX_TRIES):
        i = int(rng.integers(len(metafeatures)))
        g = metafeatures[i].copy()
        _, depth, size = shapes[i]
        if depth > d or size > s:
            continue
        while True:
            options = [(path, f, fsize) for path, used in g.empty_slots()
                       for f, (fvars, fdepth, fsize) in zip(metafeatures, shapes)
                       if fdepth <= d - len(path) and fsize <= s - size
                       and fvars.isdisjoint(used)]
            if not options or rng.random() > P_MORE:
                break
            path, f, fsize = options[int(rng.integers(len(options)))]
            g = g.copy()
            g.node_at(path).graft(f)
            size += fsize
        g = fill_labels(rng, g)
        if g.kind == INTERNAL and g.depth() <= d and g.size() <= s:
            return g
    raise GeneratorExhaustedError("no target within the caps")


def reference_leaf_cover(rng, g, n_features, sample_size):
    """leaf_cover_dataset's rows and labels as a per-row walk: path bits set
    one row at a time, every row labeled by g.predict."""
    paths = g.frontier_paths()
    values = rng.integers(0, 2, (max(len(paths), sample_size), n_features)
                          ).astype(np.uint8)
    for row, path in zip(values, paths):
        node = g
        for step in path:
            row[node.var] = step
            node = node.right if step else node.left
    return values, np.array([g.predict(row) for row in values], dtype=bool)


def dictionaries():
    """(dictionary, d, s) for each tree sub-model, some with fragments
    deeper or larger than the caps."""
    rng = np.random.default_rng(5)
    out = []
    for family, d, s in (("tree", 4, 11), ("tree", 2, 3), ("anchor", 3, 7)):
        sp = spec(family=family, n_features=40, k=5, d=d, s=s, mf_depth=3)
        out.append((_sample_dictionary(rng, sp), d, s))
    sp = spec(family="overcomplete", n_features=20, k1=2, k2=3, d=4, s=9,
              mf_depth=3)
    out.append((_overcomplete_dictionary(rng, sp)[0], 4, 9))
    return out


@pytest.mark.parametrize("case", range(4))
def test_composer_matches_the_per_slot_reference(case):
    """The stream's composer, built once and drawn from many times, and a
    composer built for each draw give the reference's trees, with their
    frontiers, and leave the generator in the reference's state."""
    dictionary, d, s = dictionaries()[case]
    composer = _Composer(dictionary, d, s)
    gens = [np.random.default_rng((case, 9)) for _ in range(3)]
    for _ in range(60):
        want = reference_compose(gens[0], dictionary, d, s)
        assert composer(gens[1]) == (want, walk_frontier(want))
        assert _Composer(dictionary, d, s)(gens[2]) == (want,
                                                         walk_frontier(want))
        state = gens[0].bit_generator.state
        assert gens[1].bit_generator.state == state
        assert gens[2].bit_generator.state == state
    # no draw wrote into the dictionary
    assert dictionary == dictionaries()[case][0]


def test_fill_hands_the_leaf_cover_the_walk_frontier():
    """The frontier `_fill` returns, which the stream hands the leaf cover,
    is the walk's on composed (tree, anchor, overcomplete), list and posed
    dictionary targets."""
    rng = np.random.default_rng(23)
    drawn = []
    for dictionary, d, s in dictionaries():
        composer = _Composer(dictionary, d, s)
        drawn += [composer(rng) for _ in range(10)]
        for f, size in zip(dictionary, composer.sizes):  # posed whole
            g = f.copy()
            drawn.append((g, _fill(rng, g, size)))
    sp = spec(family="list", n_features=20, k=3, d=6, s=9, mf_depth=3)
    segments = [(f, end, tree_vars(f), f.depth())
                for f, end in _sample_dictionary(rng, sp)]
    drawn += [_compose_list(rng, segments, sp.d) for _ in range(10)]
    assert len({len(frontier) for _, frontier in drawn}) > 4
    for g, frontier in drawn:
        assert frontier == walk_frontier(g)


def cover_cases():
    """(target, the frontier its generator hands the leaf cover, sample
    size); the sample size is below, at and above each tree's leaf
    count."""
    rng = np.random.default_rng(17)
    drawn = [(g, walk_frontier(g)) for g in (stump(3), Tree.leaf(True))]
    for dictionary, d, s in dictionaries():
        composer = _Composer(dictionary, d, s)
        drawn += [composer(rng) for _ in range(15)]
    return [(g, frontier, n) for g, frontier in drawn
            for leaves in [len(g.frontier_paths())]
            for n in (1, leaves, leaves + 7)]


def test_leaf_cover_dataset_matches_the_per_row_reference():
    """With the composer's frontier and with none (g is walked for it)."""
    cases = cover_cases()
    assert any(n < len(g.frontier_paths()) for g, _, n in cases)
    for k, (g, frontier, n) in enumerate(cases):
        for given in (frontier, None):
            rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            ds = leaf_cover_dataset(rng, g, 40, n, given)
            values, labels = reference_leaf_cover(ref_rng, g, 40, n)
            assert np.array_equal(ds.peek_all(), values)
            assert np.array_equal(ds.labels, labels)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n_features", [40, 300])
def test_leaf_cover_list_matches_one_call_per_target(monkeypatch,
                                                     n_features):
    """Back-to-back targets drawn in one call give each target's dataset
    and leave the generator as one call per target does: the list starts
    on a pending 32-bit half, mixes stumps with deeper trees and spans
    several draws of at most CHUNK_CELLS cells; at N = 300 one 130-row task
    alone exceeds that, and is drawn on its own."""
    rng = np.random.default_rng(21)
    composer = _Composer(dictionaries()[0][0], 4, 11)
    targets = [stump(3), composer(rng)[0], stump(0), stump(n_features - 1)]
    targets += [composer(rng)[0] if j % 3 else stump(j) for j in range(12)]
    assert sum(len(g.frontier_paths()) > 1 for g in targets) > 8
    assert len(targets) * 130 * n_features > 2 * CHUNK_CELLS
    got_rng, want_rng = (np.random.default_rng(22) for _ in range(2))
    for gen in (got_rng, want_rng):
        gen.integers(5)  # a scalar bounded draw leaves a 32-bit half pending
        assert gen.bit_generator.state["has_uint32"] == 1
    draws = []
    monkeypatch.setattr(streams, "coin_flips", lambda rng, shape: (
        draws.append(shape) or coin_flips(rng, shape)))
    got = leaf_cover_datasets(got_rng, targets, n_features, 130)
    per_draw = max(1, CHUNK_CELLS // (130 * n_features))
    assert len(draws) == -(-len(targets) // per_draw)
    assert [rows for rows, _ in draws[:-1]] == [130 * per_draw] * (
        len(draws) - 1)
    monkeypatch.undo()
    want = [leaf_cover_dataset(want_rng, g, n_features, 130) for g in targets]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert len(got) == len(want)
    for g, ds, ref in zip(targets, got, want):
        assert (ds.n_examples, ds.n_features) == (130, n_features)
        assert ds._cols == ref._cols
        assert ds.label_bits == ref.label_bits
        assert ds.label_bits not in (0, (1 << 130) - 1)  # g splits them
    assert leaf_cover_datasets(got_rng, [], n_features, 130) == []
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def full_tree(rng, depth):
    """A labeled complete tree of the given depth, variable i at depth i."""
    def build(level):
        return (Tree.empty() if level == depth else
                Tree.internal(level, build(level + 1), build(level + 1)))
    return fill_labels(rng, build(0))


@pytest.mark.parametrize("sample_size", [64, 65, 130])
def test_leaf_cover_runs_of_mixed_heights_match_one_call_per_target(
        monkeypatch, sample_size):
    """On an odd N from a pending 32-bit half, runs that mix stumps with
    trees of more leaves than S (so taller tasks) give each target's
    dataset, labels and generator state of one call per target."""
    rng = np.random.default_rng(31)
    composer = _Composer(dictionaries()[0][0], 4, 11)
    targets = [stump(3), full_tree(rng, 7), composer(rng)[0],
               full_tree(rng, 8), stump(0), composer(rng)[0],
               full_tree(rng, 6), stump(40)] * 3
    n_features = 41
    got_rng, want_rng = (np.random.default_rng(32) for _ in range(2))
    for gen in (got_rng, want_rng):
        gen.integers(5)  # a scalar bounded draw leaves a 32-bit half pending
    draws = []
    monkeypatch.setattr(streams, "coin_flips", lambda rng, shape: (
        draws.append(shape) or coin_flips(rng, shape)))
    got = leaf_cover_datasets(got_rng, targets, n_features, sample_size)
    monkeypatch.undo()
    heights = [max(len(g.frontier_paths()), sample_size) for g in targets]
    runs, start = [], 0  # the heights each draw covers
    for rows, _ in draws:
        stop = start + 1
        while sum(heights[start:stop]) < rows:
            stop += 1
        runs.append(heights[start:stop])
        start = stop
    assert sum(map(len, runs)) == len(targets)
    assert any(len(set(run)) > 1 for run in runs)
    want = [leaf_cover_dataset(want_rng, g, n_features, sample_size)
            for g in targets]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for height, ds, ref in zip(heights, got, want):
        assert (ds.n_examples, ds.n_features) == (height, n_features)
        assert ds._cols == ref._cols
        assert np.array_equal(ds.peek_all(), ref.peek_all())
        assert ds.label_bits == ref.label_bits
        assert np.array_equal(ds.labels, ref.labels)


@pytest.mark.parametrize("n_cols", [0, 3, 200])
def test_shared_flips_match_one_draw_per_item_within_the_cap(monkeypatch,
                                                             n_cols):
    """`shared_flips` yields each item's draw and leaves the generator as
    one `coin_flips` call per item does, from a pending 32-bit half on; no
    call draws more than CHUNK_CELLS cells unless one item alone does."""
    rows = [7, 1, 130, 40, 2, 300, 5, 64, 9]
    got_rng, want_rng = (np.random.default_rng(8) for _ in range(2))
    for gen in (got_rng, want_rng):
        gen.integers(5)  # a scalar bounded draw leaves a 32-bit half pending
    draws = []
    monkeypatch.setattr(streams, "coin_flips", lambda rng, shape: (
        draws.append(shape) or coin_flips(rng, shape)))
    got = [values.copy() for values in shared_flips(got_rng, rows, n_cols)]
    monkeypatch.undo()
    assert all(n * n_cols <= CHUNK_CELLS or n in rows for n, _ in draws)
    assert 1 < len(draws) < len(rows) if n_cols == 200 else len(draws) == 1
    for n, values in zip(rows, got):
        assert np.array_equal(values, coin_flips(want_rng, (n, n_cols)))
    assert len(got) == len(rows)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("g", [
    Tree.empty(),
    Tree.internal(2, Tree.leaf(True), Tree.empty()),
    sample_fragment(np.random.default_rng(3), [0, 1, 2, 3], 3),
], ids=["empty", "one-empty-leaf", "fragment"])
def test_leaf_cover_dataset_refuses_an_incomplete_tree(g):
    with pytest.raises(UsageError, match="incomplete tree"):
        reference_leaf_cover(np.random.default_rng(0), g, 6, 4)
    with pytest.raises(UsageError, match="incomplete tree"):
        leaf_cover_dataset(np.random.default_rng(0), g, 6, 4)


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (3, 3), (9, 1), (16, 128),
                                   (64, 256)])
@pytest.mark.parametrize("pending", [False, True],
                         ids=["no-pending-half", "pending-half"])
def test_coin_flips_match_numpy_bit_for_bit(shape, pending):
    """coin_flips gives numpy's range-2 draw and leaves the whole generator
    state, the pending 32-bit half included, as that draw leaves it."""
    for seed in range(24):
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        if pending:  # a scalar bounded draw leaves a 32-bit half pending
            for rng in (got_rng, want_rng):
                rng.integers(seed + 2)
            assert got_rng.bit_generator.state["has_uint32"] == 1
        got = coin_flips(got_rng, shape)
        want = want_rng.integers(0, 2, shape).astype(np.uint8)
        assert got.dtype == np.uint8 and got.shape == shape
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        # later draws: 32-bit ones read the pending half, 64-bit ones do not
        for high in (9, 1 << 40, 3):
            assert (got_rng.integers(high, size=3).tolist()
                    == want_rng.integers(high, size=3).tolist())


@pytest.mark.parametrize("make, shape", [
    (lambda: np.random.Generator(np.random.MT19937(4)), (5, 7)),
    (lambda: np.random.default_rng(4), (0, 7)),
], ids=["no-pending-half-state", "no-cells"])
def test_coin_flips_draw_through_numpy_otherwise(make, shape):
    got_rng, want_rng = make(), make()
    assert np.array_equal(coin_flips(got_rng, shape),
                          want_rng.integers(0, 2, shape).astype(np.uint8))
    assert got_rng.integers(1 << 40, size=3).tolist() == \
        want_rng.integers(1 << 40, size=3).tolist()


# -- tree streams -----------------------------------------------------------

def test_tree_stream_is_deterministic():
    sp = spec(n_features=10, k=2, d=3, s=7, m=8, sample_size=6, seed=19)
    a_tasks, a_dict = gen_tree_stream(sp, trial=4)
    b_tasks, b_dict = gen_tree_stream(sp, trial=4)
    assert serialized(a_tasks, "tree") == serialized(b_tasks, "tree")
    assert [f.key() for f in a_dict] == [f.key() for f in b_dict]
    c_tasks, _ = gen_tree_stream(sp, trial=5)
    assert serialized(a_tasks, "tree") != serialized(c_tasks, "tree")


def test_tree_stream_structure_and_membership():
    sp = spec(n_features=8, k=2, d=3, s=7, m=10, sample_size=6, mf_depth=2,
              seed=23)
    tasks, dictionary = gen_tree_stream(sp)
    assert len(dictionary) == sp.k
    pools = [tree_vars(f) for f in dictionary]
    assert not (pools[0] & pools[1])
    for task in tasks:
        g = task.target
        assert g.depth() <= sp.d and g.size() <= sp.s
        assert not path_repeats_var(g)
        assert_both_signs_everywhere(g)
        assert member_of_dt(g, dictionary, sp.d, sp.s)
        rows = task.ds.peek_all()
        assert {route(g, r) for r in rows} == set(g.frontier_paths())


def test_anchor_stream_roots_are_distinct():
    sp = spec(family="anchor", n_features=12, k=3, d=3, s=7, m=6,
              sample_size=6, seed=29)
    _, dictionary = gen_tree_stream(sp)
    roots = [f.var for f in dictionary]
    assert len(set(roots)) == sp.k


def test_list_stream_targets_are_decision_lists():
    sp = spec(family="list", n_features=12, k=3, d=4, s=15, mf_depth=2, m=12,
              sample_size=6, seed=31)
    tasks, dictionary = gen_tree_stream(sp)
    assert len(dictionary) == sp.k
    for task in tasks:
        assert is_decision_list(task.target)
        assert not path_repeats_var(task.target)


def test_huge_mf_depth_builds_no_huge_int():
    # the pool cap 2^mf_depth - 1 is taken at most at n_features' bit length
    sp = spec(n_features=8, k=2, d=3, s=7, m=2, sample_size=4,
              mf_depth=10 ** 12)
    tasks, dictionary = gen_tree_stream(sp)
    assert len(tasks) == 2 and len(dictionary) == 2


def test_list_stream_needs_room_for_spines():
    with pytest.raises(UsageError):
        spec(family="list", n_features=4, k=3, d=4, s=15, mf_depth=2, m=2)


def test_overcomplete_stream_anchored_dictionary():
    sp = spec(family="overcomplete", n_features=10, k1=2, k2=3, mf_depth=2,
              d=3, s=7, m=8, sample_size=6, seed=37)
    tasks, dictionary = gen_tree_stream(sp)
    assert len(dictionary) == sp.k1 * sp.k2
    anchors = {f.var for f in dictionary}
    assert len(anchors) == sp.k2
    for f in dictionary:
        assert not (tree_vars(f.left) & anchors)  # anchors never in bodies
    for task in tasks:
        assert task.target.var in anchors
        assert task.meta["anchors"] is not None


def test_semi_adversarial_poses_whole_metafeatures():
    # K * p_min = 1: every draw lands on a dictionary slot
    sp = spec(n_features=9, k=3, d=3, s=7, m=30, sample_size=6,
              p_min=1 / 3, mf_depth=2, seed=41)
    tasks, dictionary = gen_tree_stream(sp)
    frag_vars = [frozenset(tree_vars(f)) for f in dictionary]
    for task in tasks:
        assert frozenset(tree_vars(task.target)) in frag_vars

    # p_min < 1/K leaves mass for arbitrary compositions
    sp2 = spec(n_features=9, k=3, d=3, s=7, m=60, sample_size=6,
               p_min=0.25, mf_depth=2, seed=43)
    tasks2, dictionary2 = gen_tree_stream(sp2)
    vars2 = [frozenset(tree_vars(f)) for f in dictionary2]
    whole = sum(frozenset(tree_vars(t.target)) in vars2 for t in tasks2)
    assert whole >= 30  # each fragment gets at least p_min mass


# -- monomial and polynomial streams ----------------------------------------

def test_monomial_stream_labels_and_span():
    sp = spec(family="monomial", n_features=6, k=2, d=4, m=8, sample_size=5,
              seed=47)
    tasks, cols = gen_monomial_stream(sp)
    assert serialized(tasks, "monomial") == serialized(
        gen_monomial_stream(sp)[0], "monomial")
    assert len(cols) == sp.k
    for task in tasks:
        g = task.target
        assert 1 <= int(g.sum()) <= sp.d
        rows = task.ds.peek_all()
        for e in range(task.ds.n_examples):
            assert Fraction(task.ds.label(e)) == eval_monomial(g, rows[e])
        # natural combination of the dictionary columns
        from probelearn import RepresentationMatrix
        rep = RepresentationMatrix(sp.n_features)
        for col in cols:
            if not rep.contains(col):
                rep.insert(col)
        assert rep.contains(g)


def test_poly_stream_labels_and_sparsity():
    sp = spec(family="polynomial", n_features=5, k=2, d=3, t=2, m=8,
              sample_size=4, seed=53)
    tasks, _ = gen_poly_stream(sp)
    assert serialized(tasks, "polynomial") == serialized(
        gen_poly_stream(sp)[0], "polynomial")
    for task in tasks:
        p = task.target
        assert 1 <= p.sparsity() <= sp.t
        assert max(sum(e for _, e in key) for key in p.terms) <= sp.d
        for coeff in (p.coefficient(g) for g in p.monomials()):
            assert abs(coeff) >= Fraction(1, 4)
        rows = task.ds.peek_all()
        for e in range(task.ds.n_examples):
            values = {i: rows[e][i] for i in range(sp.n_features)}
            assert Fraction(task.ds.label(e)) == p.evaluate(values)


@pytest.mark.parametrize("family,kw,gen,digest", [
    ("monomial", dict(n_features=6, k=2, d=4, m=8, sample_size=5, seed=47),
     gen_monomial_stream,
     "ee11f156bb8baff3c9c8c655a3d9ffe3ed58658301ad6c79729b8d9440055860"),
    ("polynomial", dict(n_features=5, k=2, d=3, t=3, m=8, sample_size=5,
                        seed=48),
     gen_poly_stream,
     "d19e28cd2e40bb46d1261b64d47f1a695bf1dd897b94cf51dfdf33893228b3cf"),
    ("monomial", dict(n_features=6, k=2, d=4, m=6, r=2, sample_size=5,
                      seed=49),
     gen_agnostic_stream,
     "85a5d92388834b6caaa59f81a112184ba7c0d6b7963d1accfbe02d46909acaa8"),
], ids=["monomial", "polynomial", "agnostic-monomial"])
def test_rational_stream_golden_digest(family, kw, gen, digest):
    """Serialized rational streams are pinned byte for byte: values, exact
    labels and targets are a fixed function of the seed."""
    tasks, _ = gen(spec(family=family, **kw))
    text = json.dumps(stream_to_json_obj(tasks, family), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,make,digest", [
    ("tree", lambda: gen_tree_stream(spec(
        family="tree", n_features=24, k=3, d=4, s=9, mf_depth=3, m=10,
        sample_size=6, seed=61)),
     "f529c47502ae2dbff0b3529aa1b9970b293181eef9329b5298ecc64d579310f6"),
    ("list", lambda: gen_tree_stream(spec(
        family="list", n_features=20, k=3, d=6, s=9, mf_depth=3, m=10,
        sample_size=6, seed=62)),
     "352f1f14f9e4ff8527a932c468a49b4f80cec72b4426a07b7642ec3e9daa36e2"),
    ("anchor", lambda: gen_tree_stream(spec(
        family="anchor", n_features=24, k=3, d=4, s=9, mf_depth=3, m=10,
        sample_size=6, seed=63)),
     "9cba55eef9ea27420811e8e536ba9d678660373a00a287e285f1eec183502b70"),
    ("overcomplete", lambda: gen_tree_stream(spec(
        family="overcomplete", n_features=20, k=4, d=4, s=9, mf_depth=3,
        k1=2, k2=2, m=10, sample_size=6, seed=64)),
     "ba5b1cbb0fb4f6afe1114e31bebc1ba8258f533c0e97c97691145fc5095fbeb2"),
    ("tree", lambda: gen_agnostic_stream(spec(
        family="tree", n_features=20, k=3, d=3, s=7, mf_depth=2, m=8, r=3,
        sample_size=6, seed=65)),
     "72bb0ef6e99125a1b10d5089d805281922e20418ddea8d53288d720ff2bc6a0c"),
    ("tree", lambda: gen_adversary_stream("large2", 12, 3, 10, 12, seed=66,
                                          sample_size=5),
     "d8a09acb24a8288c037dcb7d0df0563cc24a172e64c7be7f78cc048404ac2802"),
    ("tree", lambda: gen_tree_stream(spec(
        family="tree", n_features=24, k=3, d=4, s=9, mf_depth=3, m=10,
        sample_size=6, p_min=0.2, seed=67)),
     "6123e1f0a63b1572920e2b420b5a887ddbd47b51e926a246b591ef1a611bb76a"),
    ("tree", lambda: gen_tree_stream(spec(
        family="tree", n_features=24, k=3, d=4, s=9, mf_depth=3, m=10,
        sample_size=130, seed=68)),
     "d11663d551fe4f5dc3fe205723e32da83aa1882b8e6d83873460f05aa1989362"),
    ("list", lambda: gen_tree_stream(spec(
        family="list", n_features=20, k=3, d=6, s=9, mf_depth=3, m=10,
        sample_size=70, seed=69)),
     "b1abf47c6928eca72c4b6dfed647effc2279ce086a9755f9f37eb423d6485dbf"),
    ("tree", lambda: gen_adversary_stream("large2", 12, 3, 10, 12, seed=70,
                                          sample_size=70),
     "c619b6d77437424b02b453a151c63466053d70663fa79df6af754b4e5c18158e"),
], ids=["tree", "list", "anchor", "overcomplete", "agnostic-tree",
        "adversary-large2", "tree-posed", "tree-multiword", "list-multiword",
        "adversary-large2-multiword"])
def test_tree_stream_golden_digest(family, make, digest):
    """Serialized tree-family streams are pinned byte for byte: targets,
    leaf-covering examples and labels are a fixed function of the seed."""
    tasks, _ = make()
    text = json.dumps(stream_to_json_obj(tasks, family), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_grid_dataset_stores_int64_numerators():
    dist = ProductDistribution()
    m = dist.m_grid
    terms = {((0, 2), (2, 1)): Fraction(-3, 4)}
    ds = _grid_dataset(np.random.default_rng(5), 4, 3, terms)
    idx = np.random.default_rng(5).integers(0, m + 1, size=(4, 3))
    assert ds._values.dtype == np.int64
    for e in range(4):
        row = [Fraction(m + int(idx[e, i]), m) for i in range(3)]
        for i in range(3):
            assert ds.peek(e, i) == row[i]
        assert ds.label(e) == Fraction(-3, 4) * row[0] ** 2 * row[2]


@pytest.mark.parametrize("make", [
    lambda: gen_tree_stream(spec(family="tree", n_features=24, k=3, d=4, s=9,
                                 mf_depth=3, m=40, p_min=0.1, seed=71)),
    lambda: gen_tree_stream(spec(family="list", n_features=20, k=3, d=6, s=9,
                                 mf_depth=3, m=20, seed=72)),
    lambda: gen_tree_stream(spec(family="anchor", n_features=24, k=3, d=4,
                                 s=9, mf_depth=3, m=20, seed=73)),
    lambda: gen_tree_stream(spec(family="overcomplete", n_features=20, d=4,
                                 s=9, mf_depth=3, k1=2, k2=2, m=20, seed=74)),
    lambda: gen_agnostic_stream(spec(family="tree", n_features=20, k=3, d=3,
                                     s=7, mf_depth=2, m=20, r=5, seed=75)),
    lambda: gen_adversary_stream("large2", 12, 3, 10, 12, seed=76),
], ids=["tree", "list", "anchor", "overcomplete", "agnostic-tree",
        "adversary-large2"])
def test_generation_leaves_no_reference_cycle(make):
    """Every object a stream's generation makes is freed by reference
    counting: the collector finds nothing unreachable afterwards."""
    gc.disable()
    try:
        gc.collect()
        tasks, _ = make()
        assert tasks
        del tasks
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- agnostic mixer ----------------------------------------------------------

def test_agnostic_tree_stream_reserves_bad_features():
    sp = spec(n_features=12, k=2, d=3, s=7, m=10, r=4, sample_size=6,
              placement="adversarial-first", seed=59)
    tasks, dictionary = gen_agnostic_stream(sp)
    assert len(tasks) == sp.m + sp.r
    assert sum(t.good for t in tasks) == sp.m
    assert all(not t.good for t in tasks[:sp.r])
    reserved = set(range(sp.n_features - sp.d, sp.n_features))
    dict_vars = set().union(*(tree_vars(f) for f in dictionary))
    assert not (dict_vars & reserved)
    for task in tasks:
        assert task.ds.n_features == sp.n_features
        if task.good:
            assert not (tree_vars(task.target) & reserved)
            assert member_of_dt(task.target, dictionary, sp.d, sp.s)
        else:
            assert tree_vars(task.target) <= reserved
            assert not member_of_dt(task.target, dictionary, sp.d, sp.s)
        rows = task.ds.peek_all()
        for e in range(task.ds.n_examples):
            assert task.ds.label(e) == task.target.predict(rows[e])


def test_agnostic_placements():
    base = dict(n_features=12, k=2, d=2, s=5, m=9, r=3, sample_size=4, seed=61)
    first, _ = gen_agnostic_stream(spec(placement="adversarial-first", **base))
    assert [t.good for t in first[:3]] == [False] * 3
    inter, _ = gen_agnostic_stream(
        spec(placement="adversarial-interleaved", **base))
    assert [i for i, t in enumerate(inter) if not t.good] == [0, 4, 8]
    rand, _ = gen_agnostic_stream(spec(placement="random", **base))
    assert sum(not t.good for t in rand) == 3


def test_agnostic_stream_needs_r_at_least_one():
    sp = spec(n_features=10, k=2, d=3, s=7, m=6, r=0, sample_size=6, seed=67)
    with pytest.raises(UsageError, match="r >= 1"):
        gen_agnostic_stream(sp)


def test_agnostic_monomial_bad_feature():
    sp = spec(family="monomial", n_features=6, k=2, d=3, m=8, r=3,
              sample_size=4, placement="adversarial-first", seed=71)
    tasks, cols = gen_agnostic_stream(sp)
    assert len(tasks) == 11
    for task in tasks:
        if task.good:
            assert task.target[sp.n_features - 1] == 0
        else:
            assert set(np.nonzero(task.target)[0]) == {sp.n_features - 1}
    for col in cols:
        assert len(col) == sp.n_features and col[sp.n_features - 1] == 0


# -- lower-bound regimes -----------------------------------------------------

def test_stump_shape():
    g = stump(4)
    assert g.var == 4 and g.left.label is False and g.right.label is True
    assert g.predict(np.array([0, 0, 0, 0, 1])) is True


def test_adversary_r_min_frozen():
    assert adversary_r_min(16, 3, 50) == 4
    assert adversary_r_min(16, 3, 30) == 3
    assert adversary_r_min(4, 2, 100) == 25


def test_realizable_regime():
    tasks, feats = gen_adversary_stream("realizable", 20, 3, 12, 0, seed=3)
    assert len(tasks) == 12 and len(feats) == 3
    assert all(t.good for t in tasks)
    assert {t.target.var for t in tasks} == set(feats)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 6], ids=lambda m: f"m{m}")
def test_realizable_regime_poses_exactly_m_tasks(m):
    """K = 3: m < K poses the first m of the K distinct features, not K."""
    tasks, feats = gen_adversary_stream("realizable", 10, 3, m, 0, seed=4)
    assert len(tasks) == m and len(feats) == 3
    first = [t.target.var for t in tasks[:3]]
    assert first == feats[:m] and len(set(first)) == min(m, 3)
    assert all(t.good and t.target.var in feats for t in tasks)


def test_regime_stream_lengths_frozen():
    inter, designated = gen_adversary_stream("intermediate", 16, 3, 30, 8,
                                             seed=5)
    assert len(inter) == 10 + 30  # ceil(r*N/(N-K)) posed, then m good
    assert all(t.good for t in inter[10:])
    for t in inter[:10]:
        assert t.good == (t.target.var in designated)

    large1, _ = gen_adversary_stream("large1", 16, 3, 30, 0, seed=5)
    assert len(large1) == 160  # ceil(m*N/K)

    large2, _ = gen_adversary_stream("large2", 16, 3, 30, 12, seed=5)
    assert len(large2) == 44 + 30  # ceil(sqrt(r*N*m/K)) posed, then m good


def test_regime_validation():
    with pytest.raises(UsageError):
        gen_adversary_stream("nope", 16, 3, 30, 8, seed=1)
    with pytest.raises(UsageError):
        gen_adversary_stream("intermediate", 16, 3, 50, 3, seed=1)  # r < r_min
    with pytest.raises(UsageError):
        gen_adversary_stream("realizable", 4, 8, 10, 0, seed=1)  # K > N


@pytest.mark.parametrize("regime", ["realizable", "intermediate", "large1",
                                    "large2"])
def test_regime_needs_k_at_least_one(regime):
    """K = 0 must not reach numpy's `high <= 0` or a ZeroDivisionError."""
    with pytest.raises(UsageError, match=rf"^regime {regime} requires K >= 1"):
        gen_adversary_stream(regime, 10, 0, 3, 40, seed=1)


# -- the single-feature game -------------------------------------------------

def test_exhaustive_learner_wins_with_full_budget():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        result = play_single_feature_game(rng, 30, 30, s=1,
                                          learner="exhaustive")
        assert isinstance(result, GameResult)
        assert result.win and not result.forfeited
        assert result.named == result.i_star
        assert result.probes_used <= 30


def test_exhaustive_learner_forfeits_past_the_budget():
    forfeits = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        result = play_single_feature_game(rng, 50, 10, s=1,
                                          learner="exhaustive")
        # scans features in order: forfeits exactly when i* is out of reach
        assert result.forfeited == (result.i_star >= 10)
        if result.forfeited:
            forfeits += 1
            assert not result.win and result.named == -1
    assert forfeits > 20


def test_scan_learner_respects_budget():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        result = play_single_feature_game(rng, 25, 10, s=2, learner="scan")
        assert not result.forfeited
        assert result.probes_used <= 10


def test_game_results_golden_digest():
    """Every learner's games are pinned over a grid of (N', S, budget,
    seed): outcome, named feature, probes used, and the RNG state the game
    leaves (so each learner draws exactly as before)."""
    rows = []
    for learner in ("scan", "uniform", "exhaustive"):
        for n_prime in (1, 3, 8, 17):
            for s in (1, 2, 3):
                top = s * n_prime
                for budget in sorted({0, 1, s, top // 2, top - 1, top}):
                    for seed in range(4):
                        rng = np.random.default_rng((seed, n_prime, budget))
                        r = play_single_feature_game(rng, n_prime, budget,
                                                     s=s, learner=learner)
                        rows.append([learner, n_prime, budget, s, seed, r.win,
                                     r.forfeited, r.i_star, r.named,
                                     r.probes_used,
                                     int(rng.integers(1 << 30))])
    assert len(rows) == 708
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "e1abfa63d5854c8227aeedfeb1b8b5eadc8ffd30e571806639bc3a8590743cce")


def test_game_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        play_single_feature_game(rng, 10, -1)
    with pytest.raises(UsageError):
        play_single_feature_game(rng, 10, 11, s=1)
    with pytest.raises(UsageError):
        play_single_feature_game(rng, 10, 5, learner="psychic")


def test_game_failure_bound_values():
    assert game_failure_bound(100, 25) == 0.74
    assert game_failure_bound(100, 99) == 0.0
    assert game_failure_bound(10, 20) == 0.0  # clipped


# -- the game against its per-cell reference --------------------------------

class _RefForfeit(Exception):
    pass


def _ref_probe_in_order(probe, order, s, budget):
    """The per-cell reference read: each feature of `order` in turn, on all
    S examples, while the budget covers S more probes."""
    for k, i in enumerate(order):
        if (k + 1) * s > budget:
            return None, k
        for e in range(s):
            if probe(e, i) != 1:
                break
        else:
            return i, k + 1
    return None, len(order)


def _ref_scan(rng, probe, n_prime, s, budget):
    hit, k = _ref_probe_in_order(probe, range(n_prime), s, budget)
    if hit is not None:
        return hit
    rest = range(k, n_prime)
    return rest[int(rng.integers(len(rest)))] if rest else 0


def _ref_uniform(rng, probe, n_prime, s, budget):
    order = rng.permutation(n_prime).tolist()
    hit, k = _ref_probe_in_order(probe, order, s, budget)
    if hit is not None:
        return hit
    rest = order[k:]
    return rest[0] if rest else 0


def _ref_exhaustive(rng, probe, n_prime, s, budget):
    hit, _ = _ref_probe_in_order(probe, range(n_prime), s, float("inf"))
    return 0 if hit is None else hit


REF_LEARNERS = {"scan": _ref_scan, "uniform": _ref_uniform,
                "exhaustive": _ref_exhaustive}


def reference_game(rng, n_prime, budget, s, learner):
    """The game with one probe closure call per cell."""
    i_star = int(rng.integers(n_prime))
    used = 0

    def probe(e, i):
        nonlocal used
        used += 1
        if used > budget:
            raise _RefForfeit
        return 1 if i == i_star else 0

    try:
        named = int(REF_LEARNERS[learner](rng, probe, n_prime, s, budget))
    except _RefForfeit:
        return GameResult(False, True, i_star, -1, used)
    return GameResult(named == i_star, False, i_star, named, used)


@pytest.mark.parametrize("learner", sorted(REF_LEARNERS))
@pytest.mark.parametrize("n_prime", [1, 2, 3, 8, 17, 100])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_game_matches_the_per_cell_reference(learner, n_prime, s):
    """At every budget in [0, S*N'], the referee's one read gives the
    per-cell game's result (win, forfeit, i*, named feature, probes used)
    and leaves the generator in the same whole state."""
    for budget in range(s * n_prime + 1):
        for seed in range(4):
            got_rng, want_rng = (np.random.default_rng((seed, budget, 7))
                                 for _ in range(2))
            got = play_single_feature_game(got_rng, n_prime, budget, s=s,
                                           learner=learner)
            want = reference_game(want_rng, n_prime, budget, s, learner)
            assert got == want, (budget, seed)
            assert (got_rng.bit_generator.state
                    == want_rng.bit_generator.state), (budget, seed)


@pytest.mark.parametrize("n_prime, s", [(0, 1), (-3, 1), (5, 0), (5, -1)])
def test_game_needs_a_feature_and_an_example(n_prime, s):
    """N' < 1 must not reach numpy's `high <= 0`, nor S < 1 play an empty
    game that hits feature 0 with no probes: both are UsageErrors raised
    before any draw."""
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(UsageError, match="N' >= 1"):
        play_single_feature_game(rng, n_prime, 0, s=s)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30])
@pytest.mark.parametrize("budget", [0, 1, 25, 2**32])
def test_pcg64_trial_states_match_numpy_seeding(seed, budget):
    """Each start state is the whole `.state` dict numpy's own seeding of
    PCG64((seed, t, budget)) gives, multi-word seeds and budgets included."""
    got = pcg64_trial_states(seed, 64, budget)
    assert got == [np.random.PCG64((seed, t, budget)).state
                   for t in range(64)]


def test_pcg64_trial_states_bounds():
    assert pcg64_trial_states(3, 0, 5) == []
    with pytest.raises(UsageError):
        pcg64_trial_states(-1, 4, 5)
    with pytest.raises(UsageError):
        pcg64_trial_states(0, 4, -5)
    with pytest.raises(UsageError):  # refused before allocating anything
        pcg64_trial_states(0, (1 << 32) + 1, 5)


def reference_game_failures(seed, n_prime, budget, trials, s, learners):
    """One freshly seeded PCG64 per game and learner."""
    failures = [0] * len(learners)
    for t in range(trials):
        for i, learner in enumerate(learners):
            rng = np.random.Generator(np.random.PCG64((seed, t, budget)))
            if not play_single_feature_game(rng, n_prime, budget, s=s,
                                            learner=learner).win:
                failures[i] += 1
    return failures


@pytest.mark.parametrize("seed", [0, 3, 2**32 + 1])
@pytest.mark.parametrize("n_prime, s, budget", [(100, 1, 0), (100, 1, 25),
                                                (12, 2, 7), (9, 3, 27)])
def test_game_failures_match_per_game_seeding(seed, n_prime, s, budget):
    learners = ["scan", "uniform", "exhaustive", "uniform"]
    assert (_game_failures(seed, n_prime, budget, 60, s, learners)
            == reference_game_failures(seed, n_prime, budget, 60, s,
                                       learners))
