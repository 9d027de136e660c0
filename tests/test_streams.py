"""Stream generators: determinism, structural audits, regimes, the game."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from probelearn import (CostlyDataset, GameResult, StreamSpec, Tree,
                        UsageError, adversary_r_min, compose_target,
                        eval_monomial, fill_labels, game_failure_bound,
                        gen_adversary_stream, gen_agnostic_stream,
                        gen_monomial_stream, gen_poly_stream, gen_tree_stream,
                        leaf_cover_dataset, member_of_dt,
                        play_single_feature_game, sample_fragment,
                        stream_from_json_obj, stream_to_json_obj, stump,
                        tree_vars)
from probelearn.griddist import ProductDistribution
from probelearn.streams import _grid_dataset
from probelearn.trees import INTERNAL, LEAF, path_repeats_var


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


def test_compose_target_respects_caps():
    rng = np.random.default_rng(11)
    frags = [sample_fragment(rng, [0, 1, 2], 2),
             sample_fragment(rng, [3, 4, 5], 2)]
    for _ in range(20):
        g = compose_target(rng, frags, d=4, s=9)
        assert g.kind == INTERNAL
        assert g.depth() <= 4 and g.size() <= 9
        assert not path_repeats_var(g)


def test_leaf_cover_dataset_reaches_every_leaf():
    rng = np.random.default_rng(13)
    g = fill_labels(rng, sample_fragment(rng, [0, 1, 2, 3], 3))
    ds = leaf_cover_dataset(rng, g, 8, 10)
    assert ds.n_examples == max(10, g.n_leaves())
    rows = ds.peek_all()
    reached = {route(g, row) for row in rows}
    assert reached == set(g.frontier_paths())
    for e in range(ds.n_examples):
        assert ds.label(e) == g.predict(rows[e])


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


def test_list_stream_needs_room_for_spines():
    sp = spec(family="list", n_features=4, k=3, d=4, s=15, mf_depth=2, m=2)
    with pytest.raises(UsageError):
        gen_tree_stream(sp)


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
        assert p.total_degree() <= sp.d
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
], ids=["tree", "list", "anchor", "overcomplete", "agnostic-tree",
        "adversary-large2"])
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
    ds = _grid_dataset(np.random.default_rng(5), dist, 4, 3, terms)
    idx = np.random.default_rng(5).integers(0, m + 1, size=(4, 3))
    assert ds._values.dtype == np.int64
    for e in range(4):
        row = [Fraction(m + int(idx[e, i]), m) for i in range(3)]
        for i in range(3):
            assert ds.peek(e, i) == row[i]
        assert ds.label(e) == Fraction(-3, 4) * row[0] ** 2 * row[2]


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


def test_agnostic_passthrough_when_r_zero():
    sp = spec(n_features=10, k=2, d=3, s=7, m=6, r=0, sample_size=6, seed=67)
    a, _ = gen_agnostic_stream(sp)
    b, _ = gen_tree_stream(sp)
    assert serialized(a, "tree") == serialized(b, "tree")


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


# -- serialization round trips ----------------------------------------------

def test_tree_stream_round_trip():
    sp = spec(n_features=8, k=2, d=3, s=7, m=5, sample_size=6, seed=73)
    tasks, _ = gen_tree_stream(sp)
    back = stream_from_json_obj(stream_to_json_obj(tasks, "tree"))
    assert len(back) == len(tasks)
    for a, b in zip(tasks, back):
        assert a.target == b.target
        assert a.good == b.good
        assert (a.ds.peek_all() == b.ds.peek_all()).all()
        assert b.ds.ledger.total_probes == 0  # fresh meter after the trip


def test_rational_stream_round_trips():
    sp = spec(family="monomial", n_features=5, k=2, d=3, m=4, sample_size=4,
              seed=79)
    tasks, _ = gen_monomial_stream(sp)
    back = stream_from_json_obj(stream_to_json_obj(tasks, "monomial"))
    for a, b in zip(tasks, back):
        assert (a.target == b.target).all()
        assert (a.ds.peek_all() == b.ds.peek_all()).all()

    sp2 = spec(family="polynomial", n_features=4, k=2, d=3, t=2, m=4,
               sample_size=4, seed=83)
    tasks2, _ = gen_poly_stream(sp2)
    back2 = stream_from_json_obj(stream_to_json_obj(tasks2, "polynomial"))
    for a, b in zip(tasks2, back2):
        assert a.target == b.target
        assert (a.ds.peek_all() == b.ds.peek_all()).all()
