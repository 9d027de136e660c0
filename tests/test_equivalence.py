"""Golden digests that pin what the tree growers and the protocol loop output.

Each digest is a sha256 over a grid of runs: the tree (or failure message,
or `LfdResult` fields) plus the probe mask of every grower call, and the
frozen report rows plus the representation snapshots of every protocol run.
A refactor of the growers or of the loop must leave every digest unchanged.
"""

import hashlib

import numpy as np
import pytest

from probelearn import (CostlyDataset, InfoGain, MonomialFamily,
                        OracleMisuseError, PolynomialFamily,
                        ProductDistribution, RealizabilityError, StreamSpec,
                        TeacherGain, Tree, TreeFamily, build_orthogonal_basis,
                        gen_adversary_stream, gen_agnostic_stream,
                        gen_monomial_stream, gen_poly_stream, gen_tree_stream,
                        learn_tree_scratch, lfd_tree, naive_lfd_seen_features,
                        run_bootstrap_protocol, run_combined_protocol,
                        run_protocol, run_restart_protocol, tree_vars)
from probelearn.polynomials import Polynomial
from probelearn.tree_learners import LfdResult

DIST = ProductDistribution()


def canon(x):
    """A stable text form of an output: trees by key, vectors as ints."""
    if isinstance(x, Tree):
        return repr(x.key())
    if isinstance(x, np.ndarray):
        return repr(tuple(int(v) for v in x))
    if isinstance(x, Polynomial):
        return repr(sorted(x.terms.items()))
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    return repr(x)


# -- growers ----------------------------------------------------------------

GROWER_STREAMS = [
    dict(family="tree", n_features=12, k=3, d=4, s=9, mf_depth=3, m=8,
         sample_size=8),
    dict(family="list", n_features=12, k=3, d=6, s=9, mf_depth=3, m=8,
         sample_size=8),
    dict(family="anchor", n_features=12, k=3, d=4, s=9, mf_depth=2, m=8,
         sample_size=8),
    dict(family="overcomplete", n_features=12, k=4, d=4, s=9, mf_depth=2,
         k1=2, k2=2, m=8, sample_size=8),
]
CAPS = [(1, 1), (2, 2), (2, 3), (3, 3), (3, 7), (4, 9), (6, 4)]

# Data with duplicated rows under different labels: no tree fits it, so
# growers run out of features ("no-candidate" and its scratch messages).
INCONSISTENT = [
    ([[0, 0], [0, 0], [1, 1], [1, 0]], [1, 0, 1, 0]),
    ([[0], [0], [1]], [1, 0, 1]),
    ([[0, 1, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]], [1, 0, 1, 0]),
]


def grower_cases():
    """(ds, target, rep, seen) per task of the grid's streams."""
    for kw in GROWER_STREAMS:
        for seed in range(3):
            tasks, dictionary = gen_tree_stream(
                StreamSpec(seed=seed, **kw).validate())
            for i, task in enumerate(tasks):
                rep = dictionary[:i % (len(dictionary) + 1)]
                seen = set().union(*(tree_vars(f) for f in rep)) | {i}
                yield task.ds, task.target, rep, seen
    for values, labels in INCONSISTENT:
        ds = CostlyDataset.from_bool(values, labels)
        target = Tree.internal(0, Tree.leaf(False), Tree.leaf(True))
        rep = [Tree.internal(j, Tree.empty(), Tree.empty())
               for j in range(ds.n_features)]
        yield ds, target, rep, set(range(ds.n_features))


def grow_once(grower, gain_kind, ds, target, rep, seen, d, s):
    """(output text, failure kind) of one grower on a fresh copy of `ds`."""
    ds = CostlyDataset.from_bool(ds.peek_all(), ds.labels)
    gain = TeacherGain(target) if gain_kind == "teacher" else InfoGain()
    kind = None
    try:
        if grower == "scratch":
            out = learn_tree_scratch(ds, gain, d, s)
        elif grower == "lfd":
            out = lfd_tree(ds, rep, gain, d, s)
        else:
            out = naive_lfd_seen_features(ds, seen, gain, d, s)
    except (RealizabilityError, OracleMisuseError) as exc:
        out = f"{type(exc).__name__}: {exc}"
        kind = str(exc).split(" ")[0]
    if isinstance(out, LfdResult):
        kind = out.reason
        out = (out.outcome, out.tree, out.failed_path, out.reason)
    return canon(out) + "|" + ds.ledger._mask.tobytes().hex(), kind


GROWER_DIGESTS = {
    ("scratch", "teacher"):
        "84269f12ec8f190a175c095a439482704344dbe990eaadb7512f4737ff24002d",
    ("scratch", "info"):
        "4f04daa436b8d6245fc25721d0956de1864ca30e48c18b08652fec024239c592",
    ("lfd", "teacher"):
        "50d2db5b79285d8eb1dcfae8197876d9c5405a22e7fb0df3324a35986cee03e4",
    ("lfd", "info"):
        "d24659d60a15671c2c08eab1029fbb711e5a27b50162f7b395dffd8649c17e8e",
    ("naive", "teacher"):
        "3b059d2e43bb83971f60d2b04cb22710016e6d065bd779fb7a5178c84f870f11",
    ("naive", "info"):
        "f545cfc0a1686c727754c396377f737b625d246a343d7f36456d63538863ce47",
}


@pytest.mark.parametrize("grower,gain_kind", sorted(GROWER_DIGESTS))
def test_grower_outcomes_golden_digest(grower, gain_kind):
    h = hashlib.sha256()
    kinds = set()
    for ds, target, rep, seen in grower_cases():
        for d, s in CAPS:
            text, kind = grow_once(grower, gain_kind, ds, target, rep, seen,
                                   d, s)
            h.update(text.encode() + b"\n")
            kinds.add(kind)
    assert h.hexdigest() == GROWER_DIGESTS[grower, gain_kind]
    # the grid reaches every way a grower can stop
    if grower == "scratch":
        assert {"mixed", "size", "all"} <= kinds
    else:
        assert {None, "depth", "size", "no-candidate"} <= kinds


# -- protocol runs ------------------------------------------------------------


def tree_stream(**kw):
    return gen_tree_stream(StreamSpec(**kw).validate())[0]


def agnostic_stream(**kw):
    return gen_agnostic_stream(StreamSpec(**kw).validate())[0]


TREE = dict(n_features=16, k=3, d=3, s=7, mf_depth=2, m=30, sample_size=8)
AGNOSTIC = dict(n_features=16, k=2, d=3, s=7, mf_depth=2, m=30, r=4,
                sample_size=8, placement="random")
MONO = dict(family="monomial", n_features=8, k=3, d=3, m=12, sample_size=5)
POLY = dict(family="polynomial", n_features=5, k=2, d=3, t=2, m=10,
            sample_size=4)


def poly_family():
    return PolynomialFamily(5, 3, 2, DIST, build_orthogonal_basis(DIST, 3))


PROTOCOL_CASES = {
    "tree-plain": lambda seed: run_protocol(
        TreeFamily(3, 7), tree_stream(seed=seed, **TREE)),
    "tree-plain-info": lambda seed: run_protocol(
        TreeFamily(3, 7, gain="info"), tree_stream(seed=seed, **TREE)),
    "list-plain": lambda seed: run_protocol(
        TreeFamily(6, 9, improver="list"),
        tree_stream(family="list", n_features=16, k=3, d=6, s=9, mf_depth=2,
                    m=30, sample_size=8, seed=seed)),
    "anchor-plain": lambda seed: run_protocol(
        TreeFamily(4, 9, improver="anchor"),
        tree_stream(family="anchor", n_features=14, k=3, d=4, s=9,
                    mf_depth=3, m=30, sample_size=8, seed=seed)),
    "overcomplete-bootstrap": lambda seed: run_bootstrap_protocol(
        TreeFamily(3, 7, improver="overcomplete"),
        tree_stream(family="overcomplete", n_features=10, k1=2, k2=2,
                    mf_depth=2, d=3, s=7, m=30, sample_size=8, seed=seed),
        n_bootstrap=4),
    "tree-bootstrap": lambda seed: run_bootstrap_protocol(
        TreeFamily(3, 7),
        tree_stream(p_min=1 / 3, seed=seed, **TREE), n_bootstrap=5),
    "tree-restart": lambda seed: run_restart_protocol(
        TreeFamily(3, 7), agnostic_stream(seed=seed, **AGNOSTIC), k_cap=2),
    "tree-restart-slack": lambda seed: run_restart_protocol(
        TreeFamily(3, 7), agnostic_stream(seed=seed, **AGNOSTIC), k_cap=1,
        slack=2),
    "tree-combined": lambda seed: run_combined_protocol(
        TreeFamily(3, 7), agnostic_stream(seed=seed, **AGNOSTIC), k_cap=2,
        r=4, n_features=16),
    "adversary-restart": lambda seed: run_restart_protocol(
        TreeFamily(1, 1),
        gen_adversary_stream("large2", 12, 3, 12, 12, seed=seed,
                             sample_size=4)[0], k_cap=3),
    "monomial-plain": lambda seed: run_protocol(
        MonomialFamily(8, 3, DIST),
        gen_monomial_stream(StreamSpec(seed=seed, **MONO).validate())[0]),
    "monomial-restart": lambda seed: run_restart_protocol(
        MonomialFamily(8, 3, DIST),
        gen_agnostic_stream(StreamSpec(seed=seed, r=2, **MONO).validate())[0],
        k_cap=3),
    "monomial-bootstrap": lambda seed: run_bootstrap_protocol(
        MonomialFamily(8, 3, DIST),
        gen_monomial_stream(StreamSpec(seed=seed, **MONO).validate())[0],
        n_bootstrap=2),
    "polynomial-plain": lambda seed: run_protocol(
        poly_family(),
        gen_poly_stream(StreamSpec(seed=seed, **POLY).validate())[0]),
    "polynomial-combined": lambda seed: run_combined_protocol(
        poly_family(),
        gen_poly_stream(StreamSpec(seed=seed, **POLY).validate())[0],
        k_cap=0, r=1, n_features=5),
    "polynomial-bootstrap": lambda seed: run_bootstrap_protocol(
        poly_family(),
        gen_poly_stream(StreamSpec(seed=seed, **POLY).validate())[0],
        n_bootstrap=3),
}

PROTOCOL_DIGESTS = {
    "adversary-restart":
        "0056671ab579fb451064cb2dec312576e0c06b6f58a2ad3b3dc0f497cee03f87",
    "anchor-plain":
        "877600b653ee0ef2bddbbd265a31c15e9cffcc28ee02ace02dbb19bdc789b6ba",
    "list-plain":
        "4ca2e1b6c03505d46d25117b012a7857cc3f9171cef4969ddcb88cd45662a2bd",
    "monomial-bootstrap":
        "8aa07847c80c544b5f82c25942a4196caf2b076734117fefafda4dce146ef849",
    "monomial-plain":
        "bf921d9d7b165f827eaad89f7bad88cd476b940687154fb383789ba15e15de20",
    "monomial-restart":
        "ccb99bb14f7abb9b3a0a5c8c892bed0d7f6b6769b2d194f42734e496b09d574e",
    "overcomplete-bootstrap":
        "1a1b18d7a3dbe81aa6eedfb993136d64ab1dd26cf7c26f593e5260c9c18b4c15",
    "polynomial-bootstrap":
        "b5d7108d7f026453257a985b52738f6abc8daf6b3bc407727d8541f1b62a1cf0",
    "polynomial-combined":
        "d6c0b3db0bcead7550f23cf05ba403259aea5b60a2088038133ce797f85a9108",
    "polynomial-plain":
        "7fe766edafd9819d42354b8222cd4c8f32d3e64bce9f1928f19b120cbf81a21d",
    "tree-bootstrap":
        "cb188cb76f439a37209792541248493a3d270a1851fa3d479361a57e8ac48428",
    "tree-combined":
        "7abf83622d1b4a57b12c02a0fdc65db7d4e70ffbc320cc418b340a8d69d72eb0",
    "tree-plain":
        "b7de16746651501189792904165079504e38f0bbaf4be058f02540361153e990",
    "tree-plain-info":
        "fa148847231dab69091e5e0d556ff82f35cee11594603dbb554b498c9b8db413",
    "tree-restart":
        "10562a06eb70d1de42a520458086aed131a6e6db91db5dbcb588de224a68f090",
    "tree-restart-slack":
        "467b859e4736d2da0a987d4cbeda7a8cf28c5f2387107d69dcde113d627f46b8",
}


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
def test_protocol_run_golden_digest(name):
    h = hashlib.sha256()
    for seed in range(2):
        try:
            run = PROTOCOL_CASES[name](seed)
        except RealizabilityError as exc:
            h.update(f"RealizabilityError: {exc}\n".encode())
            continue
        for row, snap, hyp in zip(run.to_rows(seed), run.rep_snapshots,
                                  run.hypotheses):
            line = [str(row[f]) for f in row] + [canon(snap), canon(hyp)]
            h.update(("|".join(line) + "\n").encode())
        h.update(f"restarts={run.restarts}\n".encode())
    assert h.hexdigest() == PROTOCOL_DIGESTS[name]
