"""Seeded task-stream generators for every target family.

All streams are pure functions of (spec, trial): the RNG is seeded with the
pair, so equal inputs emit bit-identical streams and trials parallelize as
independent substreams.  Each task carries its probe-metered dataset plus
the hidden target on the oracle channel; labels are always reproducible
from the target.

Tree targets are compositions of a hidden dictionary of K incomplete
"metafeature" trees: fragments are affixed at empty slots (path variables
never repeat), remaining slots become leaves such that every internal node
keeps both a + and a - leaf beneath it — the reduced-tree property the
teacher gain needs for exact reconstruction on leaf-covering data.

The agnostic mixer plants r bad targets over features disjoint from the
dictionary; the lower-bound regime generators emit single-feature stumps
with retroactively designated good features; and the single-feature game
realizes the needle-in-a-haystack adversary with budgeted adaptive probing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dataset import CostlyDataset
from .errors import GeneratorExhaustedError, UsageError
from .griddist import ProductDistribution
from .exactla import independent_rows
from .monomials import monomial_from_json_obj, monomial_to_json_obj
from .polynomials import Polynomial, term_key
from .protocol import Task
from .trees import EMPTY, INTERNAL, LEAF, MINUS, PLUS, Tree, affix

FAMILIES = ("tree", "list", "anchor", "overcomplete", "monomial", "polynomial")
PLACEMENTS = ("random", "adversarial-first", "adversarial-interleaved")
REGIMES = ("realizable", "intermediate", "large1", "large2")


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

    def validate(self) -> "StreamSpec":
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}")
        if self.placement not in PLACEMENTS:
            raise UsageError(f"unknown placement {self.placement!r}")
        if self.k > self.n_features:
            raise UsageError("K exceeds the number of features")
        if self.d > self.s:
            raise UsageError("depth cap d exceeds size cap s")
        if self.m < 1 or self.r < 0 or self.sample_size < 1:
            raise UsageError("m >= 1, r >= 0, sample_size >= 1 required")
        if self.p_min < 0 or self.k * max(self.p_min, 0) > 1:
            raise UsageError("need 0 <= K * p_min <= 1")
        if self.family == "overcomplete":
            if self.k1 < 1 or self.k2 < 1:
                raise UsageError("overcomplete model needs k1 >= 1 variants "
                                 "and k2 >= 1 anchors")
            if self.k2 + self.k1 * max(self.mf_depth - 1, 1) > self.n_features:
                raise UsageError("not enough features for disjoint anchors "
                                 "and bodies")
        return self


# -- tree fragments and composition ----------------------------------------


def tree_vars(tree: Tree) -> set:
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.kind == INTERNAL:
            out.add(node.var)
            stack.extend((node.left, node.right))
    return out


def sample_fragment(rng, pool, max_depth: int, p_extend: float = 0.6) -> Tree:
    """Random all-empty decided tree over `pool`, at least one internal node."""
    def build(depth, avail):
        if depth >= max_depth or not avail:
            return Tree.empty()
        if depth > 0 and rng.random() > p_extend:
            return Tree.empty()
        var = int(avail[int(rng.integers(len(avail)))])
        rest = [v for v in avail if v != var]
        return Tree.internal(var, build(depth + 1, rest), build(depth + 1, rest))
    return build(0, list(pool))


def _sample_list_fragment(rng, pool, max_len: int):
    """Random open decision-list segment; returns (tree, spine_end_path)."""
    length = int(rng.integers(1, max_len + 1))
    order = list(rng.permutation(np.asarray(pool)))[:length]
    path = []
    for var in order:
        path.append(int(rng.integers(2)))  # which child continues the spine
    def build(i):
        if i == len(order):
            return Tree.empty()
        side = path[i]
        nxt = build(i + 1)
        if side == 0:
            return Tree.internal(int(order[i]), nxt, Tree.empty())
        return Tree.internal(int(order[i]), Tree.empty(), nxt)
    return build(0), tuple(path)


def fill_labels(rng, tree: Tree) -> Tree:
    """Replace empties with leaves so every internal node has both a + and a
    - leaf beneath it (labels at pre-existing leaves are kept)."""
    def fill(node, need):
        if node.kind == EMPTY:
            if need is None:
                return Tree.leaf(bool(rng.integers(2)))
            return Tree.leaf(need)
        if node.kind == LEAF:
            return node.copy()
        needs = (PLUS, MINUS) if rng.integers(2) else (MINUS, PLUS)
        return Tree.internal(node.var, fill(node.left, needs[0]),
                             fill(node.right, needs[1]))
    return fill(tree, None)


def compose_target(rng, metafeatures, d: int, s: int, p_more: float = 0.6,
                   max_tries: int = 64) -> Tree:
    """Compose fragments at empty slots under the (d, s) caps, then label."""
    shapes = [(tree_vars(f), f.depth(), f.size()) for f in metafeatures]
    for _ in range(max_tries):
        i = int(rng.integers(len(metafeatures)))
        g = metafeatures[i].copy()
        _, depth, size = shapes[i]
        if depth > d or size > s:
            continue
        while True:
            options = []
            for path, used in g.empty_slots():
                depth_left, size_left = d - len(path), s - size
                for f, (fvars, fdepth, fsize) in zip(metafeatures, shapes):
                    if (fdepth <= depth_left and fsize <= size_left
                            and fvars.isdisjoint(used)):
                        options.append((path, f, fsize))
            if not options or rng.random() > p_more:
                break
            path, f, fsize = options[int(rng.integers(len(options)))]
            g = affix(g, path, f)
            size += fsize
        g = fill_labels(rng, g)
        if g.kind == INTERNAL and g.depth() <= d and g.size() <= s:
            return g
    raise GeneratorExhaustedError(
        "could not compose a target within the depth/size caps")


def _compose_list(rng, fragments, d: int, p_more: float = 0.6,
                  max_tries: int = 64) -> Tree:
    """Chain list segments at the spine end, then label side slots."""
    for _ in range(max_tries):
        i = int(rng.integers(len(fragments)))
        g, end = fragments[i][0].copy(), fragments[i][1]
        while rng.random() < p_more:
            fits = [(f, e) for f, e in fragments
                    if not (tree_vars(f) & set(g.path_vars(end)))
                    and len(end) + f.depth() <= d]
            if not fits:
                break
            f, fend = fits[int(rng.integers(len(fits)))]
            g = affix(g, end, f)
            end = end + fend
        g = fill_labels(rng, g)
        if g.kind == INTERNAL and g.depth() <= d:
            return g
    raise GeneratorExhaustedError(
        "could not compose a decision list within the depth cap")


def leaf_cover_dataset(rng, g: Tree, n_features: int, sample_size: int) -> CostlyDataset:
    """One example routed to every leaf of g, padded with uniform examples.

    All rows are drawn in one call, which yields the same bits as one draw
    per row; the first rows then get the path bits of g's frontier."""
    paths = g.frontier_paths()
    values = rng.integers(0, 2, (max(len(paths), sample_size), n_features)
                          ).astype(np.uint8)
    for row, path in zip(values, paths):
        node = g
        for step in path:
            row[node.var] = step
            node = node.right if step else node.left
    labels = np.array([g.predict(row) for row in values], dtype=bool)
    return CostlyDataset.from_bool(values, labels)


# -- tree streams ----------------------------------------------------------


def _var_pools(rng, n_features: int, count: int, size: int):
    if count * size > n_features:
        raise UsageError("not enough features for disjoint variable pools")
    perm = rng.permutation(n_features)
    return [perm[i * size:(i + 1) * size].tolist() for i in range(count)]


def _sample_dictionary(rng, spec: StreamSpec, max_tries: int = 64):
    """The hidden fragment dictionary for the plain/anchor/list sub-models."""
    pool_size = min(spec.n_features // spec.k, 2 ** spec.mf_depth - 1)
    if pool_size < 1 or pool_size < spec.mf_depth and spec.family == "list":
        raise UsageError("not enough features for the requested dictionary")
    pools = _var_pools(rng, spec.n_features, spec.k, pool_size)
    frags = []
    seen = set()
    for pool in pools:
        for _ in range(max_tries):
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


def gen_tree_stream(spec: StreamSpec, trial: int = 0, metafeatures=None):
    """Task stream for the tree sub-models; returns (tasks, dictionary).

    With p_min > 0 the stream is semi-adversarial: each metafeature is posed
    as a whole target with probability at least p_min, the rest of the mass
    going to arbitrary compositions.
    """
    spec.validate()
    rng = np.random.default_rng((spec.seed, trial))
    anchors = None
    if metafeatures is not None:
        dictionary = metafeatures
    elif spec.family == "overcomplete":
        dictionary, anchors = _overcomplete_dictionary(rng, spec)
    else:
        dictionary = _sample_dictionary(rng, spec)
    tasks = []
    for _ in range(spec.m):
        if spec.family == "list":
            target = _compose_list(rng, dictionary, spec.d)
        elif spec.p_min > 0:
            u = rng.random()
            slot = int(u / spec.p_min)
            if slot < len(dictionary):
                target = fill_labels(rng, dictionary[slot])
            else:
                target = compose_target(rng, dictionary, spec.d, spec.s)
        else:
            target = compose_target(rng, dictionary, spec.d, spec.s)
        size = max(spec.sample_size, target.n_leaves())
        ds = leaf_cover_dataset(rng, target, spec.n_features, size)
        meta = {"anchors": anchors} if anchors is not None else {}
        tasks.append(Task(ds=ds, target=target, good=True, meta=meta))
    if spec.family == "list":
        dictionary = [f for f, _ in dictionary]
    return tasks, dictionary


# -- monomial and polynomial streams ---------------------------------------

COEFF_POOL = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3, 4)]
A_MIN = Fraction(1, 4)


def _sample_exponent_matrix(rng, spec: StreamSpec, max_tries: int = 200):
    """N x K natural matrix of rank K with column degrees fitting d."""
    max_deg = min(2, spec.d)
    if max_deg < 1:
        raise GeneratorExhaustedError("degree budget d < 1 admits no targets")
    for _ in range(max_tries):
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


def _sample_combination(rng, cols, d: int, p_more: float = 0.5):
    degs = [int(c.sum()) for c in cols]
    w = np.zeros(len(cols), dtype=np.int64)
    budget = d
    while True:
        afford = [j for j, dj in enumerate(degs) if dj <= budget]
        if not afford or (w.any() and rng.random() > p_more):
            break
        j = afford[int(rng.integers(len(afford)))]
        w[j] += 1
        budget -= degs[j]
    if not w.any():
        raise GeneratorExhaustedError("no affordable dictionary column")
    g = np.zeros(len(cols[0]), dtype=np.int64)
    for j, wj in enumerate(w):
        g += wj * cols[j]
    return g


def _grid_dataset(rng, dist, n_examples: int, n_features: int, terms) -> CostlyDataset:
    """Uniform grid examples, stored as numerators M + j over M, labeled by
    the polynomial `terms` (term_key -> Fraction, as in Polynomial.terms).

    Each label is one exact Fraction: its integer numerator over
    lcd(coeffs) * M^(max degree) is summed from the example's numerators.
    """
    m = dist.m_grid
    idx = rng.integers(0, m + 1, size=(n_examples, n_features))
    nums = idx + m
    lcd = math.lcm(*(coeff.denominator for coeff in terms.values()))
    top = max((sum(e for _, e in key) for key in terms), default=0)
    weighted = [(coeff.numerator * (lcd // coeff.denominator)
                 * m ** (top - sum(e for _, e in key)), key)
                for key, coeff in terms.items()]
    den = lcd * m ** top
    labels = []
    for row in nums.tolist():
        total = 0
        for weight, key in weighted:
            for i, e in key:
                weight *= row[i] ** e
            total += weight
        labels.append(Fraction(total, den))
    return CostlyDataset.from_rational(nums, labels, denominator=m)


def _monomial_terms(g) -> dict:
    return {term_key(g): Fraction(1)}


def gen_monomial_stream(spec: StreamSpec, trial: int = 0, dist=None):
    """Monomial tasks g = F.w with natural w and total degree <= d."""
    spec.validate()
    rng = np.random.default_rng((spec.seed, trial))
    dist = dist or ProductDistribution()
    cols = _sample_exponent_matrix(rng, spec)
    tasks = []
    for _ in range(spec.m):
        g = _sample_combination(rng, cols, spec.d)
        ds = _grid_dataset(rng, dist, spec.sample_size, spec.n_features,
                           _monomial_terms(g))
        tasks.append(Task(ds=ds, target=g, good=True))
    return tasks, cols


def gen_poly_stream(spec: StreamSpec, trial: int = 0, dist=None):
    """Polynomial tasks: <= t distinct in-span monomials, coefficients drawn
    from a fixed rational pool with magnitude >= 1/4."""
    spec.validate()
    rng = np.random.default_rng((spec.seed, trial))
    dist = dist or ProductDistribution()
    cols = _sample_exponent_matrix(rng, spec)
    tasks = []
    for _ in range(spec.m):
        target = Polynomial(spec.n_features)
        want = int(rng.integers(1, spec.t + 1))
        for _ in range(8 * want):
            if target.sparsity() >= want:
                break
            g = _sample_combination(rng, cols, spec.d)
            if target.coefficient(g) == 0:
                coeff = COEFF_POOL[int(rng.integers(len(COEFF_POOL)))]
                target.add_term(g, coeff)
        ds = _grid_dataset(rng, dist, spec.sample_size, spec.n_features,
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


def gen_agnostic_stream(spec: StreamSpec, trial: int = 0, dist=None):
    """m good tasks plus r bad ones over features disjoint from the
    dictionary, placed per spec.placement; flags are for reporting only."""
    spec.validate()
    if spec.r == 0:
        if spec.family in ("tree", "list", "anchor", "overcomplete"):
            return gen_tree_stream(spec, trial)
        if spec.family == "monomial":
            return gen_monomial_stream(spec, trial, dist)
        return gen_poly_stream(spec, trial, dist)
    rng = np.random.default_rng((spec.seed, trial, 1))

    if spec.family in ("tree", "anchor"):
        reserve = max(spec.d, 1)
        pool_size = min((spec.n_features - reserve) // spec.k,
                        2 ** spec.mf_depth - 1)
        if pool_size < 1:
            raise UsageError("not enough features to reserve a bad-target pool")
        sub = StreamSpec(**{**spec.__dict__, "n_features": spec.n_features - reserve,
                            "r": 0})
        tasks, dictionary = gen_tree_stream(sub, trial)
        bad_pool = list(range(spec.n_features - reserve, spec.n_features))
        for task in tasks:
            # re-host the good datasets in the full feature space
            vals = task.ds.peek_all()
            pad = rng.integers(0, 2, (vals.shape[0], reserve)).astype(np.uint8)
            full = np.concatenate([vals, pad], axis=1)
            labels = np.array([task.target.predict(row) for row in full],
                              dtype=bool)
            task.ds = CostlyDataset.from_bool(full, labels)
        bad_tasks = []
        for _ in range(spec.r):
            for _ in range(64):
                shape = sample_fragment(rng, bad_pool, min(spec.d, len(bad_pool)))
                if shape.depth() <= spec.d and shape.size() <= spec.s:
                    break
            else:
                raise GeneratorExhaustedError("no bad target fits the caps")
            target = fill_labels(rng, shape)
            size = max(spec.sample_size, target.n_leaves())
            ds = leaf_cover_dataset(rng, target, spec.n_features, size)
            bad_tasks.append(Task(ds=ds, target=target, good=False))
    elif spec.family == "monomial":
        sub = StreamSpec(**{**spec.__dict__, "n_features": spec.n_features - 1,
                            "r": 0})
        tasks, dictionary = gen_monomial_stream(sub, trial, dist)
        dist = dist or ProductDistribution()
        dictionary = [np.concatenate([c, [0]]) for c in dictionary]
        bad_feature = spec.n_features - 1
        for task in tasks:
            g = np.concatenate([task.target, [0]])
            task.target = g
            task.ds = _grid_dataset(rng, dist, spec.sample_size,
                                    spec.n_features, _monomial_terms(g))
        bad_tasks = []
        for _ in range(spec.r):
            g = np.zeros(spec.n_features, dtype=np.int64)
            g[bad_feature] = int(rng.integers(1, spec.d + 1))
            ds = _grid_dataset(rng, dist, spec.sample_size, spec.n_features,
                               _monomial_terms(g))
            bad_tasks.append(Task(ds=ds, target=g, good=False))
    else:
        raise UsageError(f"agnostic streams not defined for {spec.family!r}")

    positions = _bad_positions(rng, spec.m, spec.r, spec.placement)
    out = []
    good_iter = iter(tasks)
    bad_iter = iter(bad_tasks)
    for i in range(spec.m + spec.r):
        out.append(next(bad_iter) if i in positions else next(good_iter))
    return out, dictionary


# -- lower-bound regimes ---------------------------------------------------


def stump(feature: int) -> Tree:
    """Depth-1 target labeling + exactly when the feature value is 1."""
    return Tree.internal(feature, Tree.leaf(MINUS), Tree.leaf(PLUS))


def adversary_r_min(n_features: int, k: int, m: int) -> int:
    return max(math.ceil(m / n_features), math.ceil(k * n_features / m), k)


def gen_adversary_stream(regime: str, n_features: int, k: int, m: int, r: int,
                         seed: int, sample_size: int = 4, trial: int = 0):
    """Single-feature stump streams for the lower-bound regimes.

    Realizable: K stumps on random distinct features, then m-K uniform over
    those K (all good).  The other regimes pose m' uniform stumps first and
    designate the K good features retroactively — flags are reporting-only,
    no learner observes them.
    """
    if regime not in REGIMES:
        raise UsageError(f"unknown regime {regime!r}")
    if k > n_features:
        raise UsageError("K exceeds the number of features")
    rng = np.random.default_rng((seed, trial, 2))

    def make_task(feature: int, good: bool) -> Task:
        target = stump(feature)
        ds = leaf_cover_dataset(rng, target, n_features,
                                max(sample_size, 2))
        return Task(ds=ds, target=target, good=good)

    if regime == "realizable":
        feats = [int(v) for v in rng.choice(n_features, size=k, replace=False)]
        tasks = [make_task(f, True) for f in feats]
        for _ in range(max(m - k, 0)):
            tasks.append(make_task(feats[int(rng.integers(k))], True))
        return tasks, feats

    if regime in ("intermediate", "large2"):
        r_min = adversary_r_min(n_features, k, m)
        if r < r_min:
            raise UsageError(f"regime {regime} requires r >= {r_min}")
    if regime == "intermediate":
        if n_features <= k:
            raise UsageError("intermediate regime requires N > K")
        m_prime = math.ceil(r * n_features / (n_features - k))
    elif regime == "large1":
        m_prime = math.ceil(m * n_features / k)
    else:
        m_prime = math.ceil(math.sqrt(r * n_features * m / k))

    posed = [int(rng.integers(n_features)) for _ in range(m_prime)]
    designated = [int(v) for v in rng.choice(n_features, size=k, replace=False)]
    tasks = [make_task(f, f in designated) for f in posed]
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


def _scan_learner(rng, probe, n_prime, s, budget):
    """Probe features in order until the budget runs out, then guess."""
    seen = []
    for i in range(n_prime):
        if (len(seen) + 1) * s > budget:
            break
        hit = all(probe(e, i) == 1 for e in range(s))
        if hit:
            return i
        seen.append(i)
    rest = [i for i in range(n_prime) if i not in seen]
    return int(rest[int(rng.integers(len(rest)))]) if rest else 0


def _uniform_learner(rng, probe, n_prime, s, budget):
    """Probe uniformly random features without replacement, then guess."""
    order = [int(v) for v in rng.permutation(n_prime)]
    seen = []
    for i in order:
        if (len(seen) + 1) * s > budget:
            break
        if all(probe(e, i) == 1 for e in range(s)):
            return i
        seen.append(i)
    rest = [i for i in order if i not in seen]
    return rest[0] if rest else 0


def _exhaustive_learner(rng, probe, n_prime, s, budget):
    """Ignores the budget: probes everything (forfeits unless B = S*N')."""
    for i in range(n_prime):
        if all(probe(e, i) == 1 for e in range(s)):
            return i
    return 0


GAME_LEARNERS = {
    "scan": _scan_learner,
    "uniform": _uniform_learner,
    "exhaustive": _exhaustive_learner,
}


def play_single_feature_game(rng, n_prime: int, budget: int, s: int = 1,
                             learner: str = "scan") -> GameResult:
    """Needle in a haystack: cell (e, j) is 1 iff j = i*, labels are all +.

    The learner adaptively probes at most `budget` cells, then names a
    feature; it wins iff it names i*.  Exceeding the budget forfeits.
    """
    if learner not in GAME_LEARNERS:
        raise UsageError(f"unknown game learner {learner!r}")
    if budget < 0 or budget > s * n_prime:
        raise UsageError("budget must lie in [0, S*N']")
    i_star = int(rng.integers(n_prime))
    used = 0

    def probe(e, i):
        nonlocal used
        used += 1
        if used > budget:
            raise _Forfeit
        return 1 if i == i_star else 0

    try:
        named = int(GAME_LEARNERS[learner](rng, probe, n_prime, s, budget))
    except _Forfeit:
        return GameResult(False, True, i_star, -1, used)
    return GameResult(named == i_star, False, i_star, named, used)


def game_failure_bound(n_prime: int, budget: int) -> float:
    """The information-theoretic failure floor (N' - B - 1)/N', clipped."""
    return max((n_prime - budget - 1) / n_prime, 0.0)


# -- stream serialization ---------------------------------------------------


def stream_to_json_obj(tasks, family: str) -> dict:
    out = []
    for task in tasks:
        if family in ("tree", "list", "anchor", "overcomplete"):
            target = task.target.to_json_obj()
        elif family == "monomial":
            target = monomial_to_json_obj(task.target)
        else:
            target = json.loads(task.target.to_json())
        out.append({"dataset": json.loads(task.ds.to_json()),
                    "target": target, "good": task.good})
    return {"family": family, "tasks": out}


def stream_from_json_obj(obj) -> list:
    tasks = []
    family = obj["family"]
    for item in obj["tasks"]:
        ds = CostlyDataset.from_json(json.dumps(item["dataset"]))
        if family in ("tree", "list", "anchor", "overcomplete"):
            target = Tree.from_json_obj(item["target"])
        elif family == "monomial":
            target = monomial_from_json_obj(item["target"], ds.n_features)
        else:
            target = Polynomial.from_json(json.dumps(item["target"]))
        tasks.append(Task(ds=ds, target=target, good=item["good"]))
    return tasks
