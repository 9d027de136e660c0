"""Protocol drivers: plain, restart, combined, bootstrap, and CSV traces."""

import csv
import json

import numpy as np
import pytest

from probelearn import (ROW_FIELDS, SCHEMA_VERSION, CostlyDataset,
                        MonomialFamily, PolynomialFamily, ProductDistribution,
                        StreamSpec, Task, TeacherGain, Tree, TreeFamily,
                        UsageError, adversary_r_min, build_orthogonal_basis,
                        combined_slack, gen_adversary_stream,
                        gen_agnostic_stream, gen_monomial_stream,
                        gen_poly_stream, gen_tree_stream, learn_tree_scratch,
                        lfd_tree, protocol, run_bootstrap_protocol,
                        run_combined_protocol, run_protocol,
                        run_restart_protocol)
from probelearn.cli import _write_csv, main
from probelearn.streams import REGIMES
from probelearn.protocol import (OUTCOME_BOOTSTRAP, OUTCOME_LFD,
                                 OUTCOME_SCRATCH, ProtocolRun)

DIST = ProductDistribution()


def tree_spec(**kw):
    return StreamSpec(**kw).validate()


# -- stub families for driver traces ----------------------------------------


class _Result:
    def __init__(self, learned):
        self.learned = learned


class FailingFamily:
    """Every attempt fails; each scratch folds one opaque item into the rep."""

    name = "stub"

    def __init__(self, envelope_value=100):
        self.envelope_value = envelope_value
        self.counter = 0

    def empty_rep(self):
        return []

    def envelope(self, rep):
        return self.envelope_value

    def rep_snapshot(self, rep):
        return tuple(rep)

    def attempt(self, task, rep):
        return _Result(False)

    def scratch(self, task):
        self.counter += 1
        return f"g{self.counter}"

    def improve(self, rep, learned, result, task):
        return rep + [learned]

    def hypothesis(self, result):
        return None


class ProbingFamily(FailingFamily):
    """Succeeds every attempt but probes two cells first."""

    def attempt(self, task, rep):
        task.ds.probe(0, 0)
        task.ds.probe(0, 1)
        return _Result(True)

    def hypothesis(self, result):
        return "h"


def stub_task():
    return Task(ds=CostlyDataset.from_bool([[0, 1]], [1]), target=None)


def assert_lfd_within_envelope(run):
    for outcome, probes, envelope in zip(run.outcomes, run.per_example_max,
                                         run.envelopes):
        if outcome == OUTCOME_LFD:
            assert probes <= envelope


# -- plain protocol ---------------------------------------------------------


@pytest.mark.parametrize("kw", [dict(gain="teachr"), dict(improver="tree2"),
                                dict(gain="info", improver="overcomplete")],
                         ids=["gain", "improver", "info-overcomplete"])
def test_tree_family_rejects_unknown_options(kw):
    with pytest.raises(UsageError):
        TreeFamily(3, 7, **kw)


def test_single_task_is_scratched():
    spec = tree_spec(n_features=8, k=1, d=2, s=3, m=1, sample_size=6,
                     mf_depth=2, seed=3)
    tasks, _ = gen_tree_stream(spec)
    run = run_protocol(TreeFamily(spec.d, spec.s), tasks)
    assert run.outcomes == [OUTCOME_SCRATCH]
    # scratch probes the full table, and nothing else touches the data path
    assert run.probes == [tasks[0].ds.n_examples * spec.n_features]
    assert run.rep_sizes[0] >= 1
    assert run.final_rep is not None


def test_repeat_monomial_is_learned_from_rep():
    spec = tree_spec(family="monomial", n_features=6, k=2, d=3, m=12,
                     sample_size=5, seed=9)
    tasks, _ = gen_monomial_stream(spec)
    family = MonomialFamily(spec.n_features, spec.d, DIST)
    run = run_protocol(family, tasks)
    assert run.outcomes[0] == OUTCOME_SCRATCH
    assert run.scratch_count <= spec.k
    assert_lfd_within_envelope(run)
    assert run.final_rep.k <= spec.k


def test_tree_stream_scratch_and_rep_bounds():
    spec = tree_spec(n_features=12, k=3, d=3, s=7, m=50, sample_size=10,
                     mf_depth=2, seed=17)
    tasks, _ = gen_tree_stream(spec)
    run = run_protocol(TreeFamily(spec.d, spec.s), tasks)
    assert_lfd_within_envelope(run)
    assert run.scratch_count <= spec.k
    assert len(run.final_rep) <= spec.k * spec.d
    assert len(run.outcomes) == spec.m
    # envelope is recorded against the pre-attempt rep
    for i, env in enumerate(run.envelopes):
        assert env == 2 * len(run.rep_snapshots[i]) + 2 * spec.d


def test_polynomial_stream_through_protocol():
    spec = tree_spec(family="polynomial", n_features=5, k=2, d=3, t=2, m=10,
                     sample_size=4, seed=23)
    tasks, _ = gen_poly_stream(spec)
    basis = build_orthogonal_basis(DIST, spec.d)
    family = PolynomialFamily(spec.n_features, spec.d, spec.t, DIST, basis)
    run = run_protocol(family, tasks)
    assert_lfd_within_envelope(run)
    assert run.scratch_count <= spec.k
    assert run.outcomes[-1] == OUTCOME_LFD


# -- restart protocol -------------------------------------------------------


def test_restart_trace_with_always_failing_family():
    tasks = [stub_task() for _ in range(5)]
    run = run_restart_protocol(FailingFamily(), tasks, k_cap=1, slack=0)
    assert run.outcomes == [OUTCOME_SCRATCH] * 5
    assert run.restarts == 2
    assert run.rep_sizes == [1, 1, 2, 1, 2]
    assert run.restart_marks == [0, 1, 1, 2, 2]


def test_restart_on_realizable_stream_matches_plain():
    spec = tree_spec(n_features=12, k=3, d=3, s=7, m=30, sample_size=10,
                     mf_depth=2, seed=29)
    plain = run_protocol(TreeFamily(spec.d, spec.s), gen_tree_stream(spec)[0])
    restart = run_restart_protocol(TreeFamily(spec.d, spec.s),
                                   gen_tree_stream(spec)[0], k_cap=spec.k)
    assert restart.restarts == 0
    assert restart.outcomes == plain.outcomes
    assert restart.probes == plain.probes


def test_tree_family_attempt_never_reads_a_stale_path_map():
    """`TreeFamily.attempt` keeps one path map per rep object.  On every
    rep it is handed (unchanged, after an ImproveRep, empty after a restart
    wipe and then improved, a new list of the same fragments, a new list
    of as many fragments with one changed) it gives what a fresh `lfd_tree`
    call gives, with the same ledger mask."""
    spec = tree_spec(n_features=12, k=3, d=3, s=7, m=40, sample_size=10,
                     mf_depth=2, seed=29)
    tasks, _ = gen_tree_stream(spec)
    family = TreeFamily(spec.d, spec.s)
    seen = set()

    def fresh(task):
        return Task(CostlyDataset.from_bool(
            task.ds.peek_all(), label_bits=task.ds.label_bits), task.target)

    def attempt(task, rep, case):
        seen.add(case)
        runs = []
        for own in (True, False):
            copy = fresh(task)
            res = (family.attempt(copy, rep) if own else
                   lfd_tree(copy.ds, rep, TeacherGain(task.target), spec.d,
                            spec.s))
            runs.append(((res.outcome, res.tree.key(), res.failed_path,
                          res.reason), copy.ds.ledger.mask()))
        (got, got_mask), (want, want_mask) = runs
        assert got == want, case
        assert (got_mask == want_mask).all(), case
        return res

    rep, case = family.empty_rep(), "empty"
    for i, task in enumerate(tasks):
        result = attempt(task, rep, case)
        case = "unchanged"
        if i % 4 == 3:
            rep, case = list(rep), "copied"
        if i == len(tasks) // 4:  # as many fragments, one a new stump
            var = min(set(range(spec.n_features)) - {f.var for f in rep})
            rep = rep[1:] + [Tree.internal(var, Tree.empty(), Tree.empty())]
            case = "swapped"
        elif i == len(tasks) // 2:
            rep = family.empty_rep()
            attempt(task, rep, "wiped")
            rep = family.improve(rep, family.scratch(fresh(task)), None, task)
            case = "improved after a wipe"
        elif not result.learned:
            rep = family.improve(rep, family.scratch(fresh(task)), result,
                                 task)
            case = "improved"
    assert seen == {"empty", "unchanged", "copied", "swapped", "wiped",
                    "improved", "improved after a wipe"}


# -- a teacher scratch learn is its target ------------------------------------


def scratch_streams():
    """(name, tasks, d, s) for seeded streams of every tree family, the
    four regime streams and an agnostic stream's bad tasks; each is
    generated afresh on every call, so its ledgers are clean."""
    shape = dict(n_features=40, k=3, d=3, s=7, mf_depth=2, m=20,
                 sample_size=16)
    for family, extra in (("tree", {}), ("tree", dict(sample_size=70)),
                          ("list", dict(d=4, s=6)), ("anchor", {}),
                          ("overcomplete", dict(k1=2, k2=2))):
        for seed in (0, 1):
            spec = tree_spec(**dict(shape, family=family, seed=seed, **extra))
            yield (f"{family}-{seed}-S{spec.sample_size}",
                   gen_tree_stream(spec)[0], spec.d, spec.s)
    for regime in REGIMES:
        tasks, _ = gen_adversary_stream(regime, 16, 3, 10,
                                        adversary_r_min(16, 3, 10), 7,
                                        sample_size=4)
        yield regime, tasks, 1, 1
    spec = tree_spec(**dict(shape, r=8, seed=3))
    tasks = [task for task in gen_agnostic_stream(spec)[0] if not task.good]
    yield "agnostic-bad", tasks, spec.d, spec.s


def count_grower_calls(monkeypatch):
    calls = []
    grow = protocol.learn_tree_scratch
    monkeypatch.setattr(protocol, "learn_tree_scratch", lambda *args: (
        calls.append(args) or grow(*args)))
    return calls


def test_teacher_scratch_returns_the_grown_target(monkeypatch):
    """The grower with the teacher gain rebuilds every target of these
    streams, and `TreeFamily.scratch` returns an equal tree with an equal
    ledger without calling the grower."""
    streams = list(scratch_streams())
    assert len(streams) == 15
    calls = count_grower_calls(monkeypatch)
    for (name, tasks, d, s), (_, again, _, _) in zip(streams,
                                                     scratch_streams()):
        assert tasks, name
        family = TreeFamily(d, s)
        for task, copy in zip(tasks, again):
            grown = learn_tree_scratch(task.ds, TeacherGain(task.target), d, s)
            assert grown == task.target, name
            got = family.scratch(copy)
            assert got == grown and got is not copy.target, name
            assert ((copy.ds.ledger.total_probes,
                     copy.ds.ledger.per_example_max())
                    == (task.ds.ledger.total_probes,
                        task.ds.ledger.per_example_max())), name
    assert calls == []


def split(var, left, right):
    return Tree.internal(var, left, right)


PLUS, MINUS = Tree.leaf(True), Tree.leaf(False)
DEPTH2 = split(0, split(1, MINUS, PLUS), split(2, PLUS, MINUS))
ALL3 = [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
ALL2 = [[a, b] for a in (0, 1) for b in (0, 1)]

# name -> (target, rows, labels or None for the target's, d, s); in each
# the grower with the teacher gain does not give the target back
FALLBACKS = {
    "deeper-than-d": (DEPTH2, ALL3, None, 1, 7),
    "larger-than-s": (DEPTH2, ALL3, None, 2, 2),
    "labels-disagree": (split(0, MINUS, PLUS), ALL2, [0, 1, 1, 1], 2, 3),
    "one-label-subtree": (split(0, split(1, PLUS, PLUS), MINUS), ALL2, None,
                          2, 3),
    "repeated-variable": (split(0, split(0, PLUS, MINUS), MINUS), ALL2,
                          None, 2, 3),
    "one-way-split": (split(0, split(1, MINUS, PLUS), PLUS),
                      [[0, 0], [0, 1], [0, 1], [0, 0]], None, 2, 3),
}


@pytest.mark.parametrize("case", FALLBACKS)
def test_teacher_scratch_falls_back_to_the_grower(monkeypatch, case):
    """Where the grower does not rebuild the target, `TreeFamily.scratch`
    calls it and returns or raises what it does, with the same ledger."""
    target, rows, labels, d, s = FALLBACKS[case]

    def outcome(learn):
        values = np.array(rows, dtype=np.uint8)
        ds = CostlyDataset.from_bool(values, labels if labels is not None
                                     else [target.predict(r) for r in values])
        try:
            got = ("tree", learn(Task(ds, target)).key())
        except Exception as exc:  # noqa: BLE001 - compared by type and text
            got = (type(exc), str(exc))
        return got, ds.ledger.total_probes, ds.ledger.per_example_max()

    want = outcome(lambda task: learn_tree_scratch(
        task.ds, TeacherGain(target), d, s))
    assert want[0] != ("tree", target.key())
    calls = count_grower_calls(monkeypatch)
    assert outcome(TreeFamily(d, s).scratch) == want
    assert len(calls) == 1


def run_main(tmp_path, command, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 0
    return tmp_path / "out"


def test_teacher_regime_scratch_learns_never_run_the_grower(monkeypatch,
                                                             tmp_path):
    """The large2 regime at `adversary-churn`'s smoke shape scratch-learns
    under the teacher gain without one grower call."""
    calls = count_grower_calls(monkeypatch)
    out = run_main(tmp_path, "adversary", {
        "game": {"n_prime": 10, "budgets": [0], "trials": 1},
        "regime": {"name": "large2", "n_features": 32, "k": 4, "m": 40,
                   "r": 32, "sample_size": 8}})
    with open(out / "regime.csv", newline="") as fh:
        assert int(next(csv.DictReader(fh))["scratch_count"]) > 0
    assert calls == []


def test_info_gain_scratch_learns_each_run_the_grower(monkeypatch, tmp_path):
    """A gain-info tree run, at the oracle-guard shape of
    tests/test_modes.py, calls the grower once per scratch row."""
    calls = count_grower_calls(monkeypatch)
    out = run_main(tmp_path, "run", {
        "stream": {"family": "tree", "n_features": 32, "k": 2, "d": 3, "s": 7,
                   "mf_depth": 2, "m": 20, "sample_size": 8},
        "protocol": {"gain": "info"}})
    with open(out / "report.csv", newline="") as fh:
        scratch = sum(row["outcome"] != "lfd" for row in csv.DictReader(fh))
    assert scratch > 0
    assert len(calls) == scratch


def test_combined_slack_values():
    assert combined_slack(4, 3, 16, 50) == 2
    assert combined_slack(2, 2, 8, 40) == 1
    assert combined_slack(0, 3, 16, 50) == 1  # floor


def test_combined_protocol_realizable_never_restarts():
    spec = tree_spec(n_features=12, k=2, d=2, s=5, m=20, sample_size=8,
                     mf_depth=2, seed=31)
    tasks, _ = gen_tree_stream(spec)
    run = run_combined_protocol(TreeFamily(spec.d, spec.s), tasks,
                                k_cap=spec.k, r=0, n_features=spec.n_features)
    assert run.restarts == 0
    assert run.scratch_count <= spec.k


# -- bootstrap protocol -----------------------------------------------------


def test_bootstrap_forces_early_scratches():
    spec = tree_spec(n_features=10, k=2, d=2, s=5, m=12, sample_size=8,
                     mf_depth=2, seed=37)
    tasks, _ = gen_tree_stream(spec)
    run = run_bootstrap_protocol(TreeFamily(spec.d, spec.s), tasks,
                                 n_bootstrap=3)
    assert run.outcomes[:3] == [OUTCOME_BOOTSTRAP] * 3
    assert OUTCOME_BOOTSTRAP not in run.outcomes[3:]
    assert run.rep_sizes[2] >= 1
    # bootstrap outcomes count as non-LFD but not as failures
    assert run.failure_frequency(skip=3) <= 1.0
    assert run.scratch_count >= 3


def test_failure_frequency_skips_prefix():
    run = ProtocolRun(family="stub")
    run.outcomes = [OUTCOME_SCRATCH, OUTCOME_SCRATCH, OUTCOME_LFD,
                    OUTCOME_SCRATCH]
    assert run.failure_frequency() == 0.75
    assert run.failure_frequency(skip=2) == 0.5
    assert ProtocolRun(family="stub").failure_frequency() == 0.0


# -- envelope violations ----------------------------------------------------


def test_non_strict_mode_records_the_violation():
    run = run_protocol(ProbingFamily(envelope_value=0), [stub_task()])
    assert run.outcomes == [OUTCOME_LFD]
    assert run.per_example_max == [2]
    assert run.envelopes == [0]


# -- CSV rows ---------------------------------------------------------------


def test_rows_match_frozen_schema(tmp_path):
    spec = tree_spec(n_features=8, k=2, d=2, s=5, m=6, sample_size=6,
                     mf_depth=2, seed=41)
    tasks, _ = gen_tree_stream(spec)
    run = run_protocol(TreeFamily(spec.d, spec.s), tasks)
    rows = run.to_rows(trial=7)
    assert len(rows) == 6
    for row in rows:
        assert list(row) == list(ROW_FIELDS)
        assert row["schema_version"] == SCHEMA_VERSION
        assert row["trial"] == 7
        assert row["good"] in (0, 1)
    assert [r["task_index"] for r in rows] == list(range(6))

    path = tmp_path / "rows.csv"
    _write_csv(path, ROW_FIELDS, rows)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == list(ROW_FIELDS)
        back = list(reader)
    assert len(back) == 6
    assert back[0]["schema_version"] == str(SCHEMA_VERSION)
    assert [r["outcome"] for r in back] == [r["outcome"] for r in rows]
