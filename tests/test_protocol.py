"""Protocol drivers: plain, restart, combined, bootstrap, and CSV traces."""

import csv

import numpy as np
import pytest

from probelearn import (ROW_FIELDS, SCHEMA_VERSION, BoundViolationError,
                        CostlyDataset, MonomialFamily, PolynomialFamily,
                        ProductDistribution, StreamSpec, Task, TreeFamily,
                        build_orthogonal_basis, combined_slack,
                        gen_monomial_stream, gen_poly_stream, gen_tree_stream,
                        run_bootstrap_protocol, run_combined_protocol,
                        UsageError, run_protocol, run_restart_protocol,
                        write_rows_csv)
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

    def rep_size(self, rep):
        return len(rep)

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

    def absorb(self, rep, learned, task):
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


# -- plain protocol ---------------------------------------------------------


@pytest.mark.parametrize("kw", [dict(gain="teachr"), dict(improver="tree2")],
                         ids=["gain", "improver"])
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
    run = run_protocol(family, tasks, strict=True)
    assert run.outcomes[0] == OUTCOME_SCRATCH
    assert run.scratch_count <= spec.k
    for i, outcome in enumerate(run.outcomes):
        if outcome == OUTCOME_LFD:
            assert run.per_example_max[i] <= run.envelopes[i]
    assert run.final_rep.k <= spec.k


def test_tree_stream_scratch_and_rep_bounds():
    spec = tree_spec(n_features=12, k=3, d=3, s=7, m=50, sample_size=10,
                     mf_depth=2, seed=17)
    tasks, _ = gen_tree_stream(spec)
    run = run_protocol(TreeFamily(spec.d, spec.s), tasks, strict=True)
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
    run = run_protocol(family, tasks, strict=True)
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


# -- strict envelope enforcement --------------------------------------------


def test_strict_mode_raises_on_envelope_violation():
    with pytest.raises(BoundViolationError):
        run_protocol(ProbingFamily(envelope_value=0), [stub_task()],
                     strict=True)


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
    write_rows_csv(path, rows)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == list(ROW_FIELDS)
        back = list(reader)
    assert len(back) == 6
    assert back[0]["schema_version"] == str(SCHEMA_VERSION)
    assert [r["outcome"] for r in back] == [r["outcome"] for r in rows]
