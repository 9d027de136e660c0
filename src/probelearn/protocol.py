"""Lifelong protocol: attempt each task through the representation, fall
back to scratch learning on failure, and fold what scratch found back in.

The driver is family-agnostic.  A family adapter has `name` (the report's
family column), `empty_rep()`, `envelope(rep)` (an attempt's per-example
probe bound), `rep_snapshot(rep)` (a hashable copy whose length is the
report's rep_size), `attempt(task, rep)` (learn from data through rep; the
result's `learned` tells success), `hypothesis(result)` (a successful
attempt's hypothesis), `scratch(task)` and `improve(rep, learned, result,
task)` (ImproveRep).  A task not learned through rep takes the loop's one
scratch step, scratch then improve; a bootstrap task takes it with result
None.  Each scratch learner reads the whole matrix first; the loop does not.
Under the teacher gain a tree scratch learn then returns the target itself
once routing the sample down it shows the grower would rebuild it.  One
loop, `_run`, serves every variant:

  * run_protocol          -- the plain loop (realizable streams)
  * run_restart_protocol  -- wipe the representation after k_cap+1 failures
                             since the last wipe (agnostic streams)
  * run_combined_protocol -- restart threshold k_cap + slack, trading
                             restarts against wasted improvement work
  * run_bootstrap_protocol-- scratch-learn the first B tasks unconditionally
                             (semi-adversarial and overcomplete models)

The plain loop is the restart loop with an infinite threshold and no
bootstrap.  Every run yields one frozen-schema row per task so sweeps can be
diffed byte-for-byte across reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import UsageError
from .monomials import (EXACT, RepresentationMatrix, improve_rep_monomial,
                        learn_monomial_scratch, lfd_monomial)
from .polynomials import (ExactCorrelation, SampledCorrelation,
                          improve_rep_polynomial, learn_polynomial_scratch,
                          lfd_polynomial)
from .tree_learners import (_dedup_extend, _teacher_rebuilds,
                            improve_rep_anchor, improve_rep_list,
                            improve_rep_overcomplete, improve_rep_tree,
                            learn_tree_scratch, lfd_tree)
from .trees import InfoGain, TeacherGain

SCHEMA_VERSION = 1
ROW_FIELDS = ["schema_version", "family", "trial", "task_index", "outcome",
              "probes", "per_example_max", "rep_size", "restarts", "good",
              "envelope"]

OUTCOME_LFD = "lfd"
OUTCOME_SCRATCH = "scratch"
OUTCOME_BOOTSTRAP = "bootstrap"


# -- family adapters -------------------------------------------------------


class TreeFamily:
    """Decision trees: teacher or information gain, four improvement rules;
    `attempt` keeps one `lfd_tree` path map for the last rep object it read
    (ImproveRep and restarts make new lists; never edit one in place)."""

    name = "tree"

    def __init__(self, d: int, s: int, gain: str = "teacher",
                 improver: str = "tree"):
        if gain not in ("teacher", "info"):
            raise UsageError(f"unknown gain {gain!r}")
        if improver not in ("tree", "list", "anchor", "overcomplete"):
            raise UsageError(f"unknown improver {improver!r}")
        if improver == "overcomplete" and gain != "teacher":
            raise UsageError("the overcomplete improver needs the teacher "
                             "gain, whose scratch tree is the target")
        self.d = d
        self.s = s
        self.gain = gain
        self.improver = improver
        self._rep, self._paths = None, {}

    def empty_rep(self):
        return []

    def envelope(self, rep) -> int:
        return 2 * len(rep) + 2 * self.d

    def _gain_for(self, task):
        if self.gain == "teacher":
            return TeacherGain(task.target)
        return InfoGain()

    def attempt(self, task, rep):
        if rep is not self._rep:
            self._rep, self._paths = rep, {}
        return lfd_tree(task.ds, rep, self._gain_for(task), self.d, self.s,
                        paths=self._paths)

    def scratch(self, task):
        if self.gain == "teacher":
            task.ds.probe_all()
            if _teacher_rebuilds(task.ds, task.target, self.d, self.s):
                return task.target.copy()
        return learn_tree_scratch(task.ds, self._gain_for(task), self.d, self.s)

    def improve(self, rep, learned, result, task):
        """With no failed attempt (result None) store the whole target;
        the overcomplete rule partitions it either way."""
        if self.improver == "overcomplete":
            out, _ = improve_rep_overcomplete(rep, learned, task.meta["anchors"])
        elif result is None:
            out, _ = _dedup_extend(rep, [learned.copy()])
        elif self.improver == "tree":
            out, _ = improve_rep_tree(rep, learned, result)
        elif self.improver == "list":
            out, _ = improve_rep_list(rep, learned, result)
        else:
            out, _ = improve_rep_anchor(rep, learned, result)
        return out

    def hypothesis(self, result):
        return result.tree

    def rep_snapshot(self, rep):
        return tuple(rep)


class _MatrixFamily:
    """Shared by the families whose representation is a matrix of exponent
    vectors; ImproveRep inserts the learned vectors, failed attempt or not.
    The envelope is k + t·d for a rank-k matrix and t-term targets."""

    def __init__(self, n_features: int, d: int, dist, mode: str):
        self.n_features, self.d, self.dist, self.mode = n_features, d, dist, mode

    def empty_rep(self):
        return RepresentationMatrix(self.n_features)

    def envelope(self, rep) -> int:
        return rep.k + self.t * self.d

    def rep_snapshot(self, rep):
        return rep.snapshot()

    def hypothesis(self, result):
        return result.hypothesis


class MonomialFamily(_MatrixFamily):
    """Natural-exponent monomials over the grid product distribution."""

    name = "monomial"
    t = 1  # a monomial is the one-term polynomial

    def __init__(self, n_features: int, d: int, dist, mode: str = EXACT,
                 sampled=None):
        super().__init__(n_features, d, dist, mode)
        self.sampled = sampled

    def attempt(self, task, rep):
        return lfd_monomial(task.ds, rep, self.dist, self.d, self.mode,
                            target=task.target, sampled=self.sampled)

    def scratch(self, task):
        return learn_monomial_scratch(task.ds, self.dist, self.d, self.mode,
                                      target=task.target, sampled=self.sampled)

    def improve(self, rep, learned, result, task):
        improve_rep_monomial(rep, learned)
        return rep


class PolynomialFamily(_MatrixFamily):
    """Sparse polynomials learned through correlation oracles."""

    name = "polynomial"

    def __init__(self, n_features: int, d: int, t: int, dist, basis,
                 mode: str = EXACT, tau: float = 1e-6):
        super().__init__(n_features, d, dist, mode)
        self.t, self.basis, self.tau = t, basis, tau

    def _oracle(self, task):
        if self.mode == EXACT:
            return ExactCorrelation(task.target, self.dist, self.basis)
        return SampledCorrelation(task.ds, self.basis, tau=self.tau)

    def attempt(self, task, rep):
        return lfd_polynomial(task.ds, rep, self._oracle(task), self.d, self.t)

    def scratch(self, task):
        return learn_polynomial_scratch(self._oracle(task), self.n_features,
                                        self.d, self.t, ds=task.ds)

    def improve(self, rep, learned, result, task):
        improve_rep_polynomial(rep, learned)
        return rep


# -- run records -----------------------------------------------------------


@dataclass
class ProtocolRun:
    """Per-task trace of one protocol execution."""

    family: str
    outcomes: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    per_example_max: list = field(default_factory=list)
    rep_sizes: list = field(default_factory=list)
    envelopes: list = field(default_factory=list)
    goods: list = field(default_factory=list)
    restart_marks: list = field(default_factory=list)
    hypotheses: list = field(default_factory=list)
    rep_snapshots: list = field(default_factory=list)
    restarts: int = 0
    final_rep: object = None

    @property
    def scratch_count(self) -> int:
        return sum(1 for o in self.outcomes if o != OUTCOME_LFD)

    @property
    def total_probes(self) -> int:
        return sum(self.probes)

    @property
    def good_probes(self) -> int:
        return sum(p for p, g in zip(self.probes, self.goods) if g)

    def failure_frequency(self, skip: int = 0) -> float:
        outcomes = self.outcomes[skip:]
        if not outcomes:
            return 0.0
        return sum(1 for o in outcomes if o == OUTCOME_SCRATCH) / len(outcomes)

    def to_rows(self, trial: int) -> list:
        rows = []
        for i, outcome in enumerate(self.outcomes):
            rows.append({
                "schema_version": SCHEMA_VERSION,
                "family": self.family,
                "trial": trial,
                "task_index": i,
                "outcome": outcome,
                "probes": self.probes[i],
                "per_example_max": self.per_example_max[i],
                "rep_size": self.rep_sizes[i],
                "restarts": self.restart_marks[i],
                "good": int(self.goods[i]),
                "envelope": self.envelopes[i],
            })
        return rows


# -- protocol drivers ------------------------------------------------------


def _record(run: ProtocolRun, family, task, rep, outcome, envelope, hypothesis,
            snapshot) -> None:
    ledger = task.ds.ledger
    run.outcomes.append(outcome)
    run.rep_snapshots.append(snapshot)
    run.probes.append(ledger.total_probes)
    run.per_example_max.append(ledger.per_example_max())
    run.rep_sizes.append(len(family.rep_snapshot(rep)))
    run.envelopes.append(envelope)
    run.goods.append(task.good)
    run.restart_marks.append(run.restarts)
    run.hypotheses.append(hypothesis)


def _run(family, tasks, threshold=math.inf, n_bootstrap: int = 0) -> ProtocolRun:
    """The lifelong loop.  Each task past the first n_bootstrap is attempted
    through the representation; a bootstrap task or a failed attempt takes
    the scratch step, scratch-learning the task and folding it in by
    ImproveRep.  The failure that brings the count since the last wipe past
    `threshold` first empties the representation."""
    rep = family.empty_rep()
    run = ProtocolRun(family=family.name)
    failures_since = 0
    for i, task in enumerate(tasks):
        envelope = family.envelope(rep)
        snap = family.rep_snapshot(rep)
        result, outcome = None, OUTCOME_BOOTSTRAP
        if i >= n_bootstrap:
            result, outcome = family.attempt(task, rep), OUTCOME_SCRATCH
            if result.learned:
                _record(run, family, task, rep, OUTCOME_LFD, envelope,
                        family.hypothesis(result), snap)
                continue
            failures_since += 1
            if failures_since > threshold:
                rep = family.empty_rep()
                run.restarts += 1
                failures_since = 0
        learned = family.scratch(task)
        rep = family.improve(rep, learned, result, task)
        _record(run, family, task, rep, outcome, envelope, learned, snap)
    run.final_rep = rep
    return run


def run_protocol(family, tasks) -> ProtocolRun:
    """Plain lifelong loop: attempt, and on failure scratch + improve."""
    return _run(family, tasks)


def run_restart_protocol(family, tasks, k_cap: int, slack: int = 0) -> ProtocolRun:
    """Agnostic loop: after k_cap + slack + 1 failures since the last wipe,
    empty the representation before folding in the triggering scratch."""
    return _run(family, tasks, threshold=k_cap + slack)


def combined_slack(r: int, k_cap: int, n_features: int, m: int) -> int:
    """Restart slack c = sqrt(r*K*N/m), at least 1.  m is the stream's
    task count, which is m + r on an agnostic stream."""
    return max(1, round(math.sqrt(r * k_cap * n_features / m)))


def run_combined_protocol(family, tasks, k_cap: int, r: int,
                          n_features: int) -> ProtocolRun:
    """Restart loop with the slack `combined_slack` gives."""
    return run_restart_protocol(
        family, tasks, k_cap, combined_slack(r, k_cap, n_features, len(tasks)))


def run_bootstrap_protocol(family, tasks, n_bootstrap: int) -> ProtocolRun:
    """Scratch-learn the first n_bootstrap tasks unconditionally, then run
    the plain loop.  Bootstrap tasks are recorded with their own outcome so
    post-bootstrap failure frequency is easy to read off."""
    return _run(family, tasks, n_bootstrap=n_bootstrap)
