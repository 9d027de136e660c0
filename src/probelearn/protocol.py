"""Lifelong protocol: attempt each task through the representation, fall
back to scratch learning on failure, and fold what scratch found back in.

The driver is family-agnostic.  A family adapter knows how to attempt a task
cheaply through the shared representation (learn-from-data), how to learn it
from scratch after probing everything, and how to improve the representation
from the scratch result.  Variants:

  * run_protocol          -- the plain loop (realizable streams)
  * run_restart_protocol  -- wipe the representation after k_cap+1 failures
                             since the last wipe (agnostic streams)
  * run_combined_protocol -- restart threshold k_cap + slack, trading
                             restarts against wasted improvement work
  * run_bootstrap_protocol-- scratch-learn the first B tasks unconditionally
                             (semi-adversarial and overcomplete models)

Every run yields one frozen-schema row per task so sweeps can be diffed
byte-for-byte across reruns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .errors import BoundViolationError, UsageError
from .monomials import (EXACT, RepresentationMatrix, improve_rep_monomial,
                        learn_monomial_scratch, lfd_monomial)
from .polynomials import (ExactCorrelation, Polynomial, SampledCorrelation,
                          improve_rep_polynomial, learn_polynomial_scratch,
                          lfd_polynomial)
from .tree_learners import (_dedup_extend, improve_rep_anchor,
                            improve_rep_list, improve_rep_overcomplete,
                            improve_rep_tree, learn_tree_scratch, lfd_tree)
from .trees import InfoGain, TeacherGain

SCHEMA_VERSION = 1
ROW_FIELDS = ["schema_version", "family", "trial", "task_index", "outcome",
              "probes", "per_example_max", "rep_size", "restarts", "good",
              "envelope"]

OUTCOME_LFD = "lfd"
OUTCOME_SCRATCH = "scratch"
OUTCOME_BOOTSTRAP = "bootstrap"


@dataclass
class Task:
    """One task in a stream: a probe-metered dataset plus its hidden target.

    The target rides along on the oracle channel (teacher gain, exact
    correlation oracles, ground-truth comparisons); learners never read it
    through the data path.  `good` marks tasks the stream promises are
    realizable from the shared fragment pool.
    """
    ds: object
    target: object
    good: bool = True
    meta: dict = field(default_factory=dict)


# -- family adapters -------------------------------------------------------


class TreeFamily:
    """Decision trees: teacher or information gain, four improvement rules."""

    name = "tree"

    def __init__(self, d: int, s: int, gain: str = "teacher",
                 improver: str = "tree", anchors=None):
        if gain not in ("teacher", "info"):
            raise UsageError(f"unknown gain {gain!r}")
        if improver not in ("tree", "list", "anchor", "overcomplete"):
            raise UsageError(f"unknown improver {improver!r}")
        self.d = d
        self.s = s
        self.gain = gain
        self.improver = improver
        self.anchors = anchors

    def empty_rep(self):
        return []

    def rep_size(self, rep) -> int:
        return len(rep)

    def envelope(self, rep) -> int:
        return 2 * len(rep) + 2 * self.d

    def _gain_for(self, task):
        if self.gain == "teacher":
            return TeacherGain(task.target)
        return InfoGain()

    def attempt(self, task, rep):
        return lfd_tree(task.ds, rep, self._gain_for(task), self.d, self.s)

    def scratch(self, task):
        return learn_tree_scratch(task.ds, self._gain_for(task), self.d, self.s)

    def improve(self, rep, learned, result, task):
        if self.improver == "tree":
            out, _ = improve_rep_tree(rep, learned, result)
        elif self.improver == "list":
            out, _ = improve_rep_list(rep, learned, result)
        elif self.improver == "anchor":
            out, _ = improve_rep_anchor(rep, learned, result)
        else:
            anchors = (self.anchors if self.anchors is not None
                       else task.meta["anchors"])
            out, _ = improve_rep_overcomplete(rep, learned, anchors)
        return out

    def hypothesis(self, result):
        return result.tree

    def rep_snapshot(self, rep):
        return tuple(rep)

    def absorb(self, rep, learned, task):
        """Bootstrap-phase fold: no failed attempt to diff against, so store
        the whole scratch-learned target (partitioned in the overcomplete
        model)."""
        if self.improver == "overcomplete":
            anchors = (self.anchors if self.anchors is not None
                       else task.meta["anchors"])
            out, _ = improve_rep_overcomplete(rep, learned, anchors)
            return out
        out, _ = _dedup_extend(rep, [learned.copy()])
        return out


class MonomialFamily:
    """Natural-exponent monomials over the grid product distribution."""

    name = "monomial"

    def __init__(self, n_features: int, d: int, dist, mode: str = EXACT,
                 sampled=None):
        self.n_features = n_features
        self.d = d
        self.dist = dist
        self.mode = mode
        self.sampled = sampled

    def empty_rep(self):
        return RepresentationMatrix(self.n_features)

    def rep_size(self, rep) -> int:
        return rep.k

    def envelope(self, rep) -> int:
        return rep.k + self.d

    def rep_snapshot(self, rep):
        return tuple(tuple(int(v) for v in col) for col in rep.columns)

    def attempt(self, task, rep):
        return lfd_monomial(task.ds, rep, self.dist, self.d, self.mode,
                            target=task.target, sampled=self.sampled)

    def scratch(self, task):
        return learn_monomial_scratch(task.ds, self.dist, self.d, self.mode,
                                      target=task.target, sampled=self.sampled)

    def improve(self, rep, learned, result, task):
        improve_rep_monomial(rep, learned)
        return rep

    def absorb(self, rep, learned, task):
        improve_rep_monomial(rep, learned)
        return rep

    def hypothesis(self, result):
        return result.monomial


class PolynomialFamily:
    """Sparse polynomials learned through correlation oracles."""

    name = "polynomial"

    def __init__(self, n_features: int, d: int, t: int, dist, basis,
                 mode: str = EXACT, tau: float = 1e-6):
        self.n_features = n_features
        self.d = d
        self.t = t
        self.dist = dist
        self.basis = basis
        self.mode = mode
        self.tau = tau

    def empty_rep(self):
        return RepresentationMatrix(self.n_features)

    def rep_size(self, rep) -> int:
        return rep.k

    def envelope(self, rep) -> int:
        return rep.k + self.t * self.d

    def _oracle(self, task):
        if self.mode == EXACT:
            return ExactCorrelation(task.target, self.dist, self.basis)
        return SampledCorrelation(task.ds, self.basis, tau=self.tau)

    def rep_snapshot(self, rep):
        return tuple(tuple(int(v) for v in col) for col in rep.columns)

    def attempt(self, task, rep):
        return lfd_polynomial(task.ds, rep, self._oracle(task), self.d, self.t)

    def scratch(self, task):
        return learn_polynomial_scratch(self._oracle(task), self.n_features,
                                        self.d, self.t, ds=task.ds)

    def improve(self, rep, learned, result, task):
        improve_rep_polynomial(rep, learned)
        return rep

    def absorb(self, rep, learned, task):
        improve_rep_polynomial(rep, learned)
        return rep

    def hypothesis(self, result):
        return result.polynomial


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


def write_rows_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROW_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


# -- protocol drivers ------------------------------------------------------


def _record(run: ProtocolRun, family, task, rep, outcome, envelope, hypothesis,
            snapshot, strict: bool) -> None:
    ledger = task.ds.ledger
    run.outcomes.append(outcome)
    run.rep_snapshots.append(snapshot)
    run.probes.append(ledger.total_probes)
    run.per_example_max.append(ledger.per_example_max())
    run.rep_sizes.append(family.rep_size(rep))
    run.envelopes.append(envelope)
    run.goods.append(task.good)
    run.restart_marks.append(run.restarts)
    run.hypotheses.append(hypothesis)
    if strict and outcome == OUTCOME_LFD and ledger.per_example_max() > envelope:
        raise BoundViolationError(
            f"task {len(run.outcomes) - 1}: per-example probes "
            f"{ledger.per_example_max()} exceed envelope {envelope}")


def _scratch_and_improve(family, task, rep, result):
    task.ds.probe_all()
    learned = family.scratch(task)
    rep = family.improve(rep, learned, result, task)
    return learned, rep


def run_protocol(family, tasks, strict: bool = False) -> ProtocolRun:
    """Plain lifelong loop: attempt, and on failure scratch + improve."""
    rep = family.empty_rep()
    run = ProtocolRun(family=family.name)
    for task in tasks:
        envelope = family.envelope(rep)
        snap = family.rep_snapshot(rep)
        result = family.attempt(task, rep)
        if result.learned:
            _record(run, family, task, rep, OUTCOME_LFD, envelope,
                    family.hypothesis(result), snap, strict)
        else:
            learned, rep = _scratch_and_improve(family, task, rep, result)
            _record(run, family, task, rep, OUTCOME_SCRATCH, envelope,
                    learned, snap, strict)
    run.final_rep = rep
    return run


def run_restart_protocol(family, tasks, k_cap: int, slack: int = 0,
                         strict: bool = False) -> ProtocolRun:
    """Agnostic loop: after k_cap + slack + 1 failures since the last wipe,
    empty the representation before folding in the triggering scratch."""
    threshold = k_cap + slack
    rep = family.empty_rep()
    run = ProtocolRun(family=family.name)
    failures_since = 0
    for task in tasks:
        envelope = family.envelope(rep)
        snap = family.rep_snapshot(rep)
        result = family.attempt(task, rep)
        if result.learned:
            _record(run, family, task, rep, OUTCOME_LFD, envelope,
                    family.hypothesis(result), snap, strict)
            continue
        failures_since += 1
        if failures_since > threshold:
            rep = family.empty_rep()
            run.restarts += 1
            failures_since = 0
        learned, rep = _scratch_and_improve(family, task, rep, result)
        _record(run, family, task, rep, OUTCOME_SCRATCH, envelope, learned,
                snap, strict)
    run.final_rep = rep
    return run


def combined_slack(r: int, k_cap: int, n_features: int, m: int) -> int:
    """Restart slack c = sqrt(r*K*N/m), at least 1."""
    return max(1, round(math.sqrt(r * k_cap * n_features / m)))


def run_combined_protocol(family, tasks, k_cap: int, r: int, n_features: int,
                          strict: bool = False) -> ProtocolRun:
    slack = combined_slack(r, k_cap, n_features, len(tasks))
    return run_restart_protocol(family, tasks, k_cap, slack=slack,
                                strict=strict)


def run_bootstrap_protocol(family, tasks, n_bootstrap: int,
                           strict: bool = False) -> ProtocolRun:
    """Scratch-learn the first n_bootstrap tasks unconditionally, then run
    the plain loop.  Bootstrap tasks are recorded with their own outcome so
    post-bootstrap failure frequency is easy to read off."""
    rep = family.empty_rep()
    run = ProtocolRun(family=family.name)
    for i, task in enumerate(tasks):
        envelope = family.envelope(rep)
        snap = family.rep_snapshot(rep)
        if i < n_bootstrap:
            task.ds.probe_all()
            learned = family.scratch(task)
            rep = family.absorb(rep, learned, task)
            _record(run, family, task, rep, OUTCOME_BOOTSTRAP, envelope,
                    learned, snap, strict)
            continue
        result = family.attempt(task, rep)
        if result.learned:
            _record(run, family, task, rep, OUTCOME_LFD, envelope,
                    family.hypothesis(result), snap, strict)
        else:
            learned, rep = _scratch_and_improve(family, task, rep, result)
            _record(run, family, task, rep, OUTCOME_SCRATCH, envelope,
                    learned, snap, strict)
    run.final_rep = rep
    return run
