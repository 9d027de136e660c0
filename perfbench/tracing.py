"""Per-layer tracing of probelearn from outside the package.

Nothing under ``src/`` is edited.  ``install`` replaces the public calls each
layer makes into the next one (names bound in the caller's module namespace,
or methods on the callee's classes) with timed wrappers.  Every wrapped call
opens a frame on one stack; a frame's self time is its duration minus the
time of the frames nested inside it, so per-layer self times add up to the
traced command's wall time.

Coarse calls (a command, a trial, a stream, a protocol run, one attempt /
scratch / improve, report writing) are kept as spans: name, start, end,
parent span and trial id, held in memory and written out when the run ends.
Hot leaf calls (a probe, a gain evaluation, one grid value) are tallied
instead: they still count towards nesting and self time, but are aggregated
per name, since recording each of the millions of calls would dominate the
run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from collections import Counter, defaultdict

import numpy as np

CHECK = "bench.check"


class Tracer:
    """Span stack plus per-layer self time, per-name inclusive time and counts."""

    def __init__(self, clock):
        self.clock = clock               # seconds, excluding paused time
        self.spans = []                  # (name, start, end, parent, trial)
        self.stack = []                  # [name, start, child_s, span_index]
        self.self_s = defaultdict(float)  # layer -> self time
        self.incl_s = defaultdict(float)  # name -> outermost inclusive time
        self.calls = Counter()           # name -> calls
        self.counts = Counter()          # named event counters
        self.trial = None
        self._active = Counter()
        self.failures = []               # hypothesis-check failures
        self.ledgers = []                # every dataset's probe ledger

    def call(self, name, record, fn, args, kwargs):
        parent = self.stack[-1][3] if self.stack else None
        index = None
        if record:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, self.clock(), 0.0, index if record else parent]
        self.stack.append(frame)
        self._active[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.stack.pop()
            self._active[name] -= 1
            dur = end - frame[1]
            self.self_s[name.split(".", 1)[0]] += dur - frame[2]
            if not self._active[name]:
                self.incl_s[name] += dur
            self.calls[name] += 1
            if self.stack:
                self.stack[-1][2] += dur
            if record:
                self.spans[index] = (name, frame[1], end, parent, self.trial)

    def wrap(self, owner, attr, name, record=False, after=None):
        """Replace ``owner.attr`` by a timed call; ``after(result, args,
        kwargs)`` runs outside the callee's span, as a ``bench`` span."""
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            result = tracer.call(name, record, fn, args, kwargs)
            if after is not None:
                tracer.call(CHECK, False, after, (result, args, kwargs), {})
            return result

        setattr(owner, attr, kind(timed) if kind else timed)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")


class TimedGain:
    """Gain callable proxy: tallies calls and, inside an LFD attempt, counts
    the candidate features scored per grown node (one node per ``rows``)."""

    def __init__(self, tracer, gain):
        self.tracer = tracer
        self.gain = gain
        self._rows = None

    def __call__(self, ds, rows, feature, values, labels):
        tracer = self.tracer
        if tracer.stack and tracer.stack[-1][0] == "tree_learners.lfd":
            tracer.counts["lfd_candidates"] += 1
            if rows is not self._rows:
                self._rows = rows
                tracer.counts["lfd_nodes"] += 1
        return tracer.call("trees.gain", False, self.gain,
                           (ds, rows, feature, values, labels), {})


# -- hypothesis checks (acceptance criteria 1, 7 and 8) ---------------------


def _check_tree_lfd(tracer, result, args, kwargs):
    tracer.counts["hypotheses_checked"] += 1
    if result.learned:
        ds = args[0]
        values = ds.peek_all()
        predicted = [result.tree.predict(row) for row in values]
        if not np.array_equal(np.asarray(predicted, dtype=bool),
                              np.asarray(ds.labels, dtype=bool)):
            tracer.failures.append("tree LFD hypothesis mislabels its sample")


def _check_monomial_scratch(tracer, result, args, kwargs):
    tracer.counts["hypotheses_checked"] += 1
    target = kwargs.get("target")
    if target is None or not np.array_equal(result, target):
        tracer.failures.append(
            "monomial scratch hypothesis differs from its target")


def _check_polynomial_scratch(tracer, result, args, kwargs):
    tracer.counts["hypotheses_checked"] += 1
    target = getattr(args[0], "target", None)
    if target is None or result != target:
        tracer.failures.append(
            "polynomial scratch hypothesis differs from its target")


# -- installation -----------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark workloads cross (tree family
    with the tree improver, exact monomials and polynomials, plain and
    restart protocols)."""
    from probelearn import (cli, dataset, griddist, monomials, polynomials,
                            protocol, streams, tree_learners)

    # cli: trials and report writing (the writers are module-private: the
    # CLI has no public report-writing call to wrap)
    def enter_trial(config, trial):
        tracer.trial = trial
        return run_trial(config, trial)

    run_trial = cli.run_trial
    cli.run_trial = enter_trial
    tracer.wrap(cli, "run_trial", "cli.trial", record=True)

    def count_bytes(result, args, kwargs):
        tracer.counts["report_bytes"] += os.path.getsize(args[0])

    for attr in ("_write_csv", "_write_json"):
        tracer.wrap(cli, attr, "cli.report", record=True, after=count_bytes)

    # streams, as the CLI calls them
    for attr in ("gen_tree_stream", "gen_monomial_stream", "gen_poly_stream",
                 "gen_adversary_stream"):
        tracer.wrap(cli, attr, "streams.gen", record=True)
    tracer.wrap(cli, "play_single_feature_game", "streams.game")
    tracer.wrap(cli, "build_orthogonal_basis", "polynomials.basis", record=True)

    # protocol drivers; the returned run gives the restart count
    def count_restarts(result, args, kwargs):
        tracer.counts["restarts"] += result.restarts

    for attr in ("run_protocol", "run_restart_protocol"):
        tracer.wrap(cli, attr, "protocol.run", record=True,
                    after=count_restarts)

    def count_attempt(result, args, kwargs):
        tracer.counts["attempts"] += 1
        tracer.counts["lfd_ok"] += bool(result.learned)

    # family adapters' calls into the learners
    def tree_attempt(result, args, kwargs):
        count_attempt(result, args, kwargs)
        _check_tree_lfd(tracer, result, args, kwargs)

    tracer.wrap(protocol, "lfd_tree", "tree_learners.lfd", record=True,
                after=tree_attempt)
    tracer.wrap(protocol, "learn_tree_scratch", "tree_learners.scratch",
                record=True)
    tracer.wrap(protocol, "improve_rep_tree", "tree_learners.improve",
                record=True)
    teacher_gain = protocol.TeacherGain
    protocol.TeacherGain = lambda target: TimedGain(tracer, teacher_gain(target))
    tracer.wrap(tree_learners, "conflict", "trees.superimpose")
    tracer.wrap(tree_learners, "induce", "trees.superimpose")

    tracer.wrap(protocol, "lfd_monomial", "monomials.lfd", record=True,
                after=count_attempt)
    tracer.wrap(protocol, "learn_monomial_scratch", "monomials.scratch",
                record=True,
                after=functools.partial(_check_monomial_scratch, tracer))
    tracer.wrap(protocol, "improve_rep_monomial", "monomials.improve",
                record=True)
    for attr in ("rows", "solve", "combine", "contains", "insert"):
        tracer.wrap(monomials.RepresentationMatrix, attr, "monomials.rep")
    for attr in ("independent_rows", "invert", "mat_vec"):
        tracer.wrap(monomials, attr, "exactla.call")
    tracer.wrap(streams, "independent_rows", "exactla.call")

    tracer.wrap(protocol, "lfd_polynomial", "polynomials.lfd", record=True,
                after=count_attempt)
    tracer.wrap(protocol, "learn_polynomial_scratch", "polynomials.scratch",
                record=True,
                after=functools.partial(_check_polynomial_scratch, tracer))
    tracer.wrap(protocol, "improve_rep_polynomial", "polynomials.improve",
                record=True)
    for attr in ("corr_sq", "corr_lin"):
        tracer.wrap(polynomials.ExactCorrelation, attr, "polynomials.corr")

    # dataset: construction, metered reads, and a registry of ledgers so the
    # probes metered at this layer can be summed at the end
    init = dataset.CostlyDataset.__init__

    def register(self, value_kind, values, labels):
        init(self, value_kind, values, labels)
        tracer.ledgers.append(self.ledger)
        tracer.counts["cells"] += values.size

    dataset.CostlyDataset.__init__ = register
    for attr in ("from_bool", "from_rational"):
        tracer.wrap(dataset.CostlyDataset, attr, "dataset.build")
    for attr in ("probe", "probe_rows", "probe_all"):
        tracer.wrap(dataset.CostlyDataset, attr, "dataset.probe")

    tracer.wrap(griddist.ProductDistribution, "value", "griddist.value")


def per_layer(tracer: Tracer) -> dict:
    """Per-layer figures of one traced process, named as in BENCHMARK.json."""
    s, incl, calls, n = tracer.self_s, tracer.incl_s, tracer.calls, tracer.counts
    attempts = n["attempts"]
    return {
        "cli.self_s": s["cli"],
        "cli.report_s": incl["cli.report"],
        "cli.report_bytes": n["report_bytes"],
        "streams.self_s": s["streams"],
        "streams.gen_s": incl["streams.gen"],
        "streams.cells": n["cells"],
        "streams.game_s": incl["streams.game"],
        "streams.games": calls["streams.game"],
        "protocol.self_s": s["protocol"],
        "protocol.attempts": attempts,
        "protocol.lfd_ok_frac": n["lfd_ok"] / attempts if attempts else 0.0,
        "protocol.restarts": n["restarts"],
        "tree_learners.self_s": s["tree_learners"],
        "tree_learners.lfd_s": incl["tree_learners.lfd"],
        "tree_learners.scratch_s": incl["tree_learners.scratch"],
        "tree_learners.improve_s": incl["tree_learners.improve"],
        "tree_learners.candidates_per_node": (
            n["lfd_candidates"] / n["lfd_nodes"] if n["lfd_nodes"] else 0.0),
        "trees.self_s": s["trees"],
        "trees.gain_s": incl["trees.gain"],
        "trees.gain_calls": calls["trees.gain"],
        "trees.superimpose_s": incl["trees.superimpose"],
        "trees.superimpose_calls": calls["trees.superimpose"],
        "monomials.self_s": s["monomials"],
        "monomials.lfd_s": incl["monomials.lfd"],
        "monomials.scratch_s": incl["monomials.scratch"],
        "monomials.rep_s": incl["monomials.rep"],
        "polynomials.self_s": s["polynomials"],
        "polynomials.corr_s": incl["polynomials.corr"],
        "polynomials.corr_calls": calls["polynomials.corr"],
        "polynomials.lfd_s": incl["polynomials.lfd"],
        "polynomials.scratch_s": incl["polynomials.scratch"],
        "polynomials.basis_s": incl["polynomials.basis"],
        "exactla.s": incl["exactla.call"],
        "exactla.calls": calls["exactla.call"],
        "dataset.self_s": s["dataset"],
        "dataset.build_s": incl["dataset.build"],
        "dataset.probe_calls": calls["dataset.probe"],
        "dataset.probes": sum(ledger.total_probes for ledger in tracer.ledgers),
        "griddist.value_s": incl["griddist.value"],
        "griddist.value_calls": calls["griddist.value"],
    }
