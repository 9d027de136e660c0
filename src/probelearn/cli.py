"""Batch experiment driver.

Subcommands:
  run        -- execute a configured protocol over generated streams
  sweep      -- re-run a config across one axis (m | N | K | r | c; c sets
                protocol.slack)
  adversary  -- single-feature game failure rates and regime-stream totals

All randomness flows from the config seed (stream.seed for run and sweep,
seed for adversary), which --seed-override replaces; reports carry no
timestamps, so the same config and seed produce byte-identical CSV/JSON.
--jobs N spreads trials (run, sweep) or the per-budget game cells
(adversary) over N processes, one pool for all of a sweep's values;
reports do not depend on N.  --strict (run, sweep only) makes a
per-example bound violation fail, saying how many.  Exit codes:
0 success; 1 a --strict violation, or a learner or generator failure
(realizability, model violation, exhausted generator, oracle misuse); 2
usage error: a config key that is unknown, that its stream family or
protocol kind does not read, of the wrong type (a bool is not an int, an int
is a float) or out of range, --jobs below 1, a bad --axis or --values, an
--out that is not a directory.  These checks run before any
trial or game, and each command computes all its rows before it makes
--out, so a failing command writes no output dir.

Every block and key is optional; defaults in parentheses.  Run/sweep: stream
(StreamSpec's fields), protocol and trials int >= 1 (1); STREAM_READS and
PROTOCOL_READS name the keys each stream family and protocol kind reads,
and a stream reads placement only when r >= 1.  The default k_cap is the
dictionary size K (K1 x K2 on an overcomplete stream), combined's default
slack is sqrt(rKN/m), at least 1, from the stream's r over its m + r tasks,
and bootstrap's default count is ceil(ln(K/delta)/p_min) from the stream's
p_min (0.25 when it is 0) at delta = 0.1, at most m + r.  A tree-family
stream runs its own family's ImproveRep.  Adversary: seed int >= 0 (0), a
game block (GAME_KEYS) and an optional regime block (REGIME_KEYS,
REGIME_DEFAULTS; none runs no regime stream, {} the defaults).  README's
run and adversary config tables give every key's type, default and readers.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (GeneratorExhaustedError, ModelViolationError,
                     OracleMisuseError, RealizabilityError, UsageError)
from .griddist import ProductDistribution
from .polynomials import build_orthogonal_basis
from .protocol import (ROW_FIELDS, SCHEMA_VERSION, MonomialFamily,
                       PolynomialFamily, TreeFamily, combined_slack,
                       run_bootstrap_protocol, run_protocol,
                       run_restart_protocol)
from .streams import (FAMILIES, GAME_LEARNERS, REGIMES, STREAM_READS,
                      TREE_FAMILIES, StreamSpec, game_failure_bound,
                      gen_adversary_stream, gen_agnostic_stream,
                      gen_monomial_stream, gen_poly_stream, gen_tree_stream,
                      pcg64_trial_states, play_single_feature_game)
from .tree_learners import bootstrap_count

SWEEP_FIELDS = ["schema_version", "axis", "value", "trial", "family",
                "total_probes", "good_probes", "scratch_count", "restarts",
                "envelope"]
GAME_FIELDS = ["schema_version", "n_prime", "budget", "learner", "trials",
               "failures", "failure_rate", "bound", "ci95"]
REGIME_FIELDS = ["schema_version", "regime", "n_features", "k", "m", "r",
                 "stream_len", "good_count", "total_probes", "good_probes",
                 "scratch_count", "restarts", "envelope"]

# Each config block's table: key -> a nested block's table, or (type, least
# value | allowed values | None); a type [t] is a list of t.  StreamSpec's
# defaults give the stream types; StreamSpec.validate and _checked_plan
# check the rest.
STREAM_KEYS = {name: (type(f.default),
                      None if isinstance(f.default, str) else 0)
               for name, f in StreamSpec.__dataclass_fields__.items()}
STREAM_KEYS["family"] = (str, FAMILIES)  # checked before its STREAM_READS row
# The protocol keys each kind reads beside kind; on a tree-family stream
# every kind also reads gain.
PROTOCOL_READS = {"plain": (), "restart": ("k_cap", "slack"),
                  "combined": ("k_cap", "slack"), "bootstrap": ("n_bootstrap",)}
PROTOCOL_KEYS = {
    "kind": (str, tuple(PROTOCOL_READS)),
    "gain": (str, ("teacher", "info")),
    "k_cap": (int, 0), "slack": (int, 0), "n_bootstrap": (int, 0)}
RUN_KEYS = {"stream": STREAM_KEYS, "protocol": PROTOCOL_KEYS,
            "trials": (int, 1)}
GAME_KEYS = {"n_prime": (int, 1), "budgets": ([int], 0), "trials": (int, 1),
             "s": (int, 1), "learners": ([str], tuple(GAME_LEARNERS))}
REGIME_KEYS = {"name": (str, REGIMES), "n_features": (int, 1), "k": (int, 1),
               "m": (int, 0), "r": (int, 0), "sample_size": (int, 1)}
REGIME_DEFAULTS = {"name": "realizable", "n_features": 20, "k": 3, "m": 30,
                   "r": 0, "sample_size": 4}
ADVERSARY_KEYS = {"seed": (int, 0), "game": GAME_KEYS, "regime": REGIME_KEYS}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed config {path}: line {exc.lineno}: {exc.msg}")
    if not isinstance(config, dict):
        raise UsageError(f"config {path} must be a JSON object")
    return config


def _fits(value, kind, bound) -> bool:
    """A bool is not an int; an int is a float."""
    return ((type(value) is kind or kind is float and type(value) is int)
            and (bound is None or (value in bound if isinstance(bound, tuple)
                                   else value >= bound)))


def check_block(block, keys: dict, what: str) -> None:
    """UsageError unless `block` is an object whose every key is in `keys`
    and whose every value has its key's type and lies in its range."""
    if not isinstance(block, dict):
        raise UsageError(f"{what} block must be an object")
    unknown = set(block) - set(keys)
    if unknown:
        raise UsageError(f"unknown {what} fields: {sorted(unknown)}")
    for key, value in block.items():
        if isinstance(keys[key], dict):
            check_block(value, keys[key], key)
            continue
        kind, bound = keys[key]
        many = isinstance(kind, list)
        kind = kind[0] if many else kind
        if many and not isinstance(value, list) or not all(
                _fits(v, kind, bound) for v in (value if many else [value])):
            need = kind.__name__ if bound is None else (
                "one of " + ", ".join(bound) if isinstance(bound, tuple) else
                f"{kind.__name__} >= {bound}")
            raise UsageError(f"{what}.{key} must be "
                             f"{'a list, each ' if many else ''}{need}, "
                             f"got {value!r}")


def build_spec(cfg: dict) -> StreamSpec:
    check_block(cfg, STREAM_KEYS, "stream")
    return StreamSpec(**cfg).validate()


def build_family(spec: StreamSpec, proto: dict):
    if spec.family in TREE_FAMILIES:  # each tree model runs its own ImproveRep
        return TreeFamily(d=spec.d, s=spec.s,
                          gain=proto.get("gain", "teacher"), improver=spec.family)
    dist = ProductDistribution()
    if spec.family == "monomial":
        return MonomialFamily(spec.n_features, spec.d, dist)
    basis = build_orthogonal_basis(dist, spec.d)
    return PolynomialFamily(spec.n_features, spec.d, spec.t, dist, basis)


def _checked_plan(config: dict):
    """Check a run config whole; -> the plan each of its trials runs: (spec,
    family, kind, args), args following (family, tasks) in the kind's driver.
    A key that its stream family or protocol kind does not read, or that
    the config's other keys leave unread, is an error."""
    check_block(config, RUN_KEYS, "config")
    stream, proto = config.get("stream", {}), config.get("protocol", {})
    family, kind = stream.get("family", "tree"), proto.get("kind", "plain")
    tree_reads = ("gain",) if family in TREE_FAMILIES else ()
    stream_reads = set(STREAM_READS[family])
    proto_reads = {"kind", *tree_reads, *PROTOCOL_READS[kind]}
    if "r" not in stream or stream["r"] == 0:  # placement orders r bad tasks
        stream_reads.discard("placement")
    for what, block, reads in ((f"{family} stream", stream, stream_reads),
                               (f"{kind} protocol", proto, proto_reads)):
        if unread := sorted(set(block) - reads):
            raise UsageError(f"the {what} does not read {unread}")
    if family == "overcomplete" and proto.get("gain", "teacher") != "teacher":
        raise UsageError("protocol.gain must be teacher on an overcomplete "
                         f"stream, got {proto['gain']!r}")
    spec = build_spec(stream)
    family = build_family(spec, proto)
    if kind == "plain":
        return spec, family, kind, ()
    if kind == "bootstrap":  # n_bootstrap, or the p_min count up to m + r
        p_min, tasks = spec.p_min or 0.25, spec.m + spec.r
        # m + r bootstraps every task; no ceil of an inf ln(K/delta)/p_min
        count = (tasks if math.log(spec.dictionary_size / 0.1) >= tasks * p_min
                 else bootstrap_count(p_min, spec.dictionary_size, 0.1))
        return spec, family, kind, (proto.get("n_bootstrap", count),)
    k_cap = proto.get("k_cap", spec.dictionary_size)
    # an explicit slack (the c axis) wins; every stream poses m + r tasks
    slack = proto.get("slack", 0 if kind == "restart" else combined_slack(
        spec.r, k_cap, spec.n_features, spec.m + spec.r))
    return spec, family, kind, (k_cap, slack)


_PLAN = {}  # repr(config) -> plan, for the last config planned here


def _plan(config: dict):
    """`_checked_plan(config)`, kept for the last config planned in this
    process: a run's check and its trials share one family (and basis).
    The repr key tells a bool from an int, as the check does."""
    key = repr(config)
    if key not in _PLAN:
        _PLAN.clear()
        _PLAN[key] = _checked_plan(config)
    return _PLAN[key]


def generate_stream(spec: StreamSpec, trial: int):
    if spec.r > 0:
        return gen_agnostic_stream(spec, trial)
    if spec.family in TREE_FAMILIES:
        return gen_tree_stream(spec, trial)
    if spec.family == "monomial":
        return gen_monomial_stream(spec, trial)
    return gen_poly_stream(spec, trial)


def run_trial(config: dict, trial: int) -> dict:
    """One seeded trial of the config's plan -> frozen rows plus a summary
    dict (picklable).  The driver is read from this module at call time."""
    spec, family, kind, args = _plan(config)
    tasks, _ = generate_stream(spec, trial)
    driver = {"plain": run_protocol, "bootstrap": run_bootstrap_protocol}.get(
        kind, run_restart_protocol)
    run = driver(family, tasks, *args)
    violations = sum(
        1 for o, p, e in zip(run.outcomes, run.per_example_max, run.envelopes)
        if o == "lfd" and p > e)
    return {
        "rows": run.to_rows(trial),
        "summary": {"trial": trial, "scratch_count": run.scratch_count,
                    "restarts": run.restarts, "total_probes": run.total_probes,
                    "good_probes": run.good_probes, "violations": violations},
    }


def _call_all(fn, calls, jobs: int) -> list:
    """[fn(*args) for args in calls], in `jobs` worker processes when
    jobs > 1; results come back in call order either way.  The pool is
    imported here, so a run with one job never loads it."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=get_context("spawn")) as pool:
            futures = [pool.submit(fn, *args) for args in calls]
            return [f.result() for f in futures]  # deterministic fold order
    return [fn(*args) for args in calls]


def _write_csv(path: Path, fields, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _write_json(path: Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_run(config: dict, out: Path, jobs: int, strict: bool) -> int:
    results = _call_all(run_trial, [(config, t) for t in
                                    range(config.get("trials", 1))], jobs)
    rows = [row for res in results for row in res["rows"]]
    summaries = [res["summary"] for res in results]
    total_violations = sum(s["violations"] for s in summaries)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "report.csv", ROW_FIELDS, rows)
    _write_json(out / "report.json", {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "per_trial": summaries,
        "violations_total": total_violations,
    })
    return _strict_code(strict, total_violations)


def _strict_code(strict: bool, violations: int) -> int:
    """1, saying why, when --strict meets a violation; else 0."""
    if strict and violations:
        print(f"strict: {violations} per-example bound violations",
              file=sys.stderr)
    return int(strict and violations > 0)


def sweep_envelope(kind: str, spec: StreamSpec) -> float:
    s, n, k, m, d, r = (spec.sample_size, spec.n_features,
                        spec.dictionary_size, spec.m, spec.d, spec.r)
    if kind == "combined":
        return s * (math.sqrt(max(r, 1) * k * n * m) + m * k)
    if kind == "restart":
        return s * (r * k * n + m * k)
    return s * (k * n + m * k * d)


def sweep_plan(config: dict, axis: str, text: str) -> list:
    """[(value, checked config with `axis` set to value, its plan)] for
    each value of the comma-separated `text`."""
    check_block(config, RUN_KEYS, "config")
    try:
        values = [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"sweep values must be comma-separated integers, "
                         f"got {text!r}") from exc
    if axis not in ("m", "N", "K", "r", "c"):
        raise UsageError(f"unknown sweep axis {axis!r}")
    if not values:
        raise UsageError("empty sweep values")
    stream_key = {"m": "m", "N": "n_features", "K": "k", "r": "r"}.get(axis)
    plan = []
    for value in values:
        cfg = json.loads(json.dumps(config))  # deep copy
        if stream_key is None:
            cfg.setdefault("protocol", {})["slack"] = value
        else:
            cfg.setdefault("stream", {})[stream_key] = value
        plan.append((value, cfg, _checked_plan(cfg)))
    return plan


def cmd_sweep(config: dict, out: Path, jobs: int, strict: bool, axis: str,
              plan) -> int:
    """Every (value, trial) pair of the sweep through one `_call_all`,
    value-major; each row is its trial's summary under its value's head."""
    heads, calls = [], []
    for value, cfg, (spec, _, kind, _) in plan:
        head = {"schema_version": SCHEMA_VERSION, "axis": axis, "value": value,
                "family": spec.family, "envelope": sweep_envelope(kind, spec)}
        for t in range(cfg.get("trials", 1)):
            heads.append(head)
            calls.append((cfg, t))
    summaries = [res["summary"] for res in _call_all(run_trial, calls, jobs)]
    rows = [dict(head, **{key: s[key] for key in SWEEP_FIELDS if key in s})
            for head, s in zip(heads, summaries)]
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", SWEEP_FIELDS, rows)
    _write_json(out / "sweep.json", {
        "schema_version": SCHEMA_VERSION, "config": config, "axis": axis,
        "values": [value for value, _, _ in plan], "rows": rows,
    })
    return _strict_code(strict, sum(s["violations"] for s in summaries))


def _game_failures(seed: int, n_prime: int, budget: int, trials: int,
                   s: int, learners) -> list:
    """Lost games of each learner at one budget.  Game t plays from the
    start state of `np.random.PCG64((seed, t, budget))`, all of which
    `pcg64_trial_states` computes in one pass, and every learner plays it
    from that state on one reused generator."""
    failures = [0] * len(learners)
    bitgen = np.random.PCG64()  # each game sets its state
    rng = np.random.Generator(bitgen)
    for start in pcg64_trial_states(seed, trials, budget):
        for i, learner in enumerate(learners):
            bitgen.state = start
            if not play_single_feature_game(rng, n_prime, budget,
                                            s=s, learner=learner).win:
                failures[i] += 1
    return failures


def cmd_adversary(config: dict, out: Path, jobs: int) -> int:
    seed = config.get("seed", 0)
    game = config.get("game", {})
    n_prime, s = game.get("n_prime", 100), game.get("s", 1)
    budgets = game.get("budgets", [0, n_prime // 4, n_prime // 2, n_prime])
    if any(budget > s * n_prime for budget in budgets):
        raise UsageError(f"game.budgets must lie in [0, s*n_prime], "
                         f"got {budgets!r}")
    trials = game.get("trials", 1000)
    learners = game.get("learners", ["scan", "uniform"])

    regime = config.get("regime")
    regime_rows = []
    if regime is not None:  # before the games, which seed their own RNGs
        # the defaults, updated by the regime block in their key order
        name, n, k, m, r, size = (REGIME_DEFAULTS | regime).values()
        tasks, _ = gen_adversary_stream(name, n, k, m, r, seed,
                                        sample_size=size)
        family = TreeFamily(d=1, s=1, gain="teacher", improver="tree")
        if name == "realizable":
            run = run_protocol(family, tasks)
        else:
            run = run_restart_protocol(family, tasks, k)
        regime_rows.append({
            "schema_version": SCHEMA_VERSION, "regime": name, "n_features": n,
            "k": k, "m": m, "r": r, "stream_len": len(tasks),
            "good_count": sum(run.goods), "total_probes": run.total_probes,
            "good_probes": run.good_probes, "scratch_count": run.scratch_count,
            "restarts": run.restarts, "envelope": size * (k * n + m * k),
        })

    cells = [(seed, n_prime, budget, trials, s, learners)
             for budget in budgets]
    failures = _call_all(_game_failures, cells, jobs)  # [budget][learner]
    rows = []
    for i, learner in enumerate(learners):
        for budget, lost_by_learner in zip(budgets, failures):
            lost = lost_by_learner[i]
            rate = lost / trials
            ci = 1.96 * math.sqrt(max(rate * (1 - rate), 0.0) / trials)
            rows.append({
                "schema_version": SCHEMA_VERSION, "n_prime": n_prime,
                "budget": budget, "learner": learner, "trials": trials,
                "failures": lost, "failure_rate": rate,
                "bound": game_failure_bound(n_prime, budget), "ci95": ci,
            })
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "adversary.csv", GAME_FIELDS, rows)
    if regime_rows:
        _write_csv(out / "regime.csv", REGIME_FIELDS, regime_rows)
    _write_json(out / "adversary.json", {
        "schema_version": SCHEMA_VERSION, "config": config, "game": rows,
        "regime": regime_rows,
    })
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="probelearn",
        description="probe-metered lifelong learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "adversary"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="probelearn-out", help="output directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (trials, or game cells)")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the config seed")
        if name != "adversary":
            p.add_argument("--strict", action="store_true",
                           help="exit 1 on any per-example bound violation")
        if name == "sweep":
            p.add_argument("--axis", required=True, help="m | N | K | r | c")
            p.add_argument("--values", required=True,
                           help="comma-separated axis values")
    args = parser.parse_args(argv)

    try:
        if args.jobs < 1:
            raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
        out = Path(args.out)
        for path in (out, *out.parents):
            if path.exists() and not path.is_dir():
                raise UsageError(f"--out {out}: {path} is not a directory")
        config = load_config(args.config)
        if args.seed_override is not None:
            if args.command == "adversary":
                config["seed"] = args.seed_override
            elif isinstance(config.setdefault("stream", {}), dict):
                config["stream"]["seed"] = args.seed_override
        if args.command == "adversary":
            check_block(config, ADVERSARY_KEYS, "adversary config")
            return cmd_adversary(config, out, args.jobs)
        if args.command == "run":
            _plan(config)
            return cmd_run(config, out, args.jobs, args.strict)
        plan = sweep_plan(config, args.axis, args.values)
        return cmd_sweep(config, out, args.jobs, args.strict, args.axis, plan)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RealizabilityError, ModelViolationError, GeneratorExhaustedError,
            OracleMisuseError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
