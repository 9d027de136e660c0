"""Batch experiment driver.

Subcommands:
  run        -- execute a configured protocol over generated streams
  sweep      -- re-run a config across one axis (m | N | K | r | c; c sets
                protocol.slack)
  adversary  -- single-feature game failure rates and regime-stream totals

All randomness flows from the config seed (stream.seed for run and sweep,
seed for adversary), which --seed-override replaces; reports carry no
timestamps, so the same config and seed produce byte-identical CSV/JSON.
--jobs N spreads trials (run, sweep) or (learner, budget) game
cells (adversary) over N processes; reports do not depend on N.  Exit codes:
0 success; 1 strict-mode violation, or a learner or generator failure
(realizability, model violation, exhausted generator, oracle misuse); 2
usage error: a config key that is unknown, that its stream family or
protocol kind does not read, of the wrong type (a bool is not an int, an int
is a float) or out of range, --jobs below 1, a bad --axis or --values, an
--out that is not a directory.  These checks run before any
trial or game, and each command computes all its rows before it makes
--out, so a failing command writes no output dir.

Every block and key is optional; defaults in parentheses.  Run/sweep: stream
(StreamSpec's fields), protocol and trials int >= 1 (1); STREAM_READS and
PROTOCOL_READS name the keys each stream family and protocol kind reads.  A
stream reads placement only when r >= 1, an overcomplete stream reads k only
as the default k_cap of restart and combined, and a protocol with
n_bootstrap reads no p_min or delta.  README's run-config table gives every
key's type, default and readers.
Adversary: seed int >= 0 (0)
  game      n_prime int >= 1 (100), s int >= 1 (1), trials int >= 1 (1000),
            budgets [ints in 0..s*n_prime] ([0, n_prime/4, n_prime/2,
            n_prime]), learners [scan|uniform|exhaustive] ([scan, uniform])
  regime    (none: no regime stream) name (realizable): realizable|
            intermediate|large1|large2; ints >= 1: n_features (20), k (3),
            sample_size (4); ints >= 0: m (30), r (0)
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
                      play_single_feature_game)
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
# defaults give the stream types; StreamSpec.validate and _bootstrap_tasks
# check the rest.
STREAM_KEYS = {name: (type(f.default),
                      None if isinstance(f.default, str) else 0)
               for name, f in StreamSpec.__dataclass_fields__.items()}
STREAM_KEYS["family"] = (str, FAMILIES)  # checked before its STREAM_READS row
# The protocol keys each kind reads beside kind and strict_envelope_scale;
# on a tree-family stream every kind also reads gain and improver.
PROTOCOL_READS = {"plain": (), "restart": ("k_cap", "slack"),
                  "combined": ("k_cap", "slack", "r"),
                  "bootstrap": ("n_bootstrap", "p_min", "delta")}
PROTOCOL_KEYS = {
    "kind": (str, tuple(PROTOCOL_READS)),
    "gain": (str, ("teacher", "info")), "improver": (str, TREE_FAMILIES),
    "k_cap": (int, 0), "r": (int, 0), "slack": (int, 0),
    "n_bootstrap": (int, 0), "p_min": (float, None), "delta": (float, None),
    "strict_envelope_scale": (float, 0)}
RUN_KEYS = {"stream": STREAM_KEYS, "protocol": PROTOCOL_KEYS,
            "trials": (int, 1)}
GAME_KEYS = {"n_prime": (int, 1), "budgets": ([int], 0), "trials": (int, 1),
             "s": (int, 1), "learners": ([str], tuple(GAME_LEARNERS))}
REGIME_KEYS = {"name": (str, REGIMES), "n_features": (int, 1), "k": (int, 1),
               "m": (int, 0), "r": (int, 0), "sample_size": (int, 1)}
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
    if spec.family in TREE_FAMILIES:
        improver = proto.get("improver", spec.family)
        if improver == "overcomplete" and spec.family != "overcomplete":
            raise UsageError(f"the overcomplete improver needs an overcomplete "
                             f"stream, got family {spec.family!r}")
        return TreeFamily(d=spec.d, s=spec.s,
                          gain=proto.get("gain", "teacher"), improver=improver)
    dist = ProductDistribution()
    if spec.family == "monomial":
        return MonomialFamily(spec.n_features, spec.d, dist)
    basis = build_orthogonal_basis(dist, spec.d)
    return PolynomialFamily(spec.n_features, spec.d, spec.t, dist, basis)


def _bootstrap_tasks(spec: StreamSpec, proto: dict) -> int:
    """Tasks the bootstrap protocol learns whole: n_bootstrap, or the count
    p_min and delta give.  UsageError unless both are probabilities."""
    if "n_bootstrap" in proto:
        return proto["n_bootstrap"]
    p_min = proto.get("p_min", spec.p_min or 0.25)
    delta = proto.get("delta", 0.1)
    if not (0 < p_min <= 1 and 0 < delta < 1):
        raise UsageError(f"protocol needs 0 < p_min <= 1 and 0 < delta < 1, "
                         f"got p_min={p_min!r}, delta={delta!r}")
    return bootstrap_count(p_min, max(spec.dictionary_size, 1), delta)


def _checked_spec(config: dict) -> StreamSpec:
    """Check a run config whole, as each trial will build it; -> its spec.
    A key that its stream family or protocol kind does not read, or that
    the config's other keys leave unread, is an error."""
    check_block(config, RUN_KEYS, "config")
    stream, proto = config.get("stream", {}), config.get("protocol", {})
    family, kind = stream.get("family", "tree"), proto.get("kind", "plain")
    tree_reads = ("gain", "improver") if family in TREE_FAMILIES else ()
    stream_reads = set(STREAM_READS[family])
    proto_reads = {"kind", "strict_envelope_scale", *tree_reads,
                   *PROTOCOL_READS[kind]}
    if stream.get("r", 0) == 0:  # placement places the r bad tasks only
        stream_reads.discard("placement")
    # K1 x K2 sizes an overcomplete dictionary: k is only the default k_cap
    if family == "overcomplete" and (kind not in ("restart", "combined")
                                     or "k_cap" in proto):
        stream_reads.discard("k")
    if "n_bootstrap" in proto:  # then p_min and delta give no count
        proto_reads -= {"p_min", "delta"}
    for what, block, reads in ((f"{family} stream", stream, stream_reads),
                               (f"{kind} protocol", proto, proto_reads)):
        if unread := sorted(set(block) - reads):
            raise UsageError(f"the {what} does not read {unread}")
    spec = build_spec(stream)
    build_family(spec, proto)
    if kind == "bootstrap":
        _bootstrap_tasks(spec, proto)
    return spec


def generate_stream(spec: StreamSpec, trial: int):
    if spec.r > 0:
        return gen_agnostic_stream(spec, trial)
    if spec.family in TREE_FAMILIES:
        return gen_tree_stream(spec, trial)
    if spec.family == "monomial":
        return gen_monomial_stream(spec, trial)
    return gen_poly_stream(spec, trial)


def run_trial(config: dict, trial: int) -> dict:
    """One seeded trial -> frozen rows plus a summary dict (picklable)."""
    spec = build_spec(config.get("stream", {}))
    proto = config.get("protocol", {})
    kind = proto.get("kind", "plain")
    family = build_family(spec, proto)
    tasks, _ = generate_stream(spec, trial)
    k_cap = proto.get("k_cap", spec.k)
    if kind == "plain":
        run = run_protocol(family, tasks)
    elif kind in ("restart", "combined"):
        if "slack" in proto:  # explicit slack (the sweep's c axis) wins
            slack = proto["slack"]
        elif kind == "combined":
            slack = combined_slack(proto.get("r", spec.r), k_cap,
                                   spec.n_features, len(tasks))
        else:
            slack = 0
        run = run_restart_protocol(family, tasks, k_cap, slack=slack)
    else:  # bootstrap
        n_boot = _bootstrap_tasks(spec, proto)
        run = run_bootstrap_protocol(family, tasks, n_boot)

    scale = proto.get("strict_envelope_scale", 1.0)
    violations = sum(
        1 for o, p, e in zip(run.outcomes, run.per_example_max, run.envelopes)
        if o == "lfd" and p > e * scale)
    good_probes = sum(p for p, g in zip(run.probes, run.goods) if g)
    return {
        "rows": run.to_rows(trial),
        "summary": {"trial": trial, "scratch_count": run.scratch_count,
                    "restarts": run.restarts, "total_probes": run.total_probes,
                    "good_probes": good_probes, "violations": violations},
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
    if strict and total_violations:
        print(f"strict: {total_violations} per-example bound violations",
              file=sys.stderr)
        return 1
    return 0


def sweep_envelope(kind: str, spec: StreamSpec, r: int) -> float:
    s, n, k, m, d = (spec.sample_size, spec.n_features, spec.dictionary_size,
                     spec.m, spec.d)
    if kind == "combined":
        return s * (math.sqrt(max(r, 1) * k * n * m) + m * k)
    if kind == "restart":
        return s * (r * k * n + m * k)
    return s * (k * n + m * k * d)


def sweep_plan(config: dict, axis: str, text: str) -> list:
    """[(value, checked config with `axis` set to value, its spec)] for
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
        proto = cfg.setdefault("protocol", {})
        if stream_key is None:
            proto["slack"] = value
        else:
            cfg.setdefault("stream", {})[stream_key] = value
        if axis == "r" and "r" in proto:  # combined's r defaults to stream r
            proto["r"] = value
        plan.append((value, cfg, _checked_spec(cfg)))
    return plan


def cmd_sweep(config: dict, out: Path, jobs: int, strict: bool, axis: str,
              plan) -> int:
    rows = []
    bad = 0
    for value, cfg, spec in plan:
        kind = cfg["protocol"].get("kind", "plain")
        results = _call_all(run_trial, [(cfg, t) for t in
                                        range(cfg.get("trials", 1))], jobs)
        env = sweep_envelope(kind, spec, cfg["protocol"].get("r", spec.r))
        for res in results:
            s = res["summary"]
            bad += s["violations"]
            rows.append({
                "schema_version": SCHEMA_VERSION, "axis": axis, "value": value,
                "trial": s["trial"], "family": spec.family,
                "total_probes": s["total_probes"],
                "good_probes": s["good_probes"],
                "scratch_count": s["scratch_count"],
                "restarts": s["restarts"], "envelope": env,
            })
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", SWEEP_FIELDS, rows)
    _write_json(out / "sweep.json", {
        "schema_version": SCHEMA_VERSION, "config": config, "axis": axis,
        "values": [value for value, _, _ in plan], "rows": rows,
    })
    return 1 if strict and bad else 0


def _game_failures(seed: int, n_prime: int, budget: int, trials: int,
                   s: int, learner: str) -> int:
    """Lost games of one (learner, budget) cell; game t seeds its own RNG
    with (seed, t, budget)."""
    failures = 0
    for t in range(trials):
        rng = np.random.default_rng((seed, t, budget))
        if not play_single_feature_game(rng, n_prime, budget,
                                        s=s, learner=learner).win:
            failures += 1
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
    if regime:  # before the games, which seed their own RNGs
        name = regime.get("name", "realizable")
        n, k, m, r, size = (regime.get("n_features", 20), regime.get("k", 3),
                            regime.get("m", 30), regime.get("r", 0),
                            regime.get("sample_size", 4))
        tasks, _ = gen_adversary_stream(name, n, k, m, r, seed,
                                        sample_size=size)
        family = TreeFamily(d=1, s=1, gain="teacher", improver="tree")
        if name == "realizable":
            run = run_protocol(family, tasks)
        else:
            run = run_restart_protocol(family, tasks, k)
        good_probes = sum(p for p, g in zip(run.probes, run.goods) if g)
        regime_rows.append({
            "schema_version": SCHEMA_VERSION, "regime": name, "n_features": n,
            "k": k, "m": m, "r": r, "stream_len": len(tasks),
            "good_count": sum(run.goods), "total_probes": run.total_probes,
            "good_probes": good_probes, "scratch_count": run.scratch_count,
            "restarts": run.restarts, "envelope": size * (k * n + m * k),
        })

    cells = [(seed, n_prime, budget, trials, s, learner)
             for learner in learners for budget in budgets]
    failures = _call_all(_game_failures, cells, jobs)
    rows = []
    for (_, _, budget, _, _, learner), lost in zip(cells, failures):
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
        p.add_argument("--strict", action="store_true",
                       help="exit 1 on any per-example bound violation")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the config seed")
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
            _checked_spec(config)
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
