"""Batch experiment driver.

Subcommands:
  run        -- execute a configured protocol over generated streams
  sweep      -- re-run a config across one axis (m | N | K | r | c)
  adversary  -- single-feature game failure rates and regime-stream totals

All randomness flows from the config seed (or --seed-override); reports
carry no timestamps, so the same config and seed produce byte-identical
CSV/JSON.  Exit codes: 0 success; 1 strict-mode violation, or a learner or
generator failure (realizability, model violation, exhausted generator,
oracle misuse); 2 usage error, such as an unknown key in any config block,
--jobs below 1, a "trials" that is not an integer >= 1, a --values entry
or an integer field ("slack", the adversary seed, game and regime numbers)
that is not an integer in range.  Internal errors are bugs and stay
tracebacks.  --jobs N spreads trials (run, sweep) or (learner, budget) game
cells (adversary) over N processes; reports do not depend on N.

Config JSON (run/sweep):
  {
    "stream":   {StreamSpec fields: family, n_features, k, d, s, t, m, r,
                 sample_size, mf_depth, placement, p_min, k1, k2, seed},
    "protocol": {"kind": "plain" | "restart" | "combined" | "bootstrap",
                 "gain": "teacher" | "info", "improver": tree-variant,
                 "k_cap": int, "r": int, "n_bootstrap": int,
                 "p_min": float, "delta": float,
                 "strict_envelope_scale": float},
    "trials": int, "strict": bool, "seed": int (written by --seed-override)
  }

Adversary config:
  {"seed": int,
   "game":   {"n_prime": int, "budgets": [...], "trials": int, "s": int,
              "learners": ["scan", ...]},
   "regime": {"name": regime, "n_features": int, "k": int, "m": int,
              "r": int, "sample_size": int}}        # regime block optional
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
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
from .streams import (TREE_FAMILIES, StreamSpec, game_failure_bound,
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

# The keys each config block accepts (stream keys are StreamSpec's fields).
RUN_KEYS = ("stream", "protocol", "trials", "strict", "seed")
PROTOCOL_KEYS = ("kind", "gain", "improver", "k_cap", "r", "slack",
                 "n_bootstrap", "p_min", "delta", "strict_envelope_scale")
ADVERSARY_KEYS = ("seed", "game", "regime")
GAME_KEYS = ("n_prime", "budgets", "trials", "s", "learners")
REGIME_KEYS = ("name", "n_features", "k", "m", "r", "sample_size")
# (key, default, least value) of the adversary blocks' integer fields
GAME_INTS = (("n_prime", 100, 1), ("s", 1, 1))
REGIME_INTS = (("n_features", 20, 1), ("k", 3, 1), ("m", 30, 0), ("r", 0, 0),
               ("sample_size", 4, 1))


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


def _reject_unknown(block, allowed, what: str) -> None:
    if not isinstance(block, dict):
        raise UsageError(f"{what} block must be an object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise UsageError(f"unknown {what} fields: {sorted(unknown)}")


def _check_run_config(config: dict) -> None:
    _reject_unknown(config, RUN_KEYS, "config")
    _reject_unknown(config.get("protocol", {}), PROTOCOL_KEYS, "protocol")


def _int_field(block: dict, key: str, default: int, low: int) -> int:
    value = block.get(key, default)
    if type(value) is not int or value < low:
        raise UsageError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def _trial_count(block: dict, default: int) -> int:
    return _int_field(block, "trials", default, 1)


def _object(block) -> dict:
    """`block` if it is a JSON object, else {} (its shape is reported later,
    with the unknown-key checks)."""
    return block if isinstance(block, dict) else {}


def _check_numbers(command: str, config: dict) -> None:
    """Type-check the integer config fields that are read without a check
    later, before any output is written."""
    if command != "adversary":
        _int_field(_object(config.get("protocol", {})), "slack", 0, 0)
        return
    _int_field(config, "seed", 0, 0)
    game = _object(config.get("game", {}))
    for key, default, low in GAME_INTS:
        _int_field(game, key, default, low)
    budgets = game.get("budgets", [])
    if not isinstance(budgets, list):
        raise UsageError(f"budgets must be a list, got {budgets!r}")
    for budget in budgets:
        if type(budget) is not int or budget < 0:
            raise UsageError(f"budgets must be integers >= 0, got {budget!r}")
    regime = _object(config.get("regime") or {})
    for key, default, low in REGIME_INTS:
        _int_field(regime, key, default, low)


def _sweep_values(text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"sweep values must be comma-separated integers, "
                         f"got {text!r}") from exc


def build_spec(cfg: dict) -> StreamSpec:
    _reject_unknown(cfg, StreamSpec.__dataclass_fields__, "stream")
    return StreamSpec(**cfg).validate()


def build_family(spec: StreamSpec, proto: dict):
    if spec.family in TREE_FAMILIES:
        improver = proto.get("improver", spec.family)
        return TreeFamily(d=spec.d, s=spec.s,
                          gain=proto.get("gain", "teacher"), improver=improver)
    dist = ProductDistribution()
    if spec.family == "monomial":
        return MonomialFamily(spec.n_features, spec.d, dist)
    basis = build_orthogonal_basis(dist, spec.d)
    return PolynomialFamily(spec.n_features, spec.d, spec.t, dist, basis)


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
    elif kind == "bootstrap":
        n_boot = proto.get("n_bootstrap")
        if n_boot is None:
            n_boot = bootstrap_count(proto.get("p_min", spec.p_min or 0.25),
                                     max(len_dictionary(spec), 1),
                                     proto.get("delta", 0.1))
        run = run_bootstrap_protocol(family, tasks, n_boot)
    else:
        raise UsageError(f"unknown protocol kind {kind!r}")

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


def len_dictionary(spec: StreamSpec) -> int:
    if spec.family == "overcomplete":
        return spec.k1 * spec.k2
    return spec.k


def _call_all(fn, calls, jobs: int) -> list:
    """[fn(*args) for args in calls], in `jobs` worker processes when
    jobs > 1; results come back in call order either way."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=get_context("spawn")) as pool:
            futures = [pool.submit(fn, *args) for args in calls]
            return [f.result() for f in futures]  # deterministic fold order
    return [fn(*args) for args in calls]


def _execute_trials(config: dict, trials: int, jobs: int):
    return _call_all(run_trial, [(config, t) for t in range(trials)], jobs)


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
    _check_run_config(config)
    results = _execute_trials(config, _trial_count(config, 1), jobs)
    rows = [row for res in results for row in res["rows"]]
    _write_csv(out / "report.csv", ROW_FIELDS, rows)
    summaries = [res["summary"] for res in results]
    total_violations = sum(s["violations"] for s in summaries)
    _write_json(out / "report.json", {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "per_trial": summaries,
        "violations_total": total_violations,
    })
    strict = strict or bool(config.get("strict", False))
    if strict and total_violations:
        print(f"strict: {total_violations} per-example bound violations",
              file=sys.stderr)
        return 1
    return 0


def sweep_envelope(kind: str, spec: StreamSpec, r: int) -> float:
    s, n, k, m, d = (spec.sample_size, spec.n_features, spec.k, spec.m, spec.d)
    if kind == "combined":
        return s * (math.sqrt(max(r, 1) * k * n * m) + m * k)
    if kind == "restart":
        return s * (r * k * n + m * k)
    return s * (k * n + m * k * d)


def cmd_sweep(config: dict, out: Path, jobs: int, strict: bool,
              axis: str, values) -> int:
    _check_run_config(config)
    if axis not in ("m", "N", "K", "r", "c"):
        raise UsageError(f"unknown sweep axis {axis!r}")
    if not values:
        raise UsageError("empty sweep values")
    stream_key = {"m": "m", "N": "n_features", "K": "k", "r": "r"}.get(axis)
    rows = []
    bad = 0
    for value in values:
        cfg = json.loads(json.dumps(config))  # deep copy
        cfg.setdefault("stream", {})
        cfg.setdefault("protocol", {})
        if stream_key is not None:
            cfg["stream"][stream_key] = value
            if axis == "r":
                cfg["protocol"]["r"] = value
        else:
            cfg["protocol"]["slack"] = value
        spec = build_spec(cfg["stream"])
        kind = cfg["protocol"].get("kind", "plain")
        results = _execute_trials(cfg, _trial_count(cfg, 1), jobs)
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
    _write_csv(out / "sweep.csv", SWEEP_FIELDS, rows)
    _write_json(out / "sweep.json", {
        "schema_version": SCHEMA_VERSION, "config": config, "axis": axis,
        "values": list(values), "rows": rows,
    })
    strict = strict or bool(config.get("strict", False))
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


def cmd_adversary(config: dict, out: Path, jobs: int, strict: bool) -> int:
    _reject_unknown(config, ADVERSARY_KEYS, "adversary config")
    seed = config.get("seed", 0)
    game = config.get("game", {})
    _reject_unknown(game, GAME_KEYS, "game")
    regime = config.get("regime")
    if regime:
        _reject_unknown(regime, REGIME_KEYS, "regime")
    n_prime, s = (game.get(key, default) for key, default, _ in GAME_INTS)
    budgets = game.get("budgets", [0, n_prime // 4, n_prime // 2, n_prime])
    trials = _trial_count(game, 1000)
    learners = game.get("learners", ["scan", "uniform"])
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
    _write_csv(out / "adversary.csv", GAME_FIELDS, rows)

    regime_rows = []
    if regime:
        name = regime.get("name", "realizable")
        n, k, m, r, size = (regime.get(key, default)
                            for key, default, _ in REGIME_INTS)
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
            "restarts": run.restarts,
            "envelope": size * (k * n + m * k),
        })
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
        config = load_config(args.config)
        if args.seed_override is not None:
            if "stream" in config or args.command in ("run", "sweep"):
                config.setdefault("stream", {})["seed"] = args.seed_override
            config["seed"] = args.seed_override
        _check_numbers(args.command, config)
        if args.command == "sweep":
            values = _sweep_values(args.values)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "run":
            return cmd_run(config, out, args.jobs, args.strict)
        if args.command == "sweep":
            return cmd_sweep(config, out, args.jobs, args.strict,
                             args.axis, values)
        return cmd_adversary(config, out, args.jobs, args.strict)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RealizabilityError, ModelViolationError, GeneratorExhaustedError,
            OracleMisuseError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
