"""probelearn benchmark: one workload, repeated in fresh processes.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload tree-reuse --seed 0 --seconds 40 --trace 0

Each rep runs the workload's CLI commands in a new process (``child.py``), so
set-up time and peak memory belong to that one workload.  Reps repeat until
``--seconds`` would be exceeded (at least ``MIN_REPS``); timings are medians
over reps, and the cost figures, which are exact for a seed, come from the
first rep.  Every rep's outputs are checked (``checks.py``) and digested; at
the default seed the digest must match ``digests.json``, at any other seed
every rep must match the first.

``--trace 1`` alternates untraced and traced reps and reports the per-layer
figures of the traced ones (``tracing.py``), the tracing overhead, and checks
that the probes metered by the datasets equal the untraced ``probes_total``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark exits 2
without a result when the checkout has no ``src/probelearn`` to measure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
# Times are scaled to a host on which child.HostSpeed's loop takes this long.
REFERENCE_S = 0.025
REP_TIMEOUT_S = 170
WORK_DIR = ".perfbench_work"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "probes_total": "probes",
    "scratch_frac": "ratio",
    "envelope_ratio_max": "ratio",
    "passed_frac": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "exactla.s":
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name == "dataset.probes":
        return "probes"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


PER_LAYER = ["cli.self_s", "cli.report_s", "cli.report_bytes",
             "streams.self_s", "streams.gen_s", "streams.cells",
             "streams.game_s", "streams.games",
             "protocol.self_s", "protocol.attempts", "protocol.lfd_ok_frac",
             "protocol.restarts",
             "tree_learners.self_s", "tree_learners.lfd_s",
             "tree_learners.scratch_s", "tree_learners.improve_s",
             "tree_learners.candidates_per_node",
             "trees.self_s", "trees.gain_s", "trees.gain_calls",
             "trees.superimpose_s", "trees.superimpose_calls",
             "monomials.self_s", "monomials.lfd_s", "monomials.scratch_s",
             "monomials.rep_s",
             "polynomials.self_s", "polynomials.corr_s",
             "polynomials.corr_calls", "polynomials.lfd_s",
             "polynomials.scratch_s", "polynomials.basis_s",
             "exactla.s", "exactla.calls",
             "dataset.self_s", "dataset.build_s", "dataset.probe_calls",
             "dataset.probes",
             "griddist.value_s", "griddist.value_calls",
             "trace.overhead_s"]


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, root: Path, workload: str, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self.workload = workload
        self.commands = workloads.commands(workload, smoke)
        self.work = root / WORK_DIR / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.configs = []
        for command, label, config in self.commands:
            path = self.work / f"{label}.json"
            path.write_text(json.dumps(config, indent=2, sort_keys=True))
            self.configs.append(path)
        self.reps = 0
        self.attempted = 0
        self.failures = []
        self.over_k = set()
        self.first_digest = None
        self.first_tally = None

    def _spawn(self, args):
        return subprocess.run([sys.executable, *args], cwd=self.root,
                              capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)

    def warm_up(self) -> None:
        """Import once untimed, so no rep pays for compiling bytecode."""
        proc = self._spawn(["-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                                  "import probelearn.cli", str(self.root / "src")])
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import probelearn:\n{proc.stderr}")

    def rep(self, trace: bool) -> dict:
        """Run the workload once in a fresh process and check its outputs."""
        rep_dir = self.work / f"rep{self.reps}"
        self.reps += 1
        outs = [rep_dir / label for _, label, _ in self.commands]
        job = {
            "src": str(self.root / "src"),
            "seed": self.seed,
            "trace": trace,
            "commands": [{"command": command, "label": label,
                          "config": str(path), "out": str(out)}
                         for (command, label, _), path, out
                         in zip(self.commands, self.configs, outs)],
            "result": str(rep_dir / "result.json"),
            "spans": str(rep_dir / "spans.jsonl"),
        }
        rep_dir.mkdir()
        job_path = rep_dir / "job.json"
        job_path.write_text(json.dumps(job))
        proc = self._spawn([str(HERE / "child.py"), str(job_path)])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            self._check(False, f"rep {self.reps - 1}: worker exited "
                               f"{proc.returncode}")
            return None
        result = json.loads((rep_dir / "result.json").read_text())
        tally = checks.evaluate(self.commands, outs, result)
        self.attempted += tally.attempted
        self.failures += tally.failures
        self.over_k.update(tally.over_k)
        if all(code == 0 for code in result["codes"]):
            self._check_digest(checks.digest(
                [(c, label, out) for (c, label, _), out in zip(self.commands, outs)]))
            if self.first_tally is None:
                self.first_tally = tally
        if trace:
            metered = result["per_layer"]["dataset.probes"]
            expected = self.first_tally and self.first_tally.probes_total
            self._check(metered == expected, f"traced dataset.probes {metered} "
                                             f"!= probes_total {expected}")
            self.attempted += result["hypotheses_checked"]
            self.failures += result["hypothesis_failures"]
        return result

    def _check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def _check_digest(self, digest: str) -> None:
        if self.first_digest is None:
            self.first_digest = digest
            if self.seed == workloads.DEFAULT_SEED and not self.smoke:
                stored = json.loads((HERE / "digests.json").read_text())
                self._check(stored.get(self.workload) == digest,
                            f"default-seed report digest {digest} != stored "
                            f"{stored.get(self.workload)}")
                return
        self._check(digest == self.first_digest,
                    f"report digest {digest} differs from the first rep's "
                    f"{self.first_digest}: reports are not deterministic")


def measure(bench: Bench, seconds: float, trace: bool):
    """Repeat reps (untraced, or untraced + traced pairs) until the next
    round would overrun ``seconds``; at least ``MIN_REPS`` rounds untraced."""
    plan = [False, True] if trace else [False]
    untraced, traced = [], []
    start = perf_counter()
    rounds = 0
    while True:
        t = perf_counter()
        for kind in plan:
            result = bench.rep(kind)
            if result is not None:
                (traced if kind else untraced).append(result)
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= (1 if trace else MIN_REPS) and \
                elapsed + (perf_counter() - t) > seconds:
            return untraced, traced


def scaled(results, key):
    """Median over reps of a time, each scaled by its rep's host speed."""
    return statistics.median(r[key] * REFERENCE_S / r["reference_s"]
                             for r in results)


def end_to_end(bench: Bench, untraced) -> dict:
    tally = bench.first_tally
    figures = {
        "setup_s": scaled(untraced, "setup_s"),
        "wall_s": scaled(untraced, "wall_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "probes_total": tally.probes_total,
        "scratch_frac": tally.scratch / tally.tasks,
        "envelope_ratio_max": tally.envelope_ratio_max,
        "passed_frac": 1 - len(bench.failures) / bench.attempted,
    }
    return {name: {"value": figures[name], "unit": END_TO_END[name]}
            for name in END_TO_END}


def per_layer(untraced, traced) -> dict:
    def value(r, name):
        v = r["per_layer"][name]
        if per_layer_unit(name) == "s":
            v *= REFERENCE_S / r["reference_s"]
        return v

    figures = {name: statistics.median(value(r, name) for r in traced)
               for name in PER_LAYER if name != "trace.overhead_s"}
    figures["trace.overhead_s"] = (scaled(traced, "wall_s")
                                   - scaled(untraced, "wall_s"))
    return {name: {"value": figures[name], "unit": per_layer_unit(name)}
            for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced stream sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "probelearn" / "__init__.py").is_file():
        print("error: run from the root of a probelearn checkout "
              "(no src/probelearn here)", file=sys.stderr)
        return 2
    try:
        bench = Bench(root, args.workload, args.seed, args.smoke)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    bench.warm_up()
    untraced, traced = measure(bench, args.seconds, bool(args.trace))
    if not untraced or (args.trace and not traced) or bench.first_tally is None:
        for what in bench.failures:
            print(f"FAILED: {what}", file=sys.stderr)
        return 1

    metrics = (per_layer(untraced, traced) if args.trace
               else end_to_end(bench, untraced))
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"reps {len(untraced)} untraced, {len(traced)} traced  "
          f"digest {bench.first_digest}")
    print(f"# unscaled median wall {statistics.median(r['wall_s'] for r in untraced):.4f} s, "
          f"reference loop {statistics.median(r['reference_s'] for r in untraced):.4f} s "
          f"(scaled to {REFERENCE_S} s)")
    for name, m in metrics.items():
        print(f"{name:38s} {m['value']:>16.6g} {m['unit']}")
    for what in sorted(bench.over_k):
        print(f"bound: {what}")
    for what in bench.failures:
        print(f"FAILED: {what}")
    print(json.dumps({"correct": not bench.failures,
                      "attempted": bench.attempted,
                      "failed": len(bench.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
