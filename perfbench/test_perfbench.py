"""Smoke tests of the benchmark itself (reduced-size workloads).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["tree-reuse", "adversary-churn", "rational"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_reduced_workload_runs_clean(workload, trace):
    proc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                        "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    names = run.PER_LAYER if trace == "1" else list(run.END_TO_END)
    assert list(result["metrics"]) == names
    if trace == "0":
        assert result["metrics"]["passed_frac"]["value"] == 1.0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == {n: run.per_layer_unit(n) for n in run.PER_LAYER}
    for name in [*e2e, *layer, *WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_seed_changes_report_digest():
    digests = []
    for seed in (0, 1):
        b = run.Bench(ROOT, "tree-reuse", seed, smoke=True)
        b.rep(False)
        digests.append(b.first_digest)
    assert digests[0] != digests[1]


def test_default_seed_digests_are_stored():
    stored = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert sorted(stored) == sorted(WORKLOADS)
    assert workloads.DEFAULT_SEED == 0


def test_refuses_to_run_without_sources():
    bare = ROOT / run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "tree-reuse", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
