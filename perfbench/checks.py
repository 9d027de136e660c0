"""Output checks and report digests for one workload operation.

An operation is one report row, one report summary (``report.json``), one
game row, or the regime row; a CLI command that exits nonzero is one failed
operation.  The checks:

  * ``report.json`` has ``violations_total == 0``;
  * every LFD row has ``per_example_max <= envelope``;
  * every game row has ``failure_rate >= bound - 2 * ci95``;
  * the regime stream's LFD tasks stay within their envelope.

Realizable streams should also scratch-learn at most K tasks per trial.  The
tree learner breaks that bound on some trials of the ``tree-reuse`` stream,
so breaches are counted and printed, not failed (see ``README.md``).

The digest is a sha256 over the contract columns of every ``report.csv`` and
the whole of ``adversary.csv`` and ``regime.csv``: a report column added
later leaves it unchanged, a changed probe count or outcome does not.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

REPORT_COLUMNS = ["family", "trial", "task_index", "outcome", "probes",
                  "per_example_max", "rep_size", "restarts", "envelope"]


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def digest(outputs) -> str:
    """sha256 of a workload's reports; ``outputs`` is [(command, label, dir)]."""
    h = hashlib.sha256()
    for command, label, out in outputs:
        if command == "run":
            h.update(f"== {label} report.csv\n".encode())
            for row in _read_csv(out / "report.csv"):
                h.update((",".join(row[c] for c in REPORT_COLUMNS) + "\n").encode())
        else:
            for name in ("adversary.csv", "regime.csv"):
                h.update(f"== {label} {name}\n".encode())
                h.update((out / name).read_bytes())
    return h.hexdigest()


class Tally:
    """Operations attempted and failed, plus the cost figures of one rep."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.probes_total = 0
        self.tasks = 0
        self.scratch = 0
        self.envelope_ratio_max = 0.0
        self.over_k = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def within_envelope(self, probes: int, envelope: int) -> bool:
        """Record one LFD task's probe ratio; is it within the envelope?"""
        self.envelope_ratio_max = max(self.envelope_ratio_max, probes / envelope)
        return probes <= envelope


def _check_run(tally, label, config, out):
    rows = _read_csv(out / "report.csv")
    for row in rows:
        probes, envelope = int(row["per_example_max"]), int(row["envelope"])
        tally.check(row["outcome"] != "lfd"
                    or tally.within_envelope(probes, envelope),
                    f"{label} trial {row['trial']} task {row['task_index']}: "
                    f"per-example probes {probes} exceed envelope {envelope}")
    with open(out / "report.json") as fh:
        violations = json.load(fh)["violations_total"]
    tally.check(violations == 0, f"{label}: violations_total {violations}")
    tally.probes_total += sum(int(row["probes"]) for row in rows)
    tally.tasks += len(rows)
    tally.scratch += sum(row["outcome"] != "lfd" for row in rows)
    stream = config["stream"]
    if stream.get("r", 0) == 0:
        per_trial = {}
        for row in rows:
            if row["outcome"] != "lfd":
                per_trial[row["trial"]] = per_trial.get(row["trial"], 0) + 1
        for trial, count in sorted(per_trial.items()):
            if count > stream["k"]:
                tally.over_k.append(f"{label} trial {trial}: {count} scratch "
                                    f"learns > K={stream['k']}")


def _check_adversary(tally, label, out, lfd_rows):
    for row in _read_csv(out / "adversary.csv"):
        rate, bound, ci = (float(row[c]) for c in ("failure_rate", "bound", "ci95"))
        tally.check(rate >= bound - 2 * ci,
                    f"{label} game {row['learner']} budget {row['budget']}: "
                    f"failure rate {rate} below {bound} - 2*{ci}")
    regime = _read_csv(out / "regime.csv")[0]
    breaches = [p for p, e in lfd_rows if not tally.within_envelope(p, e)]
    tally.check(not breaches, f"{label} regime: {len(breaches)} LFD tasks "
                              f"exceed their per-example envelope")
    tally.probes_total += int(regime["total_probes"])
    tally.tasks += int(regime["stream_len"])
    tally.scratch += int(regime["scratch_count"])


def evaluate(commands, outs, result) -> Tally:
    """Check one rep's outputs; ``commands`` as in ``workloads.commands``."""
    tally = Tally()
    for (command, label, config), out, code in zip(commands, outs,
                                                   result["codes"]):
        if code != 0:
            tally.check(False, f"{label}: probelearn {command} exited {code}")
        elif command == "run":
            _check_run(tally, label, config, out)
        else:
            _check_adversary(tally, label, out, result["lfd_rows"][label])
    return tally
