"""One workload operation in a fresh process.

Usage: python3 perfbench/child.py JOB.json

The job names the source tree, the CLI commands with their config files and
output directories, the workload seed and whether to trace.  The process
times its set-up (import probelearn, load every config, build every family,
including the orthogonal basis) apart from the commands themselves, which
run through ``probelearn.cli.main`` as the ``probelearn`` script would run
them.  It writes its figures to the job's result file and exits 0; a
command's nonzero exit code is reported, not raised.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
from time import perf_counter

REFERENCE_LOOPS = 250_000
SAMPLE_EVERY_S = 0.25


class HostSpeed:
    """Samples the host's speed while the workload runs.

    The host's speed drifts by up to 2x within seconds, in CPU time as much
    as in wall time.  Every ``SAMPLE_EVERY_S`` a timer signal interrupts the
    workload between two bytecodes and times a fixed pure-Python loop; the
    run scales every time the rep reports by the rep's mean loop time.  The
    samples' own duration is paused out of ``clock``.
    """

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0

    def sample(self, *_):
        t = perf_counter()
        x = 0
        for i in range(REFERENCE_LOOPS):
            x += i * i % 7
        d = perf_counter() - t
        self.samples.append(d)
        self.paused_s += d

    def clock(self) -> float:
        """Seconds elapsed outside the samples."""
        return perf_counter() - self.paused_s

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _setup(cli, protocol, commands):
    for command, path in commands:
        config = cli.load_config(path)
        if command == "adversary":
            protocol.TreeFamily(d=1, s=1, gain="teacher", improver="tree")
        else:
            spec = cli.build_spec(config.get("stream", {}))
            cli.build_family(spec, config.get("protocol", {}))


def _capture_runs(cli, runs):
    """Keep every protocol run the CLI makes: ``adversary`` writes only the
    regime's totals, so its per-task LFD rows are read from the run."""
    for attr in ("run_protocol", "run_restart_protocol"):
        fn = getattr(cli, attr)

        def capture(*args, _fn=fn, **kwargs):
            run = _fn(*args, **kwargs)
            runs.append(run)
            return run

        setattr(cli, attr, capture)


def _lfd_rows(runs):
    rows = []
    for run in runs:
        for outcome, probes, envelope in zip(run.outcomes, run.per_example_max,
                                             run.envelopes):
            if outcome == "lfd":
                rows.append((probes, envelope))
    return rows


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    host = HostSpeed()
    host.start()
    t0 = host.clock()
    sys.path.insert(0, job["src"])
    from probelearn import cli, protocol
    if not cli.__file__.startswith(job["src"]):
        raise SystemExit(f"probelearn imported from {cli.__file__}, "
                         f"not from {job['src']}")
    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer(host.clock)
        tracing.install(tracer)
    _setup(cli, protocol, [(c["command"], c["config"]) for c in job["commands"]])
    setup_s = host.clock() - t0

    runs = []
    _capture_runs(cli, runs)
    wall_s = 0.0
    codes = []
    lfd_rows = {}
    for c in job["commands"]:
        runs.clear()
        argv = [c["command"], "--config", c["config"], "--out", c["out"],
                "--jobs", "1", "--seed-override", str(job["seed"])]
        t = host.clock()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call("cli.command", True, cli.main, (argv,), {})
        wall_s += host.clock() - t
        codes.append(code)
        if c["command"] == "adversary":
            lfd_rows[c["label"]] = _lfd_rows(runs)
    host.stop()

    result = {
        "reference_s": sum(host.samples) / len(host.samples),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "codes": codes,
        "lfd_rows": lfd_rows,
    }
    if tracer is not None:
        result["per_layer"] = tracing.per_layer(tracer)
        result["hypotheses_checked"] = tracer.counts["hypotheses_checked"]
        result["hypothesis_failures"] = tracer.failures
        tracer.write_spans(job["spans"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
