"""The benchmark's workloads: CLI configs built from the workload seed.

Each workload is a list of CLI commands that one fresh process runs back to
back.  The seed reaches the program only through ``--seed-override``; the
configs themselves carry seed 0, the default seed whose report digests are
stored in ``digests.json``.

``smoke`` shrinks every stream and trial count so that the benchmark's own
tests can run each workload end to end in a few seconds.
"""

from __future__ import annotations

DEFAULT_SEED = 0


def _tree_reuse(smoke):
    stream = {"family": "tree", "n_features": 256, "k": 8, "d": 4, "s": 11,
              "mf_depth": 3, "m": 200, "sample_size": 64, "seed": 0}
    trials = 8
    if smoke:
        stream.update(n_features=64, k=4, m=30, sample_size=16)
        trials = 1
    return [("run", "tree", {"stream": stream,
                             "protocol": {"kind": "plain"},
                             "trials": trials})]


def _adversary_churn(smoke):
    game = {"n_prime": 100, "budgets": [0, 25, 50, 100], "trials": 400,
            "s": 1, "learners": ["scan", "uniform"]}
    regime = {"name": "large2", "n_features": 128, "k": 4, "m": 200,
              "r": 128, "sample_size": 16}
    if smoke:
        game["trials"] = 40
        regime.update(n_features=32, m=40, r=32, sample_size=8)
    return [("adversary", "adversary",
             {"seed": 0, "game": game, "regime": regime})]


def _rational(smoke):
    mono = {"family": "monomial", "n_features": 32, "k": 6, "d": 4,
            "m": 200, "sample_size": 64, "seed": 0}
    poly = {"family": "polynomial", "n_features": 12, "k": 6, "d": 3,
            "t": 3, "m": 300, "sample_size": 32, "seed": 0}
    trials = 3
    if smoke:
        trials = 1
        mono.update(n_features=8, k=3, m=20, sample_size=8)
        poly.update(n_features=6, k=3, m=20, sample_size=8)
    return [("run", "monomial", {"stream": mono,
                                 "protocol": {"kind": "plain"},
                                 "trials": trials}),
            ("run", "polynomial", {"stream": poly,
                                   "protocol": {"kind": "plain"},
                                   "trials": trials})]


_BUILDERS = {"tree-reuse": _tree_reuse, "adversary-churn": _adversary_churn,
             "rational": _rational}


def commands(name: str, smoke: bool = False):
    """[(cli command, label, config)] for one workload."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(_BUILDERS)}")
    return _BUILDERS[name](smoke)
