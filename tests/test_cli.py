"""End-to-end CLI runs: exit codes, report schemas, byte-level determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from probelearn import ROW_FIELDS, SCHEMA_VERSION, cli
from probelearn.cli import (ADVERSARY_KEYS, GAME_FIELDS, GAME_KEYS,
                            PROTOCOL_KEYS, PROTOCOL_READS, REGIME_DEFAULTS,
                            REGIME_FIELDS, REGIME_KEYS, RUN_KEYS, STREAM_KEYS,
                            SWEEP_FIELDS, _checked_plan, build_spec, main,
                            sweep_plan)
from probelearn.errors import UsageError
from probelearn.protocol import TreeFamily, combined_slack
from probelearn.streams import (FAMILIES, GAME_LEARNERS, STREAM_READS,
                                TREE_FAMILIES)
from probelearn.tree_learners import bootstrap_count

TREE_CONFIG = {
    "stream": {"family": "tree", "n_features": 10, "k": 2, "d": 2, "s": 5,
               "m": 8, "sample_size": 6, "mf_depth": 2, "seed": 11},
    "protocol": {"kind": "plain"},
    "trials": 2,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def test_run_writes_frozen_reports(tmp_path):
    cfg = write_config(tmp_path, TREE_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    fields, rows = read_rows(out / "report.csv")
    assert fields == list(ROW_FIELDS)
    assert len(rows) == 2 * 8  # trials x m
    assert {r["trial"] for r in rows} == {"0", "1"}
    assert all(r["schema_version"] == str(SCHEMA_VERSION) for r in rows)

    doc = json.loads((out / "report.json").read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert len(doc["per_trial"]) == 2
    assert doc["violations_total"] == 0
    assert doc["config"]["stream"]["seed"] == 11


def test_run_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, TREE_CONFIG)
    outs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--jobs", jobs]) == 0
        outs.append(out)
    ref_csv = (outs[0] / "report.csv").read_bytes()
    ref_json = (outs[0] / "report.json").read_bytes()
    for out in outs[1:]:
        assert (out / "report.csv").read_bytes() == ref_csv
        assert (out / "report.json").read_bytes() == ref_json


POLY_CONFIG = {
    "stream": {"family": "polynomial", "n_features": 5, "k": 2, "d": 3,
               "t": 2, "m": 10, "sample_size": 4, "seed": 3},
    "trials": 3,
}


def test_run_builds_its_plan_once_per_process(tmp_path, monkeypatch):
    """The config check and every trial of a run in one process share one
    plan: a 3-trial polynomial run builds one orthogonal basis, not four.
    Its reports do not depend on --jobs."""
    monkeypatch.setattr(cli, "_PLAN", {})  # no plan left by an earlier test
    built = []
    build = cli.build_orthogonal_basis
    monkeypatch.setattr(cli, "build_orthogonal_basis",
                        lambda *args: built.append(args) or build(*args))
    cfg = write_config(tmp_path, POLY_CONFIG)
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--jobs", jobs]) == 0
        outs.append(out)
        if jobs == "1":
            assert len(built) == 1
    for name in ("report.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_seed_override_changes_the_stream(tmp_path):
    cfg = write_config(tmp_path, TREE_CONFIG)
    base, other = tmp_path / "base", tmp_path / "other"
    assert main(["run", "--config", cfg, "--out", str(base)]) == 0
    assert main(["run", "--config", cfg, "--out", str(other),
                 "--seed-override", "99"]) == 0
    doc = json.loads((other / "report.json").read_text())
    assert doc["config"]["stream"]["seed"] == 99
    assert "seed" not in doc["config"]  # the seed lives in the stream block
    assert ((base / "report.csv").read_bytes()
            != (other / "report.csv").read_bytes())


def test_usage_errors_exit_2(tmp_path):
    bad = dict(TREE_CONFIG, stream=dict(TREE_CONFIG["stream"], d=9))
    assert main(["run", "--config", write_config(tmp_path, bad),
                 "--out", str(tmp_path / "o1")]) == 2
    assert not (tmp_path / "o1").exists()
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o2")]) == 2
    assert not (tmp_path / "o2").exists()
    unknown = dict(TREE_CONFIG, protocol={"kind": "psychic"})
    assert main(["run", "--config", write_config(tmp_path, unknown, "u.json"),
                 "--out", str(tmp_path / "o3")]) == 2
    assert not (tmp_path / "o3").exists()
    typo = dict(TREE_CONFIG, protocol={"kind": "plain", "gain": "teachr"})
    assert main(["run", "--config", write_config(tmp_path, typo, "t.json"),
                 "--out", str(tmp_path / "o6")]) == 2
    assert not (tmp_path / "o6").exists()
    info = dict(OVERCOMPLETE_CONFIG, protocol={"gain": "info"})
    info_path = write_config(tmp_path, info, "i.json")
    assert main(["run", "--config", info_path,
                 "--out", str(tmp_path / "o10")]) == 2
    assert main(["sweep", "--config", info_path, "--out",
                 str(tmp_path / "o11"), "--axis", "m", "--values", "4"]) == 2
    assert not (tmp_path / "o10").exists()
    assert not (tmp_path / "o11").exists()
    good = write_config(tmp_path, TREE_CONFIG, "g.json")
    assert main(["sweep", "--config", good, "--out", str(tmp_path / "o4"),
                 "--axis", "q", "--values", "1,2"]) == 2
    assert not (tmp_path / "o4").exists()
    assert main(["sweep", "--config", good, "--out", str(tmp_path / "o5"),
                 "--axis", "m", "--values", ""]) == 2
    assert not (tmp_path / "o5").exists()
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    assert main(["run", "--config", good, "--out", str(taken)]) == 2
    assert taken.read_text() == "keep me"
    game = {"game": {"n_prime": 10, "budgets": [5], "trials": 5,
                     "learners": ["scan"]}}
    adversary = write_config(tmp_path, game, "a.json")
    for jobs in ("0", "-2"):
        for args in (["run", "--config", good],
                     ["sweep", "--config", good, "--axis", "m",
                      "--values", "4"],
                     ["adversary", "--config", adversary]):
            out = tmp_path / f"jobs{jobs}"
            assert main([*args, "--out", str(out), "--jobs", jobs]) == 2
            assert not out.exists()
    for trials in (1.5, True, "2", 0):
        bad = write_config(tmp_path, dict(TREE_CONFIG, trials=trials), "n.json")
        assert main(["run", "--config", bad, "--out", str(tmp_path / "o7")]) == 2
        assert main(["sweep", "--config", bad, "--out", str(tmp_path / "o8"),
                     "--axis", "m", "--values", "4"]) == 2
        bad_game = {"game": dict(game["game"], trials=trials)}
        assert main(["adversary", "--config",
                     write_config(tmp_path, bad_game, "n.json"),
                     "--out", str(tmp_path / "o9")]) == 2
        for name in ("o7", "o8", "o9"):
            assert not (tmp_path / name).exists()


GAME = {"n_prime": 10, "budgets": [5], "trials": 5, "s": 1,
        "learners": ["scan"]}
REGIME = {"name": "realizable", "n_features": 10, "k": 2, "m": 8, "r": 0,
          "sample_size": 4}
RESTART_CONFIG = dict(TREE_CONFIG, protocol={"kind": "restart", "k_cap": 2})
BOOTSTRAP_CONFIG = dict(TREE_CONFIG, protocol={"kind": "bootstrap"})
OVERCOMPLETE_CONFIG = {"stream": {"family": "overcomplete", "n_features": 10,
                                  "k1": 2, "k2": 3, "m": 15, "sample_size": 8}}


def with_stream(**kw):
    return dict(TREE_CONFIG, stream=dict(TREE_CONFIG["stream"], **kw))


def with_protocol(base, **kw):
    return dict(base, protocol=dict(base["protocol"], **kw))


def overcomplete(protocol=None, **kw):
    """OVERCOMPLETE_CONFIG with stream keys `kw` and a protocol block."""
    cfg = {"stream": dict(OVERCOMPLETE_CONFIG["stream"], **kw)}
    return cfg if protocol is None else dict(cfg, protocol=protocol)


NUMERIC_CASES = {
    "budget-float": ("adversary", {"game": dict(GAME, budgets=[5.9])}, []),
    "budget-negative": ("adversary", {"game": dict(GAME, budgets=[-1])}, []),
    "budgets-not-a-list": ("adversary", {"game": dict(GAME, budgets=5)}, []),
    "n_prime-float": ("adversary", {"game": dict(GAME, n_prime=10.7)}, []),
    "n_prime-zero": ("adversary", {"game": dict(GAME, n_prime=0)}, []),
    "s-float": ("adversary", {"game": dict(GAME, s=1.5)}, []),
    "seed-string": ("adversary", {"seed": "3", "game": GAME}, []),
    "regime-n_features-float": (
        "adversary", {"game": GAME, "regime": dict(REGIME, n_features=10.5)},
        []),
    "regime-k-bool": ("adversary",
                      {"game": GAME, "regime": dict(REGIME, k=True)}, []),
    "regime-m-string": ("adversary",
                        {"game": GAME, "regime": dict(REGIME, m="8")}, []),
    "regime-r-negative": ("adversary",
                          {"game": GAME, "regime": dict(REGIME, r=-1)}, []),
    "regime-sample_size-float": (
        "adversary", {"game": GAME, "regime": dict(REGIME, sample_size=4.0)},
        []),
    "run-slack-float": (
        "run", dict(RESTART_CONFIG, protocol=dict(RESTART_CONFIG["protocol"],
                                                  slack=1.5)), []),
    "sweep-slack-string": (
        "sweep", dict(RESTART_CONFIG, protocol=dict(RESTART_CONFIG["protocol"],
                                                    slack="2")),
        ["--axis", "m", "--values", "4"]),
    "sweep-values-letter": ("sweep", TREE_CONFIG,
                            ["--axis", "m", "--values", "3,x"]),
    "sweep-values-float": ("sweep", TREE_CONFIG,
                           ["--axis", "c", "--values", "1.5"]),
    "stream-n_features-string": ("run", with_stream(n_features="10"), []),
    "stream-m-float": ("run", with_stream(m=8.5), []),
    "k_cap-string": ("run", with_protocol(RESTART_CONFIG, k_cap="2"), []),
    "protocol-r-float": (
        "run", with_protocol(TREE_CONFIG, kind="combined", r=1.5), []),
    "n_bootstrap-string": (
        "run", with_protocol(BOOTSTRAP_CONFIG, n_bootstrap="3"), []),
    "bootstrap-delta-zero": (
        "run", with_protocol(BOOTSTRAP_CONFIG, delta=0), []),
    "bootstrap-delta-ten": (
        "run", with_protocol(BOOTSTRAP_CONFIG, delta=10), []),
    "bootstrap-delta-one": (
        "run", with_protocol(BOOTSTRAP_CONFIG, delta=1), []),
    # stream errors that depend only on the spec
    "list-pools-no-room": ("run", {"stream": {
        "family": "list", "n_features": 6, "k": 3, "mf_depth": 3, "d": 4}},
        []),
    "mf_depth-zero-tree": ("run", with_stream(mf_depth=0), []),
    "mf_depth-zero-list": ("run", with_stream(family="list", mf_depth=0), []),
    "mf_depth-zero-anchor": (
        "run", with_stream(family="anchor", mf_depth=0), []),
    "r-on-list": ("run", with_stream(family="list", r=1), []),
    "r-on-overcomplete": (
        "run", with_stream(family="overcomplete", k1=2, k2=2, r=1), []),
    "r-on-polynomial": ("run", with_stream(family="polynomial", r=1), []),
    "tree-no-bad-target-pool": (
        "run", with_stream(n_features=4, d=3, r=1), []),
    "anchor-no-bad-target-pool": (
        "run", with_stream(family="anchor", n_features=4, d=3, r=1), []),
    "monomial-r-k-too-large": ("run", {"stream": {
        "family": "monomial", "n_features": 3, "k": 3, "r": 1}}, []),
    "strict-string": ("run", dict(TREE_CONFIG, strict="no"), []),
    "kind-unknown": ("run", with_protocol(TREE_CONFIG, kind="psychic"), []),
    "learners-string": ("adversary", {"game": dict(GAME, learners="scan")},
                        []),
    "learners-unknown": (
        "adversary", {"game": dict(GAME, learners=["psychic"])}, []),
    "regime-name-unknown": (
        "adversary", {"game": GAME, "regime": dict(REGIME, name="large3")},
        []),
    "regime-large2-r-too-small": (
        "adversary", {"game": GAME, "regime": dict(REGIME, name="large2")},
        []),
    "sweep-K-second-value-too-large": ("sweep", TREE_CONFIG,
                                       ["--axis", "K", "--values", "2,99"]),
    # each tree stream runs its own family's ImproveRep: no config picks one
    "overcomplete-improver-on-tree": (
        "run", with_protocol(TREE_CONFIG, improver="overcomplete"), []),
    "overcomplete-improver-on-list": (
        "run", dict(with_stream(family="list"),
                    protocol={"improver": "overcomplete"}), []),
    "overcomplete-improver-on-anchor": (
        "run", dict(with_stream(family="anchor"),
                    protocol={"improver": "overcomplete"}), []),
    # only the restart and combined protocols read the slack axis c sets
    "sweep-c-plain": ("sweep", TREE_CONFIG, ["--axis", "c", "--values", "1"]),
    "sweep-c-bootstrap": ("sweep", BOOTSTRAP_CONFIG,
                          ["--axis", "c", "--values", "0,5"]),
}


def no_work(*args, **kwargs):
    raise AssertionError("a trial or game ran before the config check")


def usage_error(tmp_path, capsys, monkeypatch, command, cfg, extra=()):
    """Run `command` on `cfg` with trials and games stubbed out; -> its one
    `error:` line, after checking exit 2 and that no output dir was made."""
    monkeypatch.setattr(cli, "run_trial", no_work)
    monkeypatch.setattr(cli, "play_single_feature_game", no_work)
    out = tmp_path / "o"
    args = [command, "--config", write_config(tmp_path, cfg),
            "--out", str(out), *extra]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()
    return err[0]


@pytest.mark.parametrize("case", sorted(NUMERIC_CASES))
def test_numeric_fields_exit_2(tmp_path, capsys, monkeypatch, case):
    """Config values of the wrong type or out of range are usage errors,
    reported before any trial or game runs and before the output dir is
    made."""
    usage_error(tmp_path, capsys, monkeypatch, *NUMERIC_CASES[case])


# -- every accepted key is one the run reads --------------------------------

# a value of the right type and range for every run key; the full config of
# a (family, kind) sets each key it reads, and these values fit together
STREAM_VALUES = {"n_features": 16, "k": 2, "d": 2, "s": 5, "t": 2, "m": 6,
                 "r": 1, "sample_size": 6, "mf_depth": 2,
                 "placement": "random", "p_min": 0.25, "k1": 2, "k2": 2,
                 "seed": 0}
PROTOCOL_VALUES = {"gain": "teacher", "k_cap": 2, "slack": 1,
                   "n_bootstrap": 2}
KINDS = PROTOCOL_KEYS["kind"][1]
FAMILY_KINDS = [(family, kind) for family in FAMILIES for kind in KINDS]


def protocol_reads(family, kind):
    tree = ("gain",) if family in TREE_FAMILIES else ()
    return {"kind", *tree, *PROTOCOL_READS[kind]}


def full_config(family, kind):
    stream = dict(STREAM_VALUES, family=family)
    proto = dict(PROTOCOL_VALUES, kind=kind)
    return {"stream": {key: stream[key] for key in STREAM_READS[family]},
            "protocol": {key: proto[key] for key in protocol_reads(family, kind)},
            "trials": 1}


def test_read_tables_are_total():
    assert set(STREAM_READS) == set(FAMILIES)
    assert set(PROTOCOL_READS) == set(KINDS)
    assert set().union(*STREAM_READS.values()) == set(STREAM_KEYS)
    assert set().union(*(protocol_reads(f, k) for f, k in FAMILY_KINDS)) \
        == set(PROTOCOL_KEYS)
    assert set(STREAM_VALUES) | {"family"} == set(STREAM_KEYS)
    assert set(PROTOCOL_VALUES) | {"kind"} == set(PROTOCOL_KEYS)
    assert set(PROTOCOL_KEYS) == {"kind", "gain", "k_cap", "slack",
                                  "n_bootstrap"}
    assert "k" not in STREAM_READS["overcomplete"]
    for family, kind, keys in (("monomial", "plain", 11),
                               ("tree", "plain", 15),
                               ("tree", "combined", 17),
                               ("overcomplete", "bootstrap", 15)):
        assert sum(len(block) if isinstance(block, dict) else 1
                   for block in full_config(family, kind).values()) == keys


@pytest.mark.parametrize("family, kind", FAMILY_KINDS)
def test_full_config_passes_the_check(family, kind):
    cfg = full_config(family, kind)
    assert _checked_plan(cfg)[0].family == family


@pytest.mark.parametrize("family, kind", FAMILY_KINDS)
def test_unread_keys_exit_2(tmp_path, capsys, monkeypatch, family, kind):
    """Each stream or protocol key that the (family, kind) does not read is
    a usage error naming the family or kind and the key."""
    base = full_config(family, kind)
    unread = [("stream", key, STREAM_VALUES[key], family)
              for key in sorted(set(STREAM_KEYS) - set(STREAM_READS[family]))]
    unread += [("protocol", key, PROTOCOL_VALUES[key], kind)
               for key in sorted(set(PROTOCOL_KEYS)
                                 - protocol_reads(family, kind))]
    assert unread
    for block, key, value, owner in unread:
        cfg = dict(base, **{block: dict(base[block], **{key: value})})
        err = usage_error(tmp_path, capsys, monkeypatch, "run", cfg)
        assert err == f"error: the {owner} {block} does not read {[key]}"


UNREAD_CASES = {
    # each of these two once ran to the report of the run without its keys;
    # improver is no protocol key, and unknown keys are named first
    "gain-improver-on-monomial": ("run", {
        "stream": {"family": "monomial", "m": 10, "n_features": 6},
        "protocol": {"gain": "info", "improver": "list"}}, [],
        "unknown protocol fields: ['improver']"),
    "slack-k_cap-on-plain": (
        "run", with_protocol(TREE_CONFIG, slack=7, k_cap=1), [],
        "the plain protocol does not read ['k_cap', 'slack']"),
    "s-on-monomial": ("run", {"stream": {"family": "monomial", "s": 8}}, [],
                      "the monomial stream does not read ['s']"),
    "r-zero-on-polynomial": (
        "run", {"stream": {"family": "polynomial", "r": 0}}, [],
        "the polynomial stream does not read ['r']"),
    "p_min-on-list": ("run", with_stream(family="list", p_min=0.1), [],
                      "the list stream does not read ['p_min']"),
    # delta is fixed at 0.1 and p_min is the stream's: no protocol kind has
    # either of its own
    "delta-on-restart": ("run", with_protocol(RESTART_CONFIG, delta=0.5), [],
                         "unknown protocol fields: ['delta']"),
    # r is the stream's: combined's default slack reads stream.r, and no
    # protocol kind has an r of its own
    "r-on-restart": ("run", with_protocol(RESTART_CONFIG, r=1), [],
                     "unknown protocol fields: ['r']"),
    "r-slack-on-combined": (
        "run", dict(with_stream(r=1),
                    protocol={"kind": "combined", "slack": 1, "r": 5}), [],
        "unknown protocol fields: ['r']"),
    "sweep-r-polynomial": (
        "sweep", {"stream": {"family": "polynomial"}},
        ["--axis", "r", "--values", "0"],
        "the polynomial stream does not read ['r']"),
    # placement only places the r bad tasks; these ran to the report of the
    # config without it
    "placement-without-r": (
        "run", with_stream(placement="adversarial-first"), [],
        "the tree stream does not read ['placement']"),
    "placement-at-r-zero-monomial": (
        "run", {"stream": {"family": "monomial", "r": 0,
                           "placement": "random"}}, [],
        "the monomial stream does not read ['placement']"),
    "sweep-r-zero-placement": (
        "sweep", with_stream(r=1, placement="random"),
        ["--axis", "r", "--values", "1,0"],
        "the tree stream does not read ['placement']"),
    # K1 x K2 sizes an overcomplete dictionary and is the default k_cap, so
    # no kind reads k; these ran to the report of the config without k
    "k-on-overcomplete-plain": (
        "run", overcomplete(k=2), [],
        "the overcomplete stream does not read ['k']"),
    "sweep-K-overcomplete": (
        "sweep", OVERCOMPLETE_CONFIG, ["--axis", "K", "--values", "2,5"],
        "the overcomplete stream does not read ['k']"),
    "k-k_cap-on-overcomplete-restart": (
        "run", overcomplete(k=2, protocol={"kind": "restart", "k_cap": 2}),
        [], "the overcomplete stream does not read ['k']"),
    "k-on-overcomplete-restart": (
        "run", overcomplete(k=2, protocol={"kind": "restart"}), [],
        "the overcomplete stream does not read ['k']"),
    "k-on-overcomplete-combined": (
        "run", overcomplete(k=2, protocol={"kind": "combined"}), [],
        "the overcomplete stream does not read ['k']"),
    "n_bootstrap-p_min-on-bootstrap": (
        "run", with_protocol(BOOTSTRAP_CONFIG, n_bootstrap=2, p_min=0.5), [],
        "unknown protocol fields: ['p_min']"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_CASES))
def test_named_unread_keys_exit_2(tmp_path, capsys, monkeypatch, case):
    command, cfg, extra, message = UNREAD_CASES[case]
    err = usage_error(tmp_path, capsys, monkeypatch, command, cfg, extra)
    assert err == f"error: {message}"


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", ["restart", "combined"])
def test_default_k_cap_is_the_dictionary_size(family, kind):
    """The default k_cap is K: the stream's k (2), or K1 x K2 (4) on an
    overcomplete stream, whose k stays at its unread default 3.  Combined's
    default slack reads that K."""
    cfg = full_config(family, kind)
    del cfg["protocol"]["k_cap"], cfg["protocol"]["slack"]
    spec, _, _, (k_cap, slack) = _checked_plan(cfg)
    assert (spec.k, k_cap) == ((3, 4) if family == "overcomplete" else (2, 2))
    assert slack == (0 if kind == "restart" else combined_slack(
        spec.r, k_cap, spec.n_features, spec.m + spec.r))


@pytest.mark.parametrize("stream, count", [
    # ceil(ln(K / 0.1) / p_min), capped at the stream's m + r tasks
    (dict(TREE_CONFIG["stream"], p_min=0.5), 6),  # K = 2: ln 20 / 0.5
    (TREE_CONFIG["stream"], 12),  # p_min 0 falls back to 0.25; m = 8
    (dict(OVERCOMPLETE_CONFIG["stream"], p_min=0.1), 41),  # K = 6: ln 60
    (OVERCOMPLETE_CONFIG["stream"], 17),  # ln 60 / 0.25; m = 15
    ({"family": "monomial", "k": 3}, 14),  # no p_min read: ln 30 / 0.25
])
def test_bootstrap_count_reads_the_stream_p_min(stream, count):
    spec, _, kind, args = _checked_plan(
        {"stream": stream, "protocol": {"kind": "bootstrap"}})
    assert bootstrap_count(spec.p_min or 0.25, spec.dictionary_size,
                           0.1) == count
    assert (kind, args) == ("bootstrap", (min(count, spec.m + spec.r),))
    # an explicit n_bootstrap wins, 0 included
    for n in (0, 3):
        assert _checked_plan({"stream": stream, "protocol": {
            "kind": "bootstrap", "n_bootstrap": n}})[3] == (n,)


@pytest.mark.parametrize("stream", [
    {"family": "tree", "m": 5}, {"family": "anchor", "m": 4, "r": 2},
    dict(OVERCOMPLETE_CONFIG["stream"], m=5)], ids=["tree", "anchor", "oc"])
@pytest.mark.parametrize("p_min", [1e-320, 1e-9])
def test_tiny_p_min_bootstraps_every_task(tmp_path, stream, p_min):
    """ln(K/0.1)/p_min is infinite at a subnormal p_min and about 3.4e9 at
    1e-9; either way the plan bootstraps the stream's m + r tasks, and the
    run scratch-learns every one of them."""
    cfg = {"stream": dict(stream, p_min=p_min),
           "protocol": {"kind": "bootstrap"}}
    tasks = stream["m"] + stream.get("r", 0)
    assert _checked_plan(cfg)[3] == (tasks,)
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    _, rows = read_rows(out / "report.csv")
    assert [row["outcome"] for row in rows] == ["bootstrap"] * tasks


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("key, value", [
    ("p_min", 0.5), ("delta", 0.1), ("strict_envelope_scale", 1.0),
    ("improver", "tree"), ("improver", "list")])
def test_removed_protocol_keys_exit_2(tmp_path, capsys, monkeypatch, kind,
                                      key, value):
    """p_min is the stream's, delta is fixed at 0.1, a violation is any LFD
    row above its envelope and each tree stream runs its own family's
    ImproveRep, so no protocol kind reads these keys."""
    cfg = dict(TREE_CONFIG, protocol={"kind": kind, key: value})
    err = usage_error(tmp_path, capsys, monkeypatch, "run", cfg)
    assert err == f"error: unknown protocol fields: {[key]}"


def test_d_above_s_binds_only_tree_families(tmp_path):
    cfg = {"stream": {"family": "monomial", "m": 5, "n_features": 12, "d": 8}}
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 0


def test_sweep_axis_r_sets_protocol_r_only_where_the_config_does():
    """The r axis sets stream.r and leaves the protocol block as the config
    gives it; a config that sets protocol.r, which no kind reads, is a
    usage error."""
    restart = with_stream(r=1)
    restart["protocol"] = {"kind": "restart", "k_cap": 2}
    for kind in ("restart", "combined"):
        cfg = with_protocol(restart, kind=kind)
        plan = sweep_plan(cfg, "r", "0,1")
        assert [c["stream"]["r"] for _, c, _ in plan] == [0, 1]
        assert [c["protocol"] for _, c, _ in plan] == [cfg["protocol"]] * 2
        with pytest.raises(UsageError, match=re.escape("['r']")):
            sweep_plan(with_protocol(cfg, r=5), "r", "0,1")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("command, extra", [
    ("run", []), ("sweep", ["--axis", "m", "--values", "4"])])
def test_protocol_r_exits_2(tmp_path, capsys, monkeypatch, command, extra,
                            kind):
    """r is a stream key only: a protocol block that sets it is a usage
    error on every kind, with or without an explicit slack."""
    for proto in ({"kind": kind, "r": 1}, {"kind": kind, "r": 0, "slack": 1}):
        cfg = dict(with_stream(r=1), protocol=proto)
        err = usage_error(tmp_path, capsys, monkeypatch, command, cfg, extra)
        assert err == "error: unknown protocol fields: ['r']"


def test_sweep_axis_r_of_combined_reads_the_stream_r(tmp_path):
    """Per value of the r axis, combined's plan slack and the sweep's
    envelope both read the stream's r."""
    cfg = dict(with_stream(), protocol={"kind": "combined"}, trials=1)
    stream = cfg["stream"]
    plan = sweep_plan(cfg, "r", "0,2")
    for (value, _, (spec, _, kind, args)) in plan:
        assert (spec.r, kind) == (value, "combined")
        assert args == (stream["k"], combined_slack(
            value, stream["k"], stream["n_features"], stream["m"] + value))
    out = tmp_path / "rsweep"
    assert main(["sweep", "--config", write_config(tmp_path, cfg),
                 "--out", str(out), "--axis", "r", "--values", "0,2"]) == 0
    _, rows = read_rows(out / "sweep.csv")
    envelopes = [float(row["envelope"]) for row in rows]
    assert envelopes == [cli.sweep_envelope("combined", spec)
                         for _, _, (spec, _, _, _) in plan]
    assert envelopes[0] != envelopes[1]


def readme_table(start, end, blocks):
    """{block: {key: (row's key cell, row's last cells)}} for each row of
    README's table between the headings `start` and `end` whose first cell
    is one of `blocks`; each key is listed once."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = {block: {} for block in blocks}
    for line in text[text.index(start):text.index(end)].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells[0] in listed:
            for key in re.findall(r"`(\w+)`", cells[1]):
                assert key not in listed[cells[0]], key
                listed[cells[0]][key] = (cells[1], tuple(cells[3:]))
    return listed


def test_readme_config_table_matches_the_key_tables():
    """README's run-config table lists exactly the stream, protocol and
    top-level keys, and each key's readers."""
    listed = readme_table("Config for `run`/`sweep`", "Config for `adversary`",
                          ("`stream`", "`protocol`", "top level"))
    listed = {block: {key: set(re.findall(r"`(\w+)`", rest[1]))
                      for key, (_, rest) in rows.items()}
              for block, rows in listed.items()}
    assert set(listed["`stream`"]) == set(STREAM_KEYS)
    assert set(listed["`protocol`"]) == set(PROTOCOL_KEYS)
    assert set(listed["top level"]) == {
        key for key, value in RUN_KEYS.items() if not isinstance(value, dict)}
    for key, names in listed["`stream`"].items():
        readers = {f for f in FAMILIES if key in STREAM_READS[f]}
        assert (names & set(FAMILIES) or set(FAMILIES)) == readers, key
    for key, names in listed["`protocol`"].items():
        readers = {k for k in KINDS if key in protocol_reads("tree", k)}
        assert (names & set(KINDS) or set(KINDS)) == readers, key


def test_readme_adversary_table_matches_the_key_tables():
    """README's adversary table lists exactly the top-level, game and
    regime keys, and the regime defaults that `cmd_adversary` runs."""
    listed = readme_table("Config for `adversary`", "Without a `regime`",
                          ("top level", "`game`", "`regime`"))
    assert set(listed["top level"]) == {
        key for key, value in ADVERSARY_KEYS.items()
        if not isinstance(value, dict)}
    assert set(listed["`game`"]) == set(GAME_KEYS)
    assert set(listed["`regime`"]) == set(REGIME_KEYS) == set(REGIME_DEFAULTS)
    for keys, (defaults,) in set(listed["`regime`"].values()):
        keys = re.findall(r"`(\w+)`", keys)
        defaults = [d.strip("` ") for d in defaults.split(",")]
        assert defaults == [str(REGIME_DEFAULTS[key]) for key in keys], keys


@pytest.mark.parametrize("command, cfg, key", [
    ("run", dict(TREE_CONFIG, trial=3), "trial"),
    ("run", dict(TREE_CONFIG, protocol={"kind": "plain", "gian": "info",
                                        "k_cp": 1}), "gian"),
    ("run", dict(TREE_CONFIG, stream=dict(TREE_CONFIG["stream"],
                                          n_feature=8)), "n_feature"),
    ("sweep", dict(TREE_CONFIG, trial=3), "trial"),
    ("sweep", dict(TREE_CONFIG, protocol={"kind": "restart", "slak": 1}),
     "slak"),
    ("adversary", {"seed": 1, "game": GAME, "learner": "scan",
                   "regim": REGIME}, "learner"),
    ("adversary", {"game": dict(GAME, budget=[5])}, "budget"),
    ("adversary", {"game": GAME, "regime": dict(REGIME, n_feature=10)},
     "n_feature"),
    ("run", dict(TREE_CONFIG, seed=5), "seed"),  # the seed is stream.seed
])
def test_unknown_config_keys_exit_2(tmp_path, capsys, command, cfg, key):
    out = tmp_path / "o"
    args = [command, "--config", write_config(tmp_path, cfg),
            "--out", str(out)]
    if command == "sweep":
        args += ["--axis", "m", "--values", "4"]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown ")
    assert repr(key) in err[0]
    assert not out.exists()  # no output dir, let alone a report


@pytest.mark.parametrize("command, cfg", [
    ("run", [TREE_CONFIG]),
    ("run", dict(TREE_CONFIG, protocol="plain")),
    ("adversary", {"game": ["scan"]}),
])
def test_non_object_config_blocks_exit_2(tmp_path, capsys, command, cfg):
    args = [command, "--config", write_config(tmp_path, cfg),
            "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert "must be" in capsys.readouterr().err


def test_learner_failure_exits_1_with_one_error_line(tmp_path, capsys):
    # greedy info gain outgrows the depth cap d = 4 on a scratch learn here
    cfg = {"stream": {"family": "tree", "n_features": 40, "k": 4, "d": 4,
                      "s": 9, "mf_depth": 3, "m": 60, "sample_size": 24,
                      "seed": 3},
           "protocol": {"gain": "info"}}
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: RealizabilityError: mixed sample at depth cap 4"]


def test_build_spec_rejects_unknown_fields():
    with pytest.raises(UsageError):
        build_spec({"family": "tree", "n_feature": 8})


def zero_envelope(monkeypatch):
    """Make every tree LFD row that probes a violation: its per-example
    count is above an envelope of 0."""
    monkeypatch.setattr(TreeFamily, "envelope", lambda self, rep: 0)


def test_strict_flag_reports_violations(tmp_path, monkeypatch):
    zero_envelope(monkeypatch)
    path = write_config(tmp_path, TREE_CONFIG)
    relaxed = tmp_path / "relaxed"
    assert main(["run", "--config", path, "--out", str(relaxed)]) == 0
    doc = json.loads((relaxed / "report.json").read_text())
    assert doc["violations_total"] > 0  # every LFD probe beats a zero budget
    _, rows = read_rows(relaxed / "report.csv")
    assert doc["violations_total"] == sum(
        row["outcome"] == "lfd" and int(row["per_example_max"]) > 0
        for row in rows)
    assert main(["run", "--config", path, "--out", str(tmp_path / "strict"),
                 "--strict"]) == 1


def test_sweep_axis_m(tmp_path):
    cfg = write_config(tmp_path, TREE_CONFIG)
    out = tmp_path / "sweep"
    args = ["sweep", "--config", cfg, "--out", str(out),
            "--axis", "m", "--values", "4,8"]
    assert main(args) == 0
    fields, rows = read_rows(out / "sweep.csv")
    assert fields == SWEEP_FIELDS
    assert len(rows) == 2 * 2  # values x trials
    assert [r["value"] for r in rows] == ["4", "4", "8", "8"]
    assert all(r["family"] == "tree" for r in rows)
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["axis"] == "m" and doc["values"] == [4, 8]

    out2 = tmp_path / "sweep2"
    assert main(args[:4] + [str(out2)] + args[5:]) == 0
    assert ((out / "sweep.csv").read_bytes()
            == (out2 / "sweep.csv").read_bytes())


def test_sweep_envelope_of_overcomplete_uses_k1_times_k2(tmp_path):
    # S (K N + m K d) with K = K1 K2 = 6, N = 10, m = 10, d = 3, S = 8
    path = write_config(tmp_path, overcomplete(m=10))
    out = tmp_path / "oc"
    assert main(["sweep", "--config", path, "--out", str(out),
                 "--axis", "m", "--values", "10"]) == 0
    _, rows = read_rows(out / "sweep.csv")
    assert rows and {float(r["envelope"]) for r in rows} == {1920.0}


def test_sweep_axis_c_sets_restart_slack(tmp_path):
    cfg = dict(TREE_CONFIG)
    cfg["protocol"] = {"kind": "restart", "k_cap": 2}
    cfg["trials"] = 1
    path = write_config(tmp_path, cfg)
    out = tmp_path / "csweep"
    assert main(["sweep", "--config", path, "--out", str(out),
                 "--axis", "c", "--values", "1,3"]) == 0
    _, rows = read_rows(out / "sweep.csv")
    assert [r["value"] for r in rows] == ["1", "3"]


def test_adversary_game_and_regime(tmp_path):
    cfg = {"seed": 5,
           "game": {"n_prime": 12, "budgets": [0, 6, 12], "trials": 50,
                    "s": 1, "learners": ["scan", "exhaustive"]},
           "regime": {"name": "realizable", "n_features": 10, "k": 2,
                      "m": 8, "r": 0, "sample_size": 4}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "adv"
    assert main(["adversary", "--config", path, "--out", str(out)]) == 0

    fields, rows = read_rows(out / "adversary.csv")
    assert fields == GAME_FIELDS
    assert len(rows) == 2 * 3
    table = {(r["learner"], r["budget"]): r for r in rows}
    # full budget: exhaustive scan always finds the needle
    assert table[("exhaustive", "12")]["failure_rate"] == "0.0"
    # zero budget: any probe forfeits the exhaustive learner
    assert table[("exhaustive", "0")]["failure_rate"] == "1.0"
    scan0 = float(table[("scan", "0")]["failure_rate"])
    assert scan0 >= game_bound_minus_noise(12, 0)

    rfields, rrows = read_rows(out / "regime.csv")
    assert rfields == REGIME_FIELDS
    assert len(rrows) == 1
    assert rrows[0]["stream_len"] == "8"
    assert rrows[0]["good_count"] == "8"
    doc = json.loads((out / "adversary.json").read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert len(doc["game"]) == 6 and len(doc["regime"]) == 1


def game_bound_minus_noise(n_prime, budget, slack=0.15):
    return max((n_prime - budget - 1) / n_prime - slack, 0.0)


def test_adversary_is_deterministic(tmp_path):
    cfg = {"seed": 9, "game": {"n_prime": 10, "budgets": [5], "trials": 40,
                               "s": 1, "learners": ["uniform"]}}
    path = write_config(tmp_path, cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["adversary", "--config", path, "--out", str(a)]) == 0
    assert main(["adversary", "--config", path, "--out", str(b)]) == 0
    assert (a / "adversary.csv").read_bytes() == (b / "adversary.csv").read_bytes()


def test_adversary_realizable_regime_runs_exactly_m_tasks(tmp_path):
    # K = 2: m = 1 poses one stump, not K
    cfg = {"game": GAME, "regime": dict(REGIME, m=1)}
    out = tmp_path / "adv"
    assert main(["adversary", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    _, rows = read_rows(out / "regime.csv")
    assert [(r["m"], r["stream_len"], r["good_count"]) for r in rows] \
        == [("1", "1", "1")]


def test_empty_regime_block_runs_the_default_regime(tmp_path):
    """Every regime key has a default, so `"regime": {}` runs the default
    realizable regime, as a block that sets only a default value does."""
    rows = {}
    for name, regime in (("empty", {}), ("k", {"k": REGIME_DEFAULTS["k"]})):
        out = tmp_path / name
        cfg = {"game": GAME, "regime": regime}
        assert main(["adversary", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        _, rows[name] = read_rows(out / "regime.csv")
    assert rows["empty"] == rows["k"]
    (row,) = rows["empty"]
    d = REGIME_DEFAULTS
    assert (row["regime"], row["n_features"], row["k"], row["m"], row["r"],
            row["stream_len"], row["envelope"]) == (
        d["name"], str(d["n_features"]), str(d["k"]), str(d["m"]), str(d["r"]),
        str(d["m"]),
        str(d["sample_size"] * (d["k"] * d["n_features"] + d["m"] * d["k"])))


def test_adversary_has_no_strict_flag(tmp_path, capsys):
    # --strict reads per-example violations, which only run and sweep count
    path = write_config(tmp_path, {"game": GAME})
    with pytest.raises(SystemExit) as exc:
        main(["adversary", "--config", path, "--out", str(tmp_path / "o"),
              "--strict"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strict" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_import_leaves_the_process_pool_unloaded():
    # only --jobs > 1 needs concurrent.futures; a one-job run never pays
    # for importing it
    code = ("import sys, probelearn.cli; "
            "print(any(m.split('.')[0] == 'concurrent' for m in sys.modules))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_adversary_reports_do_not_depend_on_jobs(tmp_path):
    cfg = {"seed": 4,
           "game": {"n_prime": 12, "budgets": [0, 3, 6, 12], "trials": 30,
                    "s": 1, "learners": ["scan", "uniform", "exhaustive"]},
           "regime": REGIME}
    path = write_config(tmp_path, cfg)
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["adversary", "--config", path, "--out", str(out),
                     "--jobs", jobs]) == 0
        outs.append(out)
    for name in ("adversary.csv", "regime.csv", "adversary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def exact_game_failure(learner, n_prime, budget, s):
    """A game's failure probability.  `scan` and `uniform` read L =
    min(B // S, N') features (a miss costs 1 probe, i* costs S, but each
    stops after B // S features) and guess among the N' - L unread ones
    when i* is not among them.  `exhaustive` reads every feature in turn
    and forfeits when i* sits past position B - S."""
    if learner == "exhaustive":
        return 1 - Fraction(min(n_prime, max(budget - s + 1, 0)), n_prime)
    read = min(budget // s, n_prime)
    return Fraction(max(n_prime - read - 1, 0), n_prime)


def test_game_failure_rates_match_the_closed_form():
    """Over N' in {1, 7, 100}, S in {1, 2, 4} and budgets from 0 to S N',
    every learner's simulated failure count lies within 4 standard errors
    of its closed-form rate, and exactly on it where the rate is 0 or 1."""
    learners, games = list(GAME_LEARNERS), 2000
    cells = 0
    for n_prime in (1, 7, 100):
        for s in (1, 2, 4):
            top = s * n_prime
            budgets = sorted({0, 1, s, top // 4, top // 2, top - 1, top})
            for budget in budgets:
                lost = cli._game_failures(0, n_prime, budget, games, s,
                                          learners)
                for learner, failures in zip(learners, lost):
                    p = exact_game_failure(learner, n_prime, budget, s)
                    cells += 1
                    if p in (0, 1):
                        assert failures == p * games, (learner, n_prime, s,
                                                       budget)
                        continue
                    se = math.sqrt(p * (1 - p) / games)
                    z = (failures / games - p) / se
                    assert abs(z) <= 4, (learner, n_prime, s, budget, z)
    assert cells == 147


@pytest.mark.parametrize("name", ["intermediate", "large2"])
def test_zero_task_regimes_exit_2(tmp_path, capsys, monkeypatch, name):
    """r_min divides by m, so an intermediate or large2 regime with no tasks
    is a usage error raised before any game, not a ZeroDivisionError."""
    cfg = {"game": GAME, "regime": dict(REGIME, name=name, m=0, r=5)}
    line = usage_error(tmp_path, capsys, monkeypatch, "adversary", cfg)
    assert "m >= 1" in line


# -- one plan per config ----------------------------------------------------

@pytest.mark.parametrize("command, extra", [
    ("run", []), ("sweep", ["--axis", "m", "--values", "4,8"])])
def test_strict_says_why_it_fails(tmp_path, capsys, monkeypatch, command,
                                  extra):
    """Under --strict, run and sweep exit 1 with one line that counts the
    violations; without it they exit 0 and say nothing."""
    zero_envelope(monkeypatch)
    path = write_config(tmp_path, TREE_CONFIG)
    assert main([command, "--config", path, "--out", str(tmp_path / "a"),
                 *extra]) == 0
    assert capsys.readouterr().err == ""
    assert main([command, "--config", path, "--out", str(tmp_path / "b"),
                 "--strict", *extra]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    match = re.fullmatch(r"strict: (\d+) per-example bound violations", err[0])
    assert match and int(match.group(1)) > 0
    if command == "run":
        doc = json.loads((tmp_path / "b" / "report.json").read_text())
        assert int(match.group(1)) == doc["violations_total"]


def test_sweep_reports_do_not_depend_on_jobs(tmp_path):
    """The sweep's one pool runs every (value, trial) pair and folds them
    back in value-major order."""
    cfg = dict(with_stream(r=1), protocol={"kind": "combined"})
    path = write_config(tmp_path, cfg)
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", path, "--out", str(out),
                     "--axis", "r", "--values", "1,3", "--jobs", jobs]) == 0
        outs.append(out)
    _, rows = read_rows(outs[0] / "sweep.csv")
    assert [(r["value"], r["trial"]) for r in rows] \
        == [("1", "0"), ("1", "1"), ("3", "0"), ("3", "1")]
    for name in ("sweep.csv", "sweep.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("family, r", [
    ("tree", 0), ("tree", 3), ("list", 0), ("anchor", 0), ("anchor", 2),
    ("overcomplete", 0), ("monomial", 0), ("monomial", 2), ("polynomial", 0)])
def test_every_stream_poses_m_plus_r_tasks(family, r):
    """The plan sizes combined's slack by m + r without drawing the
    stream, so every generator must pose exactly that many tasks."""
    stream = dict(STREAM_VALUES, family=family, r=r)
    stream = {key: value for key, value in stream.items()
              if key in STREAM_READS[family] and (r or key != "placement")}
    spec = build_spec(stream)
    for trial in (0, 1):
        tasks, _ = cli.generate_stream(spec, trial)
        assert len(tasks) == spec.m + spec.r


def recorders(monkeypatch):
    """Replace cli.run_protocol and cli.run_restart_protocol by recorders
    that call through; -> the list of (driver name, args after tasks, task
    count) they fill, as the benchmark's capture of each run would."""
    calls = []
    for attr in ("run_protocol", "run_restart_protocol"):
        def record(family, tasks, *args, _fn=getattr(cli, attr), _attr=attr):
            calls.append((_attr, args, len(tasks)))
            return _fn(family, tasks, *args)
        monkeypatch.setattr(cli, attr, record)
    return calls


@pytest.mark.parametrize("name, r, driver", [
    ("realizable", 0, "run_protocol"), ("large2", 12, "run_restart_protocol")])
def test_adversary_regime_runs_through_the_cli_drivers(tmp_path, monkeypatch,
                                                      name, r, driver):
    calls = recorders(monkeypatch)
    cfg = {"game": GAME, "regime": dict(REGIME, name=name, r=r)}
    assert main(["adversary", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 0
    assert [call[0] for call in calls] == [driver]


@pytest.mark.parametrize("kind, driver", [
    ("plain", "run_protocol"), ("restart", "run_restart_protocol"),
    ("combined", "run_restart_protocol")])
def test_run_trials_go_through_the_cli_drivers(tmp_path, monkeypatch, kind,
                                              driver):
    """Every trial calls its driver through the cli module; restart and
    combined pass (k_cap, slack), combined's slack from the stream's task
    count."""
    calls = recorders(monkeypatch)
    # sqrt(rKN/m) rounds to 2 over the m + r = 11 tasks, to 3 over m = 8
    cfg = dict(with_stream(r=3), protocol={"kind": kind})
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 0
    assert [call[0] for call in calls] == [driver] * cfg["trials"]
    stream = cfg["stream"]
    for _, args, n_tasks in calls:
        assert n_tasks == stream["m"] + stream["r"]
        if kind == "plain":
            assert args == ()
        else:
            slack = 0 if kind == "restart" else combined_slack(
                stream["r"], stream["k"], stream["n_features"], n_tasks)
            assert args == (stream["k"], slack)
    assert kind != "combined" or calls[0][1][1] == 2
