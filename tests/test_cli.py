"""End-to-end CLI runs: exit codes, report schemas, byte-level determinism."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from probelearn import ROW_FIELDS, SCHEMA_VERSION, cli
from probelearn.cli import (GAME_FIELDS, PROTOCOL_KEYS, PROTOCOL_READS,
                            REGIME_FIELDS, RUN_KEYS, STREAM_KEYS,
                            SWEEP_FIELDS, _checked_spec, build_spec, main,
                            sweep_plan)
from probelearn.errors import UsageError
from probelearn.streams import FAMILIES, STREAM_READS, TREE_FAMILIES

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
    "bootstrap-p_min-zero": (
        "run", with_protocol(BOOTSTRAP_CONFIG, p_min=0), []),
    "bootstrap-delta-zero": (
        "run", with_protocol(BOOTSTRAP_CONFIG, delta=0), []),
    "bootstrap-delta-ten": (
        "run", with_protocol(BOOTSTRAP_CONFIG, delta=10), []),
    "bootstrap-delta-one": (
        "run", with_protocol(BOOTSTRAP_CONFIG, delta=1), []),
    "bootstrap-p_min-five": (
        "run", with_protocol(BOOTSTRAP_CONFIG, p_min=5), []),
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
    "strict_envelope_scale-string": (
        "run", with_protocol(TREE_CONFIG, strict_envelope_scale="1"), []),
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
    # the overcomplete improver reads the anchors only its own stream makes
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
PROTOCOL_VALUES = {"gain": "teacher", "improver": "tree", "k_cap": 2,
                   "r": 1, "slack": 1, "n_bootstrap": 2, "p_min": 0.5,
                   "delta": 0.1, "strict_envelope_scale": 1.0}
KINDS = PROTOCOL_KEYS["kind"][1]
FAMILY_KINDS = [(family, kind) for family in FAMILIES for kind in KINDS]


def protocol_reads(family, kind):
    tree = ("gain", "improver") if family in TREE_FAMILIES else ()
    return {"kind", "strict_envelope_scale", *tree, *PROTOCOL_READS[kind]}


def dead_keys(family, kind):
    """(stream, protocol) keys that the table rows read but that another key
    of the full config leaves unread: K1 x K2 sizes an overcomplete
    dictionary and k_cap (where the kind reads it) replaces k; n_bootstrap
    replaces p_min and delta."""
    return ({"k"} if family == "overcomplete" else set(),
            {"p_min", "delta"} if kind == "bootstrap" else set())


def full_config(family, kind):
    stream = dict(STREAM_VALUES, family=family)
    proto = dict(PROTOCOL_VALUES, kind=kind, improver=family)
    stream_dead, proto_dead = dead_keys(family, kind)
    return {"stream": {key: stream[key] for key in STREAM_READS[family]
                       if key not in stream_dead},
            "protocol": {key: proto[key]
                         for key in protocol_reads(family, kind) - proto_dead},
            "trials": 1}


def test_read_tables_are_total():
    assert set(STREAM_READS) == set(FAMILIES)
    assert set(PROTOCOL_READS) == set(KINDS)
    assert set().union(*STREAM_READS.values()) == set(STREAM_KEYS)
    assert set().union(*(protocol_reads(f, k) for f, k in FAMILY_KINDS)) \
        == set(PROTOCOL_KEYS)
    assert set(STREAM_VALUES) | {"family"} == set(STREAM_KEYS)
    assert set(PROTOCOL_VALUES) | {"kind"} == set(PROTOCOL_KEYS)
    for family, kind, keys in (("monomial", "plain", 12),
                               ("tree", "plain", 17)):
        assert sum(len(block) if isinstance(block, dict) else 1
                   for block in full_config(family, kind).values()) == keys


@pytest.mark.parametrize("family, kind", FAMILY_KINDS)
def test_full_config_passes_the_check(family, kind):
    cfg = full_config(family, kind)
    assert _checked_spec(cfg).family == family


@pytest.mark.parametrize("family, kind", FAMILY_KINDS)
def test_unread_keys_exit_2(tmp_path, capsys, monkeypatch, family, kind):
    """Each stream or protocol key that the (family, kind) does not read, or
    that the full config leaves dead, is a usage error naming the family or
    kind and the key."""
    base = full_config(family, kind)
    stream_dead, proto_dead = dead_keys(family, kind)
    unread = [("stream", key, STREAM_VALUES[key], family)
              for key in sorted(set(STREAM_KEYS) - set(STREAM_READS[family])
                                | stream_dead)]
    unread += [("protocol", key, PROTOCOL_VALUES[key], kind)
               for key in sorted(set(PROTOCOL_KEYS)
                                 - protocol_reads(family, kind) | proto_dead)]
    assert unread
    for block, key, value, owner in unread:
        cfg = dict(base, **{block: dict(base[block], **{key: value})})
        err = usage_error(tmp_path, capsys, monkeypatch, "run", cfg)
        assert err == f"error: the {owner} {block} does not read {[key]}"


UNREAD_CASES = {
    # each of these two once ran to the report of the run without its keys
    "gain-improver-on-monomial": ("run", {
        "stream": {"family": "monomial", "m": 10, "n_features": 6},
        "protocol": {"gain": "info", "improver": "list"}}, [],
        "the plain protocol does not read ['gain', 'improver']"),
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
    "delta-on-restart": ("run", with_protocol(RESTART_CONFIG, delta=0.5), [],
                         "the restart protocol does not read ['delta']"),
    "r-on-restart": ("run", with_protocol(RESTART_CONFIG, r=1), [],
                     "the restart protocol does not read ['r']"),
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
    # K1 x K2 sizes an overcomplete dictionary, so k is read only as the
    # default k_cap; these ran to the report of the config without k
    "k-on-overcomplete-plain": (
        "run", overcomplete(k=2), [],
        "the overcomplete stream does not read ['k']"),
    "sweep-K-overcomplete": (
        "sweep", OVERCOMPLETE_CONFIG, ["--axis", "K", "--values", "2,5"],
        "the overcomplete stream does not read ['k']"),
    "k-k_cap-on-overcomplete-restart": (
        "run", overcomplete(k=2, protocol={"kind": "restart", "k_cap": 2}),
        [], "the overcomplete stream does not read ['k']"),
    # n_bootstrap replaces the count that p_min and delta give
    "n_bootstrap-p_min-on-bootstrap": (
        "run", with_protocol(BOOTSTRAP_CONFIG, n_bootstrap=2, p_min=0.5), [],
        "the bootstrap protocol does not read ['p_min']"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_CASES))
def test_named_unread_keys_exit_2(tmp_path, capsys, monkeypatch, case):
    command, cfg, extra, message = UNREAD_CASES[case]
    err = usage_error(tmp_path, capsys, monkeypatch, command, cfg, extra)
    assert err == f"error: {message}"


def test_overcomplete_k_is_read_as_the_default_k_cap():
    assert _checked_spec(OVERCOMPLETE_CONFIG).k == 3
    for kind in ("restart", "combined"):
        cfg = overcomplete(k=2, protocol={"kind": kind})
        assert _checked_spec(cfg).k == 2


def test_d_above_s_binds_only_tree_families(tmp_path):
    cfg = {"stream": {"family": "monomial", "m": 5, "n_features": 12, "d": 8}}
    assert main(["run", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 0


def test_sweep_axis_r_sets_protocol_r_only_where_the_config_does():
    restart = with_stream(r=1)
    restart["protocol"] = {"kind": "restart", "k_cap": 2}
    plan = sweep_plan(restart, "r", "0,1")
    assert [cfg["protocol"] for _, cfg, _ in plan] == [restart["protocol"]] * 2
    combined = with_protocol(restart, kind="combined", r=5)
    plan = sweep_plan(combined, "r", "0,1")
    assert [cfg["protocol"]["r"] for _, cfg, _ in plan] == [0, 1]


def test_readme_config_table_matches_the_key_tables():
    """README's run-config table lists exactly the stream, protocol and
    top-level keys, and each key's readers."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text[text.index("Config for `run`/`sweep`"):
                 text.index("Config for `adversary`")]
    listed = {"`stream`": {}, "`protocol`": {}, "top level": {}}
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells[0] in listed:
            names = set(re.findall(r"`(\w+)`", cells[4]))
            for key in re.findall(r"`(\w+)`", cells[1]):
                assert key not in listed[cells[0]], key
                listed[cells[0]][key] = names
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


def test_strict_flag_reports_violations(tmp_path):
    cfg = dict(TREE_CONFIG)
    cfg["protocol"] = {"kind": "plain", "strict_envelope_scale": 1e-9}
    path = write_config(tmp_path, cfg)
    relaxed = tmp_path / "relaxed"
    assert main(["run", "--config", path, "--out", str(relaxed)]) == 0
    doc = json.loads((relaxed / "report.json").read_text())
    assert doc["violations_total"] > 0  # every LFD probe beats a zero budget
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
