"""End-to-end CLI runs: exit codes, report schemas, byte-level determinism."""

import csv
import json

import pytest

from probelearn import ROW_FIELDS, SCHEMA_VERSION
from probelearn.cli import (GAME_FIELDS, REGIME_FIELDS, SWEEP_FIELDS,
                            build_spec, main)
from probelearn.errors import UsageError

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
    assert ((base / "report.csv").read_bytes()
            != (other / "report.csv").read_bytes())


def test_usage_errors_exit_2(tmp_path):
    bad = dict(TREE_CONFIG, stream=dict(TREE_CONFIG["stream"], d=9))
    assert main(["run", "--config", write_config(tmp_path, bad),
                 "--out", str(tmp_path / "o1")]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o2")]) == 2
    unknown = dict(TREE_CONFIG, protocol={"kind": "psychic"})
    assert main(["run", "--config", write_config(tmp_path, unknown, "u.json"),
                 "--out", str(tmp_path / "o3")]) == 2
    typo = dict(TREE_CONFIG, protocol={"kind": "plain", "gain": "teachr"})
    assert main(["run", "--config", write_config(tmp_path, typo, "t.json"),
                 "--out", str(tmp_path / "o6")]) == 2
    good = write_config(tmp_path, TREE_CONFIG, "g.json")
    assert main(["sweep", "--config", good, "--out", str(tmp_path / "o4"),
                 "--axis", "q", "--values", "1,2"]) == 2
    assert main(["sweep", "--config", good, "--out", str(tmp_path / "o5"),
                 "--axis", "m", "--values", ""]) == 2


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
