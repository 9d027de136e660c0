"""Every mode a run config can select: it runs, or the config check refuses
it, or it fails with a reason written out here.  And the oracle channel:
which modes read a task's hidden target."""

import csv
import dataclasses
import json

import pytest

from probelearn import cli
from probelearn.cli import main
from probelearn.streams import FAMILIES, STREAM_READS, TREE_FAMILIES

KINDS = cli.PROTOCOL_KEYS["kind"][1]

# -- the mode matrix --------------------------------------------------------

# one shape for every cell; each family takes the keys it reads, the
# polynomial stream at N = 8, and bootstrap adds p_min = 0.1 where read
SHAPE = {"n_features": 40, "k": 3, "d": 3, "s": 7, "mf_depth": 2, "m": 20,
         "sample_size": 32, "k1": 2, "k2": 2, "t": 2}

RUNS = (0, None)
DEPTH_CAP = (1, "error: RealizabilityError: mixed sample at depth cap 3")


def unread_r(family):
    return (2, f"error: the {family} stream does not read ['r']")


# (family, gain, r) -> (exit code, its one stderr line); the outcome is the
# same under every protocol kind.  Exit 1 is allowed only for gain info:
# greedy information gain outgrows the depth cap at this sample size (ROADMAP
# item 9).  A tree stream runs its own family's ImproveRep, and the
# overcomplete one partitions the teacher's scratch tree by its anchors.
MODE_MATRIX = {
    ("tree", "teacher", 0): RUNS,
    ("tree", "teacher", 5): RUNS,
    ("tree", "info", 0): DEPTH_CAP,
    ("tree", "info", 5): DEPTH_CAP,
    ("list", "teacher", 0): RUNS,
    ("list", "teacher", 5): unread_r("list"),
    ("list", "info", 0): DEPTH_CAP,
    ("list", "info", 5): unread_r("list"),
    ("anchor", "teacher", 0): RUNS,
    ("anchor", "teacher", 5): RUNS,
    ("anchor", "info", 0): DEPTH_CAP,
    ("anchor", "info", 5): DEPTH_CAP,
    ("overcomplete", "teacher", 0): RUNS,
    ("overcomplete", "teacher", 5): unread_r("overcomplete"),
    ("overcomplete", "info", 0): (
        2, "error: protocol.gain must be teacher on an overcomplete stream, "
           "got 'info'"),
    ("overcomplete", "info", 5): unread_r("overcomplete"),
    ("monomial", None, 0): RUNS,
    ("monomial", None, 2): RUNS,
    ("polynomial", None, 0): RUNS,
    ("polynomial", None, 2): unread_r("polynomial"),
}
CELLS = [(family, kind, gain, r) for (family, gain, r) in MODE_MATRIX
         for kind in KINDS]


def cell_config(family, kind, gain, r):
    stream = {key: value for key, value in SHAPE.items()
              if key in STREAM_READS[family]}
    stream["family"] = family
    if family == "polynomial":
        stream["n_features"] = 8
    if r:
        stream["r"] = r
    if kind == "bootstrap" and "p_min" in STREAM_READS[family]:
        stream["p_min"] = 0.1
    protocol = {"kind": kind} if gain is None else {"kind": kind, "gain": gain}
    return {"stream": stream, "protocol": protocol}


def test_mode_matrix_is_total():
    """Every family, every gain on the tree families, r = 0 and one r > 0:
    80 cells, of which 36 run, 24 are refused at check time and 20 fail
    with a learner error; no teacher cell fails."""
    assert {family for family, _, _ in MODE_MATRIX} == set(FAMILIES)
    for family in FAMILIES:
        gains = ({"teacher", "info"} if family in TREE_FAMILIES else {None})
        assert {g for f, g, _ in MODE_MATRIX if f == family} == gains
    assert len(CELLS) == 80
    codes = [MODE_MATRIX[f, g, r][0] for f, _, g, r in CELLS]
    assert [codes.count(code) for code in (0, 2, 1)] == [36, 24, 20]
    assert all(outcome[0] != 1 for (_, gain, _), outcome in MODE_MATRIX.items()
               if gain != "info")


@pytest.mark.parametrize("family, kind, gain, r", CELLS)
def test_mode_matrix_cell(tmp_path, capsys, family, kind, gain, r):
    cfg = cell_config(family, kind, gain, r)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert (code, err[0] if err else None) == MODE_MATRIX[family, gain, r]
    assert len(err) == (code != 0)
    if code:
        assert not out.exists()
        return
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == SHAPE["m"] + r


# -- the oracle channel -----------------------------------------------------


class OracleRead(Exception):
    pass


class SealedTarget:
    """A hidden target that raises on every read: attributes, items,
    iteration, length and truth."""

    def __getattribute__(self, name):
        raise OracleRead(name)

    def _read(self, *args):
        raise OracleRead("read")

    __getitem__ = __iter__ = __len__ = __bool__ = __array__ = _read


def sealed_streams(monkeypatch):
    """Make cli.generate_stream hand out tasks whose targets are sealed."""
    generate = cli.generate_stream

    def sealed(spec, trial):
        tasks, dictionary = generate(spec, trial)
        return [dataclasses.replace(task, target=SealedTarget())
                for task in tasks], dictionary
    monkeypatch.setattr(cli, "generate_stream", sealed)


INFO_SHAPE = {"n_features": 32, "k": 2, "d": 3, "s": 7, "mf_depth": 2,
              "m": 20, "sample_size": 8}


@pytest.mark.parametrize("family", ["tree", "anchor", "list"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_info_gain_runs_never_read_the_target(monkeypatch, family, seed):
    """A gain-info tree run learns from data only: with every target sealed
    it gives the rows it gives with the targets readable."""
    stream = dict(INFO_SHAPE, family=family, seed=seed)
    if family == "list":
        stream.update(d=4, s=6)
    cfg = {"stream": stream, "protocol": {"gain": "info"}}
    open_rows = cli.run_trial(cfg, 0)["rows"]
    sealed_streams(monkeypatch)
    assert cli.run_trial(cfg, 0)["rows"] == open_rows
    assert {row["outcome"] for row in open_rows} >= {"lfd", "scratch"}


@pytest.mark.parametrize("stream", [
    dict(INFO_SHAPE, family="tree"),
    {"family": "monomial", "n_features": 8, "k": 2, "m": 5},
    {"family": "polynomial", "n_features": 6, "k": 2, "t": 2, "m": 5},
], ids=["teacher-tree", "exact-monomial", "exact-polynomial"])
def test_oracle_runs_read_the_target(monkeypatch, stream):
    """Teacher gain and the exact monomial and polynomial oracles read the
    hidden target: a run raises on its first read of a sealed one."""
    sealed_streams(monkeypatch)
    with pytest.raises(OracleRead):
        cli.run_trial({"stream": stream}, 0)
