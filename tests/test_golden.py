"""Criterion-10 CLI outputs pinned byte for byte against committed copies.

The files under tests/golden/ were written by the same commands; any change
to an orbit, grid, net, witness or report format shows up here. Each header
holds the command and every option of it that is set, but the output paths
and the global --config; a change to the header rule re-records header lines
only. heis.csv is not a criterion-10 file: it pins the Heisenberg nilsystem
nets; the cube_* and ind_* files pin the constructive and scan cube searches
and the constraints and arcs independence routes. f4.csv pins the nets of a
step-3 nilsystem on the group law in filiform4.json.
"""

import shutil
from pathlib import Path

import pytest

from nillab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

COMMANDS = [
    (["simulate", "--system", "skew:alpha=golden", "--start", "0.1/0.2",
      "--steps", "200", "--out", "sim.csv"], ["sim.csv"]),
    (["complexity", "--system", "rotation:alpha=golden", "--eps", "0.1",
      "--n-grid", "1,2,4,8,12,20,32,50", "--out", "curve.csv",
      "--out-json", "fit.json"], ["curve.csv", "fit.json"]),
    (["ip-search", "--system", "sturmian:alpha=golden", "--targets",
      "cyl:0@0 cyl:1@0", "--m", "2", "--bound", "15", "--ladder", "--seed", "7",
      "--out", "ladder.csv"], ["ladder.csv"]),
    (["rp-test", "--system", "skew:alpha=golden", "--x", "0.2/0.1", "--y",
      "0.2/0.7", "--d", "1", "--delta", "0.05", "--n-range", "2000",
      "--seed", "5", "--out-json", "rp.json"], ["rp.json"]),
    (["complexity", "--system", "heisenberg", "--eps", "0.4", "--grid-divisor", "4",
      "--n-grid", "1,2", "--out", "heis.csv"], ["heis.csv"]),
    (["cube-criterion", "--system", "fullshift:k=2", "--x1", "00000000000",
      "--x2", "11111111111", "--d", "2", "--delta", "0.05", "--seed", "0",
      "--out-json", "cube_fullshift.json"], ["cube_fullshift.json"]),
    (["cube-criterion", "--system", "skew:alpha=golden", "--x1", "0.2/0.1",
      "--x2", "0.2/0.7", "--d", "1", "--delta", "0.05", "--seed", "0",
      "--out-json", "cube_skew.json"], ["cube_skew.json"]),
    (["ind-check", "--system", "fullshift:k=2", "--targets", "cyl:0@0 cyl:1@0",
      "--F", "0,1,2", "--seed", "0", "--out-json", "ind_fullshift.json"],
     ["ind_fullshift.json"]),
    (["ind-check", "--system", "rotation:alpha=golden", "--targets",
      "ball:0.35@0.3 ball:0.6@0.3", "--F", "0,1,3,8", "--seed", "0",
      "--out-json", "ind_rotation.json"], ["ind_rotation.json"]),
]
# test ids: the subcommand, and the system where a subcommand repeats (the
# first complexity command kept its bare id)
IDS = ["simulate", "complexity", "ip-search", "rp-test", "complexity-heisenberg",
       "cube-criterion-fullshift", "cube-criterion-skew", "ind-check-fullshift",
       "ind-check-rotation"]


@pytest.mark.parametrize("argv,files", COMMANDS, ids=IDS)
def test_cli_outputs_match_golden(tmp_path, monkeypatch, argv, files):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    for name in files:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


def test_step3_nilsystem_complexity_matches_golden(tmp_path, monkeypatch):
    # the group file sits next to the output, so the descriptor in the
    # header stays relative
    shutil.copy(GOLDEN_DIR / "filiform4.json", tmp_path / "filiform4.json")
    monkeypatch.chdir(tmp_path)
    assert main(["complexity", "--system",
                 "nilsystem:group=filiform4.json,tau=golden/0.7071067811865476/0/0",
                 "--eps", "0.45", "--grid-divisor", "4", "--n-grid", "0,1",
                 "--out", "f4.csv"]) == 0
    assert (tmp_path / "f4.csv").read_bytes() == (GOLDEN_DIR / "f4.csv").read_bytes()
