"""Criterion-10 CLI outputs pinned byte for byte against committed copies.

The files under tests/golden/ were written by the same commands; any change
to an orbit, grid, net, witness or report format shows up here. heis.csv is
not a criterion-10 file: it pins the Heisenberg nilsystem nets.
"""

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
]
# test ids: the subcommand, and the system where a subcommand repeats
IDS = [argv[0] + ("-heisenberg" if "heisenberg" in argv else "") for argv, _ in COMMANDS]


@pytest.mark.parametrize("argv,files", COMMANDS, ids=IDS)
def test_cli_outputs_match_golden(tmp_path, monkeypatch, argv, files):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    for name in files:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
