"""Smoke test of the demo scripts: each runs and prints."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_heisenberg_arithmetic", "02_orbit_growth",
                                  "03_complexity_trichotomy", "04_sturmian_independence",
                                  "05_rp_witness_search", "06_furstenberg_averages"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / (name + ".py")), run_name="__main__")
    assert capsys.readouterr().out.strip()
