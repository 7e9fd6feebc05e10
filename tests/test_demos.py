"""Smoke test of the demo scripts: the quick ones run, the slow ones import."""

import ast
import runpy
from pathlib import Path

import pytest

import nillab

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_heisenberg_arithmetic", "02_orbit_growth",
                                  "05_rp_witness_search", "06_furstenberg_averages"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / (name + ".py")), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name", ["03_complexity_trichotomy", "04_sturmian_independence"])
def test_slow_demo_imports_resolve(name):
    tree = ast.parse((DEMOS / (name + ".py")).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "nillab"
             for alias in node.names]
    assert names
    missing = [n for n in names if not hasattr(nillab, n)]
    assert not missing
