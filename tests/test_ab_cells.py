"""Smoke tests for ``tools/ab_cells.py``, the interleaved cell timing of two
source trees: it runs this checkout against itself and against a copy whose
loads are scaled differently."""

import shutil
import subprocess
import sys
from pathlib import Path

import schurflow

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_cells.py"
SRC = Path(schurflow.__file__).parents[1]


def run_tool(old, new):
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--grid",
         "wishart-trace-quenched", "--every", "150", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )


def test_equal_trees_report_a_ratio():
    result = run_tool(SRC, SRC)
    assert result.returncode == 0, result.stderr
    assert "3 cells x 1 rounds, outputs equal" in result.stdout
    assert "median per-cell ratio" in result.stdout


def test_different_outputs_exit_one(tmp_path):
    shutil.copytree(SRC / "schurflow", tmp_path / "schurflow")
    flow = tmp_path / "schurflow" / "flow.py"
    text = flow.read_text()
    assert text.count("loads *= -config.zeta") == 1
    flow.write_text(text.replace("loads *= -config.zeta", "loads *= -2.0 * config.zeta"))
    result = run_tool(SRC, tmp_path)
    assert result.returncode == 1, result.stderr
    assert "outputs differ" in result.stdout
