"""Smoke tests for ``tools/ab_cells.py``, the interleaved row timing of two
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
         "wishart-trace-quenched", "--every", "8", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )


def copy_tree(tmp_path, module, old, new):
    """A copy of this checkout's package with ``old`` replaced by ``new``,
    once, in ``module``."""
    shutil.copytree(SRC / "schurflow", tmp_path / "schurflow")
    path = tmp_path / "schurflow" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return tmp_path


def test_equal_trees_report_a_ratio():
    result = run_tool(SRC, SRC)
    assert result.returncode == 0, result.stderr
    assert "3 rows x 1 rounds, outputs equal" in result.stdout
    assert "median per-row ratio" in result.stdout


def test_different_outputs_exit_one(tmp_path):
    old = "-zeta[:, None]"
    tree = copy_tree(tmp_path, "flow.py", old, "-2.0 * zeta[:, None]")
    result = run_tool(SRC, tree)
    assert result.returncode == 1, result.stderr
    assert "outputs differ" in result.stdout

