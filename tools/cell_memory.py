"""Memory of the two benchmark grids: per warm row task, and per CLI run.

For the reference grid (the CLI defaults) and the Wishart/trace/quenched
grid over ``zeta`` in [0, 0.8], this runs each row as one ``run_grid`` task
(``ensemble._run_task``): the row's loads drawn once, its cells evolved in
flow loops of as many cells as fit the workspace (4 annealed, the whole row
quenched or at ``a0 = 0``), all in one workspace.  It prints per grid:

- the minor page faults (``ru_minflt``) per warm row task, the mean over
  every row after one warm-up row, each task allocating its own workspace
  as ``run_grid``'s do;
- the ``tracemalloc`` peak of one warm row task, row 10, given a workspace,
  in MiB.  numpy reports its data buffers to ``tracemalloc``, so this is
  what a task allocates beyond its workspace;
- the size of the workspace itself in MiB, ``check_batch_budget``'s count
  of floats for a task of a whole row times 8 bytes;
- the peak resident set (``ru_maxrss``) of a fresh ``python -m schurflow
  grid`` process that runs the whole grid on one worker, in MB.

    PYTHONPATH=src python tools/cell_memory.py

It reports and checks nothing; the exit status is 0.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from schurflow import FlowConfig, GridSpec, Wishart
from schurflow.ensemble import _CELL_KEYS, _run_task
from schurflow.flow import check_batch_budget

WISHART = {"schur_model": {"kind": "wishart"}, "norm_mode": "trace", "disorder": "quenched"}
# Grid name: (GridSpec, the CLI's grid payload for the same grid).
GRIDS = {
    "reference": (GridSpec(master_seed=1), {}),
    "Wishart/trace/quenched": (
        GridSpec(
            zeta_values=np.linspace(0.0, 0.8, 20),
            master_seed=1,
            base_config=FlowConfig(
                schur_model=Wishart(), norm_mode="trace", disorder="quenched"
            ),
        ),
        {"zeta_values": {"start": 0.0, "stop": 0.8, "num": 20}, "base_config": WISHART},
    ),
}
TRACED_ROW = 10


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def row_task(spec: GridSpec, row: int):
    """The ``run_grid`` task of one whole row of ``spec``."""
    n_zeta = spec.zeta_values.size
    return spec, row * n_zeta, (row + 1) * n_zeta


def measure(spec: GridSpec) -> tuple[float, float, float]:
    """(minor faults per warm row task, traced peak of one warm row task in
    MiB, workspace in MiB)."""
    rows = range(spec.a0_values.size)
    _run_task(row_task(spec, rows[-1]))  # warm-up
    before = minor_faults()
    for row in rows:
        _run_task(row_task(spec, row))
    faults = (minor_faults() - before) / len(rows)
    workspace = np.empty(check_batch_budget(
        spec.base_config, spec.n_traj, _CELL_KEYS, spec.zeta_values.size
    ))
    _run_task(row_task(spec, TRACED_ROW), workspace)
    tracemalloc.start()
    try:
        _run_task(row_task(spec, TRACED_ROW), workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return faults, peak / 2**20, workspace.nbytes / 2**20


def cli_max_rss(payload: dict) -> float:
    """``ru_maxrss`` in MB of one fresh CLI process running the grid of
    ``payload`` at seed 1 on one worker."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "config.json")
        config.write_text(json.dumps({"grid": payload}))
        argv = [sys.executable, "-m", "schurflow", "--config", str(config), "--seed", "1",
                "--workers", "1", "--out", tmp]
        quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet)
        _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"the CLI grid run exited with {os.waitstatus_to_exitcode(status)}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def main() -> int:
    for name, (spec, payload) in GRIDS.items():
        faults, peak, size = measure(spec)
        print(
            f"{name} grid: {faults:.1f} minor faults per warm row task, "
            f"traced peak {peak:.2f} MiB per warm row task, workspace {size:.2f} MiB, "
            f"CLI run max RSS {cli_max_rss(payload):.1f} MB"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
