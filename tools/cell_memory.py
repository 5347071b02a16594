"""Per-cell memory of the two benchmark grids: page faults and allocation peak.

For the reference grid (the CLI defaults) and the Wishart/trace/quenched
grid over ``zeta`` in [0, 0.8], this runs cells as a ``run_grid`` task does,
every cell reusing one workspace, and prints per grid:

- the minor page faults (``ru_minflt``) per warm cell, the mean over every
  7th cell of the grid after one warm-up cell;
- the ``tracemalloc`` peak of one warm cell, cell 210, in MiB.  numpy
  reports its data buffers to ``tracemalloc``, so this is what a cell
  allocates beyond its workspace;
- the size of the workspace itself in MiB, ``check_batch_budget``'s count
  of floats times 8 bytes.

    PYTHONPATH=src python tools/cell_memory.py

It reports and checks nothing; the exit status is 0.
"""

from __future__ import annotations

import resource
import tracemalloc

import numpy as np

from schurflow import FlowConfig, GridSpec, Wishart
from schurflow.ensemble import _CELL_KEYS, _run_cell
from schurflow.flow import check_batch_budget

GRIDS = {
    "reference": GridSpec(master_seed=1),
    "Wishart/trace/quenched": GridSpec(
        zeta_values=np.linspace(0.0, 0.8, 20),
        master_seed=1,
        base_config=FlowConfig(
            schur_model=Wishart(), norm_mode="trace", disorder="quenched"
        ),
    ),
}
TRACED_CELL = 210


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(spec: GridSpec) -> tuple[float, float, float]:
    """(minor faults per warm cell, traced peak of one warm cell in MiB,
    workspace in MiB)."""
    workspace = np.empty(check_batch_budget(spec.base_config, spec.n_traj, _CELL_KEYS))
    cells = range(0, spec.n_cells, 7)
    _run_cell(spec, cells[-1], workspace)  # warm-up
    before = minor_faults()
    for cell in cells:
        _run_cell(spec, cell, workspace)
    faults = (minor_faults() - before) / len(cells)
    tracemalloc.start()
    try:
        _run_cell(spec, TRACED_CELL, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return faults, peak / 2**20, workspace.nbytes / 2**20


def main() -> int:
    for name, spec in GRIDS.items():
        faults, peak, size = measure(spec)
        print(
            f"{name} grid: {faults:.1f} minor faults per warm cell, "
            f"traced peak {peak:.2f} MiB per warm cell, workspace {size:.2f} MiB"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
