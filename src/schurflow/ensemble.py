"""Ensemble statistics of flow trajectories over parameter grids.

A grid run sweeps the anisotropy amplitude ``a0`` (rows) against the
elimination strength ``zeta`` (columns), runs ``n_traj`` independent
trajectories per cell and aggregates final-state sector occupation,
first-passage times and censoring.  Cell ``(i, j)`` has flat index
``c = i * n_zeta + j``.  Its trajectories draw, as :mod:`schurflow.flow`
documents, their anisotropies from ``np.random.default_rng([master_seed,
c])`` and their unit loads from the row's ``np.random.default_rng(
[master_seed, i, 1])``: trajectory ``t`` of every cell of row ``i`` reads
row ``t`` of the one load draw.  So results are independent of execution
order and worker count.  A load key has one word more than a cell key, and
its last word is 1 where the cell key, padded with zeros to
``SeedSequence``'s four-word pool, has 0: within a grid no load key equals
a cell key.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from .contour import BoundaryCurve, find_contour
from .errors import NonFiniteState, NoValidRecords
from .flow import (
    FlowConfig, check_batch_budget, draw_loads, evolve_cells, first_passage_steps, row_loop,
)
from .tensor import check_axis, check_budget, check_int, check_scalar, fields_equal


# The config keys that size a task's workspace.
_CELL_KEYS = "n_traj, base_config.k_max, base_config.d_tan, base_config.schur_model"


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Parameter grid, trajectory count and seeding for an ensemble run.

    The defaults are the reference grid: 20 x 20 cells over moderate
    anisotropy and elimination strength, 100 trajectories per cell.  Axes
    are non-negative as well as finite and strictly increasing.  The
    workspace of a task of a whole row
    (:func:`~schurflow.flow.check_batch_budget`) and the results of the
    whole grid must each fit in ``ARRAY_BUDGET``.
    """

    a0_values: np.ndarray = dataclasses.field(
        default_factory=lambda: np.linspace(0.0, 1.0, 20)
    )
    zeta_values: np.ndarray = dataclasses.field(
        default_factory=lambda: np.linspace(0.0, 0.3, 20)
    )
    n_traj: int = 100
    master_seed: int = 0
    base_config: FlowConfig = FlowConfig()

    __eq__ = fields_equal

    def __post_init__(self) -> None:
        for name in ("a0_values", "zeta_values"):
            axis = check_axis(getattr(self, name), name)
            check_scalar(axis[0], name, positive=False)
            object.__setattr__(self, name, axis)
        check_int(self.n_traj, "n_traj")
        check_int(self.master_seed, "master_seed", low=0)
        if not isinstance(self.base_config, FlowConfig):
            raise TypeError("base_config must be a FlowConfig")
        check_batch_budget(self.base_config, self.n_traj, _CELL_KEYS, self.zeta_values.size)
        # Per cell the result holds p_sector (d_tan + 1), mean_fpt,
        # censored_fraction and n_valid.
        check_budget((self.n_cells, self.base_config.d_tan + 4), "a0_values, zeta_values")

    @property
    def n_cells(self) -> int:
        return self.a0_values.size * self.zeta_values.size

    def cell_config(self, cell_index: int) -> FlowConfig:
        """Flow configuration of the given flat cell index."""
        i, j = divmod(cell_index, self.zeta_values.size)
        return dataclasses.replace(
            self.base_config,
            a0=float(self.a0_values[i]),
            zeta=float(self.zeta_values[j]),
        )


@dataclasses.dataclass(eq=False)
class GridResult:
    """Aggregated statistics of a grid run.

    ``p_sector[i, j, m]`` is the fraction of valid trajectories in cell
    ``(i, j)`` whose final state has ``m`` negative directions.
    ``mean_fpt`` is NaN where every trajectory was censored.
    """

    a0_values: np.ndarray
    zeta_values: np.ndarray
    p_sector: np.ndarray
    mean_fpt: np.ndarray
    censored_fraction: np.ndarray
    n_valid: np.ndarray
    n_traj: int
    master_seed: int

    @property
    def n_sectors(self) -> int:
        return self.p_sector.shape[2]

    @property
    def d_tan(self) -> int:
        return self.n_sectors - 1


def _history(records) -> np.ndarray:
    """``records`` as an ``(n_traj, n_states)`` history with ``n_states >= 1``."""
    history = np.asarray(records)
    if history.ndim != 2 or history.shape[1] == 0:
        raise ValueError(f"records: expected (n_traj, n_states), got shape {history.shape}")
    return history


def sector_probability(records, n_minus: int) -> float:
    """Fraction of trajectories whose final state carries ``n_minus``
    negative directions.  ``records`` is their ``(n_traj, n_states)``
    negative-count history; filter collapsed ones upstream."""
    if len(records) == 0:
        raise ValueError("records must be non-empty")
    hits = int(np.count_nonzero(_history(records)[:, -1] == n_minus))
    return hits / len(records)


def mean_first_passage(records, target_n_minus: int):
    """Mean first-passage step into ``target_n_minus`` over the uncensored
    trajectories of an ``(n_traj, n_states)`` negative-count history.

    Returns ``(mean, censored_fraction)``; the mean is ``None`` when every
    trajectory is censored (fraction 1.0) or there are none (fraction NaN).
    """
    if len(records) == 0:
        return None, float("nan")
    steps = first_passage_steps(_history(records), target_n_minus)
    times = steps[steps >= 0]
    mean = float(np.mean(times)) if len(times) else None
    return mean, 1.0 - len(times) / len(records)


def _run_cells(spec: GridSpec, cells, loads, steps, workspace):
    """Statistics of the given cells of one row, in order: each cell draws
    its anisotropies on its own, all read the row's unit loads ``loads``
    and are evolved in one flow loop that classifies every ``steps`` steps
    (:func:`~schurflow.flow.evolve_cells`), then each is aggregated on its
    own.  Their arrays are views of ``workspace``.  Any cell's non-finite
    update is raised before any cell is aggregated."""
    configs = [spec.cell_config(index) for index in cells]
    rngs = [np.random.default_rng([spec.master_seed, index]) for index in cells]
    names = [f"cell (a0={config.a0}, zeta={config.zeta})" for config in configs]
    try:
        n_minus, n_valid = evolve_cells(
            configs, rngs, loads, spec.n_traj, steps, workspace=workspace
        )
    except NonFiniteState as exc:
        raise NonFiniteState(f"{names[exc.cell]}: {exc}") from exc
    outputs = []
    for g, (config, cell) in enumerate(zip(configs, names)):
        # Non-collapsed trajectories are valid through all k_max + 1 states.
        valid = n_minus[:, g].T[n_valid[g] == config.k_max + 1]
        if not len(valid):
            raise NoValidRecords(f"{cell}: all {spec.n_traj} trajectories collapsed")
        p = [sector_probability(valid, m) for m in range(config.d_tan + 1)]
        mean_fpt, censored_fraction = mean_first_passage(valid, config.target_n_minus)
        outputs.append(
            (p, np.nan if mean_fpt is None else mean_fpt, censored_fraction, len(valid))
        )
    return outputs


def _run_task(task, workspace=None):
    """Statistics of the cells ``start .. stop - 1`` of ``task = (spec,
    start, stop)``, which lie in one row: the row's unit loads are drawn
    once, then the cells are evolved ``G`` at a time, classifying every
    ``B`` steps (:func:`~schurflow.flow.row_loop`), all in one workspace,
    ``workspace`` if given, else a fresh one."""
    spec, start, stop = task
    row = start // spec.zeta_values.size
    size = check_batch_budget(spec.base_config, spec.n_traj, _CELL_KEYS, stop - start)
    if workspace is None:
        workspace = np.empty(size)
    elif workspace.size < size:
        raise ValueError(f"workspace: {size} floats needed, got {workspace.size}")
    # The last cell has the row's a0 and the task's largest zeta: none
    # positive draws nothing.
    last = spec.cell_config(stop - 1)
    load_rng = np.random.default_rng([spec.master_seed, row, 1])
    loads = draw_loads(last, load_rng, spec.n_traj, workspace[:size])
    cells, steps = row_loop(last, stop - start, size // spec.n_traj, drive=last.a0 > 0)
    rest = workspace[loads.size:size]
    loops = (range(first, min(first + cells, stop)) for first in range(start, stop, cells))
    return [output for loop in loops for output in _run_cells(spec, loop, loads, steps, rest)]


def grid_workers(spec: GridSpec, parallelism: int) -> int:
    """Worker processes of a grid run: ``parallelism``, but no more than
    the grid has cells or the machine has CPUs."""
    check_int(parallelism, "parallelism")
    return min(int(parallelism), spec.n_cells, os.cpu_count() or 1)


def run_grid(spec: GridSpec, parallelism: int = 1) -> GridResult:
    """Run every grid cell and aggregate sector statistics.

    ``parallelism`` distributes cells over :func:`grid_workers` worker
    processes; the output is bitwise independent of the worker count
    because every cell owns a generator derived from ``[master_seed,
    cell_index]`` and every row one derived from ``[master_seed, row, 1]``.
    A task is a run of consecutive cells of one row: it allocates one
    workspace, in which it draws its row's loads and evolves its cells.  On
    one worker a task is a whole row.  On more, a grid with fewer than
    eight rows per worker splits each row into about as many tasks as that
    takes, so that the pool can balance the load; each task of a split row
    draws the row's loads again.
    """
    workers = grid_workers(spec, parallelism)
    n_rows, n_zeta = spec.a0_values.size, spec.zeta_values.size
    pieces = 1 if workers == 1 else -(-8 * workers // n_rows)
    chunk = -(-n_zeta // pieces)
    tasks = [
        (spec, start, min(start + chunk, end))
        for end in range(n_zeta, spec.n_cells + 1, n_zeta)
        for start in range(end - n_zeta, end, chunk)
    ]
    if workers == 1:
        chunk_outputs = [_run_task(task) for task in tasks]
    else:
        # Imported here, as only a pool needs it: importing the package does
        # not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk_outputs = list(pool.map(_run_task, tasks))
    cell_outputs = [output for outputs in chunk_outputs for output in outputs]

    # Outputs come in flat cell order, a0 outer: reshape them onto the grid.
    shape = (spec.a0_values.size, spec.zeta_values.size)
    p_sector, mean_fpt, censored, n_valid = (
        np.array(column) for column in zip(*cell_outputs)
    )
    return GridResult(
        a0_values=spec.a0_values.copy(),
        zeta_values=spec.zeta_values.copy(),
        p_sector=p_sector.reshape(*shape, -1),
        mean_fpt=mean_fpt.reshape(shape),
        censored_fraction=censored.reshape(shape),
        n_valid=n_valid.reshape(shape),
        n_traj=spec.n_traj,
        master_seed=int(spec.master_seed),
    )


def extract_boundary(
    result: GridResult, sector: int | None = None, level: float = 0.5
) -> BoundaryCurve:
    """Contour of a sector-occupation probability field.

    Extracts the ``p_sector == level`` curve in the ``(a0, zeta)`` plane for
    the given sector (default: the fully inverted tangential sector
    ``d_tan``).
    """
    if sector is None:
        sector = result.d_tan
    check_int(sector, "sector", low=0, high=result.d_tan)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly between 0 and 1, got {level}")
    if result.a0_values.size < 2 or result.zeta_values.size < 2:
        raise ValueError("boundary extraction requires a grid of at least 2 x 2")
    return find_contour(
        result.a0_values, result.zeta_values, result.p_sector[:, :, sector], level
    )


def boundary_support(
    curve: BoundaryCurve, a0_values, zeta_values
) -> set[tuple[int, int]]:
    """Grid nodes adjacent to a boundary curve.

    Each contour point lies on a grid edge; both end nodes of that edge are
    counted as support.  Returns a set of ``(i, j)`` index pairs into
    ``(a0_values, zeta_values)``.
    """
    a0 = np.asarray(a0_values, dtype=float)
    zeta = np.asarray(zeta_values, dtype=float)
    support: set[tuple[int, int]] = set()
    for x, y in curve.points():
        support.update(
            (i, j)
            for i in _bracket_indices(a0, x)
            for j in _bracket_indices(zeta, y)
        )
    return support


def _bracket_indices(axis: np.ndarray, value: float) -> tuple[int, ...]:
    """Indices of the node(s) bracketing a coordinate on a grid axis."""
    exact = np.flatnonzero(axis == value)
    if exact.size:
        return (int(exact[0]),)
    hi = int(np.searchsorted(axis, value))
    return tuple(k for k in (hi - 1, hi) if 0 <= k < axis.size)

