"""Ensemble statistics of flow trajectories over parameter grids.

A grid run sweeps the anisotropy amplitude ``a0`` (rows) against the
elimination strength ``zeta`` (columns), runs ``n_traj`` independent
trajectories per cell and aggregates final-state sector occupation,
first-passage times and censoring.  Cell ``(i, j)`` has flat index
``i * n_zeta + j`` and trajectory ``t`` in that cell uses the generator
seeded with ``[master_seed, cell_index, t]``; results are therefore
independent of execution order and worker count.  A cell builds its
generators from one hash of all its seeds (:func:`_cell_generators`), each
state for state equal to ``np.random.default_rng([master_seed, cell_index,
t])``, which ``run_trajectory`` uses to replay a trajectory.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .contour import BoundaryCurve, find_contour
from .errors import NonFiniteState, NoValidRecords
from .flow import FlowConfig, check_batch_budget, evolve_batch, first_passage_steps
from .tensor import check_axis, check_budget, check_int, check_scalar, fields_equal


# The config keys that size a cell's workspace.
_CELL_KEYS = "n_traj, base_config.k_max, base_config.d_tan, base_config.schur_model"


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Parameter grid, trajectory count and seeding for an ensemble run.

    The defaults are the reference grid: 20 x 20 cells over moderate
    anisotropy and elimination strength, 100 trajectories per cell.  Axes
    are non-negative as well as finite and strictly increasing.  The arrays
    of one cell, and the results of the whole grid, must each fit in
    ``ARRAY_BUDGET``.
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
        check_batch_budget(self.base_config, self.n_traj, _CELL_KEYS)
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


# numpy's SeedSequence, after O'Neill's seed_seq (PCG, HMC-CS-2014-0905):
# a pool of 4 words, the hash multipliers of the entropy mixing (A) and of
# the state output (B), the two mixing multipliers and the xorshift.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


class _StateWords:
    """Seed sequence that hands ``PCG64`` its four precomputed state words;
    :func:`_cell_generators` registers it as numpy's ``ISeedSequence``."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _int_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; 0 is one word."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """Column of the hash constants ``h_0 = init``, ``h_k+1 = mult h_k``,
    ``k < n``, in uint32 arithmetic, which wraps mod 2**32."""
    return np.cumprod([init] + [mult] * n, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Hash of ``values`` with the consecutive constant pairs of ``h``, one
    output row per pair."""
    v = values ^ h[:-1]
    v *= h[1:]
    v ^= v >> _XSHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mix of the pool words ``x`` with the hashed words ``y``."""
    r = x * _MIX_L - y * _MIX_R
    r ^= r >> _XSHIFT
    return r


def _cell_generators(master_seed: int, cell_index: int, n_traj: int) -> list:
    """Generators of a cell's trajectories, each state for state equal to
    ``np.random.default_rng([master_seed, cell_index, t])``, ``t < n_traj``.

    SeedSequence hashes the seed's 32-bit words into a pool and the pool
    into PCG64's state.  Its constants do not depend on the data, so the
    hash runs once for the cell, vectorized over ``t`` (one word, as the
    batch budget keeps ``n_traj`` far below 2**32).  Longer seeds mix more
    words into the pool.
    """
    head = _int_words(int(master_seed)) + _int_words(int(cell_index))
    n_words = len(head) + 1
    entropy = np.zeros((max(n_words, _POOL), n_traj), dtype=np.uint32)
    entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    entropy[len(head)] = np.arange(n_traj)
    n_extra = max(n_words - _POOL, 0)
    h = _hash_consts(_INIT_A, _MULT_A, _POOL * (_POOL + n_extra))
    # Hash the first words into the pool, mix each pool word into the
    # others, then mix every further word into all of them.
    pool = _hashmix(entropy[:_POOL], h[: _POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[k : k + _POOL]))
        k += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, h[k : k + _POOL + 1]))
        k += _POOL
    # Eight 32-bit words per trajectory, read as four little-endian uint64.
    state = _hashmix(pool[np.arange(8) % _POOL], _hash_consts(_INIT_B, _MULT_B, 8))
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    # Imported here, as np.random.default_rng would import it: importing the
    # package does not load numpy.random.
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StateWords)
    return [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in words]


def _run_cell(spec: GridSpec, cell_index: int, workspace=None):
    """Statistics of one cell; its arrays are views of ``workspace`` if
    given (see :func:`~schurflow.flow.evolve_batch`), else fresh."""
    config = spec.cell_config(cell_index)
    rngs = _cell_generators(spec.master_seed, cell_index, spec.n_traj)
    cell = f"cell (a0={config.a0}, zeta={config.zeta})"
    try:
        _, n_minus, n_valid = evolve_batch(config, rngs, workspace=workspace)
    except NonFiniteState as exc:
        raise NonFiniteState(f"{cell}: {exc}") from exc
    # Non-collapsed trajectories are valid through all k_max + 1 states.
    valid = n_minus[n_valid == config.k_max + 1]
    if not len(valid):
        raise NoValidRecords(f"{cell}: all {spec.n_traj} trajectories collapsed")
    p = [sector_probability(valid, m) for m in range(config.d_tan + 1)]
    mean_fpt, censored_fraction = mean_first_passage(valid, config.target_n_minus)
    return p, np.nan if mean_fpt is None else mean_fpt, censored_fraction, len(valid)


def _run_cells(task):
    """Statistics of the cells ``start .. stop - 1`` of ``task = (spec,
    start, stop)``, which reuse one workspace in turn."""
    spec, start, stop = task
    size = check_batch_budget(spec.base_config, spec.n_traj, _CELL_KEYS)
    workspace = np.empty(size)
    return [_run_cell(spec, cell_index, workspace) for cell_index in range(start, stop)]


def run_grid(spec: GridSpec, parallelism: int = 1) -> GridResult:
    """Run every grid cell and aggregate sector statistics.

    ``parallelism`` distributes cells over at most ``min(parallelism,
    n_cells)`` worker processes; the output is bitwise independent of the
    worker count because every trajectory owns a generator derived from
    ``[master_seed, cell_index, trajectory_index]``.  A cell hashes all its
    seeds at once (:func:`_cell_generators`); each generator equals
    ``np.random.default_rng`` of its seed, as ``run_trajectory`` builds it.
    A task is a run of consecutive cells, about an eighth of a worker's
    share so that the pool can balance the load; it allocates one
    workspace, which its cells reuse.
    """
    check_int(parallelism, "parallelism")
    workers = min(int(parallelism), spec.n_cells)
    chunk = -(-spec.n_cells // (8 * workers))
    tasks = [
        (spec, start, min(start + chunk, spec.n_cells))
        for start in range(0, spec.n_cells, chunk)
    ]
    if workers == 1:
        chunk_outputs = [_run_cells(task) for task in tasks]
    else:
        # Imported here, as only a pool needs it: importing the package does
        # not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk_outputs = list(pool.map(_run_cells, tasks))
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

