"""Discrete coarse-graining flow on symmetric tensors with signature tracking.

Each step eliminates a batch of fast directions from an evolving tangential
response tensor ``q_t``:

    q_t  <-  N( q_t - zeta * Sigma_k + a_k * A_k )

where ``Sigma_k`` is a random positive semidefinite elimination load,
``A_k`` a random traceless unit-norm anisotropy with amplitude
``a_k = a0 * exp(-beta_decay * k)``, and ``N`` a normalization that fixes
the overall scale without touching the signature.  The normal sector is a
fixed positive scalar ``q_n``; records classify the full tensor
``diag(q_n, q_t)`` exactly as :func:`~schurflow.tensor.signature` does.
A grid reads only the negative count, which ``q_n`` never adds to, so the
batch kernel counts the negative directions alone.

Randomness contract
-------------------
A batch of ``n`` trajectories draws its normals from two generators, each
in one ``(n, m)`` standard-normal draw whose row ``t`` holds trajectory
``t``'s (:func:`draw_counts`):

1. the cell generator, the anisotropy components (:func:`draw_anisotropies`),
   none when ``a0 == 0``: ``n_draws`` times the ``n_comp`` packed components
   of a symmetric Gaussian matrix, with ``n_draws = 1`` (quenched, reused
   every step) or ``k_max`` (annealed);
2. the load generator, the unit-load normals (:func:`draw_loads`), none
   when ``zeta == 0``: for :class:`LognormalGaussian` the ``(k_max,
   d_fast)`` fast-block log-eigenvalues, then the ``(k_max, d_tan, d_fast)``
   coupling.

:func:`sample_anisotropy_batch` and :func:`sample_sigma_batch` transform the
two draws; the evolution draws nothing.  numpy fills a draw in row-major
order, and one draw equals the same normals drawn in pieces, so row ``t`` is
block ``t`` of each generator's stream whatever ``n`` is: the cell generator
that has skipped ``t * n_aniso`` normals and the load generator that has
skipped ``t * n_loads`` replay trajectory ``t`` bit for bit as a batch of
one (:func:`run_trajectory`).  A grid draws the unit loads once per row and
every cell of the row reads them (:mod:`schurflow.ensemble`).

The batch kernel holds trajectories in the packed layout of
:mod:`schurflow.tensor`: step ``k`` is one contiguous ``(n_comp, n)`` array
of the ``n_comp = d (d + 1) / 2`` components (diagonal, then upper
off-diagonal entries row by row) of ``n`` trajectories.  The Frobenius norm
counts the off-diagonal squares twice; the trace sums the first ``d``
components.  Both samplers return this layout, computed elementwise from
the normals, and sum over fast modes in an order that does not depend on
the batch size (:func:`_row_sum`).  :func:`flow_step`, the one-step oracle,
stays dense and apart from the kernel.

Draw step and evolve step
-------------------------
A grid row is a load draw (:func:`draw_loads`), an anisotropy draw per
cell (:func:`draw_anisotropies`) and flow loops (:func:`evolve_columns`)
over ``G`` cells each.  A loop reads the unit draws and writes none: each
step forms the load term ``unit_loads[k] * -zeta``, broadcast over the
cells, and the drive term ``unit_aniso[k] * (a0 * exp(-beta_decay * k))``
(step 0's anisotropy in every step when quenched), and adds them to the
state in that order; a zero ``zeta`` or ``a0`` adds -0.0, which changes
nothing, so a loop with no such term skips it.  Step ``k`` of the states is
one contiguous ``(n_comp, G, n)`` array.  The states live in a ring of
``B + 1`` steps: every ``B`` steps the new ones are classified in one
:func:`~schurflow.tensor.embedded_negatives` call into a one-byte
``(k_max + 1, G, n)`` negative-count history, which is all a grid cell
reads.  :func:`row_loop` picks ``G`` and ``B`` (:func:`evolve_cells`).

Workspace
---------
A grid task works in one flat float64 workspace of
:func:`check_batch_budget`'s count, so the budget check and the allocation
are one number; without one, a call allocates its own arrays.  It is laid
out as ``[row loads][drives][history][ring][loop temporaries]
[classification]``:

- the load draw lies at the end of the workspace, and its sampler takes
  as scratch everything from the head up to the draw: the unit loads, one
  ``(k_max, n_comp, n)`` block, stay at its head;
- :func:`evolve_cells` works in the rest.  Each cell's unit anisotropies
  are one ``(n_draws, n_comp, n)`` block (none when ``a0 == 0``); its
  draw lies at the end of the workspace, and its sampler takes as scratch
  everything from its block up to the draw, none of it written yet, so
  the anisotropies land in place;
- :func:`evolve_columns` lays out after the history the ring, a step's
  term (which also takes its squares), the update norms of a block, a
  step's scale, trace and mask, the valid counts, and the classification
  scratch of a block, ``CLOSED_FORM_ROWS`` floats a state.

Every view is written in full before it is read, so what a workspace held
before a call never reaches a result.  Aliasing rule: the unit loads of
:func:`draw_loads` and the arrays :func:`evolve_cells` and
:func:`evolve_columns` return are views of the workspace, valid until it is
used again.  Given ``scratch``, a sampler returns the first view it takes
from it, the head of the scratch, and lays out its temporaries after it.
Without ``workspace`` or ``scratch`` no returned array shares memory with
another call's.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum

import numpy as np

from .errors import DegenerateDraw, NonFiniteState, ZeroTensor
from .tensor import (
    CLOSED_FORM_ROWS, check_budget, check_int, check_scalar, check_symmetric,
    embedded_counts, embedded_negatives, fields_equal, packed_index, scratch_views,
    symmetrize, unpack_symmetric,
)

# Frobenius norm below which a tensor counts as collapsed to zero.
ZERO_FLOOR = 1e-14
# Absolute |trace| floor below which trace normalization falls back to Frobenius.
TRACE_FLOOR = 1e-8


class NormMode(str, enum.Enum):
    """Scale-fixing rule applied after every flow step."""

    FROBENIUS = "frobenius"
    TRACE = "trace"


class Disorder(str, enum.Enum):
    """Anisotropy disorder protocol: fresh each step or frozen per trajectory."""

    ANNEALED = "annealed"
    QUENCHED = "quenched"


@dataclasses.dataclass(frozen=True)
class LognormalGaussian:
    """Elimination load from a Gaussian coupling and a lognormal fast block.

    The fast block is ``r diag(exp(sigma_log * z)) r.T`` with a Haar
    rotation ``r`` and standard normal ``z``; the coupling ``b`` is an
    i.i.d. Gaussian ``(d_tan, d_fast)`` matrix scaled by ``1 / sqrt(d_fast)``.
    The load is the Schur-complement correction ``b C^{-1} b.T``, evaluated
    in the eigenbasis of the fast block: with ``w = sqrt(d_fast) b r``, its
    ``(i, j)`` component is ``sum_f w_if w_jf exp(-sigma_log * z_f) /
    d_fast``.  ``b`` is independent of ``r`` and its law is invariant under
    rotations, so ``w`` is standard Gaussian and is drawn as such: no
    rotation is drawn (Mezzadri, arXiv:math-ph/0609050).
    """

    sigma_log: float = 1.0
    d_fast: int | None = None

    def __post_init__(self) -> None:
        check_scalar(self.sigma_log, "sigma_log")
        if self.d_fast is not None:
            check_int(self.d_fast, "d_fast")


@dataclasses.dataclass(frozen=True)
class Wishart:
    """Elimination load ``g g.T`` with ``g`` an i.i.d. Gaussian
    ``(d_tan, rank)`` matrix scaled by ``1 / sqrt(rank)`` so the mean load
    is the identity."""

    rank: int | None = None

    def __post_init__(self) -> None:
        if self.rank is not None:
            check_int(self.rank, "rank")


SchurModel = LognormalGaussian | Wishart


class _FullyInverted(int):
    """A defaulted ``target_n_minus``, resolved anew for a replaced ``d_tan``."""


@dataclasses.dataclass(frozen=True)
class FlowConfig:
    """Parameters of a single flow run.

    ``q_init`` defaults to the identity.  ``target_n_minus`` is the
    negative-count threshold defining first passage; it defaults to
    ``d_tan``, the fully inverted tangential sector, also after a
    ``dataclasses.replace`` of ``d_tan``.
    """

    zeta: float = 0.0
    a0: float = 0.0
    d_tan: int = 3
    q_n: float = 1.0
    beta_decay: float = 0.05
    k_max: int = 100
    norm_mode: NormMode = NormMode.FROBENIUS
    schur_model: SchurModel = LognormalGaussian()
    disorder: Disorder = Disorder.ANNEALED
    target_n_minus: int | None = None
    q_init: np.ndarray | None = None

    __eq__ = fields_equal

    def __post_init__(self) -> None:
        check_int(self.d_tan, "d_tan")
        check_int(self.k_max, "k_max")
        for name in ("zeta", "a0", "beta_decay"):
            check_scalar(getattr(self, name), name, positive=False)
        check_scalar(self.q_n, "q_n")
        if self.a0 > 0 and self.d_tan < 2:
            raise ValueError("anisotropy requires d_tan >= 2")
        if isinstance(self.target_n_minus, (type(None), _FullyInverted)):
            object.__setattr__(self, "target_n_minus", _FullyInverted(self.d_tan))
        check_int(self.target_n_minus, "target_n_minus", low=0, high=self.d_tan)
        object.__setattr__(self, "norm_mode", NormMode(self.norm_mode))
        object.__setattr__(self, "disorder", Disorder(self.disorder))
        if not isinstance(self.schur_model, SchurModel):
            raise TypeError(
                "schur_model must be a LognormalGaussian or Wishart instance"
            )
        check_batch_budget(self, 1, "k_max, d_tan, schur_model")
        if self.q_init is not None:
            q0 = check_symmetric(self.q_init, "q_init", (self.d_tan, self.d_tan))
            object.__setattr__(self, "q_init", q0)

    def initial_state(self) -> np.ndarray:
        return np.eye(self.d_tan) if self.q_init is None else self.q_init.copy()


@dataclasses.dataclass
class TrajectoryRecord:
    """Per-step classification of one flow trajectory.

    Arrays run over states ``0 .. n_steps`` (entry 0 is the initial state).
    The signature counts refer to the full tensor ``diag(q_n, q_t)`` and
    equal ``signature(embed_full(q_t, q_n))``: an eigenvalue counts as zero
    within ``SIGNATURE_TOL * max(1, q_n, ||q_t||_op)``, the full tensor's
    band, so a large ``q_n`` widens the band of the tangential eigenvalues.
    ``q`` and ``s_opnorm`` are the isotropic weight and traceless operator
    norm of the tangential block alone, ``q_t = q I + s``.
    ``separation_holds`` marks dominance, ``|q| > ||s||_op``, which
    guarantees that every tangential eigenvalue has the sign of ``q``.
    ``first_passage`` is the first step whose negative count equals the
    target, ``None`` when censored.  A collapsed trajectory carries the
    valid prefix only.
    """

    n_plus: np.ndarray
    n_minus: np.ndarray
    n_zero: np.ndarray
    q: np.ndarray
    s_opnorm: np.ndarray
    separation_holds: np.ndarray
    first_passage: int | None
    censored: bool
    collapsed: bool

    __eq__ = fields_equal

    @property
    def n_steps(self) -> int:
        return len(self.q) - 1


def check_batch_budget(config: FlowConfig, n: int, keys: str, cells: int = 1) -> int:
    """Refuse, naming the config ``keys``, a grid task of ``cells`` cells of
    ``n`` trajectories whose workspace would exceed ``ARRAY_BUDGET``;
    allocates nothing.  Returns the size of that workspace in floats, the
    count the budget checks.

    Per trajectory it is the row's load draw (:func:`_sigma_floats`), or,
    if more, what a flow loop of up to two cells took when each held its
    unit anisotropies, a copy of the row's loads and its whole state
    history (0.22.0 to 0.25.0): the row's unit loads, ``n_comp`` floats per
    step, and per cell ``3 * k_max + 1`` times ``n_comp`` and the loop's
    update norms and three scalars; and never less than a loop of one cell
    classified every step.  Each row of the task runs in it the largest
    loop that fits (:func:`row_loop`).
    """
    d, k, pair = config.d_tan, config.k_max, min(2, cells)
    n_comp = d * (d + 1) // 2
    _, per_load, sigma = _sigma_floats(config.schur_model, d)
    per_cell = (3 * k + 1) * n_comp + k + n_comp + 3
    per_trajectory = max(
        k * (per_load + sigma), k * n_comp + pair * per_cell,
        _task_floats(config, 1, 1, drive=True),
    )
    check_budget((n, per_trajectory), keys)
    return n * per_trajectory


def _task_floats(config: FlowConfig, cells: int, steps: int, drive: bool) -> int:
    """Floats per trajectory of a grid task whose flow loops evolve
    ``cells`` cells, with anisotropies where ``drive`` holds, and classify
    every ``steps`` steps: the largest of the row's load draw, the last
    cell's anisotropy draw, whose sampler's scratch starts at that cell's
    block, and the loop (module docstring, Workspace).  The loop holds the
    row's unit loads, and per cell its unit anisotropies, one byte a state
    of history, the ring's first state, the term, and ``scale``, ``trace``,
    ``kept`` and ``n_valid``, a float each; and per step of a block a
    state, its norm and its classification."""
    d, k = config.d_tan, config.k_max
    n_comp = d * (d + 1) // 2
    _, per_load, sigma = _sigma_floats(config.schur_model, d)
    n_draws = _anisotropy_draws(config) if drive else 0
    per_cell = n_draws * n_comp + 2 * n_comp + 4 + steps * (n_comp + 1 + CLOSED_FORM_ROWS)
    return max(
        k * (per_load + sigma),
        k * n_comp + cells * n_draws * n_comp + n_draws * _anisotropy_floats(d),
        k * n_comp + -(-(k + 1) * cells // 8) + cells * per_cell,
    )


def row_loop(config: FlowConfig, cells: int, floats: int, drive: bool):
    """``(G, B)`` for a row of ``cells`` cells under ``config``, with
    anisotropies where ``drive`` holds: the most cells ``G``, then the most
    steps ``B <= k_max`` between classifications, whose task fits in
    ``floats`` per trajectory (:func:`_task_floats`, which grows with
    both); at least ``(1, 1)``."""

    def fitting(count, need):
        return max(1, bisect.bisect_right(range(1, count + 1), floats, key=need))

    g = fitting(cells, lambda g: _task_floats(config, g, 1, drive))
    return g, fitting(config.k_max, lambda b: _task_floats(config, g, b, drive))


def _anisotropy_draws(config: FlowConfig) -> int:
    """Anisotropies of a trajectory: one per step, or one (quenched)."""
    return config.k_max if config.disorder is Disorder.ANNEALED else 1


def draw_counts(config: FlowConfig) -> tuple[int, int]:
    """``(n_aniso, n_loads)``: the standard normals of one trajectory's
    anisotropies, its row of the cell generator's draw
    (:func:`draw_anisotropies`), and of its loads, its row of the load
    generator's draw (:func:`draw_loads`); a count is zero where ``a0`` or
    ``zeta`` is."""
    d = config.d_tan
    anisotropies = _anisotropy_draws(config) * d * (d + 1) // 2 if config.a0 > 0 else 0
    loads = config.k_max * _sigma_floats(config.schur_model, d)[1] if config.zeta > 0 else 0
    return anisotropies, loads


def _sigma_floats(model: SchurModel, d_tan: int) -> tuple[int, int, int]:
    """``(modes, normals, floats)`` of :func:`sample_sigma_batch` per load:
    the fast modes it sums over, the normals it transforms, and the scratch
    it takes, in order the packed load, ``n_comp``, then per mode the
    lognormal weight, the transposed coupling, ``d_tan``, and the product.
    Raises ``TypeError`` for another model."""
    if isinstance(model, LognormalGaussian):
        modes, lognormal = model.d_fast or d_tan, 1
    elif isinstance(model, Wishart):
        modes, lognormal = model.rank or d_tan, 0
    else:
        raise TypeError(f"unknown elimination-load model: {model!r}")
    per_mode = d_tan + 1 + lognormal
    return modes, (d_tan + lognormal) * modes, d_tan * (d_tan + 1) // 2 + per_mode * modes


def _anisotropy_floats(d_tan: int) -> int:
    """Scratch floats per draw of :func:`sample_anisotropy_batch`: in order
    the unit anisotropy and its squares, ``n_comp`` each, and one sum."""
    return d_tan * (d_tan + 1) + 1


def _rows(normals, count: int) -> np.ndarray:
    """``normals`` as an ``(n_traj, count)`` float array, or ``ValueError``."""
    rows = np.asarray(normals, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != count:
        raise ValueError(f"normals: expected shape (n_traj, {count}), got {rows.shape}")
    return rows


def sample_sigma_batch(
    model: SchurModel, d_tan: int, n: int, normals, *, scratch=None
) -> np.ndarray:
    """``n`` elimination loads per trajectory as packed components, a ``(n,
    n_comp, n_traj)`` array, from the standard normals ``normals``, row
    ``i`` trajectory ``i``'s; column ``i`` equals a call with row ``i``
    alone.

    A row holds, for :class:`LognormalGaussian`, the fast-block
    log-eigenvalues ``z`` with shape ``(n, d_fast)``, then the coupling
    ``w`` ``(n, d_tan, d_fast)``, in the fast block's eigenbasis, and the
    weight of mode ``f`` is ``exp(-sigma_log * z_f) / d_fast``.  For
    :class:`Wishart`: a single ``(n, d_tan, rank)`` factor ``w``, each mode
    weighted ``1 / rank``.  Component ``(i, j)`` is ``sum_f (w_if * w_jf) *
    weight_f``, summed over modes by :func:`_row_sum`.

    Given ``scratch``, a flat float64 array of at least ``n * n_traj`` times
    :func:`_sigma_floats`' count, the loads are its head and the
    temporaries follow them; without it every array is fresh.
    """
    check_int(d_tan, "d_tan")
    check_int(n, "n")
    modes, per_load, _ = _sigma_floats(model, int(d_tan))
    normals = _rows(normals, n * per_load)
    lognormal = isinstance(model, LognormalGaussian)
    empty, n_traj = scratch_views(scratch), len(normals)
    out = empty((n, d_tan * (d_tan + 1) // 2, n_traj))
    weight = empty((modes, n, n_traj)) if lognormal else 1.0 / modes
    if lognormal:
        z = normals[:, : n * modes].reshape(n_traj, n, modes)
        np.multiply(z.transpose(2, 1, 0), -model.sigma_log, out=weight)
        np.exp(weight, out=weight)
        weight /= modes
    # Axes (mode, row, draw, trajectory): a component's products are contiguous.
    factor = empty((modes, d_tan, n, n_traj))
    w = normals[:, lognormal * n * modes:].reshape(n_traj, n, d_tan, modes)
    np.copyto(factor, w.transpose(3, 2, 1, 0))
    products = empty((modes, n, n_traj))
    rows, cols = np.divmod(packed_index(d_tan), d_tan)
    for c, (i, j) in enumerate(zip(rows, cols)):
        np.multiply(factor[:, i], factor[:, j], out=products)
        products *= weight
        _row_sum(products, out[:, c])
    return out


def sample_anisotropy_batch(d_tan: int, n: int, normals, *, scratch=None) -> np.ndarray:
    """``n`` traceless unit-Frobenius symmetric anisotropies per trajectory
    as packed components, a ``(n, n_comp, n_traj)`` array, from the standard
    normals ``normals``, row ``i`` trajectory ``i``'s.

    A row holds ``n`` times the ``n_comp`` packed components of a GOE
    matrix, the law of ``(g + g.T) / 2``: the off-diagonal components are
    scaled by ``sqrt(1/2)``, the diagonal mean is subtracted from the
    diagonal, and each draw is divided by its Frobenius norm, whose sum of
    squares counts the off-diagonal squares twice.  Both sums run over
    components by :func:`_row_sum`.  A projected norm below the zero floor,
    which a Gaussian draw reaches with probability below 1e-28, raises
    :class:`DegenerateDraw`; nothing is redrawn.

    ``scratch`` works as in :func:`sample_sigma_batch`, with
    :func:`_anisotropy_floats`' count per draw.
    """
    check_int(d_tan, "d_tan", low=2)
    check_int(n, "n")
    n_comp = d_tan * (d_tan + 1) // 2
    normals = _rows(normals, n * n_comp)
    empty, n_traj = scratch_views(scratch), len(normals)
    s = empty((n, n_comp, n_traj))
    np.copyto(s, normals.reshape(n_traj, n, n_comp).transpose(1, 2, 0))
    s[:, d_tan:] *= np.sqrt(0.5)
    diagonal, square = s[:, :d_tan].swapaxes(0, 1), empty(s.shape).swapaxes(0, 1)
    mean = _row_sum(diagonal, empty((n, n_traj)))
    mean /= d_tan
    diagonal -= mean
    norm = _frobenius(s.swapaxes(0, 1), d_tan, square, mean)
    if np.any(norm < ZERO_FLOOR):
        raise DegenerateDraw(f"an anisotropy draw has norm below {ZERO_FLOOR}")
    s /= norm[:, None]
    return s


def anisotropy_strength(a0: float, beta_decay: float, k):
    """Per-step anisotropy amplitude ``a0 * exp(-beta_decay * k)``.

    ``k`` counts steps from zero, so the first update uses exactly ``a0``.
    Accepts a scalar or array ``k``.
    """
    check_scalar(a0, "a0", positive=False)
    check_scalar(beta_decay, "beta_decay", positive=False)
    k_arr = np.asarray(k)
    if not np.all(k_arr >= 0):
        raise ValueError("step index k must be non-negative")
    out = a0 * np.exp(-beta_decay * k_arr)
    return float(out) if np.isscalar(k) else out


def flow_step(q_t, sigma, a, a_k: float, zeta: float, mode: NormMode) -> np.ndarray:
    """One flow update: subtract the load, add anisotropy, renormalize.

    Computes ``N(q_t - zeta * sigma + a_k * a)`` with the symmetric part
    taken before normalization.  ``N`` rescales to unit Frobenius norm or,
    in trace mode (``mode`` may be a :class:`NormMode` or its string), to
    ``|trace| == d`` when ``|trace| >= TRACE_FLOOR``.  Multiplying by a
    positive scale never moves eigenvalues across zero, so the signature
    after the update is decided by the un-normalized combination alone.
    Raises :class:`ZeroTensor` below the zero floor and
    :class:`NonFiniteState` if the update or its norm is not finite.
    """
    q = np.asarray(q_t, dtype=float)
    sig = np.asarray(sigma, dtype=float)
    a_arr = np.asarray(a, dtype=float)
    if (
        not (q.shape == sig.shape == a_arr.shape)
        or q.ndim != 2
        or q.shape[0] != q.shape[1]
    ):
        raise ValueError(
            f"shape mismatch: q_t {q.shape}, sigma {sig.shape}, a {a_arr.shape}"
        )
    if not (np.isfinite(a_k) and np.isfinite(zeta)):
        raise ValueError("a_k and zeta must be finite")
    upd = symmetrize(q - zeta * sig + a_k * a_arr)
    fro = float(np.sqrt(np.einsum("ij,ij->", upd, upd)))
    if not np.isfinite(fro):
        raise NonFiniteState("the update or its Frobenius norm is not finite")
    if fro < ZERO_FLOOR:
        raise ZeroTensor(f"the update has norm {fro:.3e} below floor {ZERO_FLOOR}")
    tr = abs(float(np.trace(upd)))
    if NormMode(mode) is NormMode.TRACE and tr >= TRACE_FLOOR:
        return upd * (len(upd) / tr)
    return upd * (1.0 / fro)


def embed_full(q_t, q_n: float) -> np.ndarray:
    """Full tensor ``diag(q_n, q_t)`` with the scalar normal sector first."""
    q = check_symmetric(q_t, name="q_t")
    check_scalar(q_n, "q_n")
    d = q.shape[0]
    full = np.zeros((d + 1, d + 1))
    full[0, 0] = q_n
    full[1:, 1:] = q
    return full


def _row_sum(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over axis 0 into ``out`` in an order that does not depend on the
    batch size: numpy adds fewer than eight terms in order, and more
    pairwise where they are contiguous, as in a batch of one."""
    np.add.reduce(rows[:7], axis=0, out=out)
    for start in range(7, len(rows), 7):
        out += np.add.reduce(rows[start:start + 7], axis=0)
    return out


def _frobenius(q: np.ndarray, d: int, square: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Frobenius norms of packed components ``q`` (components on axis 0)
    into ``out``, squaring into ``square``."""
    np.multiply(q, q, out=square)
    square[d:] *= 2.0  # an off-diagonal component stands for two entries
    return np.sqrt(_row_sum(square, out), out=out)


def _draw(rng, n: int, count: int, scratch):
    """One ``(n, count)`` standard-normal draw from ``rng``, and the scratch
    before it: with ``scratch``, the draw is its end."""
    if scratch is None:
        return rng.standard_normal((n, count)), None
    cut = scratch.size - n * count
    return rng.standard_normal(out=scratch[cut:].reshape(n, count)), scratch[:cut]


def draw_anisotropies(config: FlowConfig, rng, drive, *, scratch=None) -> None:
    """Cell part of the draw step: one ``(n, n_aniso)`` standard-normal draw
    from ``rng`` for the ``n = drive.shape[-1]`` trajectories of a cell,
    transformed in one :func:`sample_anisotropy_batch` call.  Writes the
    unit anisotropies into ``drive``, ``(n_draws, n_comp, n)``.  With
    ``scratch`` the draw lies at its end and the sampler takes the rest.  A
    zero ``a0`` draws and writes nothing; :func:`evolve_columns` then adds
    no drive.
    """
    if config.a0 > 0:
        normals, scratch = _draw(rng, drive.shape[-1], draw_counts(config)[0], scratch)
        n_draws = _anisotropy_draws(config)
        np.copyto(drive, sample_anisotropy_batch(config.d_tan, n_draws, normals, scratch=scratch))


def draw_loads(config: FlowConfig, rng, n: int, workspace=None) -> np.ndarray:
    """Row part of the draw step: one ``(n, n_loads)`` standard-normal draw
    from ``rng``, transformed in one :func:`sample_sigma_batch` call.
    Returns the unit loads, ``(k_max, n_comp, n)``, as the sampler returns
    them: the head of ``workspace`` when given, whose end then holds the
    draw, with the sampler's scratch between.  A zero ``zeta`` draws
    nothing and returns that head unwritten; no loop reads it.
    """
    n_comp = config.d_tan * (config.d_tan + 1) // 2
    if config.zeta == 0:
        return scratch_views(workspace)((config.k_max, n_comp, n))
    normals, scratch = _draw(rng, n, draw_counts(config)[1], workspace)
    return sample_sigma_batch(
        config.schur_model, config.d_tan, config.k_max, normals, scratch=scratch
    )


def evolve_columns(
    config: FlowConfig, drives, loads, a0, zeta, *, steps=None, history=None, workspace=None
):
    """Evolve step: the flow loop over ``cells`` cells of ``n`` trajectories
    at once, which reads its unit draws and writes none of them.

    ``loads`` holds the row's unit loads (:func:`draw_loads`), ``(k_max,
    n_comp, n)``, and ``zeta`` one value per cell; ``drives`` the cells'
    unit anisotropies (:func:`draw_anisotropies`), ``(cells, n_draws,
    n_comp, n)``, or None where the row's ``a0`` is zero; the config's own
    ``a0`` and ``zeta`` are not read.  Step ``k`` adds ``unit_loads[k] *
    -zeta``, -0.0 where ``zeta`` is zero, then ``unit_aniso[k] * (a0 *
    exp(-beta_decay * k))``, one product per element, and normalizes.

    The states live in a ring of ``steps + 1`` states (``steps = k_max`` by
    default holds them all).  Given ``history``, an int8 ``(k_max + 1,
    cells, n)`` array, every ``steps`` steps the new states are classified
    into it by one :func:`~schurflow.tensor.embedded_negatives` call.
    Returns ``(ring, n_valid)``: the ring, ``(steps + 1, n_comp, cells,
    n)``, whose row 0 holds the initial state and rows ``1 ..`` the last
    block's, and per trajectory, ``(cells, n)``, the count of valid states,
    those before the first below the zero floor.  The arrays are views of
    ``workspace``, or fresh.  A non-finite update raises
    :class:`NonFiniteState` naming, in the first cell with one, the first
    step with one and the first trajectory, by index in the cell, at that
    step; its ``cell`` attribute holds the cell.  No block is classified
    after one with a non-finite update.
    """
    k_max, d = config.k_max, config.d_tan
    zeta = np.asarray(zeta, dtype=float)
    cells, n_comp, n = zeta.size, d * (d + 1) // 2, loads.shape[-1]
    steps = k_max if steps is None else steps
    empty = scratch_views(workspace)
    ring = empty((steps + 1, n_comp, cells, n))
    term, norms = empty((n_comp, cells, n)), empty((steps, cells, n))
    scale, trace, kept = empty((cells, n)), empty((cells, n)), empty((cells, n), bool)
    n_valid = empty((cells, n), np.intp)
    if history is not None:
        scratch = empty((steps * cells * n * CLOSED_FORM_ROWS,))
    # Per cell, on a step's (cells, n) axes.
    idle = (zeta == 0)[:, None]
    loading, some_idle, neg_zeta = not idle.all(), idle.any(), -zeta[:, None]
    if drives is not None:
        factor = a0 * anisotropy_strength(1.0, config.beta_decay, np.arange(k_max))
        drive_steps = drives.transpose(1, 2, 0, 3)  # step k as (n_comp, cells, n)
        annealed = config.disorder is Disorder.ANNEALED
    trace_mode = config.norm_mode is NormMode.TRACE
    ring[0] = config.initial_state().ravel()[packed_index(d), None, None]
    n_valid.fill(k_max + 1)
    if history is not None:
        history[0] = embedded_negatives(ring[0, :, :1, :1], config.q_n)
    prev, bad = ring[0], None
    # A state below the zero floor is scaled as if its norm were the floor,
    # so it stays finite; n_valid drops it and what follows.  A non-finite
    # update spreads along its own trajectory only and is reported after.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, k_max, steps):
            block = norms[:min(steps, k_max - start)]
            for j, norm in enumerate(block):
                k, q = start + j, ring[j + 1]
                if loading:  # adding -zeta * sigma subtracts it exactly
                    np.multiply(loads[k, :, None], neg_zeta, out=term)
                    if some_idle:
                        np.copyto(term, -0.0, where=idle)
                    np.add(prev, term, out=q)
                else:
                    np.copyto(q, prev)
                if drives is not None:
                    np.multiply(drive_steps[k if annealed else 0], factor[k], out=term)
                    q += term
                _frobenius(q, d, term, norm)
                np.divide(1.0, np.maximum(norm, ZERO_FLOOR, out=scale), out=scale)
                if trace_mode:  # d / |trace| unless |trace| is below the floor
                    np.abs(_row_sum(q[:d], trace), out=trace)
                    np.greater_equal(trace, TRACE_FLOOR, out=kept)
                    np.divide(d, trace, out=scale, where=kept)
                q *= scale
                prev = q
            if not (block.min() >= ZERO_FLOOR and block.max() < np.inf):  # NaN fails both
                _first_steps(block < ZERO_FLOOR, start + 1, n_valid, k_max + 1)
                broken = ~np.isfinite(block)
                if broken.any():
                    bad = np.full((cells, n), k_max) if bad is None else bad
                    _first_steps(broken, start, bad, k_max)
            if history is not None and bad is None:
                states = ring[1:len(block) + 1].swapaxes(0, 1)
                history[start + 1:start + len(block) + 1] = embedded_negatives(
                    states, config.q_n, scratch=scratch
                )

    if bad is not None:
        cell = int((bad < k_max).any(axis=1).argmax())
        error = NonFiniteState(
            f"trajectory {int(bad[cell].argmin())}, step {int(bad[cell].min()) + 1}: "
            "the update or its Frobenius norm is not finite"
        )
        error.cell = cell
        raise error
    return ring, n_valid


def _first_steps(hits: np.ndarray, start: int, out: np.ndarray, unset: int) -> None:
    """Where ``out`` is still ``unset``, write ``start + i`` for the first
    ``i`` along axis 0 at which the mask ``hits`` holds, if any."""
    np.copyto(out, hits.argmax(axis=0) + start, where=hits.any(axis=0) & (out == unset))


def _draw_drives(configs, rngs, n: int, workspace=None):
    """The unit anisotropies of ``n`` trajectories of each cell, drawn from
    ``rngs[g]`` under ``configs[g]`` (:func:`draw_anisotropies`), as one
    ``(cells, n_draws, n_comp, n)`` array at the head of ``workspace``, or
    fresh; None where ``a0`` is zero.  Each sampler takes as scratch the
    workspace from its cell's block on."""
    config = configs[0]
    if config.a0 == 0:
        return None
    n_comp = config.d_tan * (config.d_tan + 1) // 2
    drives = scratch_views(workspace)((len(configs), _anisotropy_draws(config), n_comp, n))
    for g, (cell, rng) in enumerate(zip(configs, rngs)):
        scratch = None if workspace is None else workspace[g * drives[g].size:]
        draw_anisotropies(cell, rng, drives[g], scratch=scratch)
    return drives


def evolve_cells(configs, rngs, loads, n, steps, *, workspace=None):
    """Draw each cell's anisotropies in turn, then evolve all the cells in
    one flow loop that classifies every ``steps`` steps.

    Cell ``g`` is ``n`` trajectories under ``configs[g]``, its anisotropies
    drawn from the generator ``rngs[g]`` (:func:`draw_anisotropies`); the
    configs differ in ``zeta`` alone.  Every cell reads the row's unit loads
    ``loads`` (:func:`draw_loads`), and none writes them.  A trajectory
    reads only its own row of each draw and every operation is elementwise
    per trajectory, so its states, and hence its counts, are bitwise those
    of a cell of one drawn from its blocks of the streams, whatever
    ``steps`` and the number of cells are.  Returns ``(n_minus, n_valid)``:
    the int8 negative-count history, ``(k_max + 1, cells, n)``, and
    :func:`evolve_columns`' ``n_valid``.  ``workspace``, of at least
    :func:`_task_floats`' count less the row loads, or None for fresh
    arrays, is laid out as the module docstring describes.
    """
    config = configs[0]
    drives = _draw_drives(configs, rngs, n, workspace)
    if workspace is not None and drives is not None:
        workspace = workspace[drives.size:]
    n_minus = scratch_views(workspace)((config.k_max + 1, len(configs), n), np.int8)
    if workspace is not None:
        workspace = workspace[-(-n_minus.size // 8):]
    _, n_valid = evolve_columns(
        config, drives, loads, config.a0, [cell.zeta for cell in configs], steps=steps,
        history=n_minus, workspace=workspace,
    )
    return n_minus, n_valid


def first_passage_steps(n_minus, target_n_minus: int) -> np.ndarray:
    """Index of the first state, along the last axis of ``n_minus``, whose
    negative count equals ``target_n_minus``; -1 where there is none."""
    hit = np.asarray(n_minus) == target_n_minus
    return np.where(hit.any(axis=-1), hit.argmax(axis=-1), -1)


def run_trajectory(config: FlowConfig, seed, load_seed) -> TrajectoryRecord:
    """Run a single flow trajectory, its anisotropies drawn from the
    generator of ``seed`` and its loads from that of ``load_seed``.

    Both are passed to ``numpy.random.default_rng``, which returns a
    generator it is given unchanged, and the trajectory draws one row from
    each.  So with ``n_aniso, n_loads = draw_counts(config)``, ``rng =
    default_rng([master_seed, c])`` after ``rng.standard_normal(t *
    n_aniso)`` and ``load_rng = default_rng([master_seed, i, 1])`` after
    ``load_rng.standard_normal(t * n_loads)`` reproduce trajectory ``t`` of
    grid cell ``c`` in row ``i`` bit for bit.  Only
    here are records built, and ``q``, ``s_opnorm`` and the separation flag
    computed: this is the one caller that runs ``eigvalsh``, on the valid
    prefix only, for the extreme eigenvalues behind ``s_opnorm`` and the
    signature counts (:func:`~schurflow.tensor.embedded_counts`).  A
    trajectory that collapses below the zero floor mid-run is returned as
    the record of its valid prefix, with ``collapsed`` set.  The states come
    from the draw and evolve steps alone (:func:`draw_loads`,
    :func:`draw_anisotropies`, :func:`evolve_columns` with one block and no
    history), without the grid's bulk classification.

    Raises
    ------
    NonFiniteState
        If an update or its norm is not finite.
    """
    loads = draw_loads(config, np.random.default_rng(load_seed), 1)
    drives = _draw_drives([config], [np.random.default_rng(seed)], 1)
    states, n_valid = evolve_columns(config, drives, loads, config.a0, [config.zeta])
    valid = slice(0, int(n_valid[0, 0]))
    states = states[valid, :, 0, 0].T
    eigs = np.linalg.eigvalsh(unpack_symmetric(states))
    n_plus, n_minus, n_zero = embedded_counts(eigs, config.q_n)
    q_iso = states[:config.d_tan].sum(axis=0) / config.d_tan
    s_opnorm = np.maximum(np.abs(eigs[:, 0] - q_iso), np.abs(eigs[:, -1] - q_iso))
    first = int(first_passage_steps(n_minus, config.target_n_minus))
    return TrajectoryRecord(
        n_plus=n_plus,
        n_minus=n_minus,
        n_zero=n_zero,
        q=q_iso,
        s_opnorm=s_opnorm,
        separation_holds=np.abs(q_iso) > s_opnorm,
        first_passage=first if first >= 0 else None,
        censored=first < 0,
        collapsed=valid.stop <= config.k_max,
    )
