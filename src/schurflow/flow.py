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
A batch of ``n`` trajectories makes one ``(n, m)`` standard-normal draw
from one generator (:func:`draw_batch`), row ``t`` the ``m`` normals of
trajectory ``t`` (:func:`draw_counts`), in this order:

1. the anisotropy components, none when ``a0 == 0``: ``n_draws`` times the
   ``n_comp`` packed components of a symmetric Gaussian matrix, with
   ``n_draws = 1`` (quenched, reused every step) or ``k_max`` (annealed);
2. the load normals, none when ``zeta == 0``: for :class:`LognormalGaussian`
   the ``(k_max, d_fast)`` fast-block log-eigenvalues, then the ``(k_max,
   d_tan, d_fast)`` coupling.

:func:`sample_anisotropy_batch` and :func:`sample_sigma_batch` transform the
two parts; the evolution draws nothing.  numpy fills a draw in row-major
order, and one draw equals the same normals drawn in pieces, so row ``t`` is
block ``t`` of the generator's stream whatever ``n`` is: the generator that
has skipped ``t * m`` normals replays trajectory ``t`` bit for bit as a
batch of one (:func:`run_trajectory`).

:func:`evolve_batch` holds a batch in the packed layout of
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
A run is a draw step per batch (:func:`draw_batch`) and one evolve step
(:func:`evolve_columns`), which scales the unit draws by a per-trajectory
``a0`` and ``zeta`` and runs the flow loop over any number of batches at
once; step ``k`` of the states is one contiguous ``(n_comp, batches, n)``
array.  A grid evolves two cells in one loop, which shares the loop's
per-step cost, and draws, classifies and aggregates each on its own.

Workspace
---------
:func:`evolve_batches` works in one flat float64 workspace of
:func:`check_batch_budget`'s count, so the budget check and the allocation
are one number.  A grid task allocates it once for all its pairs of cells;
without one, a call allocates its own.  It is laid out as ``[drive]
[loads][transient][states]``, the drive and the loads one ``(k_max,
n_comp, n)`` block per batch:

- a batch's draw lies at the end of the workspace, and its samplers take
  as scratch everything from its loads block up to the draw, none of it
  written yet: the anisotropies are copied to its drive block, and the
  loads stay at the head of the scratch, its loads block;
- the evolve step keeps the update norms, squares and scales in the
  transient region, and writes each update into its state;
- after the loop one batch at a time is classified over the spent loads
  and transient region: a contiguous copy of its states, the closed
  form's temporaries and the negative counts.

Every view is written in full before it is read, so what a workspace held
before a call never reaches a result.  Aliasing rule: the states and the
``d_tan = 3`` negative counts that :func:`evolve_batch` returns, and the
states of :func:`evolve_batches`, are views of the workspace, valid until
it is used again.  Given ``scratch``, a sampler returns the first view it
takes from it, the head of the scratch, and lays out its temporaries after
it.  Without ``workspace`` or ``scratch`` no returned array shares memory
with another call's.
"""

from __future__ import annotations

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


def check_batch_budget(config: FlowConfig, n: int, keys: str, batches: int = 1) -> int:
    """Refuse, naming the config ``keys``, ``batches`` batches of ``n``
    trajectories evolved together whose arrays would exceed
    ``ARRAY_BUDGET``; allocates nothing.  Returns the size in floats of
    their workspace (:func:`evolve_batches`), the count the budget checks.

    Per trajectory, each batch holds the packed drive and loads of every
    step and the packed states, the initial one included, ``n_comp`` floats
    each.  The transient region lies between the loads and the states and
    is sized for the largest of its uses in turn: a batch's draw step, whose
    normals lie at the end of the workspace and whose samplers' scratch
    starts at that batch's loads and runs on through the later batches'
    loads, the transient region and the states up to the normals, none of
    them written yet (the last batch's is the shortest); the update norms
    and the flow loop's squared state and three scalars; and one batch's
    closed-form classification, ``CLOSED_FORM_ROWS`` per state, over the
    spent loads and the transient region.
    """
    d, k, n_aniso = int(config.d_tan), int(config.k_max), _anisotropy_draws(config)
    n_comp = d * (d + 1) // 2
    states = (k + 1) * n_comp
    _, per_load, sigma = _sigma_floats(config.schur_model, d)
    draw = n_aniso * n_comp + k * per_load + max(n_aniso * _anisotropy_floats(d), k * sigma)
    transient = max(
        draw - k * n_comp - batches * states,
        batches * (k + n_comp + 3),
        (k + 1) * CLOSED_FORM_ROWS - batches * k * n_comp,
    )
    per_trajectory = batches * (2 * k * n_comp + states) + transient
    check_budget((n, per_trajectory), keys)
    return n * per_trajectory


def _anisotropy_draws(config: FlowConfig) -> int:
    """Anisotropies of a trajectory: one per step, or one (quenched)."""
    return config.k_max if config.disorder is Disorder.ANNEALED else 1


def draw_counts(config: FlowConfig) -> tuple[int, int]:
    """Standard normals of one trajectory's anisotropies and of its loads,
    in order the two parts of its row of a draw (:func:`draw_batch`); a part
    is empty where ``a0`` or ``zeta`` is zero.  Their sum is ``m``."""
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


def draw_batch(config: FlowConfig, rng, drive, *, scratch=None) -> np.ndarray:
    """Draw step: one ``(n, m)`` standard-normal draw from ``rng`` for the
    ``n = drive.shape[-1]`` trajectories of a batch, whose two parts
    (:func:`draw_counts`) each sampler transforms in one call.  Writes the
    unit anisotropies into ``drive``, ``(k_max, n_comp, n)``, a quenched
    one in every step, and returns the unit loads, of that shape, as the
    sampler returns them: the head of ``scratch`` when given, whose end
    then holds the draw.  A zero ``a0`` or ``zeta`` draws and writes
    nothing; :func:`evolve_columns` sets those columns.
    """
    d, n, (n_aniso, n_loads) = config.d_tan, drive.shape[-1], draw_counts(config)
    if scratch is None:
        normals = rng.standard_normal((n, n_aniso + n_loads))
    else:
        cut = scratch.size - n * (n_aniso + n_loads)
        normals = rng.standard_normal(out=scratch[cut:].reshape(n, n_aniso + n_loads))
        scratch = scratch[:cut]
    if config.a0 > 0:
        n_draws, anisotropies = _anisotropy_draws(config), normals[:, :n_aniso]
        np.copyto(drive, sample_anisotropy_batch(d, n_draws, anisotropies, scratch=scratch))
    if config.zeta > 0:
        loads = normals[:, n_aniso:]
        return sample_sigma_batch(config.schur_model, d, config.k_max, loads, scratch=scratch)
    return scratch_views(scratch)(drive.shape)


def _scale(terms: np.ndarray, factor: np.ndarray, absent: np.ndarray) -> None:
    """``terms *= factor`` in place, but -0.0, what an absent term adds,
    where ``absent`` holds."""
    if absent.any():
        np.multiply(terms, factor, out=terms, where=~absent)
        np.copyto(terms, -0.0, where=absent)
    else:
        np.multiply(terms, factor, out=terms)


def evolve_columns(config: FlowConfig, drive, loads, a0, zeta, *, states=None, scratch=None):
    """Evolve step: the flow loop over ``batches`` batches of ``n``
    trajectories at once.

    ``drive`` and ``loads`` hold the unit draws of :func:`draw_batch`,
    ``(batches, k_max, n_comp, n)`` each, and ``a0`` and ``zeta`` one value
    per trajectory, broadcast to ``(batches, n)``; the config's own are not
    read.  The draws are consumed: scaled in place by ``a0 *
    exp(-beta_decay * k)`` and ``-zeta``, one product per element, and
    not written otherwise.  Where ``a0`` or ``zeta`` is zero the term is
    -0.0, as if absent, and its draws are not read.

    Returns ``(states, n_valid)``: the packed states, ``(k_max + 1, n_comp,
    batches, n)``, written into ``states`` if given, and the count of valid
    states per trajectory, those before the first below the zero floor.
    The norms and the loop's temporaries are views of ``scratch``, or
    fresh.  A non-finite update raises :class:`NonFiniteState` naming, in
    the first batch with one, the first step with one and the first
    trajectory, by index in the batch, at that step; its ``batch``
    attribute holds the batch.
    """
    batches, k_max, n_comp, n = drive.shape
    d = config.d_tan
    # Per column, on the draws' axes, so that a product runs over whole steps.
    a0, zeta = (np.atleast_2d(np.asarray(x, dtype=float))[:, None, None] for x in (a0, zeta))
    empty = scratch_views(scratch)
    if states is None:
        states = np.empty((k_max + 1, n_comp, batches, n))
    norms, square = empty((k_max, batches, n)), empty((n_comp, batches, n))
    scale, trace, kept = empty((batches, n)), empty((batches, n)), empty((batches, n), bool)
    trace_mode = config.norm_mode is NormMode.TRACE
    decay = anisotropy_strength(1.0, config.beta_decay, np.arange(k_max))
    states[0] = config.initial_state().ravel()[packed_index(d), None, None]
    # Step k of the draws as (n_comp, batches, n), as the states are laid out.
    drive_k, loads_k = drive.transpose(1, 2, 0, 3), loads.transpose(1, 2, 0, 3)
    # A state below the zero floor is scaled as if its norm were the floor,
    # so it stays finite; n_valid drops it and what follows.  A non-finite
    # update spreads along its own trajectory only and is reported after.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _scale(drive, a0 * decay[:, None, None], a0 == 0)
        _scale(loads, -zeta, zeta == 0)  # adding -zeta * sigma subtracts it exactly
        for k in range(k_max):
            q, norm = states[k + 1], norms[k]
            np.add(states[k], loads_k[k], out=q)
            q += drive_k[k]
            _frobenius(q, d, square, norm)
            np.divide(1.0, np.maximum(norm, ZERO_FLOOR, out=scale), out=scale)
            if trace_mode:  # d / |trace| unless |trace| is below the floor
                np.abs(_row_sum(q[:d], trace), out=trace)
                np.greater_equal(trace, TRACE_FLOOR, out=kept)
                np.divide(d, trace, out=scale, where=kept)
            q *= scale

    bad = ~np.isfinite(norms)
    if bad.any():
        b = int(bad.any(axis=(0, 2)).argmax())
        k = int(bad[:, b].any(axis=1).argmax())
        error = NonFiniteState(
            f"trajectory {int(bad[k, b].argmax())}, step {k + 1}: "
            "the update or its Frobenius norm is not finite"
        )
        error.batch = b
        raise error
    zero = norms < ZERO_FLOOR
    return states, np.where(zero.any(axis=0), zero.argmax(axis=0) + 1, k_max + 1)


def evolve_batches(configs, rngs, n, *, workspace=None):
    """Draw each batch in turn, then evolve all of them in one flow loop.

    Batch ``b`` is ``n`` trajectories under ``configs[b]``, drawn from the
    generator ``rngs[b]`` (:func:`draw_batch`); the configs differ in
    ``a0`` and ``zeta`` alone.  A trajectory reads only its own row of its
    batch's draw, so it is bitwise identical to a batch of one drawn from
    its block of the stream.  Returns :func:`evolve_columns`' ``(states,
    n_valid)`` and the workspace spent after the loop, in which one batch
    at a time can be classified (:func:`~schurflow.tensor.embedded_negatives`
    of ``states[:, :, b].swapaxes(0, 1)``).  ``workspace``, of at least
    :func:`check_batch_budget`'s count for ``len(configs)`` batches, or a
    fresh one, is laid out as the module docstring describes.
    """
    config, batches = configs[0], len(configs)
    d, k_max = config.d_tan, config.k_max
    n_comp = d * (d + 1) // 2
    size = check_batch_budget(config, n, "n, k_max, d_tan, schur_model", batches)
    if workspace is None:
        workspace = np.empty(size)
    elif workspace.size < size:
        raise ValueError(f"workspace: {size} floats needed, got {workspace.size}")
    workspace = workspace[:size]
    block, held_states = k_max * n_comp * n, (k_max + 1) * n_comp * batches * n
    empty = scratch_views(workspace)
    drive, loads = empty((batches, k_max, n_comp, n)), empty((batches, k_max, n_comp, n))
    states = workspace[size - held_states:].reshape(k_max + 1, n_comp, batches, n)
    for b, (cell, rng) in enumerate(zip(configs, rngs)):
        # The loads are the head of the scratch, loads[b], unless a stand-in
        # sampler ignores its scratch: then they are copied there.
        scratch = workspace[(batches + b) * block:]
        drawn = draw_batch(cell, rng, drive[b], scratch=scratch)
        if not np.may_share_memory(drawn, loads[b]):
            np.copyto(loads[b], drawn)
    free = workspace[batches * block:size - held_states]
    states, n_valid = evolve_columns(
        config, drive, loads, [[c.a0] for c in configs], [[c.zeta] for c in configs],
        states=states, scratch=free[batches * block:],
    )
    return states, n_valid, free


def evolve_batch(config: FlowConfig, rng, n: int, *, workspace=None):
    """Sample, evolve and classify ``n`` trajectories drawn from ``rng``:
    the draw and evolve steps of one batch (:func:`evolve_batches`), then
    the classification.  Returns ``(states, n_minus, n_valid)``: the packed
    states, ``(k_max + 1, n_comp, n)``, the negative count of their full
    tensors ``diag(q_n, q_t)``, the one count a grid reads, ``(n, k_max +
    1)``, by :func:`~schurflow.tensor.embedded_negatives` (a certified
    closed form for ``d_tan = 3``, ``eigvalsh`` otherwise), and per
    trajectory the count of valid states.  The states and, for ``d_tan =
    3``, ``n_minus`` are views of the workspace; ``n_valid`` is fresh.
    """
    states, n_valid, scratch = evolve_batches([config], [rng], n, workspace=workspace)
    states = states[:, :, 0]
    n_minus = embedded_negatives(states.swapaxes(0, 1), config.q_n, scratch=scratch)
    return states, n_minus.T, n_valid[0]


def first_passage_steps(n_minus, target_n_minus: int) -> np.ndarray:
    """Index of the first state, along the last axis of ``n_minus``, whose
    negative count equals ``target_n_minus``; -1 where there is none."""
    hit = np.asarray(n_minus) == target_n_minus
    return np.where(hit.any(axis=-1), hit.argmax(axis=-1), -1)


def run_trajectory(config: FlowConfig, seed) -> TrajectoryRecord:
    """Run a single flow trajectory from the generator of ``seed``.

    ``seed`` is passed to ``numpy.random.default_rng``, which returns a
    generator it is given unchanged, and the trajectory draws one row from
    it.  So ``rng = default_rng([master_seed, c])``, after
    ``rng.standard_normal(t * m)`` with ``m = sum(draw_counts(config))``,
    reproduces trajectory ``t`` of grid cell ``c`` bit for bit.  Only
    here are records built, and ``q``, ``s_opnorm`` and the separation flag
    computed: this is the one caller that runs ``eigvalsh``, on the valid
    prefix only, for the extreme eigenvalues behind ``s_opnorm`` and the
    signature counts (:func:`~schurflow.tensor.embedded_counts`).  A
    trajectory that collapses below the zero floor mid-run is returned as
    the record of its valid prefix, with ``collapsed`` set.  The states come
    from the draw and evolve steps alone (:func:`evolve_batches`), without
    the grid's bulk classification.

    Raises
    ------
    NonFiniteState
        If an update or its norm is not finite.
    """
    states, n_valid, _ = evolve_batches([config], [np.random.default_rng(seed)], 1)
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
