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
A trajectory consumes its generator in a documented order so runs are
reproducible and replayable through the public samplers:

1. anisotropy draws, skipped entirely when ``a0 == 0``: one ``(n_draws,
   n_comp)`` draw of :func:`sample_anisotropy_batch`, the packed components
   of a symmetric Gaussian matrix, with ``n_draws = 1`` (quenched, the
   single matrix is reused every step) or ``k_max`` (annealed, one matrix
   per step);
2. elimination-load draws, skipped entirely when ``zeta == 0``: the
   ``k_max`` loads of :func:`sample_sigma_batch`; for
   :class:`LognormalGaussian` the ``(k_max, d_fast)`` fast-block
   log-eigenvalues, then the ``(k_max, d_tan, d_fast)`` coupling.

The evolution itself draws nothing.  Batched runs over many trajectories
give each trajectory its own generator and call each sampler once for the
whole batch; every generator still draws in the order above, so a batch is
bitwise identical to the corresponding sequence of single-trajectory runs.

:func:`evolve_batch` holds a batch in the packed layout of
:mod:`schurflow.tensor`: step ``k`` is one contiguous ``(n_comp, n)`` array
of the ``n_comp = d (d + 1) / 2`` components (diagonal, then upper
off-diagonal entries row by row) of ``n`` trajectories.  The Frobenius norm
counts the off-diagonal squares twice; the trace sums the first ``d``
components.  Both samplers return this layout, computed elementwise from
the draws, and sum over fast modes in an order that does not depend on the
batch size (:func:`_row_sum`).  :func:`flow_step`, the one-step oracle,
stays dense and apart from the kernel.

Workspace
---------
:func:`evolve_batch` works in one flat float64 workspace of
:func:`check_batch_budget`'s count, so the budget check and the allocation
are one number.  A grid task runs many cells of one shape in turn: it
allocates the workspace once and passes it for every cell, rather than
allocate and free a few MB per cell; without one, the call allocates its
own.  Within a call the workspace holds two parts:

- held, through the whole call: the states, the update norms and the
  drive (the anisotropies scaled by ``a_k``);
- transient, one region reused in phases that never overlap in time:
  first the anisotropy sampler, then the load sampler, whose loads stay at
  the head of the region through the flow loop with the loop's squares
  and scales after them, and last a contiguous copy of the states with
  the closed-form classification's temporaries and negative counts.  In
  trace mode each step's update overwrites the load it consumed, or that
  place when there are no loads, and after the loop the updates are
  squared in place for their norms.

Every view is written in full before it is read, so what a workspace held
before a call never reaches a result.  Aliasing rule: the states and the
``d_tan = 3`` negative counts that :func:`evolve_batch` returns are views
of its workspace, valid until the workspace is used again.  Given
``scratch``, a sampler returns the first view it takes from it, the head of
the scratch, and lays out its temporaries after it.  Without ``workspace``
or ``scratch`` no returned array shares memory with another call's.
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


def check_batch_budget(config: FlowConfig, n: int, keys: str) -> int:
    """Refuse, naming the config ``keys``, a batch of ``n`` trajectories
    whose arrays would exceed ``ARRAY_BUDGET``; allocates nothing.  Returns
    the size in floats of the batch's workspace (:func:`evolve_batch`), the
    count the budget checks: ``n`` times the sum of :func:`_batch_floats`.
    """
    per_trajectory = sum(_batch_floats(config))
    check_budget((n, per_trajectory), keys)
    return n * per_trajectory


def _batch_floats(config: FlowConfig) -> tuple[int, int]:
    """Floats per trajectory of a batch's workspace: ``(held, transient)``.

    The held part persists through the flow loop: per step the packed
    anisotropies and states, ``n_comp`` each (the states once more for the
    initial one), and an update norm.  The transient region is sized for
    the largest of its uses in turn: each sampler's scratch for ``k_max``
    draws, the loads with the flow loop's squared state and three scalars
    after them, and the closed-form classification's ``CLOSED_FORM_ROWS``
    per state.
    """
    d, k = int(config.d_tan), int(config.k_max)
    n_comp = d * (d + 1) // 2
    transient = max(
        k * _anisotropy_floats(d),
        k * _sigma_floats(config.schur_model, d)[1],
        k * n_comp + n_comp + 3,
        (k + 1) * CLOSED_FORM_ROWS,
    )
    return k * (2 * n_comp + 1) + n_comp, transient


def _standard_normal(rngs, out: np.ndarray) -> np.ndarray:
    """``rng.standard_normal(out=out[i])`` of each generator, in order."""
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=out[i])
    return out


def _sigma_floats(model: SchurModel, d_tan: int) -> tuple[int, int]:
    """``(modes, floats)`` of :func:`sample_sigma_batch`: the fast modes a
    load sums over, and the scratch it takes per draw, in order the packed
    load, ``n_comp``, then per mode the lognormal weight, the draws and
    their transposed copy, ``d_tan`` each, and the products.  Raises
    ``TypeError`` for another model."""
    if isinstance(model, LognormalGaussian):
        modes, per_mode = model.d_fast or d_tan, 2 * d_tan + 2
    elif isinstance(model, Wishart):
        modes, per_mode = model.rank or d_tan, 2 * d_tan + 1
    else:
        raise TypeError(f"unknown elimination-load model: {model!r}")
    return modes, d_tan * (d_tan + 1) // 2 + per_mode * modes


def _anisotropy_floats(d_tan: int) -> int:
    """Scratch floats per draw of :func:`sample_anisotropy_batch`: in order
    the unit anisotropy and its draws, ``n_comp`` each, and one sum."""
    return d_tan * (d_tan + 1) + 1


def sample_sigma_batch(
    model: SchurModel, d_tan: int, n: int, rngs, *, scratch=None
) -> np.ndarray:
    """Draw ``n`` elimination loads per generator as packed components, a
    ``(n, n_comp, len(rngs))`` array; column ``i`` equals a call with
    ``[rngs[i]]`` alone.

    Draw order of each generator for :class:`LognormalGaussian`: fast-block
    log-eigenvalues ``z`` with shape ``(n, d_fast)``, then the coupling
    ``w`` ``(n, d_tan, d_fast)``, in the fast block's eigenbasis, and the
    weight of mode ``f`` is ``exp(-sigma_log * z_f) / d_fast``.  For
    :class:`Wishart`: a single ``(n, d_tan, rank)`` factor ``w``, each mode
    weighted ``1 / rank``.  Component ``(i, j)`` is ``sum_f (w_if * w_jf) *
    weight_f``, summed over modes by :func:`_row_sum`.

    Given ``scratch``, a flat float64 array of at least ``n * len(rngs)``
    times :func:`_sigma_floats`' count, the loads are its head and the
    temporaries follow them; without it every array is fresh.
    """
    check_int(d_tan, "d_tan")
    check_int(n, "n")
    modes, _ = _sigma_floats(model, int(d_tan))
    lognormal = isinstance(model, LognormalGaussian)
    empty, n_rngs = scratch_views(scratch), len(rngs)
    out = empty((n, d_tan * (d_tan + 1) // 2, n_rngs))
    weight = empty((modes, n, n_rngs)) if lognormal else 1.0 / modes
    draws = empty((n_rngs * n * d_tan * modes,))
    if lognormal:
        z = draws[: n_rngs * n * modes].reshape(n_rngs, n, modes)
        _standard_normal(rngs, z)
        np.multiply(z.transpose(2, 1, 0), -model.sigma_log, out=weight)
        np.exp(weight, out=weight)
        weight /= modes
    # Axes (mode, row, draw, generator): a component's products are contiguous.
    factor = empty((modes, d_tan, n, n_rngs))
    w = _standard_normal(rngs, draws.reshape(n_rngs, n, d_tan, modes))
    np.copyto(factor, w.transpose(3, 2, 1, 0))
    products = empty((modes, n, n_rngs))
    rows, cols = np.divmod(packed_index(d_tan), d_tan)
    for c, (i, j) in enumerate(zip(rows, cols)):
        np.multiply(factor[:, i], factor[:, j], out=products)
        products *= weight
        _row_sum(products, out[:, c])
    return out


def sample_anisotropy_batch(d_tan: int, n: int, rngs, *, scratch=None) -> np.ndarray:
    """Draw ``n`` traceless unit-Frobenius symmetric anisotropies per
    generator as packed components, a ``(n, n_comp, len(rngs))`` array.

    Each generator makes one ``(n, n_comp)`` standard normal draw, the
    packed components of a GOE matrix, the law of ``(g + g.T) / 2``: the
    off-diagonal components are scaled by ``sqrt(1/2)``, the diagonal mean
    is subtracted from the diagonal, and each draw is divided by its
    Frobenius norm, whose sum of squares counts the off-diagonal squares
    twice.  Both sums run over components by :func:`_row_sum`.  A projected
    norm below the zero floor, which a Gaussian draw reaches with
    probability below 1e-28, raises :class:`DegenerateDraw`; nothing is
    redrawn.

    ``scratch`` works as in :func:`sample_sigma_batch`, with
    :func:`_anisotropy_floats`' count per draw.
    """
    check_int(d_tan, "d_tan", low=2)
    check_int(n, "n")
    empty, n_rngs, n_comp = scratch_views(scratch), len(rngs), d_tan * (d_tan + 1) // 2
    s = empty((n, n_comp, n_rngs))
    draws = _standard_normal(rngs, empty((n_rngs, n, n_comp)))
    np.copyto(s, draws.transpose(1, 2, 0))
    s[:, d_tan:] *= np.sqrt(0.5)
    diagonal = s[:, :d_tan].swapaxes(0, 1)
    mean = _row_sum(diagonal, empty((n, n_rngs)))
    mean /= d_tan
    diagonal -= mean
    norm = _frobenius(s.swapaxes(0, 1), d_tan, draws.reshape(s.shape).swapaxes(0, 1), mean)
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
    into ``out``, squaring into ``square``, which may be ``q`` itself."""
    np.multiply(q, q, out=square)
    square[d:] *= 2.0  # an off-diagonal component stands for two entries
    return np.sqrt(_row_sum(square, out), out=out)


def evolve_batch(config: FlowConfig, rngs, *, workspace=None):
    """Sample, evolve and classify one trajectory per generator, vectorized
    across the batch with one call of each sampler; each trajectory consumes
    only its own generator, in the documented order, so it is bitwise
    identical to a single run.  Returns ``(states, n_minus, n_valid)``: the
    packed states as one ``(k_max + 1, n_comp, n)`` array, the negative
    count of their full tensors ``diag(q_n, q_t)``, the one count a grid
    reads, as an ``(n, k_max + 1)`` array, counted by
    :func:`~schurflow.tensor.embedded_negatives` (a certified closed form
    for ``d_tan = 3``, ``eigvalsh`` otherwise; no spectra are returned),
    and per trajectory the count of valid states, those before the first
    below the zero floor.  A non-finite update raises :class:`NonFiniteState` naming
    the first step that has one and the first trajectory, by index in
    ``rngs``, with one at that step.

    The states, every intermediate and, for ``d_tan = 3``, ``n_minus`` are
    views of ``workspace``, a flat float64 array of at least
    :func:`check_batch_budget`'s count laid out as the module docstring
    describes, or of a fresh one when none is given: they hold until the
    workspace is used again.  ``n_valid`` is always fresh.
    """
    n, d, k_max = len(rngs), config.d_tan, config.k_max
    n_comp = d * (d + 1) // 2
    size = check_batch_budget(config, n, "rngs, k_max, d_tan, schur_model")
    if workspace is None:
        workspace = np.empty(size)
    elif workspace.size < size:
        raise ValueError(f"workspace: {size} floats needed, got {workspace.size}")
    held = n * _batch_floats(config)[0]
    empty, scratch = scratch_views(workspace[:held]), workspace[held:size]
    states = empty((k_max + 1, n_comp, n))
    norms = empty((k_max, n))
    # An absent term adds -0.0, which leaves every value, -0.0 included, as is.
    drive = loads = np.broadcast_to(-0.0, (k_max, *states.shape[1:]))
    if config.a0 > 0:
        n_draws = k_max if config.disorder is Disorder.ANNEALED else 1
        a_k = anisotropy_strength(config.a0, config.beta_decay, np.arange(k_max))
        drive = empty(drive.shape)
        unit = sample_anisotropy_batch(d, n_draws, rngs, scratch=scratch)
        np.multiply(a_k[:, None, None], unit, out=drive)
    if config.zeta > 0:
        loads = sample_sigma_batch(config.schur_model, d, k_max, rngs, scratch=scratch)
        loads *= -config.zeta  # adding -zeta * sigma subtracts zeta * sigma exactly
    states[0] = config.initial_state().ravel()[packed_index(d), None]
    loop = scratch_views(scratch[loads.size:])
    square, scale, trace = loop(states[0].shape), loop((n,)), loop((n,))
    below = loop((n,), bool)
    # A state below the zero floor is scaled as if its norm were the floor,
    # so it stays finite; n_valid drops it and what follows.  A non-finite
    # update spreads along its own trajectory only and is reported after.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if config.norm_mode is NormMode.FROBENIUS:
            for k in range(k_max):
                q, norm = states[k + 1], norms[k]
                np.add(states[k], loads[k], out=q)
                q += drive[k]
                _frobenius(q, d, square, norm)
                np.divide(1.0, np.maximum(norm, ZERO_FLOOR, out=scale), out=scale)
                q *= scale
        else:
            # Each update overwrites the load it consumed, or the idle
            # region of the loads when zeta == 0, and keeps its norm for
            # after the loop: a step scales by d / |trace| alone unless a
            # trace falls below the floor.  A NaN trace hides the others
            # from the minimum, but its update is non-finite and raises after.
            updates = loads if config.zeta > 0 else scratch[:loads.size].reshape(loads.shape)
            for k in range(k_max):
                u = np.add(states[k], loads[k], out=updates[k])
                u += drive[k]
                np.abs(_row_sum(u[:d], trace), out=trace)
                np.divide(d, trace, out=scale)
                if np.minimum.reduce(trace) < TRACE_FLOOR:
                    np.less(trace, TRACE_FLOOR, out=below)
                    norm = _frobenius(u, d, square, norms[k])
                    np.divide(1.0, np.maximum(norm, ZERO_FLOOR, out=trace), out=trace)
                    np.copyto(scale, trace, where=below)
                np.multiply(u, scale, out=states[k + 1])
            swapped = updates.swapaxes(0, 1)
            _frobenius(swapped, d, swapped, norms)

    bad = ~np.isfinite(norms)
    if bad.any():
        k = int(bad.any(axis=1).argmax())
        raise NonFiniteState(
            f"trajectory {int(bad[k].argmax())}, step {k + 1}: "
            "the update or its Frobenius norm is not finite"
        )
    zero = norms < ZERO_FLOOR
    n_valid = np.where(zero.any(axis=0), zero.argmax(axis=0) + 1, k_max + 1)
    n_minus = embedded_negatives(states.swapaxes(0, 1), config.q_n, scratch=scratch)
    return states, n_minus.T, n_valid


def first_passage_steps(n_minus, target_n_minus: int) -> np.ndarray:
    """Index of the first state, along the last axis of ``n_minus``, whose
    negative count equals ``target_n_minus``; -1 where there is none."""
    hit = np.asarray(n_minus) == target_n_minus
    return np.where(hit.any(axis=-1), hit.argmax(axis=-1), -1)


def run_trajectory(config: FlowConfig, seed) -> TrajectoryRecord:
    """Run a single flow trajectory from a fresh generator and record it.

    ``seed`` is passed to ``numpy.random.default_rng`` unchanged, so a
    sequence seed like ``[master, cell, index]`` reproduces the exact
    trajectory a batched grid run would produce at that position.  Only
    here are records built, and ``q``, ``s_opnorm`` and the separation flag
    computed: this is the one caller that runs ``eigvalsh``, on the valid
    prefix only, for the extreme eigenvalues behind ``s_opnorm`` and the
    signature counts (:func:`~schurflow.tensor.embedded_counts`).  A
    trajectory that collapses below the zero floor mid-run is returned as
    the record of its valid prefix, with ``collapsed`` set.

    Raises
    ------
    NonFiniteState
        If an update or its norm is not finite.
    """
    states, _, n_valid = evolve_batch(config, [np.random.default_rng(seed)])
    valid = slice(0, int(n_valid[0]))
    states = states[valid, :, 0].T
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
