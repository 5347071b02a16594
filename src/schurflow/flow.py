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

Randomness contract
-------------------
A trajectory consumes its generator in a documented order so runs are
reproducible and replayable through the public samplers:

1. anisotropy draws, skipped entirely when ``a0 == 0``: one
   ``(n_draws, d_tan, d_tan)`` draw of :func:`sample_anisotropy_batch`
   with ``n_draws = 1`` (quenched, the single matrix is reused every step)
   or ``k_max`` (annealed, one matrix per step);
2. elimination-load draws, skipped entirely when ``zeta == 0``: the
   ``k_max`` loads of :func:`sample_sigma_batch`.

The evolution itself draws nothing.  Batched runs over many trajectories
give each trajectory its own generator and call each sampler once for the
whole batch; every generator still draws in the order above, so a batch is
bitwise identical to the corresponding sequence of single-trajectory runs.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .errors import DegenerateDraw, NonFiniteState, ZeroTensor
from .tensor import (
    check_budget, check_int, check_scalar, check_symmetric, embedded_inertia
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

    The fast block is ``r diag(exp(sigma_log * z)) r.T`` with Haar-random
    rotation ``r`` and standard normal ``z``; the coupling is an i.i.d.
    Gaussian ``(d_tan, d_fast)`` matrix scaled by ``1 / sqrt(d_fast)``.  The
    load is the Schur-complement correction ``b C^{-1} b.T``, evaluated in
    the eigenbasis of the fast block.
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

    def __post_init__(self) -> None:
        check_int(self.d_tan, "d_tan")
        check_int(self.k_max, "k_max")
        check_budget((3, self.k_max + 1, self.d_tan, self.d_tan), "k_max, d_tan")
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
        if not isinstance(self.schur_model, (LognormalGaussian, Wishart)):
            raise TypeError(
                "schur_model must be a LognormalGaussian or Wishart instance"
            )
        if self.q_init is not None:
            q0 = check_symmetric(self.q_init, name="q_init")
            if q0.shape != (self.d_tan, self.d_tan):
                raise ValueError(
                    f"q_init: expected shape {(self.d_tan, self.d_tan)}, got {q0.shape}"
                )
            object.__setattr__(self, "q_init", q0)

    def initial_state(self) -> np.ndarray:
        return np.eye(self.d_tan) if self.q_init is None else self.q_init.copy()


@dataclasses.dataclass(eq=False)
class TrajectoryRecord:
    """Per-step classification of one flow trajectory.

    Arrays run over states ``0 .. n_steps`` (entry 0 is the initial state).
    The signature counts refer to the full tensor ``diag(q_n, q_t)`` and
    equal ``signature(embed_full(q_t, q_n))``: an eigenvalue counts as zero
    within ``SIGNATURE_TOL * max(1, q_n, ||q_t||_op)``, the full tensor's
    band, so a large ``q_n`` widens the band of the tangential eigenvalues.
    ``q`` and ``s_opnorm`` are the isotropic weight and traceless operator
    norm of the tangential block alone.  ``first_passage`` is the first step
    whose negative count equals the target, ``None`` when censored.  A
    collapsed trajectory carries the valid prefix only.
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

    @property
    def n_steps(self) -> int:
        return len(self.q) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrajectoryRecord):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in dataclasses.fields(self)
        )


def _standard_normal(rngs, shape) -> np.ndarray:
    """``rng.standard_normal(shape)`` of each generator, stacked in order."""
    out = np.empty((len(rngs), *shape))
    for i, rng in enumerate(rngs):
        out[i] = rng.standard_normal(shape)
    return out


def sample_sigma_batch(model: SchurModel, d_tan: int, n: int, rngs) -> np.ndarray:
    """Draw ``n`` elimination loads per generator as a ``(len(rngs), n,
    d_tan, d_tan)`` array; row ``i`` equals a call with ``[rngs[i]]`` alone.

    Draw order of each generator for :class:`LognormalGaussian`: fast-block
    log-eigenvalues ``z`` with shape ``(n, d_fast)``, then the rotation seed
    ``(n, d_fast, d_fast)``, then the coupling ``(n, d_tan, d_fast)``.  For
    :class:`Wishart`: a single ``(n, d_tan, rank)`` draw.  The transforms
    then run once over the stacked draws.
    """
    check_int(d_tan, "d_tan")
    check_int(n, "n")
    if isinstance(model, LognormalGaussian):
        d_fast = model.d_fast if model.d_fast is not None else int(d_tan)
        z = _standard_normal(rngs, (n, d_fast))
        # Haar rotations: the QR sign ambiguity is fixed by making the
        # diagonal of r positive, which makes the distribution exactly Haar.
        rot, r = np.linalg.qr(_standard_normal(rngs, (n, d_fast, d_fast)))
        rot *= np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[..., None, :]
        w = _standard_normal(rngs, (n, d_tan, d_fast)) / np.sqrt(d_fast) @ rot
        del rot, r
        sigma = (w * np.exp(-model.sigma_log * z)[..., None, :]) @ w.swapaxes(-1, -2)
    elif isinstance(model, Wishart):
        rank = model.rank if model.rank is not None else int(d_tan)
        g = _standard_normal(rngs, (n, d_tan, rank)) / np.sqrt(rank)
        sigma = g @ g.swapaxes(-1, -2)
    else:
        raise TypeError(f"unknown elimination-load model: {model!r}")
    sigma += sigma.swapaxes(-1, -2)
    sigma *= 0.5
    return sigma


def sample_anisotropy_batch(d_tan: int, n: int, rngs) -> np.ndarray:
    """Draw ``n`` traceless unit-Frobenius symmetric anisotropies per
    generator as a ``(len(rngs), n, d_tan, d_tan)`` array.

    Each generator makes one ``(n, d_tan, d_tan)`` Gaussian draw; the stacked
    draws are symmetrized, their traces projected out and their norms made
    one.  A projected norm below the zero floor, which a Gaussian draw
    reaches with probability below 1e-28, raises :class:`DegenerateDraw`;
    nothing is redrawn.
    """
    check_int(d_tan, "d_tan", low=2)
    check_int(n, "n")
    s = _standard_normal(rngs, (n, d_tan, d_tan))
    s += s.swapaxes(-1, -2)
    s *= 0.5
    s -= (np.trace(s, axis1=-2, axis2=-1) / d_tan)[..., None, None] * np.eye(d_tan)
    norm = np.sqrt(np.einsum("...ij,...ij->...", s, s))
    if np.any(norm < ZERO_FLOOR):
        raise DegenerateDraw(f"an anisotropy draw has norm below {ZERO_FLOOR}")
    s /= norm[..., None, None]
    return s


def anisotropy_strength(a0: float, beta_decay: float, k):
    """Per-step anisotropy amplitude ``a0 * exp(-beta_decay * k)``.

    ``k`` counts steps from zero, so the first update uses exactly ``a0``.
    Accepts a scalar or array ``k``.
    """
    check_scalar(a0, "a0", positive=False)
    check_scalar(beta_decay, "beta_decay", positive=False)
    k_arr = np.asarray(k)
    if np.any(k_arr < 0):
        raise ValueError("step index k must be non-negative")
    out = a0 * np.exp(-beta_decay * k_arr)
    return float(out) if np.isscalar(k) else out


def _scale_factors(upd: np.ndarray, mode: NormMode):
    """Per-slice normalization scale, zero-collapse mask and finite mask.

    ``upd`` has shape ``(n, d, d)``.  Frobenius mode rescales to unit
    Frobenius norm.  Trace mode rescales so ``|trace| == d`` whenever the
    trace magnitude is at least ``TRACE_FLOOR``, falling back to Frobenius
    below that.  Slices with Frobenius norm below ``ZERO_FLOOR`` are flagged
    and assigned unit scale.  A slice whose Frobenius norm is not finite
    (an entry is, or the norm overflowed) is flagged in the finite mask;
    its scale is meaningless.
    """
    d = upd.shape[-1]
    fro = np.sqrt(np.einsum("kij,kij->k", upd, upd))
    finite = np.isfinite(fro)
    zero = fro < ZERO_FLOOR
    safe_fro = np.where(zero, 1.0, fro)
    fro_scale = 1.0 / safe_fro
    if mode is NormMode.TRACE:
        tr = np.trace(upd, axis1=1, axis2=2)
        tr_ok = np.abs(tr) >= TRACE_FLOOR
        safe_tr = np.where(tr_ok, np.abs(tr), 1.0)
        scale = np.where(tr_ok, d / safe_tr, fro_scale)
    else:
        scale = fro_scale
    return np.where(zero, 1.0, scale), zero, finite


def normalize(q_t, mode: NormMode = NormMode.FROBENIUS) -> np.ndarray:
    """Rescale a symmetric tensor without changing its signature.

    Raises
    ------
    ZeroTensor
        If the Frobenius norm is below ``ZERO_FLOOR``.
    NonFiniteState
        If the Frobenius norm overflows.
    """
    q = check_symmetric(q_t, name="q_t")
    scale, zero, finite = _scale_factors(q[None], NormMode(mode))
    if not finite[0]:
        raise NonFiniteState("the Frobenius norm of q_t is not finite")
    if zero[0]:
        raise ZeroTensor(f"norm {np.linalg.norm(q):.3e} below floor {ZERO_FLOOR}")
    return q * scale[0]


def flow_step(q_t, sigma, a, a_k: float, zeta: float, mode: NormMode) -> np.ndarray:
    """One flow update: subtract the load, add anisotropy, renormalize.

    Computes ``N(q_t - zeta * sigma + a_k * a)`` with the symmetric part
    taken before normalization.  Multiplying by a positive scale never moves
    eigenvalues across zero, so the signature after the update is decided by
    the un-normalized combination alone.  Raises :class:`ZeroTensor` below
    the zero floor and :class:`NonFiniteState` if the update or its norm is
    not finite.
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
    upd = q - zeta * sig + a_k * a_arr
    upd = 0.5 * (upd + upd.T)
    scale, zero, finite = _scale_factors(upd[None], NormMode(mode))
    if not finite[0]:
        raise NonFiniteState("the update or its Frobenius norm is not finite")
    if zero[0]:
        raise ZeroTensor(
            f"update norm {np.linalg.norm(upd):.3e} below floor {ZERO_FLOOR}"
        )
    return upd * scale[0]


def embed_full(q_t, q_n: float) -> np.ndarray:
    """Full tensor ``diag(q_n, q_t)`` with the scalar normal sector first."""
    q = check_symmetric(q_t, name="q_t")
    check_scalar(q_n, "q_n")
    d = q.shape[0]
    full = np.zeros((d + 1, d + 1))
    full[0, 0] = q_n
    full[1:, 1:] = q
    return full


def evolve_batch(config: FlowConfig, rngs):
    """Sample, evolve and classify one trajectory per generator, vectorized
    across the batch with one call of each sampler; each trajectory consumes
    only its own generator, in the documented order, so it is bitwise
    identical to a single run.  Returns ``(states, counts, n_valid)``: the
    ``(n, k_max + 1, d, d)`` states, the inertia ``(n_plus, n_minus,
    n_zero)`` of their full tensors ``diag(q_n, q_t)`` as ``(n, k_max + 1)``
    arrays, counted by :func:`~schurflow.tensor.embedded_inertia` (a
    certified closed form for ``d_tan = 3``, ``eigvalsh`` otherwise; no
    spectra are returned), and per trajectory the count of valid states,
    those before the first below the zero floor.  A non-finite update raises
    :class:`NonFiniteState` naming the step and the trajectory's index in
    ``rngs``.
    """
    n = len(rngs)
    d = config.d_tan
    k_max = config.k_max
    annealed = config.disorder is Disorder.ANNEALED

    a_all = None
    if config.a0 > 0:
        a_all = sample_anisotropy_batch(d, k_max if annealed else 1, rngs)
    sig_all = None
    if config.zeta > 0:
        sig_all = sample_sigma_batch(config.schur_model, d, k_max, rngs)

    a_k = anisotropy_strength(config.a0, config.beta_decay, np.arange(k_max))
    states = np.empty((n, k_max + 1, d, d))
    q = np.broadcast_to(config.initial_state(), (n, d, d)).copy()
    states[:, 0] = q
    n_valid = np.full(n, k_max + 1)

    for k in range(k_max):
        upd = q
        if sig_all is not None:
            upd = upd - config.zeta * sig_all[:, k]
        if a_all is not None:
            upd = upd + a_k[k] * a_all[:, k if annealed else 0]
        # Not symmetrized: the initial state, the loads and the anisotropies
        # are exactly symmetric and the update is elementwise, so it is too.
        scale, zero, finite = _scale_factors(upd, config.norm_mode)
        if not finite.all():
            raise NonFiniteState(
                f"trajectory {int(np.argmin(finite))}, step {k + 1}: "
                "the update or its Frobenius norm is not finite"
            )
        n_valid[zero & (n_valid == k_max + 1)] = k + 1
        q = upd * scale[:, None, None]
        states[:, k + 1] = q

    return states, embedded_inertia(states, config.q_n), n_valid


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
    prefix only, for the extreme eigenvalues behind ``s_opnorm``.  A
    trajectory that collapses below the zero floor mid-run is returned as
    the record of its valid prefix, with ``collapsed`` set.

    Raises
    ------
    NonFiniteState
        If an update or its norm is not finite.
    """
    states, counts, n_valid = evolve_batch(config, [np.random.default_rng(seed)])
    valid = slice(0, int(n_valid[0]))
    states = states[0, valid]
    n_plus, n_minus, n_zero = (c[0, valid] for c in counts)
    eigs = np.linalg.eigvalsh(states)
    q_iso = np.trace(states, axis1=1, axis2=2) / config.d_tan
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
