"""Fluctuation reconstruction: stationary covariance, sampling, curvature.

Connects an effective response tensor to the statistics of an overdamped
linear Langevin model

    dp = -m p dt + sqrt(2) L dW,      L L.T = d_mat,

with decay matrix ``m = mu q_eff`` and diffusion ``d_mat = mu / beta``.
The stationary covariance ``gamma`` of the sampled process solves the
fluctuation balance

    m gamma + gamma m.T = 2 d_mat,

which is ``solve_lyapunov(m.T, d_mat)`` in the convention of
:func:`solve_lyapunov`.  For every symmetric positive definite mobility it
equals ``(beta q_eff)^{-1}``: the log-density curvature of the stationary
Gaussian reproduces ``beta q_eff``, closing the loop between response and
fluctuations.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

from .errors import (
    BalanceResidual, ResponseNotPD, SingularCovariance, StepTooLarge, UnstableDrift
)
from .reduction import check_mobility, m_from_q, strictly_decaying
from .tensor import (
    check_budget,
    check_int,
    check_matrix,
    check_pd,
    check_scalar,
    check_symmetric,
)

# Relative residual allowed on the fluctuation-balance solution.
LYAPUNOV_RTOL = 1e-10
# Explicit Euler steps must satisfy dt * ||m||_2 < this bound.
STEP_GUARD = 0.1
# Condition-number ceiling beyond which a sample covariance is singular.
CONDITION_CEILING = 1e12


@dataclasses.dataclass(frozen=True)
class LinearSDE:
    """Damped linear Langevin model ``dp = -m p dt + sqrt(2) L dW``."""

    m: np.ndarray
    d_mat: np.ndarray

    def __post_init__(self) -> None:
        m = check_matrix(self.m, "m")
        d_mat = check_symmetric(self.d_mat, name="d_mat")
        if d_mat.shape != m.shape:
            raise ValueError(
                f"d_mat: expected shape {m.shape}, got {d_mat.shape}"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d_mat", d_mat)

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    def is_stable(self) -> bool:
        return strictly_decaying(self.m)


def solve_lyapunov(m, d_mat) -> np.ndarray:
    """Stationary covariance from the fluctuation balance.

    Solves ``m.T gamma + gamma m = 2 d_mat`` for symmetric ``gamma`` and
    verifies the residual against ``LYAPUNOV_RTOL * max(||d_mat||_F,
    ||m||_F ||gamma||_F)``: a backward-stable solve leaves a residual of
    the size of the terms ``m.T gamma`` it adds up, so an ill-conditioned
    ``m`` with a large ``gamma`` is not refused.

    Parameters
    ----------
    m : array_like
        Decay matrix; every eigenvalue must have positive real part.
    d_mat : array_like
        Symmetric diffusion matrix.

    Returns
    -------
    numpy.ndarray
        Symmetric solution ``gamma``.

    Raises
    ------
    UnstableDrift
        If ``m`` is not a strict decay matrix.
    BalanceResidual
        If the residual exceeds its tolerance.
    """
    m_arr = check_matrix(m, "m")
    d_arr = check_symmetric(d_mat, name="d_mat")
    if d_arr.shape != m_arr.shape:
        raise ValueError(f"d_mat: expected shape {m_arr.shape}, got {d_arr.shape}")
    if not strictly_decaying(m_arr):
        raise UnstableDrift(
            "decay matrix has an eigenvalue with Re <= 0; no stationary state exists"
        )
    gamma = scipy.linalg.solve_continuous_lyapunov(m_arr.T, 2.0 * d_arr)
    gamma = 0.5 * (gamma + gamma.T)
    residual = np.linalg.norm(m_arr.T @ gamma + gamma @ m_arr - 2.0 * d_arr)
    tolerance = LYAPUNOV_RTOL * max(
        np.linalg.norm(d_arr), np.linalg.norm(m_arr) * np.linalg.norm(gamma)
    )
    if residual > tolerance:
        raise BalanceResidual(
            f"fluctuation-balance residual {residual:.3e} exceeds tolerance "
            f"{tolerance:.3e} (LYAPUNOV_RTOL * max(||d_mat||_F, ||m||_F ||gamma||_F))"
        )
    return gamma


def stationary_gaussian(mu, q_eff, beta: float) -> np.ndarray:
    """Predicted log-density curvature ``beta * q_eff`` of the stationary state.

    Requires positive definite ``mu`` and ``q_eff`` and positive ``beta``,
    and returns ``beta * q_eff`` once these checks pass.  For every such
    mobility it equals ``inv(gamma)`` of the Langevin model (see the module
    docstring), so no covariance is solved here.

    Raises
    ------
    ResponseNotPD
        If ``q_eff`` has an eigenvalue at or below the PD tolerance.
    """
    mu_arr = check_mobility(mu)
    q_arr = check_symmetric(q_eff, name="q_eff")
    if q_arr.shape != mu_arr.shape:
        raise ValueError(f"shape mismatch: mu {mu_arr.shape}, q_eff {q_arr.shape}")
    check_scalar(beta, "beta")
    check_pd(np.linalg.eigvalsh(q_arr), "q_eff", ResponseNotPD)
    return beta * q_arr


def simulate_sde(
    sde: LinearSDE, dt: float, n_steps: int, burn_in: int = 0, seed=0
) -> np.ndarray:
    """Sample the Langevin model with explicit Euler steps.

    Iterates ``p <- p - m p dt + sqrt(2 dt) L z`` from the origin, discards
    ``burn_in`` steps and returns the following ``n_steps`` states as an
    ``(n_steps, dim)`` array.  Each state overwrites the kick that made it,
    so the run holds one ``(burn_in + n_steps, dim)`` buffer, which must fit
    in ``ARRAY_BUDGET``.

    Raises
    ------
    UnstableDrift
        If the decay matrix is not strictly stable.
    StepTooLarge
        If ``dt * ||m||_2 >= 0.1``; larger steps make the explicit scheme
        inaccurate or divergent.
    """
    check_scalar(dt, "dt")
    check_int(n_steps, "n_steps")
    check_int(burn_in, "burn_in", low=0)
    check_budget((burn_in + n_steps, sde.dim), "n_steps, burn_in")
    if not sde.is_stable():
        raise UnstableDrift("decay matrix has an eigenvalue with Re <= 0")
    opnorm = np.linalg.norm(sde.m, 2)
    if dt * opnorm >= STEP_GUARD:
        raise StepTooLarge(
            f"dt * ||m||_2 = {dt * opnorm:.3e} >= {STEP_GUARD}; reduce dt"
        )

    w, v = np.linalg.eigh(sde.d_mat)
    floor = -1e-12 * max(1.0, float(np.abs(w).max()))
    if w.min() < floor:
        raise ValueError(
            f"d_mat eigenvalue {w.min():.3e} below PSD tolerance {floor:.3e}"
        )
    sqrt_d = v * np.sqrt(np.clip(w, 0.0, None))

    rng = np.random.default_rng(seed)
    total = burn_in + int(n_steps)
    # Row-major states: the sums of np.cov, so g_eff's bytes, follow the layout.
    kicks = np.empty((total, sde.dim))
    np.matmul(sqrt_d, rng.standard_normal((total, sde.dim)).T, out=kicks.T)
    kicks *= np.sqrt(2.0 * dt)
    p = np.zeros(sde.dim)
    for step in range(total):
        p = p - (sde.m @ p) * dt + kicks[step]
        kicks[step] = p
    return kicks[burn_in:]


def estimate_log_curvature(samples) -> np.ndarray:
    """Inverse sample covariance as the empirical log-density curvature.

    Parameters
    ----------
    samples : array_like
        ``(n, d)`` stationary samples with ``n > 10 * d**2``.

    Raises
    ------
    SingularCovariance
        If the sample covariance has a non-positive eigenvalue or condition
        number above ``CONDITION_CEILING``.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError(f"samples: expected (n, d) with n >= 2, got {arr.shape}")
    n, d = arr.shape
    if n <= 10 * d * d:
        raise ValueError(
            f"need more than {10 * d * d} samples for dimension {d}, got {n}"
        )
    cov = np.atleast_2d(np.cov(arr, rowvar=False))
    w, v = np.linalg.eigh(cov)
    if w.min() <= 0.0 or w.max() / w.min() > CONDITION_CEILING:
        raise SingularCovariance(
            f"sample covariance spectrum [{w.min():.3e}, {w.max():.3e}] "
            "is numerically singular"
        )
    curvature = (v / w) @ v.T
    return 0.5 * (curvature + curvature.T)


def einstein_check(d_mat, mu, beta: float) -> float:
    """Relative deviation of the diffusion from ``mu / beta``."""
    d_arr = check_symmetric(d_mat, name="d_mat")
    mu_arr = check_mobility(mu)
    if d_arr.shape != mu_arr.shape:
        raise ValueError(f"shape mismatch: d_mat {d_arr.shape}, mu {mu_arr.shape}")
    check_scalar(beta, "beta")
    target = mu_arr / beta
    return float(np.linalg.norm(d_arr - target) / np.linalg.norm(target))


@dataclasses.dataclass(eq=False)
class ReconstructionReport:
    """Outputs of an end-to-end fluctuation reconstruction."""

    gamma: np.ndarray
    g_eff: np.ndarray
    curvature_target: np.ndarray
    einstein_residual: float
    beta: float


def reconstruct(
    mu: np.ndarray,
    q_eff: np.ndarray,
    beta: float,
    d_mat: np.ndarray | None = None,
    dt: float | None = None,
    n_steps: int = 100_000,
    burn_in: int = 1_000,
    seed: int = 0,
) -> ReconstructionReport:
    """Recover the response tensor from simulated fluctuations.

    Builds the Langevin model with decay ``mu q_eff`` and diffusion
    ``d_mat`` (default ``mu / beta``), solves the fluctuation balance for
    the stationary covariance, samples the dynamics and estimates the
    log-density curvature from the samples.  With the default diffusion the
    curvature estimate converges to ``beta * q_eff``.

    ``dt`` defaults to half the step guard, ``0.05 / ||m||_2``.

    Raises
    ------
    UnstableDrift
        If ``q_eff`` is not positive definite, so the decay matrix fails
        the Hurwitz test and no stationary state exists.
    """
    mu_arr = check_mobility(mu)
    q_arr = check_symmetric(q_eff, name="q_eff")
    check_scalar(beta, "beta")
    m = m_from_q(mu_arr, q_arr)
    diffusion = mu_arr / beta if d_mat is None else check_symmetric(d_mat, "d_mat")
    # The sampled drift is -m p, whose covariance balance is
    # m gamma + gamma m.T = 2 diffusion: solve_lyapunov with m.T.
    gamma = solve_lyapunov(m.T, diffusion)
    if dt is None:
        dt = 0.5 * STEP_GUARD / np.linalg.norm(m, 2)
    sde = LinearSDE(m=m, d_mat=diffusion)
    samples = simulate_sde(sde, dt=dt, n_steps=n_steps, burn_in=burn_in, seed=seed)
    g_eff = estimate_log_curvature(samples)
    return ReconstructionReport(
        gamma=gamma,
        g_eff=g_eff,
        curvature_target=beta * q_arr,
        einstein_residual=einstein_check(diffusion, mu_arr, beta),
        beta=float(beta),
    )
