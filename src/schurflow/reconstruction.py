"""Fluctuation reconstruction: stationary covariance, sampling, curvature.

Connects an effective response tensor to the statistics of an overdamped
linear Langevin model

    dp = -m p dt + sqrt(2) L dW,      L L.T = d_mat,

with decay matrix ``m = mu q_eff`` and diffusion ``d_mat = mu / beta``.
The stationary covariance ``gamma`` of the sampled process solves the
fluctuation balance

    m gamma + gamma m.T = 2 d_mat,

which is ``solve_lyapunov(m.T, d_mat)``, one ``O(d**6)`` linear solve in
numpy, made once when the model (:class:`LinearSDE`) is built.  For every
symmetric positive definite mobility it equals ``(beta q_eff)^{-1}``: the
log-density curvature of the stationary Gaussian reproduces ``beta q_eff``,
closing the loop between response and fluctuations.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import BalanceResidual, ResponseNotPD, SingularCovariance, UnstableDrift
from .reduction import check_decaying, check_mobility, m_from_q
from .tensor import (
    check_budget, check_int, check_matrix, check_pd, check_scalar, check_symmetric,
    count_inertia, fields_equal, symmetrize,
)

# Relative residual allowed on the fluctuation-balance solution.
LYAPUNOV_RTOL = 1e-10
# Condition-number ceiling beyond which a sample covariance is singular.
CONDITION_CEILING = 1e12
# Rows per block of the linear scan in simulate_sde.
SCAN_BLOCK = 16
# Largest matrix product, in multiply-adds m n k, that OpenBLAS forms on one thread.
KICK_PRODUCT_SIZE = 2**18


@dataclasses.dataclass(frozen=True)
class LinearSDE:
    """Stationary damped linear Langevin model ``dp = -m p dt + sqrt(2) L dW``.

    Built once per system: ``d_mat`` must be PSD (``signature`` counts no
    eigenvalue negative) and ``gamma = solve_lyapunov(m.T, d_mat)``, which
    raises ``UnstableDrift`` unless ``m`` is a strict decay matrix and
    limits ``dim`` to about 80, is solved and stored.  A ``LinearSDE`` that
    exists is therefore stationary.
    """

    m: np.ndarray
    d_mat: np.ndarray
    gamma: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    __eq__ = fields_equal

    def __post_init__(self) -> None:
        m = check_matrix(self.m, "m")
        d_mat = check_symmetric(self.d_mat, "d_mat", m.shape)
        w = np.linalg.eigvalsh(d_mat)
        if count_inertia(w)[1]:
            raise ValueError(
                f"d_mat has eigenvalue {w[0]:.3e} below the zero band; "
                "a diffusion must be positive semidefinite (PSD)"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d_mat", d_mat)
        # The drift is -m p, whose balance m gamma + gamma m.T = 2 d_mat is
        # solve_lyapunov with m.T.
        object.__setattr__(self, "gamma", solve_lyapunov(m.T, d_mat))

    @property
    def dim(self) -> int:
        return self.m.shape[0]


def solve_lyapunov(m, d_mat) -> np.ndarray:
    """Stationary covariance from the fluctuation balance.

    Solves ``m.T gamma + gamma m = 2 d_mat`` for ``gamma``, the stationary
    covariance of ``LinearSDE(m.T, d_mat)``, as the system ``(m.T kron I +
    I kron m.T) vec(gamma) = vec(2 d_mat)`` (Horn & Johnson 1991, sec. 4.4),
    nonsingular for every strict decay ``m``, defective ones included.  The
    solve costs ``O(d**6)``; its three ``d**2 x d**2`` arrays must fit in
    ``ARRAY_BUDGET`` (``d`` up to about 80).  The residual must stay below
    ``LYAPUNOV_RTOL * max(||d_mat||_F, ||m||_F ||gamma||_F)``: a backward-stable
    solve leaves a residual of the size of the terms ``m.T gamma`` it adds up,
    so an ill-conditioned ``m`` with a large ``gamma`` is not refused.

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
    d_arr = check_symmetric(d_mat, "d_mat", m_arr.shape)
    check_budget((3, m_arr.size, m_arr.size), "m")  # both kron terms and their sum
    check_decaying(m_arr, "decay matrix", UnstableDrift)
    eye = np.eye(len(m_arr))
    system = np.kron(m_arr.T, eye) + np.kron(eye, m_arr.T)
    gamma = symmetrize(np.linalg.solve(system, 2.0 * d_arr.ravel()).reshape(eye.shape))
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
        If ``q_eff`` fails :func:`~schurflow.tensor.check_pd`.
    """
    mu_arr = check_mobility(mu)
    q_arr = check_symmetric(q_eff, "q_eff", mu_arr.shape)
    check_scalar(beta, "beta")
    check_pd(np.linalg.eigvalsh(q_arr), "q_eff", ResponseNotPD)
    return beta * q_arr


def _linear_scan(a: np.ndarray, kicks: np.ndarray, states: np.ndarray) -> None:
    """Write the states of ``p[k] = a @ p[k-1] + kicks[k]`` from ``p[-1] =
    0`` into ``states``, an array of ``kicks``'s shape.

    A blocked prefix scan (Blelloch, CMU-CS-90-190, 1990) of the affine
    recursion.  ``kicks`` has a multiple of ``B = SCAN_BLOCK`` rows.  One
    matmul of the kicks against the last block column of the lower
    block-Toeplitz matrix of ``a^(n-k)``, ``k <= n``, gives each block's
    end from a zero start; the same recursion with ``a^B`` on these ends
    gives the true ends.  Block ``j``'s first kick then takes ``a`` times
    block ``j - 1``'s end, and one matmul against the whole Toeplitz
    matrix gives every state.  Only products of ``a`` are formed, no eigen-
    or Schur decomposition, so the scan holds for any ``a``, defective or
    strongly non-normal ones included.  ``kicks`` is overwritten, and the
    scan of the ends runs in ``states`` before the states fill it, so no
    buffer of the ends' size is allocated.
    """
    rows, dim = kicks.shape
    n_blocks, width = rows // SCAN_BLOCK, SCAN_BLOCK * dim
    powers = np.empty((SCAN_BLOCK + 1, dim, dim))
    powers[0] = np.eye(dim)
    for n in range(SCAN_BLOCK):
        powers[n + 1] = powers[n] @ a
    blocks = kicks.reshape(n_blocks, width)
    if n_blocks > 1:
        # Row layout, x_k.T a^(n-k).T: block row k of the last block column
        # is powers[B - 1 - k].T, built apart so that no level holds its
        # Toeplitz matrix through the nested scan.  With SCAN_BLOCK >= 4 the
        # ends and their scan fit in two regions of at most rows / 2 each of
        # the states, which are free until the last matmul.
        last = powers[SCAN_BLOCK - 1::-1].transpose(0, 2, 1).reshape(width, dim)
        padded = -(-n_blocks // SCAN_BLOCK) * SCAN_BLOCK
        ends, true_ends = states[:padded], states[padded:2 * padded]
        np.matmul(blocks, last, out=ends[:n_blocks])
        ends[n_blocks:] = 0.0
        _linear_scan(powers[SCAN_BLOCK], ends, true_ends)
        # A strided in-place add allocates ufunc buffers of 64 KiB each, so
        # the first kicks are summed on contiguous rows and copied back.
        carried = ends[:n_blocks - 1]
        np.matmul(true_ends[:n_blocks - 1], a.T, out=carried)
        true_ends[:n_blocks - 1] = blocks[1:, :dim]
        carried += true_ends[:n_blocks - 1]
        blocks[1:, :dim] = carried
    # Block (k, n) of the Toeplitz matrix is powers[n - k].T for n >= k and
    # zero below the diagonal.
    toeplitz = np.zeros((SCAN_BLOCK, dim, SCAN_BLOCK, dim))
    for k in range(SCAN_BLOCK):
        toeplitz[k, :, k:] = powers[:SCAN_BLOCK - k].transpose(2, 0, 1)
    np.matmul(blocks, toeplitz.reshape(width, width), out=states.reshape(n_blocks, width))


def _exact_transition(m: np.ndarray, d_mat: np.ndarray, dt: float):
    """``A = exp(-m dt)`` and the kick covariance ``C = int_0^dt e^{-m s}
    2 d_mat e^{-m.T s} ds``, which equals ``gamma - A gamma A.T``.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005):
    18-term Taylor series of both at ``t = dt / 2**s``, ``||m t||_1 <= 1/2``,
    then ``s`` doublings ``A(2t) = A(t)**2``, ``C(2t) = C(t) + A(t) C(t)
    A(t).T``.  Only products of ``m`` are formed, so defective and non-normal
    ``m`` need no other path, and the doublings add PSD terms, where
    ``gamma - A gamma A.T`` cancels for a small ``dt`` on an ill-conditioned
    ``gamma``.
    """
    s = max(0, int(np.frexp(dt * np.linalg.norm(m, 1))[1]) + 1)
    t = float(np.ldexp(dt, -s))
    x = -t * m
    term_a = a = np.eye(len(m))
    term_c = c = 2.0 * t * d_mat
    for k in range(1, 19):
        term_a = term_a @ x / k
        a = a + term_a
        y = x @ term_c
        term_c = (y + y.T) / (k + 1)
        c = c + term_c
    for _ in range(s):
        c = c + a @ c @ a.T
        a = a @ a
    return a, symmetrize(c)


def _psd_root(s: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric ``s``, eigenvalues below zero
    clipped; unlike ``v * sqrt(w)`` it does not depend on the signs of the
    eigenvectors ``eigh`` picks."""
    w, v = np.linalg.eigh(s)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def simulate_sde(
    sde: LinearSDE, dt: float, n_steps: int, burn_in: int = 0, seed=0
) -> np.ndarray:
    """Sample the Langevin model at spacing ``dt`` with its exact transition.

    The states ``p_k = p(k dt)`` follow ``p_k = A p_{k-1} + xi_k`` with ``A =
    exp(-m dt)`` and Gaussian kicks of covariance ``gamma - A gamma A.T``,
    where ``gamma`` is the model's stationary covariance ``sde.gamma``
    (Gillespie, Phys. Rev. E 54, 2084, 1996).  The chain starts from ``p_0
    ~ N(0, gamma)``, so it is stationary from its first state and exact for
    any ``dt > 0``; a larger ``dt`` only makes the states less correlated.
    The first ``burn_in`` states are dropped (none by default) and the next
    ``n_steps`` returned as an ``(n_steps, dim)`` array.

    One ``(burn_in + n_steps, dim)`` standard-normal draw feeds the chain.
    It lands in the front of the states buffer, which the scan overwrites
    later: row 0 becomes ``p_0`` through the symmetric square root of
    ``gamma``, row ``k >= 1`` the kick ``xi_k`` through that of the kick
    covariance.  The steps are not taken one by one: the kicks, zero-padded
    to a multiple of ``SCAN_BLOCK`` rows, go through a blocked linear scan
    that takes a handful of matmuls.  The run holds two such padded
    buffers, the kicks (reused as scratch) and the states (first the draw,
    then the scan's scratch); one must fit in ``ARRAY_BUDGET``.

    Raises
    ------
    ValueError
        If ``dt``, ``n_steps`` or ``burn_in`` is invalid, the buffers exceed
        the budget, or ``m dt`` overflows.
    """
    check_scalar(dt, "dt")
    check_int(n_steps, "n_steps")
    check_int(burn_in, "burn_in", low=0)
    total = burn_in + int(n_steps)
    padded = -(-total // SCAN_BLOCK) * SCAN_BLOCK
    check_budget((padded, sde.dim), "n_steps, burn_in")
    # Python floats overflow to inf without a warning.
    if not np.isfinite(float(dt) * float(np.linalg.norm(sde.m, 1))):
        raise ValueError(f"dt = {dt:.3e} overflows m dt; reduce dt")
    a, kick_cov = _exact_transition(sde.m, sde.d_mat, dt)
    root_xi = _psd_root(kick_cov)

    states = np.empty((padded, sde.dim))
    z = np.random.default_rng(seed).standard_normal(out=states[:total])
    kicks = np.empty_like(states)
    kicks[0] = _psd_root(sde.gamma) @ z[0]
    # Row chunks that OpenBLAS forms on one thread: same cost and bits at any thread count.
    chunk = max(1, KICK_PRODUCT_SIZE // sde.dim**2)
    for start in range(1, total, chunk):
        rows = slice(start, min(start + chunk, total))
        np.matmul(z[rows], root_xi.T, out=kicks[rows])
    kicks[total:] = 0.0
    _linear_scan(a, kicks, states)
    return states[burn_in:total]


def estimate_log_curvature(samples) -> np.ndarray:
    """Inverse sample covariance as the empirical log-density curvature.

    The covariance is the unbiased one (``ddof = 1``), formed in one
    contiguous pass: the samples are copied once to a ``(d, n)`` array, the
    row means subtracted, and the product of that array with its transpose
    divided by ``n - 1``.

    Parameters
    ----------
    samples : array_like
        ``(n, d)`` stationary samples with ``d >= 1`` and ``n > 10 * d**2``.

    Raises
    ------
    SingularCovariance
        If the sample covariance has a non-positive eigenvalue or condition
        number above ``CONDITION_CEILING``.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 1:
        raise ValueError(
            f"samples: expected (n, d) with n >= 2 and d >= 1, got {arr.shape}"
        )
    n, d = arr.shape
    if n <= 10 * d * d:
        raise ValueError(
            f"need more than {10 * d * d} samples for dimension {d}, got {n}"
        )
    centred = arr.T.copy()
    if not np.all(np.isfinite(centred)):
        raise ValueError("samples: entries must be finite")
    centred -= centred.mean(axis=1, keepdims=True)
    cov = (centred @ centred.T) / (n - 1)
    w, v = np.linalg.eigh(cov)
    if w.min() <= 0.0 or w.max() / w.min() > CONDITION_CEILING:
        raise SingularCovariance(
            f"sample covariance spectrum [{w.min():.3e}, {w.max():.3e}] "
            "is numerically singular"
        )
    return symmetrize((v / w) @ v.T)


def einstein_check(d_mat, mu, beta: float) -> float:
    """Relative deviation of the diffusion from ``mu / beta``."""
    mu_arr = check_mobility(mu)
    d_arr = check_symmetric(d_mat, "d_mat", mu_arr.shape)
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
    n_steps: int = 100_000,
    seed: int = 0,
) -> ReconstructionReport:
    """Recover the response tensor from simulated fluctuations.

    Builds the stationary Langevin model (:class:`LinearSDE`) with decay
    ``mu q_eff`` and diffusion ``d_mat`` (default ``mu / beta``), whose
    construction solves the fluctuation balance for the stationary
    covariance ``gamma`` once, samples ``n_steps`` states of the dynamics
    with :func:`simulate_sde` and estimates the log-density curvature from
    the samples.  With the default diffusion the curvature estimate
    converges to ``beta * q_eff``.

    The samples are spaced by the slowest decay time, ``dt = 1 /
    lambda_min`` with ``lambda_min = min Re eig(mu q_eff)``: the exact
    transition has no step bias to trade against, so the run spans
    ``n_steps`` slowest decay times whatever the stiffness, and the slowest
    mode's lag-one correlation is ``exp(-1)``.

    Raises
    ------
    ValueError
        If ``d_mat`` is not PSD, checked before the Hurwitz test.
    UnstableDrift
        If ``q_eff`` is not positive definite, so the decay matrix fails
        the Hurwitz test and no stationary state exists.
    """
    mu_arr = check_mobility(mu)
    q_arr = check_symmetric(q_eff, "q_eff", mu_arr.shape)
    check_scalar(beta, "beta")
    # Built before dt, so a q_eff that is not PD fails the Hurwitz test first.
    sde = LinearSDE(m_from_q(mu_arr, q_arr), mu_arr / beta if d_mat is None else d_mat)
    dt = 1.0 / np.linalg.eigvals(sde.m).real.min()
    samples = simulate_sde(sde, dt=dt, n_steps=n_steps, seed=seed)
    g_eff = estimate_log_curvature(samples)
    return ReconstructionReport(
        gamma=sde.gamma,
        g_eff=g_eff,
        curvature_target=beta * q_arr,
        einstein_residual=einstein_check(sde.d_mat, mu_arr, beta),
        beta=float(beta),
    )
