"""Slow-fast elimination of linear dynamics and response/drift bridges.

A linear generator split into slow and fast sectors,

    d/dt [x_s, x_f] = [[k_ss, k_sf], [k_fs, k_ff]] [x_s, x_f],

reduces, when the fast sector relaxes much faster than the slow one, to the
effective slow generator ``k_ss - k_sf k_ff^{-1} k_fs`` obtained by slaving
the fast variables to the slow ones.  This is the dynamical counterpart of
the Schur complement on quadratic forms.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import FastSectorUnstable
from .tensor import check_matrix, check_pd, check_symmetric, fields_equal

# Relative margin of the Hurwitz test in check_decaying.
STABILITY_RTOL = 1e-12


def check_decaying(m: np.ndarray, name: str, error) -> None:
    """Raise ``error`` unless every eigenvalue of the validated square ``m``
    has real part above ``STABILITY_RTOL * max(1, max |m_ij|)``, so that
    ``dx/dt = -m x`` decays and roundoff-level marginal modes count as not
    decaying; the message names the deciding real part ``min Re eig(m)``
    and the margin it must exceed."""
    rate = float(np.linalg.eigvals(m).real.min())
    margin = STABILITY_RTOL * max(1.0, float(np.abs(m).max()))
    if not rate > margin:
        raise error(
            f"{name} has an eigenvalue with Re = {rate:.3e}, not above the "
            f"margin {margin:.3e} = STABILITY_RTOL * max(1, max |entry|)"
        )


@dataclasses.dataclass(frozen=True)
class BlockGenerator:
    """Linear generator in block form over slow and fast sectors."""

    k_ss: np.ndarray
    k_sf: np.ndarray
    k_fs: np.ndarray
    k_ff: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self) -> None:
        k_ss = check_matrix(self.k_ss, "k_ss")
        k_ff = check_matrix(self.k_ff, "k_ff")
        d_s, d_f = k_ss.shape[0], k_ff.shape[0]
        k_sf = check_matrix(self.k_sf, "k_sf", shape=(d_s, d_f))
        k_fs = check_matrix(self.k_fs, "k_fs", shape=(d_f, d_s))
        object.__setattr__(self, "k_ss", k_ss)
        object.__setattr__(self, "k_sf", k_sf)
        object.__setattr__(self, "k_fs", k_fs)
        object.__setattr__(self, "k_ff", k_ff)

    @property
    def d_s(self) -> int:
        return self.k_ss.shape[0]

    @property
    def d_f(self) -> int:
        return self.k_ff.shape[0]

    def full(self) -> np.ndarray:
        """Assemble the full generator matrix."""
        return np.vstack(
            [np.hstack([self.k_ss, self.k_sf]), np.hstack([self.k_fs, self.k_ff])]
        )


def eliminate_fast(k: BlockGenerator) -> np.ndarray:
    """Effective slow generator ``k_ss - k_sf k_ff^{-1} k_fs``.

    Raises
    ------
    FastSectorUnstable
        If the fast block is not strictly stable; the slaved fast state
        would not track the slow sector and the reduction is invalid.
    """
    check_decaying(-k.k_ff, "fast block -k_ff", FastSectorUnstable)
    return k.k_ss - k.k_sf @ np.linalg.solve(k.k_ff, k.k_fs)


def fast_slave(k: BlockGenerator, x_s) -> np.ndarray:
    """Quasi-stationary fast state ``x_f = -k_ff^{-1} k_fs x_s``."""
    x_s = np.asarray(x_s, dtype=float)
    if x_s.shape != (k.d_s,):
        raise ValueError(f"x_s: expected shape {(k.d_s,)}, got {x_s.shape}")
    check_decaying(-k.k_ff, "fast block -k_ff", FastSectorUnstable)
    return -np.linalg.solve(k.k_ff, k.k_fs @ x_s)


def check_mobility(mu) -> np.ndarray:
    """Validate a mobility matrix: symmetric positive definite.

    Returns the symmetrized array.  Raises ``ValueError`` if ``mu`` fails
    :func:`~schurflow.tensor.check_pd`.
    """
    arr = check_symmetric(mu, name="mu")
    check_pd(np.linalg.eigvalsh(arr), "mu")
    return arr


def m_from_q(mu, q) -> np.ndarray:
    """Decay matrix ``m = mu q`` of the damped form ``dx/dt = -m x``."""
    mu_arr = check_mobility(mu)
    q_arr = check_symmetric(q, "q", mu_arr.shape)
    return mu_arr @ q_arr
