"""Symmetric-tensor algebra: block elimination, inertia, spectral margins.

The functions here operate on real symmetric matrices stored as plain
``numpy.ndarray`` objects.  Inputs are validated with :func:`check_symmetric`,
which tolerates roundoff-level asymmetry and returns an exactly symmetrized
copy; downstream code may therefore assume exact symmetry.  The argument
checks shared by the whole package (:func:`check_matrix`, :func:`check_axis`,
:func:`check_int`, :func:`check_scalar`, :func:`check_pd`, :func:`check_budget`)
and the one inertia count (:func:`count_inertia`, with its certified
closed-form fast path for stacks of states, :func:`embedded_inertia`) live
here too.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .errors import FastSectorNotPD

# Relative asymmetry tolerated by check_symmetric.
SYMMETRY_RTOL = 1e-12
# Relative floor at or below which check_pd treats an eigenvalue as non-positive.
PD_TOL = 1e-10
# Relative band within which an eigenvalue counts as zero.
SIGNATURE_TOL = 1e-10
# Relative rounding bound on the characteristic-polynomial coefficients of
# a 3 x 3 state; a few multiples of the worst-case error of their formulas.
_COEFF_RTOL = 8.0 * np.finfo(float).eps
# Bytes of float64 arrays one computation may hold at once: a grid cell's
# states, loads and anisotropies, or the one buffer of an SDE run.
ARRAY_BUDGET = 2**30


class Signature(NamedTuple):
    """Inertia of a symmetric matrix: eigenvalue counts by sign."""

    n_plus: int
    n_minus: int
    n_zero: int


class IsoTracelessSplit(NamedTuple):
    """Isotropic weight ``q`` and traceless remainder ``s`` of a tensor."""

    q: float
    s: np.ndarray


class SeparationResult(NamedTuple):
    """Outcome of the isotropic/traceless dominance test."""

    holds: bool
    q: float
    s_opnorm: float


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(m + m.T) / 2``."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def check_matrix(m, name: str = "matrix", shape=None) -> np.ndarray:
    """Validate a finite 2-D matrix and return it as a float array.

    ``shape=None`` requires a non-empty square matrix; otherwise the shape
    must equal ``shape`` exactly.

    Raises
    ------
    ValueError
        If the shape is wrong or an entry is not finite.
    """
    arr = np.asarray(m, dtype=float)
    if shape is None:
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"{name}: expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError(f"{name}: dimension must be at least 1")
    elif arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    return arr


def check_axis(values, name: str, min_size: int = 1) -> np.ndarray:
    """Raise ``ValueError`` unless ``values`` is a finite, strictly increasing
    1-D axis of at least ``min_size`` entries; return it as a float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < min_size:
        raise ValueError(
            f"{name}: expected a non-empty 1-D array, at least {min_size} long"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    if not np.all(np.diff(arr) > 0):
        raise ValueError(f"{name}: values must be strictly increasing")
    return arr


def check_int(value, name: str, low: int = 1, high: int | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer in ``[low, high]``."""
    if (
        not isinstance(value, (int, np.integer))
        or value < low
        or (high is not None and value > high)
    ):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def check_scalar(value, name: str, positive: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and positive (with
    ``positive=False``, non-negative)."""
    if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {sign}, got {value}")


def check_budget(shape, keys: str) -> None:
    """Raise ``ValueError`` naming the config ``keys`` when float64 arrays
    of ``shape`` in all would exceed ``ARRAY_BUDGET``; allocates nothing."""
    n_bytes = 8 * math.prod(int(n) for n in shape)
    if n_bytes > ARRAY_BUDGET:
        raise ValueError(
            f"{keys} ask for {n_bytes >> 20} MiB of arrays, over the "
            f"{ARRAY_BUDGET >> 20} MiB budget"
        )


def check_symmetric(m, name: str = "matrix") -> np.ndarray:
    """Validate a square symmetric matrix and return a symmetrized copy.

    Parameters
    ----------
    m : array_like
        Candidate matrix.  Must be 2-D, square, finite, and symmetric up to
        a relative tolerance of ``SYMMETRY_RTOL * (1 + max |m|)``.
    name : str
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        ``(m + m.T) / 2`` as a float array, exactly symmetric.

    Raises
    ------
    ValueError
        If the input is not square, not finite, or too asymmetric.
    """
    arr = check_matrix(m, name)
    scale = 1.0 + np.abs(arr).max()
    asym = np.abs(arr - arr.T).max()
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"{name}: asymmetry {asym:.3e} exceeds tolerance {SYMMETRY_RTOL * scale:.3e}"
        )
    return 0.5 * (arr + arr.T)


def check_pd(w, name: str, error=ValueError) -> None:
    """Raise ``error`` unless the eigenvalues ``w`` are positive definite.

    An eigenvalue counts as positive when it exceeds
    ``PD_TOL * max(1, max |w|)``; ``name`` labels the matrix in the message.
    """
    tol = PD_TOL * max(1.0, float(np.abs(w).max()))
    if w.min() <= tol:
        raise error(
            f"{name} has eigenvalue {w.min():.3e} <= tolerance {tol:.3e}; "
            "it must be positive definite"
        )


def count_inertia(eigs):
    """Count eigenvalues by sign over the last axis of ``eigs``.

    Eigenvalues within ``SIGNATURE_TOL * max(1, max |eigs|)`` of zero, the
    scale taken over the same last axis, count as zero.  Leading axes are a
    batch.

    Returns
    -------
    tuple of numpy.ndarray
        Integer arrays ``(n_plus, n_minus, n_zero)`` over the batch axes.
    """
    eigs = np.asarray(eigs, dtype=float)
    band = _zero_band(np.abs(eigs).max(axis=-1, keepdims=True))
    n_plus = np.count_nonzero(eigs > band, axis=-1)
    n_minus = np.count_nonzero(eigs < -band, axis=-1)
    return n_plus, n_minus, eigs.shape[-1] - n_plus - n_minus


def _zero_band(scale):
    """Half-width of the zero band of a spectrum of magnitude ``scale``."""
    return SIGNATURE_TOL * np.maximum(1.0, scale)


def embedded_inertia(q_t, q_n: float):
    """Inertia of ``diag(q_n, q_t)`` for a stack of symmetric states.

    Equals ``count_inertia`` of ``q_n`` joined to ``eigvalsh(q_t)``, the
    band ``SIGNATURE_TOL * max(1, q_n, ||q_t||_op)`` included, without
    computing eigenvalues where a certificate decides the count.  For
    ``3 x 3`` states the signs of ``c1 = tr q``, ``c2`` (the sum of the
    principal 2 x 2 minors) and ``c3 = det q`` give the negative count as
    the sign changes of ``(1, c1, c2, c3)``: Descartes' rule of signs is
    exact for the real-rooted characteristic polynomial.  A state is
    certified when, with ``F = ||q||_F >= ||q||_op`` and
    ``band = 2 * _zero_band(max(q_n, F))``,

    - ``|c3| - err3 > band * F**2``, so ``min |lambda| >= |c3| / F**2``
      clears twice the band;
    - ``q_n > band``, or ``q_n < _zero_band(F / sqrt(3)) / 2``: then
      ``q_n`` lies inside half the band, since ``||q||_op >= F / sqrt(3)``,
      and counts as zero;
    - the signs that decide the count clear their rounding bounds: ``c1``
      unless ``c2 < -err2``, and ``c2`` unless ``c1`` and ``c3`` differ in
      sign.

    The rounding bounds ``err1 = _COEFF_RTOL * F``, ``err2 = _COEFF_RTOL *
    F**2`` and ``err3 = _COEFF_RTOL * F**3`` hold because the absolute
    terms of each coefficient sum to at most ``sqrt(3) F``, ``F**2`` and
    ``F**3``.  The factor two in the band keeps ``eigvalsh`` rounding from
    crossing it.  Other states, and every state of another dimension, are
    counted from ``eigvalsh``.  Only the lower triangle is read, as
    ``eigvalsh`` does.

    Returns
    -------
    tuple of numpy.ndarray
        Integer arrays ``(n_plus, n_minus, n_zero)`` over the batch axes.
    """
    q_t = np.asarray(q_t, dtype=float)
    d = q_t.shape[-1]
    if d == 3:
        certified, counts = _closed_form_counts(q_t, q_n)
    else:
        certified = np.zeros(q_t.shape[:-2], dtype=bool)
        counts = np.zeros((3, *certified.shape), dtype=np.intp)
    rest = ~certified
    if rest.any():
        eigs = np.linalg.eigvalsh(q_t[rest])
        full = np.concatenate([np.full((len(eigs), 1), q_n), eigs], axis=-1)
        counts[:, rest] = count_inertia(full)
    return tuple(counts)


def _closed_form_counts(q, q_n: float):
    """Certified mask and stacked counts ``(n_plus, n_minus, n_zero)``, valid
    where certified, of ``diag(q_n, q)`` for ``3 x 3`` states ``q``."""
    a, d, f = q[..., 0, 0], q[..., 1, 1], q[..., 2, 2]
    b, c, e = q[..., 1, 0], q[..., 2, 0], q[..., 2, 1]
    # A state too large for these products fails the certificate through
    # its non-finite terms and is counted from eigvalsh instead.
    with np.errstate(over="ignore", invalid="ignore"):
        minor_a = d * f - e * e
        c1 = a + d + f
        c2 = minor_a + (a * f - c * c) + (a * d - b * b)
        c3 = a * minor_a - b * (b * f - c * e) + c * (b * e - c * d)
        fro2 = a * a + d * d + f * f + 2.0 * (b * b + c * c + e * e)
        fro = np.sqrt(fro2)
        band = 2.0 * _zero_band(np.maximum(q_n, fro))
        normal_zero = q_n < 0.5 * _zero_band(fro / np.sqrt(3.0))
        t1 = np.where(np.abs(c1) > _COEFF_RTOL * fro, np.sign(c1), 0.0)
        t2 = np.where(np.abs(c2) > _COEFF_RTOL * fro2, np.sign(c2), 0.0)
        t3 = np.sign(c3)
        certified = (
            (np.abs(c3) - _COEFF_RTOL * fro2 * fro > band * fro2)
            & ((q_n > band) | normal_zero)
            & ((t1 != 0) | (t2 < 0))
            & ((t2 != 0) | (t1 * t3 < 0))
        )
    # Sign changes of (1, c1, c2, c3), skipping a zero: once certified, an
    # uncertain sign sits between two opposite signs and cannot move it.
    n_minus = np.zeros(certified.shape, dtype=np.intp)
    prev = np.ones_like(c1)
    for t in (t1, t2, t3):
        n_minus += certified & (t * prev < 0)
        prev = np.where(t != 0, t, prev)
    n_zero = normal_zero.astype(np.intp)
    return certified, np.stack([4 - n_minus - n_zero, n_minus, n_zero])


@dataclasses.dataclass(frozen=True)
class BlockQuadratic:
    """Quadratic form split into retained and fast sectors.

    The full matrix is ``[[a, b], [b.T, c]]`` with ``a`` the retained
    (slow) block of size ``d_s``, ``c`` the fast block of size ``d_f`` and
    ``b`` the ``(d_s, d_f)`` coupling.  ``a`` and ``c`` are symmetrized on
    construction; positive definiteness of ``c`` is checked only where it
    is actually required (:func:`schur_complement`).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        a = check_symmetric(self.a, name="a")
        c = check_symmetric(self.c, name="c")
        b = check_matrix(self.b, "b", shape=(a.shape[0], c.shape[0]))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def d_s(self) -> int:
        return self.a.shape[0]

    @property
    def d_f(self) -> int:
        return self.c.shape[0]

    def full(self) -> np.ndarray:
        """Assemble the full ``(d_s + d_f)``-dimensional symmetric matrix."""
        top = np.hstack([self.a, self.b])
        bottom = np.hstack([self.b.T, self.c])
        return np.vstack([top, bottom])


def schur_complement(q: BlockQuadratic) -> np.ndarray:
    """Eliminate the fast sector of a block quadratic form.

    Returns the effective retained-sector tensor ``a - b c^{-1} b.T``.  The
    inverse is taken through the eigendecomposition of ``c``, which doubles
    as the positive-definiteness check.

    Parameters
    ----------
    q : BlockQuadratic
        Block form whose fast block ``c`` must be positive definite.

    Returns
    -------
    numpy.ndarray
        Symmetric effective tensor of size ``d_s``.

    Raises
    ------
    FastSectorNotPD
        If ``c`` fails :func:`check_pd`.
    """
    w, v = np.linalg.eigh(q.c)
    check_pd(w, "fast block", FastSectorNotPD)
    bv = q.b @ v
    correction = (bv / w) @ bv.T
    return symmetrize(q.a - correction)


def signature(m) -> Signature:
    """Count eigenvalues by sign with a spectral-scale zero band.

    Eigenvalues within ``SIGNATURE_TOL * max(1, ||m||_op)`` of zero count
    as zero.

    Parameters
    ----------
    m : array_like
        Symmetric matrix.

    Returns
    -------
    Signature
        ``(n_plus, n_minus, n_zero)`` summing to the dimension.
    """
    counts = count_inertia(np.linalg.eigvalsh(check_symmetric(m)))
    return Signature(*(int(c) for c in counts))


def iso_traceless(m) -> IsoTracelessSplit:
    """Split ``m = q I + s`` into isotropic weight and traceless part."""
    arr = check_symmetric(m)
    q = float(np.trace(arr)) / arr.shape[0]
    s = arr - q * np.eye(arr.shape[0])
    return IsoTracelessSplit(q, s)


def operator_norm(m) -> float:
    """Spectral norm (largest absolute eigenvalue) of a symmetric matrix."""
    w = np.linalg.eigvalsh(check_symmetric(m))
    return float(max(abs(w[0]), abs(w[-1])))


def separation_check(m) -> SeparationResult:
    """Test whether the isotropic part dominates the traceless remainder.

    With ``m = q I + s``, dominance ``|q| > ||s||_op`` guarantees every
    eigenvalue of ``m`` shares the sign of ``q``, so the inertia is decided
    by the isotropic weight alone.
    """
    q, s = iso_traceless(m)
    s_norm = operator_norm(s) if s.shape[0] > 0 else 0.0
    return SeparationResult(abs(q) > s_norm, q, s_norm)


def stability_margin(m) -> float:
    """Distance of the spectrum from zero: ``min_i |lambda_i(m)|``."""
    w = np.linalg.eigvalsh(check_symmetric(m))
    return float(np.abs(w).min())


def perturbation_preserves_signature(m, a) -> bool:
    """Check the spectral-perturbation bound ``||a||_op < min_i |lambda_i(m)|``.

    When this returns True, eigenvalue interlacing guarantees that ``m + a``
    has the exact inertia of ``m``, counted without a zero band: each
    eigenvalue moves by at most ``||a||_op`` and so cannot cross zero.
    """
    m_arr = check_symmetric(m, name="m")
    a_arr = check_symmetric(a, name="a")
    if m_arr.shape != a_arr.shape:
        raise ValueError(
            f"shape mismatch: m is {m_arr.shape}, a is {a_arr.shape}"
        )
    return operator_norm(a_arr) < stability_margin(m_arr)
