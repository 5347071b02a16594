"""Symmetric-tensor algebra: block elimination, inertia, spectral margins.

The functions here operate on real symmetric matrices stored as plain
``numpy.ndarray`` objects.  Inputs are validated with :func:`check_symmetric`,
which tolerates roundoff-level asymmetry, checks the ``shape`` if given one
and returns an exactly symmetrized copy (:func:`symmetrize`, which also takes
stacks over the last two axes).  The argument checks shared by the whole
package (:func:`check_matrix`, :func:`check_axis`, :func:`check_int`,
:func:`check_scalar`, :func:`check_pd`, :func:`check_budget`) and the one
inertia count (:func:`count_inertia`, with a certified closed form for the
negative count of packed states, :func:`embedded_negatives`) live here too.

Stacks of symmetric states can be held packed (LAPACK's packed symmetric
storage, Anderson et al., *LAPACK Users' Guide*, 3rd ed., 1999, sec.
5.3.2, in another order): ``d (d + 1) / 2`` components along axis 0, the
diagonal first, then the upper off-diagonal entries in row-major order,
``(q00, q11, q22, q01, q02, q12)`` for ``d = 3`` (:func:`packed_index`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .errors import FastSectorNotPD

# Relative asymmetry tolerated by check_symmetric.
SYMMETRY_RTOL = 1e-12
# Relative band within which an eigenvalue counts as zero (check_pd included).
SIGNATURE_TOL = 1e-10
# Relative rounding bound on the characteristic-polynomial coefficients of
# a 3 x 3 state; a few multiples of the worst-case error of their formulas.
_COEFF_RTOL = 8.0 * np.finfo(float).eps
# Bytes of float64 arrays one computation may hold at once: a grid cell's
# (counted by flow.check_batch_budget), a grid's results (by GridSpec), or
# each of the two padded buffers of an SDE run.
ARRAY_BUDGET = 2**30


class Signature(NamedTuple):
    """Inertia of a symmetric matrix: eigenvalue counts by sign."""

    n_plus: int
    n_minus: int
    n_zero: int


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(m + m.T) / 2`` over the last two axes."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def check_matrix(m, name: str = "matrix", shape=None, batch=()) -> np.ndarray:
    """Validate a finite 2-D matrix and return it as a float array.

    ``shape=None`` requires a non-empty square matrix, or with ``batch`` a
    stack of them over exactly those leading axes; otherwise the shape must
    equal ``shape`` exactly.

    Raises
    ------
    ValueError
        If the shape is wrong or an entry is not finite.
    """
    arr = np.asarray(m, dtype=float)
    if shape is None:
        if (
            arr.ndim != len(batch) + 2 or arr.shape[:-2] != batch
            or arr.shape[-1] != arr.shape[-2]
        ):
            what = f"square matrices over leading axes {batch}" if batch else "a square matrix"
            raise ValueError(f"{name}: expected {what}, got shape {arr.shape}")
        if arr.shape[-1] == 0:
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
    """Raise ``ValueError`` unless ``value`` is a non-bool integer in [low, high]."""
    if (
        not isinstance(value, (int, np.integer)) or isinstance(value, bool)
        or value < low
        or (high is not None and value > high)
    ):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def check_scalar(value, name: str, positive: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite, positive (with
    ``positive=False``, non-negative) scalar number, not a boolean."""
    try:
        number = (
            np.ndim(value) == 0 and not isinstance(value, (bool, np.bool_))
            and np.isfinite(value)
        )
    except TypeError:  # a string, None or another non-number
        number = False
    if not (number and (value > 0 if positive else value >= 0)):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")


def check_budget(shape, keys: str) -> None:
    """Raise ``ValueError`` naming the config ``keys`` when float64 arrays
    of ``shape`` in all would exceed ``ARRAY_BUDGET``; allocates nothing.
    The MiB asked for are rounded up, so a refusal always reads above the
    budget."""
    n_bytes = 8 * math.prod(int(n) for n in shape)
    if n_bytes > ARRAY_BUDGET:
        raise ValueError(
            f"{keys} ask for {-(-n_bytes >> 20)} MiB of arrays, over the "
            f"{ARRAY_BUDGET >> 20} MiB budget"
        )


def scratch_views(buffer):
    """An ``empty(shape, dtype=float)`` that hands out consecutive views of
    the flat float64 array ``buffer``, each C-contiguous and starting on a
    float, or ``np.empty`` itself when ``buffer`` is None.

    Views of one call never overlap; what they hold on arrival is whatever
    the buffer held.  Raises ``ValueError`` when the buffer runs out.
    """
    if buffer is None:
        return np.empty
    if buffer.dtype != np.float64 or buffer.ndim != 1 or not buffer.flags.c_contiguous:
        raise ValueError("a workspace must be a contiguous 1-D float64 array")
    start = 0

    def empty(shape, dtype=float):
        nonlocal start
        shape = tuple(shape)
        size = math.prod(shape)
        stop = start + -(-size * np.dtype(dtype).itemsize // 8)
        if stop > buffer.size:
            raise ValueError(
                f"a workspace of {buffer.size} floats is too small: {stop} needed"
            )
        view = buffer[start:stop].view(dtype)[:size].reshape(shape)
        start = stop
        return view

    return empty


def fields_equal(self, other) -> bool:
    """The ``__eq__`` of the dataclasses with array fields: instances of one
    class are equal when ``np.array_equal`` holds for every compared field,
    so arrays compare by shape and values.  A frozen class keeps the
    generated ``__hash__``, defined while its array fields are ``None``."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(
        np.array_equal(getattr(self, f.name), getattr(other, f.name))
        for f in dataclasses.fields(self) if f.compare
    )


def check_symmetric(m, name: str = "matrix", shape=None, batch=()) -> np.ndarray:
    """Return ``(m + m.T) / 2``, exactly symmetric, of a finite square
    matrix ``m`` (of ``shape``, or a stack over ``batch``, as in
    :func:`check_matrix`) that is symmetric within ``SYMMETRY_RTOL * (1 +
    max |m|)``, the maximum taken per matrix; otherwise raise ``ValueError``
    labelled ``name`` and, for a stack, the first failing member's index."""
    arr = check_matrix(m, name, shape, batch)
    scale = 1.0 + np.abs(arr).max(axis=(-2, -1))
    asym = np.abs(arr - np.swapaxes(arr, -1, -2)).max(axis=(-2, -1))
    index, label = _first_member(asym > SYMMETRY_RTOL * scale, name)
    if index is not None:
        raise ValueError(
            f"{label}: asymmetry {asym[index]:.3e} exceeds tolerance "
            f"{SYMMETRY_RTOL * scale[index]:.3e}"
        )
    return symmetrize(arr)


def check_pd(w, name: str, error=ValueError) -> None:
    """Raise ``error`` unless the eigenvalues ``w``, a spectrum over the
    last axis or a stack of them, are positive definite.

    An eigenvalue counts as positive above :func:`count_inertia`'s zero band
    of its own spectrum, ``SIGNATURE_TOL * max(1, max |w|)``, so one large
    member of a stack widens no other member's band.  ``name`` labels the
    matrix and, for a stack, the first failing member's index.
    """
    low = np.min(w, axis=-1)
    tol = _zero_band(np.abs(w).max(axis=-1))
    index, label = _first_member(low <= tol, name)
    if index is not None:
        raise error(
            f"{label} has eigenvalue {low[index]:.3e} <= tolerance {tol[index]:.3e}; "
            "it must be positive definite"
        )


def _first_member(bad, name: str):
    """``(index, label)`` of the first true entry of the mask ``bad``, over
    a stack's leading axes, or ``(None, None)`` if none is true; the label
    is ``name`` with the index, bare for a single matrix."""
    if not bad.any():
        return None, None
    index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    return index, f"{name}{list(index)}" if index else name


def count_inertia(eigs):
    """Count eigenvalues by sign over the last axis of ``eigs``, as integer
    arrays ``(n_plus, n_minus, n_zero)`` over the leading (batch) axes.
    Eigenvalues within ``SIGNATURE_TOL * max(1, max |eigs|)`` of zero, the
    scale taken over the same last axis, count as zero."""
    eigs = np.asarray(eigs, dtype=float)
    band = _zero_band(np.abs(eigs).max(axis=-1, keepdims=True))
    n_plus = np.count_nonzero(eigs > band, axis=-1)
    n_minus = np.count_nonzero(eigs < -band, axis=-1)
    return n_plus, n_minus, eigs.shape[-1] - n_plus - n_minus


def _zero_band(scale, out=None):
    """Half-width of the zero band of a spectrum of magnitude ``scale``."""
    return np.multiply(SIGNATURE_TOL, np.maximum(1.0, scale, out=out), out=out)


def packed_index(d: int) -> np.ndarray:
    """Flat row-major indices of the packed components of a ``d x d`` matrix."""
    upper = [i * d + j for i in range(d) for j in range(i + 1, d)]
    return np.array([i * (d + 1) for i in range(d)] + upper)


def unpack_symmetric(p) -> np.ndarray:
    """Dense ``(..., d, d)`` matrices of packed components ``(n_comp, ...)``."""
    p = np.moveaxis(np.asarray(p, dtype=float), 0, -1)
    d = math.isqrt(2 * p.shape[-1])
    rows, cols = np.divmod(packed_index(d), d)
    out = np.empty((*p.shape[:-1], d, d))
    out[..., rows, cols] = out[..., cols, rows] = p
    return out


def embedded_counts(eigs, q_n: float):
    """:func:`count_inertia` of the full tensors ``diag(q_n, q_t)`` from the
    tangential spectra ``eigs`` (over the last axis) of the states ``q_t``."""
    normal = np.full((*eigs.shape[:-1], 1), q_n)
    return count_inertia(np.concatenate([normal, eigs], axis=-1))


def embedded_negatives(q_t, q_n: float, *, scratch=None) -> np.ndarray:
    """Negative count of ``diag(q_n, q_t)`` for a stack of packed symmetric
    states ``q_t``, of shape ``(n_comp, ...)``, as an integer array over
    the batch axes.

    Equals the ``n_minus`` of :func:`embedded_counts` of ``eigvalsh(q_t)``,
    the band ``SIGNATURE_TOL * max(1, q_n, ||q_t||_op)`` included, without
    computing eigenvalues where a certificate decides the count.  The
    normal sector ``q_n > 0`` never counts negative, so only the tangential
    eigenvalues are certified.  For ``3 x 3`` states the signs of ``c1 = tr
    q``, ``c2`` (the sum of the principal 2 x 2 minors) and ``c3 = det q``
    give the negative count as the sign changes of ``(1, c1, c2, c3)``:
    Descartes' rule of signs is exact for the real-rooted characteristic
    polynomial.  A state is certified when, with ``F = ||q||_F >=
    ||q||_op`` and ``band = 2 * _zero_band(max(q_n, F))``,

    - ``|c3| - err3 > band * F**2``, so ``min |lambda| >= |c3| / F**2``
      clears twice the band, which a large ``q_n`` widens;
    - the signs that decide the count clear their rounding bounds: ``c1``
      unless ``c2 < -err2``, and ``c2`` unless ``c1`` and ``c3`` differ in
      sign.

    The rounding bounds ``err1 = _COEFF_RTOL * F``, ``err2 = _COEFF_RTOL *
    F**2`` and ``err3 = _COEFF_RTOL * F**3`` hold because the absolute
    terms of each coefficient sum to at most ``sqrt(3) F``, ``F**2`` and
    ``F**3``.  The factor two in the band keeps ``eigvalsh`` rounding from
    crossing it.  Other states, and every state of another dimension, are
    unpacked and counted from ``eigvalsh``.

    ``3 x 3`` states are classified from one contiguous copy.  With
    ``scratch``, a flat float64 array of at least ``CLOSED_FORM_ROWS``
    floats per state, that copy, the counts and the temporaries of the
    closed form are views of it (:func:`scratch_views`), so the counts are
    overwritten by the next use of ``scratch``.
    """
    q_t = np.asarray(q_t, dtype=float)
    if len(q_t) == 6:  # d = 3
        empty = scratch_views(scratch)
        packed = empty(q_t.shape)
        np.copyto(packed, q_t)
        certified, n_minus = _closed_form_counts(packed, q_n, empty)
    else:
        certified = np.zeros(q_t.shape[1:], dtype=bool)
        n_minus = np.zeros(certified.shape, dtype=np.intp)
    rest = np.logical_not(certified, out=certified)
    if rest.any():
        eigs = np.linalg.eigvalsh(unpack_symmetric(q_t[:, rest]))
        n_minus[rest] = embedded_counts(eigs, q_n)[1]
    return n_minus


# Floats per state that embedded_negatives takes from its scratch: the
# six-component copy, then _closed_form_counts' integer count row, nine
# float rows and three boolean masks, each mask rounded up to a float per
# state.
CLOSED_FORM_ROWS = 19


def _closed_form_counts(q, q_n: float, empty=np.empty):
    """Certified mask and negative counts, valid where certified, of
    ``diag(q_n, q)`` for packed ``3 x 3`` states ``q``.  Every array,
    returned or temporary, comes from ``empty`` and is written in full
    before it is read; each formula keeps the order of operations written
    beside it."""
    a, d, f, b, c, e = q
    shape = a.shape
    n_minus = empty(shape, np.intp)
    certified, mask, other = (empty(shape, bool) for _ in range(3))
    c1, c2, c3, fro2, fro, band, minor_a, x, y = (empty(shape) for _ in range(9))
    # A state too large for these products fails the certificate through
    # its non-finite terms and is counted from eigvalsh instead.
    with np.errstate(over="ignore", invalid="ignore"):
        # minor_a = d * f - e * e
        np.subtract(np.multiply(d, f, out=minor_a), np.multiply(e, e, out=x), out=minor_a)
        # c1 = a + d + f
        np.add(np.add(a, d, out=c1), f, out=c1)
        # c2 = minor_a + (a * f - c * c) + (a * d - b * b)
        np.subtract(np.multiply(a, f, out=x), np.multiply(c, c, out=y), out=x)
        np.add(minor_a, x, out=c2)
        np.subtract(np.multiply(a, d, out=x), np.multiply(b, b, out=y), out=x)
        c2 += x
        # c3 = a * minor_a - b * (b * f - c * e) + c * (b * e - c * d)
        np.multiply(a, minor_a, out=c3)
        np.subtract(np.multiply(b, f, out=x), np.multiply(c, e, out=y), out=x)
        c3 -= np.multiply(b, x, out=x)
        np.subtract(np.multiply(b, e, out=x), np.multiply(c, d, out=y), out=x)
        c3 += np.multiply(c, x, out=x)
        # fro2 = a * a + d * d + f * f + 2.0 * (b * b + c * c + e * e)
        np.multiply(a, a, out=fro2)
        fro2 += np.multiply(d, d, out=x)
        fro2 += np.multiply(f, f, out=x)
        np.add(np.multiply(b, b, out=x), np.multiply(c, c, out=y), out=x)
        x += np.multiply(e, e, out=y)
        fro2 += np.multiply(2.0, x, out=x)
        np.sqrt(fro2, out=fro)
        # band = 2.0 * _zero_band(np.maximum(q_n, fro))
        np.multiply(2.0, _zero_band(np.maximum(q_n, fro, out=band), out=band), out=band)
        # t_i = np.where(np.abs(c_i) > _COEFF_RTOL * scale_i, np.sign(c_i), 0.0)
        # with scale_1 = fro and scale_2 = fro2, and t3 = np.sign(c3); each
        # t_i takes the row of a spent value.
        t1, t2, t3 = minor_a, c1, c2
        for t, coeff, scale in ((t1, c1, fro), (t2, c2, fro2)):
            np.multiply(_COEFF_RTOL, scale, out=y)
            np.greater(np.abs(coeff, out=x), y, out=mask)
            np.sign(coeff, out=t, where=mask)
            np.copyto(t, 0.0, where=np.logical_not(mask, out=mask))
        np.sign(c3, out=t3)
        # certified = (np.abs(c3) - _COEFF_RTOL * fro2 * fro > band * fro2)
        #     & ((t1 != 0) | (t2 < 0)) & ((t2 != 0) | (t1 * t3 < 0))
        np.abs(c3, out=x)
        x -= np.multiply(np.multiply(_COEFF_RTOL, fro2, out=y), fro, out=y)
        np.greater(x, np.multiply(band, fro2, out=y), out=certified)
        np.less(t2, 0.0, out=other)
        certified &= np.logical_or(np.not_equal(t1, 0.0, out=mask), other, out=mask)
        np.less(np.multiply(t1, t3, out=x), 0.0, out=mask)
        certified &= np.logical_or(mask, np.not_equal(t2, 0.0, out=other), out=mask)
        # Sign changes of (1, c1, c2, c3), skipping a zero: once certified,
        # an uncertain sign sits between two opposite signs and cannot move
        # it.  n_minus += t * prev < 0, then prev = t where t != 0; c3 is
        # spent.
        prev = c3
        n_minus.fill(0)
        prev.fill(1.0)
        for t in (t1, t2, t3):
            np.less(np.multiply(t, prev, out=x), 0.0, out=mask)
            n_minus += mask
            np.copyto(prev, t, where=np.not_equal(t, 0.0, out=mask))
    return certified, n_minus


@dataclasses.dataclass(frozen=True)
class BlockQuadratic:
    """Quadratic form split into retained and fast sectors, or a stack of
    such forms over leading batch axes.

    The full matrix is ``[[a, b], [b.T, c]]`` with ``a`` the retained
    (slow) block of size ``d_s``, ``c`` the fast block of size ``d_f`` and
    ``b`` the ``(d_s, d_f)`` coupling.  The leading axes of ``a``, if any,
    are the batch axes: ``c`` and ``b`` must carry the same ones, with
    shapes ``(..., d_f, d_f)`` and ``(..., d_s, d_f)``.  ``a`` and ``c`` are
    symmetrized on construction, each member within its own tolerance
    (:func:`check_symmetric`); positive definiteness of ``c`` is checked
    only where it is actually required (:func:`schur_complement`).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self) -> None:
        batch = np.shape(self.a)[:-2]
        a = check_symmetric(self.a, "a", batch=batch)
        c = check_symmetric(self.c, "c", batch=batch)
        b = check_matrix(self.b, "b", shape=(*a.shape[:-1], c.shape[-1]))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def d_s(self) -> int:
        return self.a.shape[-1]

    @property
    def d_f(self) -> int:
        return self.c.shape[-1]

    def full(self) -> np.ndarray:
        """Assemble the full ``(d_s + d_f)``-dimensional symmetric matrix
        (a stack of them over the batch axes)."""
        return np.block([[self.a, self.b], [np.swapaxes(self.b, -1, -2), self.c]])


def schur_complement(q: BlockQuadratic) -> np.ndarray:
    """Eliminate the fast sector of a block quadratic form: the symmetric
    effective retained-sector tensor ``a - b c^{-1} b.T``, of size ``d_s``,
    over the batch axes of ``q`` if it is a stack.

    The inverse is taken through the eigendecomposition of ``c``, which
    doubles as the positive-definiteness check: :class:`FastSectorNotPD` if
    ``c`` fails :func:`check_pd`, whose zero band is set per member of a
    stack by that member's own spectrum; the message names the first
    failing member.  Each member of a stack gets the bytes a call on that
    member alone would give.
    """
    w, v = np.linalg.eigh(q.c)
    check_pd(w, "fast block", FastSectorNotPD)
    bv = q.b @ v
    correction = (bv / w[..., None, :]) @ np.swapaxes(bv, -1, -2)
    return symmetrize(q.a - correction)


def signature(m) -> Signature:
    """Inertia ``(n_plus, n_minus, n_zero)`` of a symmetric matrix: its
    eigenvalues counted by sign, those within ``SIGNATURE_TOL * max(1,
    ||m||_op)`` of zero as zero."""
    counts = count_inertia(np.linalg.eigvalsh(check_symmetric(m)))
    return Signature(*(int(c) for c in counts))


def operator_norm(m) -> float:
    """Spectral norm (largest absolute eigenvalue) of a symmetric matrix."""
    w = np.linalg.eigvalsh(check_symmetric(m))
    return float(max(abs(w[0]), abs(w[-1])))


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
    a_arr = check_symmetric(a, name="a", shape=m_arr.shape)
    return operator_norm(a_arr) < stability_margin(m_arr)
