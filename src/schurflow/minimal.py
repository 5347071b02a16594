"""Minimal coherence-sensitivity model for the elimination threshold.

A deliberately small block form isolates how retained-sector stability is
lost as the slow-fast coupling grows: the retained block is the identity,
the coupling is ``chi * b0`` and the fast block is ``g`` times the
identity.  Elimination then gives ``I - (chi**2 / g) * b0 @ b0.T``, whose
smallest eigenvalue crosses zero at ``chi = sqrt(g) / sigma_max(b0)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .contour import BoundaryCurve, find_contour
from .tensor import (
    BlockQuadratic,
    check_axis,
    check_budget,
    check_int,
    check_matrix,
    check_scalar,
    fields_equal,
    schur_complement,
)


@dataclasses.dataclass(frozen=True)
class MinimalModelSpec:
    """Coupling strength ``chi``, fast-sector stiffness ``g`` and the fixed
    coupling direction ``b0`` (defaults to the rectangular identity)."""

    chi: float = 0.0
    g: float = 1.0
    d_s: int = 2
    d_f: int = 2
    b0: np.ndarray | None = None

    __eq__ = fields_equal

    def __post_init__(self) -> None:
        check_scalar(self.chi, "chi", positive=False)
        check_scalar(self.g, "g")
        check_int(self.d_s, "d_s")
        check_int(self.d_f, "d_f")
        if self.b0 is not None:
            b0 = check_matrix(self.b0, "b0", shape=(self.d_s, self.d_f))
            if np.linalg.norm(b0) == 0.0:
                raise ValueError("b0 must be non-zero")
            object.__setattr__(self, "b0", b0)

    def coupling(self) -> np.ndarray:
        return np.eye(self.d_s, self.d_f) if self.b0 is None else self.b0.copy()


def build_blocks(spec: MinimalModelSpec) -> BlockQuadratic:
    """Assemble the block form ``[[I, chi b0], [chi b0.T, g I]]``."""
    return _blocks(spec.chi, spec.g, spec.coupling())


def b_eff_final(spec: MinimalModelSpec) -> float:
    """Smallest eigenvalue of the eliminated retained-sector tensor.

    Positive means the retained sector survives elimination; the zero
    crossing marks the sensitivity threshold.
    """
    return float(_b_eff(build_blocks(spec)))


def _blocks(chi, g, b0: np.ndarray) -> BlockQuadratic:
    """Block forms ``[[I, chi b0], [chi b0.T, g I]]`` stacked over the
    broadcast shape of ``chi`` and ``g`` (one form for scalars)."""
    chi, g = np.broadcast_arrays(np.asarray(chi, dtype=float), np.asarray(g, dtype=float))
    d_s, d_f = b0.shape
    return BlockQuadratic(
        a=np.broadcast_to(np.eye(d_s), (*chi.shape, d_s, d_s)),
        b=chi[..., None, None] * b0,
        c=g[..., None, None] * np.eye(d_f),
    )


def _b_eff(blocks: BlockQuadratic) -> np.ndarray:
    """Smallest eigenvalue of each eliminated retained-sector tensor."""
    return np.linalg.eigvalsh(schur_complement(blocks))[..., 0]


@dataclasses.dataclass(eq=False)
class ScanResult:
    """Threshold scan over a ``(chi, g)`` grid."""

    chi_values: np.ndarray
    g_values: np.ndarray
    b_eff: np.ndarray
    contour: BoundaryCurve


def check_scan_budget(n_chi: int, n_g: int, template: MinimalModelSpec) -> None:
    """Refuse, naming the two axes, a scan of ``n_chi x n_g`` cells of
    ``template``'s shape whose arrays would exceed ``tensor.ARRAY_BUDGET``;
    allocates nothing, so a caller can check before building the axes."""
    d_s, d_f = template.d_s, template.d_f
    # Per cell: a, b, c, the eigenpairs of c, b v, the correction and q_eff.
    per_cell = 3 * d_s * d_s + 2 * d_s * d_f + 2 * d_f * d_f + d_f
    check_budget((n_chi, n_g, per_cell), "chi_values, g_values")


def scan(
    chi_values: np.ndarray,
    g_values: np.ndarray,
    template: MinimalModelSpec | None = None,
) -> ScanResult:
    """Evaluate ``b_eff_final`` on a grid and trace its zero contour.

    Both axes need at least two finite, strictly increasing values; ``chi``
    must be non-negative and ``g`` positive, as in :class:`MinimalModelSpec`.
    ``template`` fixes everything except ``chi`` and ``g``, which the axes
    supply cell by cell.  The whole grid is one stacked elimination, one
    :func:`~schurflow.tensor.schur_complement` call on ``(n_chi, n_g)``
    stacks of blocks, whose cells equal ``b_eff_final`` of each cell's
    spec bit for bit.  Its arrays must fit ``tensor.ARRAY_BUDGET``
    (:func:`check_scan_budget`), checked before any is built.
    """
    chi = check_axis(chi_values, "chi_values", min_size=2)
    g = check_axis(g_values, "g_values", min_size=2)
    # The axes increase, so their first values are the ones a cell's spec
    # would refuse first.
    check_scalar(float(chi[0]), "chi", positive=False)
    check_scalar(float(g[0]), "g")
    if template is None:
        template = MinimalModelSpec()
    check_scan_budget(chi.size, g.size, template)
    b_eff = _b_eff(_blocks(chi[:, None], g[None, :], template.coupling()))
    contour = find_contour(chi, g, b_eff, 0.0)
    return ScanResult(chi_values=chi, g_values=g, b_eff=b_eff, contour=contour)
