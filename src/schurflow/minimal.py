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
    check_int,
    check_matrix,
    check_scalar,
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
    return BlockQuadratic(
        a=np.eye(spec.d_s),
        b=spec.chi * spec.coupling(),
        c=spec.g * np.eye(spec.d_f),
    )


def b_eff_final(spec: MinimalModelSpec) -> float:
    """Smallest eigenvalue of the eliminated retained-sector tensor.

    Positive means the retained sector survives elimination; the zero
    crossing marks the sensitivity threshold.
    """
    q_eff = schur_complement(build_blocks(spec))
    return float(np.linalg.eigvalsh(q_eff)[0])


@dataclasses.dataclass(eq=False)
class ScanResult:
    """Threshold scan over a ``(chi, g)`` grid."""

    chi_values: np.ndarray
    g_values: np.ndarray
    b_eff: np.ndarray
    contour: BoundaryCurve


def scan(
    chi_values: np.ndarray,
    g_values: np.ndarray,
    template: MinimalModelSpec | None = None,
) -> ScanResult:
    """Evaluate ``b_eff_final`` on a grid and trace its zero contour.

    Both axes need at least two finite, strictly increasing values.
    ``template`` fixes everything except ``chi`` and ``g``, which are
    overridden cell by cell.
    """
    chi = check_axis(chi_values, "chi_values", min_size=2)
    g = check_axis(g_values, "g_values", min_size=2)
    if template is None:
        template = MinimalModelSpec()
    b_eff = np.empty((chi.size, g.size))
    for i, chi_i in enumerate(chi):
        for j, g_j in enumerate(g):
            b_eff[i, j] = b_eff_final(
                dataclasses.replace(template, chi=float(chi_i), g=float(g_j))
            )
    contour = find_contour(chi, g, b_eff, 0.0)
    return ScanResult(chi_values=chi, g_values=g, b_eff=b_eff, contour=contour)
