"""Schur-complement coarse graining of quadratic response tensors.

Core pieces:

- :mod:`schurflow.tensor` -- block elimination, inertia and spectral margins;
- :mod:`schurflow.reduction` -- slow-fast elimination of linear dynamics;
- :mod:`schurflow.flow` -- stochastic signature-selection flow;
- :mod:`schurflow.ensemble` -- parameter-grid statistics and boundaries;
- :mod:`schurflow.minimal` -- minimal coherence-sensitivity model;
- :mod:`schurflow.reconstruction` -- fluctuation reconstruction;
- :mod:`schurflow.cli` -- batch command-line runner.
"""

__version__ = "0.26.0"

import types

from .contour import BoundaryCurve, find_contour
from .ensemble import (
    GridResult,
    GridSpec,
    boundary_support,
    extract_boundary,
    mean_first_passage,
    run_grid,
    sector_probability,
)
from .errors import (
    BalanceResidual,
    ConfigInvalid,
    DegenerateDraw,
    FastSectorNotPD,
    FastSectorUnstable,
    NoValidRecords,
    NonFiniteState,
    ResponseNotPD,
    SchurFlowError,
    SingularCovariance,
    UnstableDrift,
    ZeroTensor,
)
from .flow import (
    Disorder,
    FlowConfig,
    LognormalGaussian,
    NormMode,
    TrajectoryRecord,
    Wishart,
    anisotropy_strength,
    embed_full,
    flow_step,
    run_trajectory,
    sample_anisotropy_batch,
    sample_sigma_batch,
)
from .minimal import (
    MinimalModelSpec,
    ScanResult,
    b_eff_final,
    build_blocks,
    scan as minimal_scan,
)
from .reconstruction import (
    LinearSDE,
    ReconstructionReport,
    einstein_check,
    estimate_log_curvature,
    reconstruct,
    simulate_sde,
    solve_lyapunov,
    stationary_gaussian,
)
from .reduction import (
    BlockGenerator,
    check_mobility,
    eliminate_fast,
    fast_slave,
    m_from_q,
)
from .tensor import (
    BlockQuadratic,
    Signature,
    check_symmetric,
    operator_norm,
    perturbation_preserves_signature,
    schur_complement,
    signature,
    stability_margin,
    symmetrize,
)

# The public API is every name imported above; submodules are not part of it.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
