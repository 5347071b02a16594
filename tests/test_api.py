"""Tests for the package's public surface."""

import schurflow

PUBLIC_NAMES = [
    "BalanceResidual", "BlockGenerator", "BlockQuadratic", "BoundaryCurve",
    "ConfigInvalid", "DegenerateDraw", "Disorder", "FastSectorNotPD",
    "FastSectorUnstable", "FlowConfig", "GridResult", "GridSpec", "LinearSDE",
    "LognormalGaussian", "MinimalModelSpec", "NoValidRecords", "NonFiniteState",
    "NormMode", "ReconstructionReport", "ResponseNotPD", "ScanResult",
    "SchurFlowError", "Signature", "SingularCovariance", "TrajectoryRecord",
    "UnstableDrift", "Wishart", "ZeroTensor", "__version__",
    "anisotropy_strength", "b_eff_final", "boundary_support", "build_blocks",
    "check_mobility", "check_symmetric", "einstein_check", "eliminate_fast",
    "embed_full", "estimate_log_curvature", "extract_boundary", "fast_slave",
    "find_contour", "flow_step", "m_from_q", "mean_first_passage",
    "minimal_scan", "operator_norm", "perturbation_preserves_signature",
    "reconstruct", "run_grid", "run_trajectory", "sample_anisotropy_batch",
    "sample_sigma_batch", "schur_complement", "sector_probability", "signature",
    "simulate_sde", "solve_lyapunov", "stability_margin", "stationary_gaussian",
    "symmetrize",
]


def test_public_names_are_pinned():
    # Adding or removing a public name is a deliberate edit of this list.
    assert len(PUBLIC_NAMES) == 61
    assert sorted(schurflow.__all__) == PUBLIC_NAMES
