"""Acceptance criteria for the full pipeline.

Twelve end-to-end checks with explicit tolerances and time budgets, one
test per criterion.  Each test prints a single summary line with the
measured statistic (visible with ``pytest -s``); a failed criterion fails
its test with the measured value in the assertion message.
"""

import json
import time

import numpy as np
import pytest

from schurflow import (
    BlockQuadratic,
    Disorder,
    FlowConfig,
    GridSpec,
    NormMode,
    ResponseNotPD,
    UnstableDrift,
    Wishart,
    boundary_support,
    extract_boundary,
    minimal_scan,
    operator_norm,
    perturbation_preserves_signature,
    reconstruct,
    run_grid,
    schur_complement,
    signature,
    solve_lyapunov,
    stability_margin,
    stationary_gaussian,
    symmetrize,
)
from schurflow.cli import main
from schurflow.reduction import m_from_q

REFERENCE_SEED = 20260823


def random_blocks(rng, d_s, d_f):
    g = rng.standard_normal((d_f, d_f))
    return BlockQuadratic(
        a=symmetrize(rng.standard_normal((d_s, d_s))),
        b=rng.standard_normal((d_s, d_f)),
        c=g @ g.T + 0.5 * np.eye(d_f),
    )


def eight_connected(cells) -> bool:
    cells = set(cells)
    if not cells:
        return False
    seen = {next(iter(cells))}
    stack = list(seen)
    while stack:
        i, j = stack.pop()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                nb = (i + di, j + dj)
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return len(seen) == len(cells)


def column_support(curve, a0_values, zeta_values):
    columns = {}
    for i, j in boundary_support(curve, a0_values, zeta_values):
        columns.setdefault(i, set()).add(j)
    return columns


def overlap_fraction(curve_a, curve_b, a0_values, zeta_values) -> float:
    cols_a = column_support(curve_a, a0_values, zeta_values)
    cols_b = column_support(curve_b, a0_values, zeta_values)
    shared = [i for i in cols_a if i in cols_b]
    if not shared:
        return 0.0
    hits = sum(1 for i in shared if cols_a[i] & cols_b[i])
    return hits / len(shared)


@pytest.fixture(scope="module")
def reference_grid():
    """Reference-seed default grid, shared by criteria 6 and 7."""
    spec = GridSpec(master_seed=REFERENCE_SEED)
    start = time.perf_counter()
    result = run_grid(spec)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_01_block_elimination_oracle():
    # 1000 random blocks: elimination matches the dense-inverse oracle to
    # 1e-10 relative error and never exceeds the retained block, in < 5 s.
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    max_err = 0.0
    min_gap = np.inf
    for _ in range(1000):
        d_s = int(rng.integers(1, 6))
        d_f = int(rng.integers(1, 6))
        blocks = random_blocks(rng, d_s, d_f)
        q_eff = schur_complement(blocks)
        oracle = blocks.a - blocks.b @ np.linalg.inv(blocks.c) @ blocks.b.T
        scale = max(1.0, np.linalg.norm(oracle))
        max_err = max(max_err, np.linalg.norm(q_eff - oracle) / scale)
        gap = np.linalg.eigvalsh(blocks.a - q_eff).min()
        min_gap = min(min_gap, gap / scale)
    elapsed = time.perf_counter() - start
    assert max_err <= 1e-10, f"oracle mismatch {max_err:.3e}"
    assert min_gap >= -1e-10, f"subtractivity violated by {min_gap:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    print(
        f"PASS criterion 01: elimination oracle, 1000 blocks "
        f"(max_err={max_err:.2e}, min_gap={min_gap:.2e}, t={elapsed:.2f}s)"
    )


def test_criterion_02_zero_coupling_identity():
    # Zero coupling must return the retained block bitwise unchanged.
    rng = np.random.default_rng(102)
    for _ in range(100):
        d_s = int(rng.integers(1, 6))
        d_f = int(rng.integers(1, 6))
        g = rng.standard_normal((d_f, d_f))
        blocks = BlockQuadratic(
            a=symmetrize(rng.standard_normal((d_s, d_s))),
            b=np.zeros((d_s, d_f)),
            c=g @ g.T + 0.5 * np.eye(d_f),
        )
        q_eff = schur_complement(blocks)
        assert q_eff.tobytes() == blocks.a.tobytes(), "bitwise identity broken"
    print("PASS criterion 02: zero coupling is a bitwise identity, 100 blocks")


def test_criterion_03_scalar_onset():
    # Scalar model 1 - chi^2 / g vanishes at threshold to within 1e-12.
    worst = 0.0
    for g in np.linspace(0.2, 5.0, 25):
        blocks = BlockQuadratic(
            a=np.array([[1.0]]),
            b=np.array([[np.sqrt(g)]]),
            c=np.array([[g]]),
        )
        worst = max(worst, abs(schur_complement(blocks)[0, 0]))
    assert worst < 1e-12, f"onset residual {worst:.3e}"
    print(f"PASS criterion 03: scalar onset residual {worst:.2e} < 1e-12")


def test_criterion_04_minimal_threshold_contour():
    # 50 x 50 threshold scan: zero contour within half a chi cell of
    # chi = sqrt(g), in < 5 s.
    chi = np.linspace(0.0, 2.0, 50)
    g = np.linspace(0.5, 2.0, 50)
    start = time.perf_counter()
    result = minimal_scan(chi, g)
    elapsed = time.perf_counter() - start
    assert not result.contour.is_empty, "threshold contour is empty"
    half_cell = 0.5 * (chi[1] - chi[0])
    deviations = [abs(x - np.sqrt(y)) for x, y in result.contour.points()]
    worst = max(deviations)
    assert worst <= half_cell, f"contour deviates {worst:.3e} > {half_cell:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    print(
        f"PASS criterion 04: threshold contour, 50x50 scan "
        f"(max_dev={worst:.2e} <= {half_cell:.2e}, t={elapsed:.2f}s)"
    )


def test_criterion_05_signature_perturbation_bound():
    # 1000 random pairs with ||perturbation||_op below the spectral margin:
    # the bound certifies every one and the signature never changes, < 5 s.
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        d = int(rng.integers(2, 7))
        m = symmetrize(rng.standard_normal((d, d)))
        margin = stability_margin(m)
        if margin <= 1e-6 * operator_norm(m):
            continue
        a = symmetrize(rng.standard_normal((d, d)))
        a *= 0.9 * margin / operator_norm(a)
        assert perturbation_preserves_signature(m, a)
        assert signature(m + a) == signature(m), "signature moved under bound"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    print(
        f"PASS criterion 05: perturbation bound, 1000 pairs "
        f"(0 signature changes, t={elapsed:.2f}s)"
    )


def test_criterion_06_reference_grid_boundary(reference_grid):
    # Default grid at the reference seed, < 60 s: the fully inverted sector
    # saturates the strong-elimination corner, stays absent in the
    # anisotropy corner, and shows a connected inversion boundary along
    # which first passage is slower than in the inverted corner.
    result, elapsed = reference_grid
    assert elapsed < 60.0, f"grid took {elapsed:.1f} s"
    p3 = result.p_sector[:, :, 3]
    assert p3[0, -1] >= 0.9, f"inverted corner p3 = {p3[0, -1]:.3f}"
    assert p3[-1, 0] <= 0.1, f"anisotropy corner p3 = {p3[-1, 0]:.3f}"
    curve = extract_boundary(result)
    assert not curve.is_empty, "inversion boundary is empty"
    support = boundary_support(curve, result.a0_values, result.zeta_values)
    assert eight_connected(support), "boundary support is disconnected"
    rows = {i for i, _ in support}
    assert rows == set(range(result.a0_values.size)), "boundary misses rows"
    boundary_fpt = np.nanmean([result.mean_fpt[ij] for ij in support])
    corner_fpt = result.mean_fpt[0, -1]
    assert boundary_fpt > corner_fpt, (
        f"boundary fpt {boundary_fpt:.1f} <= corner fpt {corner_fpt:.1f}"
    )
    print(
        f"PASS criterion 06: reference grid boundary "
        f"(p3 corners {p3[0, -1]:.2f}/{p3[-1, 0]:.2f}, "
        f"{len(support)} support cells, fpt {boundary_fpt:.1f} vs "
        f"{corner_fpt:.1f}, t={elapsed:.1f}s)"
    )


def test_criterion_07_protocol_boundary_overlap(reference_grid):
    # Annealed and quenched disorder give overlapping inversion boundaries
    # under both load models and both normalizations; the four grid runs
    # stay within four times the criterion-6 budget.
    _, t6 = reference_grid
    pairings = [
        ("lognormal/frobenius", {}, None),
        (
            "wishart/trace",
            {
                "schur_model": Wishart(),
                "norm_mode": NormMode.TRACE,
            },
            np.linspace(0.0, 0.8, 20),
        ),
    ]
    start = time.perf_counter()
    overlaps = []
    for label, overrides, zeta_values in pairings:
        curves = {}
        for disorder in (Disorder.ANNEALED, Disorder.QUENCHED):
            base = FlowConfig(disorder=disorder, **overrides)
            spec_kwargs = {"base_config": base}
            if zeta_values is not None:
                spec_kwargs["zeta_values"] = zeta_values
            spec = GridSpec(master_seed=REFERENCE_SEED, **spec_kwargs)
            result = run_grid(spec)
            curve = extract_boundary(result)
            assert not curve.is_empty, f"{label} {disorder.value}: empty boundary"
            curves[disorder] = (curve, spec)
        (curve_a, spec_a), (curve_q, _) = (
            curves[Disorder.ANNEALED],
            curves[Disorder.QUENCHED],
        )
        frac = overlap_fraction(
            curve_a, curve_q, spec_a.a0_values, spec_a.zeta_values
        )
        assert frac >= 0.5, f"{label}: boundary overlap {frac:.2f} < 0.5"
        overlaps.append((label, frac))
    elapsed = time.perf_counter() - start
    assert elapsed < 4.0 * t6, f"took {elapsed:.1f} s > 4 x {t6:.1f} s"
    stats = ", ".join(f"{label} {frac:.2f}" for label, frac in overlaps)
    print(
        f"PASS criterion 07: protocol boundary overlap ({stats}, "
        f"t={elapsed:.1f}s < {4 * t6:.1f}s)"
    )


def test_criterion_08_fluctuation_balance_residuals():
    # 1000 random stable systems: balance residual below 1e-10 of the
    # diffusion scale, in < 10 s.
    rng = np.random.default_rng(108)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        g = rng.standard_normal((d, d))
        skew = rng.standard_normal((d, d))
        m = g @ g.T + 0.5 * np.eye(d) + 0.3 * (skew - skew.T)
        h = rng.standard_normal((d, d))
        d_mat = h @ h.T + 0.1 * np.eye(d)
        gamma = solve_lyapunov(m, d_mat)
        residual = np.linalg.norm(m.T @ gamma + gamma @ m - 2.0 * d_mat)
        worst = max(worst, residual / np.linalg.norm(d_mat))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"residual {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    print(
        f"PASS criterion 08: balance residuals, 1000 systems "
        f"(max={worst:.2e}, t={elapsed:.2f}s)"
    )


def test_criterion_09_fdt_closure():
    # 100 scalar-mobility systems: inverting the balance covariance
    # recovers beta * q_eff to 1e-8 relative error.
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        g = rng.standard_normal((d, d))
        q_eff = g @ g.T + 0.5 * np.eye(d)
        beta = float(rng.uniform(0.5, 3.0))
        mu = float(rng.uniform(0.2, 2.0)) * np.eye(d)
        gamma = solve_lyapunov(m_from_q(mu, q_eff), mu / beta)
        target = beta * q_eff
        err = np.linalg.norm(np.linalg.inv(gamma) - target) / np.linalg.norm(target)
        worst = max(worst, err)
        np.testing.assert_allclose(
            stationary_gaussian(mu, q_eff, beta), target, rtol=1e-14
        )
    assert worst <= 1e-8, f"closure error {worst:.3e}"
    print(f"PASS criterion 09: FDT closure, 100 systems (max_err={worst:.2e})")


def test_criterion_10_end_to_end_reconstruction():
    # Simulated fluctuations recover the response curvature to 5% at the
    # default sampling budget, in < 30 s.
    q_eff = np.array([[1.0, 0.3], [0.3, 1.5]])
    mu = 0.8 * np.eye(2)
    start = time.perf_counter()
    report = reconstruct(mu, q_eff, beta=2.0, seed=0)
    elapsed = time.perf_counter() - start
    target = report.curvature_target
    err = np.linalg.norm(report.g_eff - target) / np.linalg.norm(target)
    assert err <= 0.05, f"curvature error {err:.3f}"
    assert report.einstein_residual == 0.0
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    print(
        f"PASS criterion 10: end-to-end reconstruction "
        f"(err={err:.3f} <= 0.05, t={elapsed:.2f}s)"
    )


def test_criterion_11_cli_worker_determinism(tmp_path):
    # The grid command writes byte-identical results for 1 and 3 workers.
    payload = {
        "grid": {
            "a0_values": {"start": 0.0, "stop": 1.0, "num": 6},
            "zeta_values": {"start": 0.0, "stop": 0.3, "num": 6},
            "n_traj": 20,
            "master_seed": 1,
            "base_config": {"k_max": 50},
        }
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    outputs = {}
    for workers in (1, 3):
        out_dir = tmp_path / f"w{workers}"
        code = main(
            [
                "--config", str(cfg),
                "--out", str(out_dir),
                "--workers", str(workers),
            ]
        )
        assert code == 0
        outputs[workers] = (out_dir / "grid.csv").read_bytes()
    assert outputs[1] == outputs[3], "worker count changed grid results"
    print(
        f"PASS criterion 11: CLI worker determinism "
        f"({len(outputs[1])} byte grid identical for 1 and 3 workers)"
    )


def test_criterion_12_indefinite_response_rejection():
    # An indefinite response tensor admits no stationary state: both entry
    # points must refuse it with the documented exceptions.
    q_bad = np.diag([1.0, -0.5])
    with pytest.raises(UnstableDrift):
        reconstruct(np.eye(2), q_bad, beta=1.0)
    with pytest.raises(ResponseNotPD):
        stationary_gaussian(np.eye(2), q_bad, beta=1.0)
    print(
        "PASS criterion 12: indefinite response rejected by reconstruction "
        "and stationary-state prediction"
    )
