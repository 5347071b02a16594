"""Tests for grid ensembles, aggregation and boundary extraction.

Aggregation formulas are checked on hand-built negative-count histories,
the seeding contract is checked against single-trajectory replays, and
boundary extraction is checked on a synthetic probability field with a
known contour.
"""

import numpy as np
import pytest

import schurflow.ensemble as ensemble_mod
import schurflow.flow as flow_mod
from schurflow import (
    FlowConfig,
    GridResult,
    GridSpec,
    LognormalGaussian,
    NonFiniteState,
    NoValidRecords,
    boundary_support,
    default_grid_spec,
    extract_boundary,
    mean_first_passage,
    run_grid,
    run_trajectory,
    sector_probability,
)
from schurflow.tensor import ARRAY_BUDGET


def history(final_n_minus=0, first_passage=None, target=3, n_states=6):
    """Negative counts of one trajectory's states: ``final_n_minus``
    throughout, or from ``first_passage`` on the ``target``."""
    n_minus = np.full(n_states, final_n_minus)
    if first_passage is not None:
        n_minus[first_passage:] = target
    return n_minus


class TestAggregation:
    def test_sector_probability_counts_final_states(self):
        records = np.array([
            history(final_n_minus=0),
            history(final_n_minus=0),
            history(final_n_minus=3),
            history(final_n_minus=2),
        ])
        assert sector_probability(records, 0) == 0.5
        assert sector_probability(records, 2) == 0.25
        assert sector_probability(records, 3) == 0.25
        assert sector_probability(records, 1) == 0.0

    def test_sector_probability_rejects_empty_list(self):
        with pytest.raises(ValueError, match="non-empty"):
            sector_probability(np.empty((0, 6), dtype=int), 0)

    def test_mean_first_passage_uncensored(self):
        records = np.array([history(first_passage=2), history(first_passage=4)])
        assert mean_first_passage(records, 3) == (3.0, 0.0)

    def test_mean_first_passage_all_censored(self):
        records = np.array([history(), history()])
        assert mean_first_passage(records, 3) == (None, 1.0)

    def test_mean_first_passage_empty(self):
        mean, fraction = mean_first_passage(np.empty((0, 6), dtype=int), 3)
        assert mean is None
        assert np.isnan(fraction)

    def test_mean_first_passage_partial_censoring(self):
        records = np.array([history(first_passage=1)] + [history() for _ in range(3)])
        assert mean_first_passage(records, 3) == (1.0, 0.75)


def cancelling_batch(model, d_tan, n, rngs):
    """Loads whose first step, at zeta = 0.25, cancels the identity exactly."""
    for rng in rngs:
        rng.standard_normal((n, d_tan, d_tan))
    out = np.zeros((len(rngs), n, d_tan, d_tan))
    out[:, 0] = np.eye(d_tan) / 0.25
    return out


class TestGridSpec:
    def test_cell_config_mapping(self):
        spec = GridSpec(
            a0_values=[0.0, 0.5],
            zeta_values=[0.0, 0.1, 0.2],
            n_traj=2,
            master_seed=0,
        )
        assert spec.n_cells == 6
        config = spec.cell_config(5)
        assert config.a0 == 0.5
        assert config.zeta == 0.2
        config = spec.cell_config(1)
        assert config.a0 == 0.0
        assert config.zeta == 0.1

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            GridSpec([0.2, 0.1], [0.0], n_traj=1, master_seed=0)
        with pytest.raises(ValueError, match="finite and non-negative"):
            GridSpec([-0.1, 0.2], [0.0], n_traj=1, master_seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            GridSpec([], [0.0], n_traj=1, master_seed=0)

    def test_scalar_validation(self):
        with pytest.raises(ValueError, match="n_traj"):
            GridSpec([0.0], [0.0], n_traj=0, master_seed=0)
        with pytest.raises(ValueError, match="master_seed"):
            GridSpec([0.0], [0.0], n_traj=1, master_seed=-1)
        with pytest.raises(TypeError, match="base_config"):
            GridSpec([0.0], [0.0], n_traj=1, master_seed=0, base_config=object())

    def test_cell_arrays_are_budgeted(self):
        # Sizes only: a spec allocates nothing.  A trajectory of the default
        # flow holds states, loads and anisotropies of 101 x 3 x 3 floats.
        per_traj = 3 * 101 * 9 * 8
        GridSpec(n_traj=ARRAY_BUDGET // per_traj)
        keys = r"^n_traj, base_config\.k_max, base_config\.d_tan ask for .* budget$"
        with pytest.raises(ValueError, match=keys):
            GridSpec(n_traj=ARRAY_BUDGET // per_traj + 1)
        with pytest.raises(ValueError, match=keys):
            GridSpec(n_traj=int(1e300))

    def test_default_grid_spec(self):
        spec = default_grid_spec(7)
        assert spec.a0_values.shape == (20,)
        assert spec.zeta_values.shape == (20,)
        assert spec.a0_values[-1] == 1.0
        assert spec.zeta_values[-1] == pytest.approx(0.3)
        assert spec.n_traj == 100
        assert spec.master_seed == 7
        small = default_grid_spec(7, n_traj=3)
        assert small.n_traj == 3


class TestRunGrid:
    def test_frozen_cell_statistics(self):
        spec = GridSpec(
            a0_values=[0.0],
            zeta_values=[0.0],
            n_traj=5,
            master_seed=0,
            base_config=FlowConfig(k_max=5),
        )
        result = run_grid(spec)
        assert result.p_sector.shape == (1, 1, 4)
        assert result.p_sector[0, 0, 0] == 1.0
        assert np.isnan(result.mean_fpt[0, 0])
        assert result.censored_fraction[0, 0] == 1.0
        assert result.n_valid[0, 0] == 5

    def test_inverted_start_passes_immediately(self):
        spec = GridSpec(
            a0_values=[0.0],
            zeta_values=[0.0],
            n_traj=3,
            master_seed=0,
            base_config=FlowConfig(k_max=5, q_init=-np.eye(3)),
        )
        result = run_grid(spec)
        assert result.p_sector[0, 0, 3] == 1.0
        assert result.mean_fpt[0, 0] == 0.0
        assert result.censored_fraction[0, 0] == 0.0

    def test_cells_match_single_trajectory_replays(self):
        spec = GridSpec(
            a0_values=[0.2, 0.8],
            zeta_values=[0.05, 0.2],
            n_traj=4,
            master_seed=42,
            base_config=FlowConfig(k_max=15),
        )
        result = run_grid(spec)
        for cell_index in range(spec.n_cells):
            i, j = divmod(cell_index, 2)
            config = spec.cell_config(cell_index)
            records = [
                run_trajectory(config, [42, cell_index, t]) for t in range(4)
            ]
            finals = [int(r.n_minus[-1]) for r in records]
            for m in range(4):
                assert result.p_sector[i, j, m] == finals.count(m) / 4
            times = [r.first_passage for r in records if not r.censored]
            if times:
                assert result.mean_fpt[i, j] == sum(times) / len(times)
            else:
                assert np.isnan(result.mean_fpt[i, j])
            assert result.censored_fraction[i, j] == 1.0 - len(times) / 4

    def test_worker_count_does_not_change_results(self):
        spec = GridSpec(
            a0_values=[0.3, 0.9],
            zeta_values=[0.1, 0.25],
            n_traj=3,
            master_seed=11,
            base_config=FlowConfig(k_max=10),
        )
        serial = run_grid(spec, parallelism=1)
        parallel = run_grid(spec, parallelism=2)
        np.testing.assert_array_equal(serial.p_sector, parallel.p_sector)
        np.testing.assert_array_equal(serial.mean_fpt, parallel.mean_fpt)
        np.testing.assert_array_equal(
            serial.censored_fraction, parallel.censored_fraction
        )

    def test_invalid_parallelism(self):
        spec = GridSpec([0.0], [0.0], n_traj=1, master_seed=0)
        with pytest.raises(ValueError, match="parallelism"):
            run_grid(spec, parallelism=0)

    def test_all_collapsed_cell_raises(self, monkeypatch):
        monkeypatch.setattr(flow_mod, "sample_sigma_batch", cancelling_batch)
        spec = GridSpec([0.0], [0.25], n_traj=2, master_seed=0)
        with pytest.raises(NoValidRecords, match="all 2 trajectories collapsed"):
            run_grid(spec)

    def test_partial_collapse_aggregates_valid_trajectories(self, monkeypatch):
        sample = flow_mod.sample_sigma_batch

        def sometimes_cancelling(model, d_tan, n, rngs):
            # A coin from each trajectory's own generator picks its loads.
            return np.concatenate([
                cancelling_batch(model, d_tan, n, [rng]) if rng.random() < 0.5
                else sample(model, d_tan, n, [rng])
                for rng in rngs
            ])

        monkeypatch.setattr(flow_mod, "sample_sigma_batch", sometimes_cancelling)
        spec = GridSpec(
            [0.0], [0.25], n_traj=8, master_seed=1, base_config=FlowConfig(k_max=20)
        )
        result = run_grid(spec)
        config = spec.cell_config(0)
        records = [run_trajectory(config, [1, 0, t]) for t in range(spec.n_traj)]
        valid = [r for r in records if not r.collapsed]
        assert 0 < len(valid) < spec.n_traj
        assert result.n_valid[0, 0] == len(valid)
        finals = [int(r.n_minus[-1]) for r in valid]
        for m in range(4):
            assert result.p_sector[0, 0, m] == finals.count(m) / len(valid)
        times = [r.first_passage for r in valid if not r.censored]
        assert times
        assert result.mean_fpt[0, 0] == sum(times) / len(times)
        assert result.censored_fraction[0, 0] == 1.0 - len(times) / len(valid)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_cell_names_its_coordinates(self):
        base = FlowConfig(k_max=5, schur_model=LognormalGaussian(sigma_log=300))
        spec = GridSpec([0.0], [0.1], n_traj=2, base_config=base)
        with pytest.raises(
            NonFiniteState, match=r"cell \(a0=0.0, zeta=0.1\): trajectory 1, step 3"
        ):
            run_grid(spec)


def linear_field_result(n=10):
    """Synthetic result whose sector-3 probability equals the a0 coordinate."""
    a0 = np.linspace(0.0, 1.0, n)
    zeta = np.linspace(0.0, 1.0, n)
    p3 = np.broadcast_to(a0[:, None], (n, n)).copy()
    p_sector = np.zeros((n, n, 4))
    p_sector[:, :, 3] = p3
    p_sector[:, :, 0] = 1.0 - p3
    return GridResult(
        a0_values=a0,
        zeta_values=zeta,
        p_sector=p_sector,
        mean_fpt=np.zeros((n, n)),
        censored_fraction=np.zeros((n, n)),
        n_valid=np.full((n, n), 10),
        n_traj=10,
        master_seed=0,
    )


class TestBoundary:
    def test_linear_field_boundary_is_vertical_line(self):
        result = linear_field_result()
        curve = extract_boundary(result)
        assert curve.n_components == 1
        pts = curve.points()
        np.testing.assert_allclose(pts[:, 0], 0.5, atol=1e-12)
        assert set(np.round(pts[:, 1], 12)) == set(
            np.round(result.zeta_values, 12)
        )

    def test_boundary_support_brackets_the_crossing(self):
        result = linear_field_result()
        curve = extract_boundary(result)
        support = boundary_support(curve, result.a0_values, result.zeta_values)
        expected = {(i, j) for i in (4, 5) for j in range(10)}
        assert support == expected

    def test_level_shifts_the_crossing(self):
        result = linear_field_result()
        curve = extract_boundary(result, level=0.25)
        np.testing.assert_allclose(curve.points()[:, 0], 0.25, atol=1e-12)

    def test_sector_selection(self):
        result = linear_field_result()
        curve = extract_boundary(result, sector=0)
        # Sector 0 has probability 1 - a0: same crossing line.
        np.testing.assert_allclose(curve.points()[:, 0], 0.5, atol=1e-12)

    def test_validation(self):
        result = linear_field_result()
        with pytest.raises(ValueError, match="sector"):
            extract_boundary(result, sector=4)
        with pytest.raises(ValueError, match="level"):
            extract_boundary(result, level=0.0)
        tiny = linear_field_result(n=2)
        small = GridResult(
            a0_values=tiny.a0_values[:1],
            zeta_values=tiny.zeta_values,
            p_sector=tiny.p_sector[:1],
            mean_fpt=tiny.mean_fpt[:1],
            censored_fraction=tiny.censored_fraction[:1],
            n_valid=tiny.n_valid[:1],
            n_traj=10,
            master_seed=0,
        )
        with pytest.raises(ValueError, match="at least 2 x 2"):
            extract_boundary(small)

    def test_bracket_indices(self):
        axis = np.array([0.0, 1.0, 2.0])
        assert ensemble_mod._bracket_indices(axis, 1.0) == (1,)
        assert ensemble_mod._bracket_indices(axis, 0.5) == (0, 1)
        assert ensemble_mod._bracket_indices(axis, 1.5) == (1, 2)
