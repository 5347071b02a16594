"""Tests for grid ensembles, aggregation and boundary extraction.

Aggregation formulas are checked on hand-built negative-count histories,
the seeding contract is checked against single-trajectory replays and
numpy's own ``default_rng``, and boundary extraction is checked on a
synthetic probability field with a known contour.
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schurflow.ensemble as ensemble_mod
import schurflow.flow as flow_mod
from schurflow import (
    FlowConfig,
    GridResult,
    GridSpec,
    LognormalGaussian,
    NonFiniteState,
    NoValidRecords,
    Wishart,
    boundary_support,
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

    @pytest.mark.parametrize(
        "records",
        [np.zeros((2, 3, 4), dtype=int), history(), np.zeros((3, 0), dtype=int)],
        ids=["3-d", "1-d", "no-states"],
    )
    def test_records_must_be_a_trajectory_history(self, records):
        # Unchecked, a 3-D history gives a censored fraction of -2.0, and a
        # single 1-D trajectory a fraction over its states.
        message = f"records: expected (n_traj, n_states), got shape {records.shape}"
        for aggregate in (sector_probability, mean_first_passage):
            with pytest.raises(ValueError, match=re.escape(message)):
                aggregate(records, 3)


def cancelling_batch(model, d_tan, n, rngs, **_):
    """Loads whose first step, at zeta = 0.25, cancels the identity exactly."""
    for rng in rngs:
        rng.standard_normal((n, d_tan, d_tan))
    out = np.zeros((n, d_tan * (d_tan + 1) // 2, len(rngs)))
    out[0, :d_tan] = 1.0 / 0.25
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
        with pytest.raises(ValueError, match="n_traj"):
            GridSpec([0.0], [0.0], n_traj=True, master_seed=0)
        with pytest.raises(ValueError, match="master_seed"):
            GridSpec([0.0], [0.0], n_traj=1, master_seed=-1)
        with pytest.raises(TypeError, match="base_config"):
            GridSpec([0.0], [0.0], n_traj=1, master_seed=0, base_config=object())

    def test_cell_arrays_are_budgeted(self):
        # Sizes only: a spec allocates nothing.  A trajectory of the default
        # flow holds packed loads and anisotropies of 100 x 6 floats, packed
        # states of 101 x 6 and 100 update norms, and its load sampler 100 x
        # 3 log-eigenvalues, a coupling of 100 x 3 x 3 floats, its transposed
        # copy and 100 x 3 scratch floats.
        per_traj = (100 * (2 * 6 + 1 + 3 + 2 * 9 + 3) + 101 * 6) * 8
        GridSpec(n_traj=ARRAY_BUDGET // per_traj)
        keys = (r"^n_traj, base_config\.k_max, base_config\.d_tan, "
                r"base_config\.schur_model ask for .* budget$")
        with pytest.raises(ValueError, match=keys):
            GridSpec(n_traj=ARRAY_BUDGET // per_traj + 1)
        with pytest.raises(ValueError, match=keys):
            GridSpec(n_traj=int(1e300))
        # One trajectory of each fits, a cell of 100 does not: the
        # d_fast = 10**4 sampler arrays take 6.0 GiB, the Wishart ones 52 GiB.
        for model in (LognormalGaussian(d_fast=10**4), Wishart(rank=10**5)):
            base = FlowConfig(schur_model=model)
            with pytest.raises(ValueError, match=keys):
                GridSpec(base_config=base)

    def test_grid_results_are_budgeted(self):
        # Each cell's results are d_tan + 4 = 7 floats: p_sector over four
        # sectors, mean_fpt, censored_fraction and n_valid.
        max_cells = ARRAY_BUDGET // (7 * 8)
        side = math.isqrt(max_cells)
        GridSpec(np.linspace(0.0, 1.0, side), np.linspace(0.0, 0.3, side))
        keys = r"^a0_values, zeta_values ask for .* budget$"
        with pytest.raises(ValueError, match=keys):
            GridSpec(np.linspace(0.0, 1.0, side + 1), np.linspace(0.0, 0.3, side + 1))
        # 1.6e9 cells, whose results alone would take 83 GiB.
        with pytest.raises(ValueError, match="ask for 85450 MiB"):
            GridSpec(np.linspace(0.0, 1.0, 40_000), np.linspace(0.0, 0.3, 40_000))

    def test_default_grid_spec(self):
        spec = GridSpec(master_seed=7)
        assert spec.a0_values.shape == (20,)
        assert spec.zeta_values.shape == (20,)
        assert spec.a0_values[-1] == 1.0
        assert spec.zeta_values[-1] == pytest.approx(0.3)
        assert spec.n_traj == 100
        assert spec.master_seed == 7
        small = GridSpec(master_seed=7, n_traj=3)
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

        def sometimes_cancelling(model, d_tan, n, rngs, **_):
            # A coin from each trajectory's own generator picks its loads.
            return np.concatenate([
                cancelling_batch(model, d_tan, n, [rng]) if rng.random() < 0.5
                else sample(model, d_tan, n, [rng])
                for rng in rngs
            ], axis=-1)

        monkeypatch.setattr(flow_mod, "sample_sigma_batch", sometimes_cancelling)
        spec = GridSpec(
            [0.0], [0.25], n_traj=8, master_seed=1, base_config=FlowConfig(k_max=20)
        )
        result = run_grid(spec)
        config = spec.cell_config(0)
        # The valid-state counts of 0.9.0, which checked the floor every step.
        rngs = [np.random.default_rng([1, 0, t]) for t in range(spec.n_traj)]
        n_valid = flow_mod.evolve_batch(config, rngs)[2]
        assert n_valid.tolist() == [21, 21, 1, 1, 1, 1, 21, 1]
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


def same_as_default_rng(master, cell, n_traj):
    """Whether every generator of the cell equals ``default_rng([master,
    cell, t])`` in its full state and in its first 8 normal draws."""
    for t, rng in enumerate(ensemble_mod._cell_generators(master, cell, n_traj)):
        oracle = np.random.default_rng([master, cell, t])
        if rng.bit_generator.state != oracle.bit_generator.state:
            return False
        if not np.array_equal(rng.standard_normal(8), oracle.standard_normal(8)):
            return False
    return True


# Seeds of one to four 32-bit words: below, at and above 2**32 and 2**64.
SEEDS = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128),
    st.sampled_from([2**32, 2**64]),
)


class TestCellGenerators:
    """A cell's generators are hashed together; numpy's ``default_rng``
    is the oracle, so a numpy that changes ``SeedSequence`` fails here."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(master=SEEDS, cell=SEEDS, n_traj=st.integers(1, 5))
    def test_generators_equal_default_rng(self, master, cell, n_traj):
        assert same_as_default_rng(master, cell, n_traj)

    def test_a_full_cell_of_100_trajectories(self):
        assert same_as_default_rng(12345678901234567890, 399, 100)

    @pytest.mark.parametrize(
        "name", ["_INIT_A", "_MULT_A", "_INIT_B", "_MULT_B", "_MIX_L", "_MIX_R", "_XSHIFT"]
    )
    def test_any_changed_hash_constant_fails_the_comparison(self, monkeypatch, name):
        monkeypatch.setattr(ensemble_mod, name, getattr(ensemble_mod, name) ^ 1)
        # The second seed has 5 entropy words, so it runs every mixing round.
        assert not same_as_default_rng(0, 0, 3)
        assert not same_as_default_rng(2**64 + 5, 2**33, 3)

    def test_large_master_cells_replay_each_trajectory(self, monkeypatch):
        # 2**64 + 5 is 3 words: with the cell and t, more than the pool's 4.
        master = 2**64 + 5
        histories = {}
        evolve = ensemble_mod.evolve_batch

        def recording(config, rngs, **kwargs):
            out = evolve(config, rngs, **kwargs)
            # A grid cell's counts are views of its workspace: keep a copy.
            histories[config.a0, config.zeta] = out[1].copy()
            return out

        monkeypatch.setattr(ensemble_mod, "evolve_batch", recording)
        spec = GridSpec(
            a0_values=[0.2, 0.8],
            zeta_values=[0.1],
            n_traj=4,
            master_seed=master,
            base_config=FlowConfig(k_max=15),
        )
        run_grid(spec)
        for cell_index in range(spec.n_cells):
            config = spec.cell_config(cell_index)
            n_minus = histories[config.a0, config.zeta]
            for t in range(spec.n_traj):
                record = run_trajectory(config, [master, cell_index, t])
                assert not record.collapsed
                assert n_minus[t, -1] == record.n_minus[-1]



# The two benchmark configs: the reference grid and the Wishart/trace/
# quenched grid.  WORKSPACE_GRIDS keeps their flows on a 3 x 3 grid of
# a0, zeta in {0, mid, top}, so a chunk mixes cells with and without
# loads and anisotropies.
BENCHMARK_BASES = {
    "reference": FlowConfig(),
    "wishart": FlowConfig(schur_model=Wishart(), norm_mode="trace", disorder="quenched"),
}
WORKSPACE_GRIDS = {
    "reference": GridSpec([0.0, 0.5, 1.0], [0.0, 0.15, 0.3], master_seed=3),
    "wishart": GridSpec(
        [0.0, 0.5, 1.0], [0.0, 0.4, 0.8], master_seed=3,
        base_config=BENCHMARK_BASES["wishart"],
    ),
}


def cell_workspace(spec):
    """A workspace for the cells of ``spec``, as a run_grid task builds it."""
    return np.empty(flow_mod.check_batch_budget(spec.base_config, spec.n_traj, "n_traj"))


def assert_same_outputs(got, expected):
    """Cell outputs ``(p, mean_fpt, censored_fraction, n_valid)`` equal bit
    for bit, NaN included."""
    for a, b in zip(got, expected):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestWorkspace:
    """A grid task reuses one workspace for all its cells.  No view may be
    read before it is written: a workspace full of NaN, or of the previous
    cell's arrays, must not reach any result."""

    @pytest.mark.parametrize("name", list(WORKSPACE_GRIDS))
    def test_stale_workspace_never_reaches_a_result(self, name):
        spec = WORKSPACE_GRIDS[name]
        workspace = cell_workspace(spec)
        for cell_index in reversed(range(spec.n_cells)):
            workspace.fill(np.nan)
            assert_same_outputs(
                ensemble_mod._run_cell(spec, cell_index, workspace),
                ensemble_mod._run_cell(spec, cell_index),
            )
        # Now without the NaN fill: each cell follows another's arrays.
        for cell_index in (4, 0, 8, 4):
            assert_same_outputs(
                ensemble_mod._run_cell(spec, cell_index, workspace),
                ensemble_mod._run_cell(spec, cell_index),
            )

    @pytest.mark.parametrize("name", list(WORKSPACE_GRIDS))
    def test_cell_after_another_matches_replays(self, name):
        spec = WORKSPACE_GRIDS[name]
        workspace = cell_workspace(spec)
        ensemble_mod._run_cell(spec, 8, workspace)
        cell_index = 4
        config = spec.cell_config(cell_index)
        rngs = ensemble_mod._cell_generators(spec.master_seed, cell_index, spec.n_traj)
        states, n_minus, n_valid = flow_mod.evolve_batch(config, rngs, workspace=workspace)
        assert np.shares_memory(states, workspace)
        assert np.shares_memory(n_minus, workspace)
        for t in range(0, spec.n_traj, 9):
            seed = [spec.master_seed, cell_index, t]
            record = run_trajectory(config, seed)
            assert not record.collapsed and n_valid[t] == config.k_max + 1
            np.testing.assert_array_equal(n_minus[t], record.n_minus)
            single = flow_mod.evolve_batch(config, [np.random.default_rng(seed)])[0]
            assert states[..., t].tobytes() == single[..., 0].tobytes()

    @pytest.mark.parametrize("name", list(BENCHMARK_BASES))
    def test_a_warm_cell_allocates_under_one_mib(self, name):
        # numpy reports its data buffers to tracemalloc.  A cell without a
        # workspace allocates and frees about 2.9 MiB, which glibc hands
        # back to the system and the next cell faults in again.
        spec = GridSpec(master_seed=1, base_config=BENCHMARK_BASES[name])
        if name == "wishart":
            spec = dataclasses.replace(spec, zeta_values=np.linspace(0.0, 0.8, 20))
        workspace = cell_workspace(spec)
        ensemble_mod._run_cell(spec, 210, workspace)
        tracemalloc.start()
        try:
            ensemble_mod._run_cell(spec, 210, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_too_small_a_workspace_is_refused(self):
        spec = WORKSPACE_GRIDS["reference"]
        small = cell_workspace(spec)[:-1]
        with pytest.raises(ValueError, match="^workspace: .* floats needed"):
            ensemble_mod._run_cell(spec, 4, small)

    def test_grid_is_worker_independent_over_partial_tasks(self):
        # 21 cells: two workers take tasks of 2 cells, the last one of 1;
        # one worker takes tasks of 3.
        spec = GridSpec(
            [0.0, 0.5, 1.0], np.linspace(0.0, 0.3, 7), n_traj=20, master_seed=5,
            base_config=FlowConfig(k_max=30),
        )
        serial, parallel = run_grid(spec, parallelism=1), run_grid(spec, parallelism=2)
        for field in ("p_sector", "mean_fpt", "censored_fraction", "n_valid"):
            assert getattr(serial, field).tobytes() == getattr(parallel, field).tobytes()
        cells = [ensemble_mod._run_cell(spec, i) for i in range(spec.n_cells)]
        assert serial.p_sector.reshape(spec.n_cells, -1).tolist() == [c[0] for c in cells]

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
        for sector in (4, -1, True, 1.0):
            with pytest.raises(ValueError, match="sector"):
                extract_boundary(result, sector=sector)
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
