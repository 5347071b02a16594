"""Tests for grid ensembles, aggregation and boundary extraction.

Aggregation formulas are checked on hand-built negative-count histories,
the seeding contract is checked against single-trajectory replays from
numpy's own ``default_rng``, one generator per cell and one per row, and
boundary extraction is checked on a synthetic probability field with a
known contour.
"""

import dataclasses
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from schurflow.flow import first_passage_steps
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


def cancelling_batch(model, d_tan, n, normals, **_):
    """Loads whose first step, at zeta = 0.25, cancels the identity exactly."""
    out = np.zeros((n, d_tan * (d_tan + 1) // 2, len(normals)))
    out[0, :d_tan] = 1.0 / 0.25
    return out


def replay_generators(spec, cell_index, t):
    """The generators of a grid cell and of its row after the anisotropy and
    the load normals of ``t`` trajectories: ``run_trajectory`` replays
    trajectory ``t`` of the cell from them."""
    row = cell_index // spec.zeta_values.size
    rng = np.random.default_rng([spec.master_seed, cell_index])
    load_rng = np.random.default_rng([spec.master_seed, row, 1])
    n_aniso, n_loads = flow_mod.draw_counts(spec.cell_config(cell_index))
    rng.standard_normal(t * n_aniso)
    load_rng.standard_normal(t * n_loads)
    return rng, load_rng


def replay(spec, cell_index, t):
    """Trajectory ``t`` of a grid cell, replayed by ``run_trajectory``."""
    return run_trajectory(spec.cell_config(cell_index), *replay_generators(spec, cell_index, t))


def replay_states(spec, cell_index, t):
    """The packed states of trajectory ``t`` of a grid cell, ``(k_max + 1,
    n_comp)``, drawn and evolved as a cell of one from its replay
    generators, as ``run_trajectory`` draws and evolves it."""
    config = spec.cell_config(cell_index)
    rng, load_rng = replay_generators(spec, cell_index, t)
    loads = flow_mod.draw_loads(config, load_rng, 1)
    drives = flow_mod._draw_drives([config], [rng], 1)
    return flow_mod.evolve_columns(config, drives, loads, config.a0, [config.zeta])[0][:, :, 0, 0]


def run_cell(spec, cell_index, workspace=None):
    """One cell run alone, as a task of one cell runs it."""
    return ensemble_mod._run_task((spec, cell_index, cell_index + 1), workspace)[0]


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
        # Sizes only: a spec allocates nothing.  A task of a whole row keeps
        # the workspace of a pair of cells with whole histories: per
        # trajectory the row's packed unit loads, 100 x 6 floats, and per
        # cell of the pair two blocks of draws, 100 x 6 each, its packed
        # states, 101 x 6, and the update norms, squared state and three
        # scalars, 100 + 6 + 3.  Its flow loops of four annealed cells,
        # classified every 12 steps, take 4,363 of these 4,430 floats.  The
        # largest accepted n_traj is 30,297, as at 0.25.0.
        per_traj = (100 * 5 * 6 + 2 * 101 * 6 + 2 * (100 + 6 + 3)) * 8
        assert ARRAY_BUDGET // per_traj == 30_297
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
            records = [replay(spec, cell_index, t) for t in range(4)]
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

        def sometimes_cancelling(model, d_tan, n, normals, **_):
            # The sign of each trajectory's first load normal picks its loads.
            return np.concatenate([
                cancelling_batch(model, d_tan, n, row[None]) if row[0] < 0.0
                else sample(model, d_tan, n, row[None])
                for row in normals
            ], axis=-1)

        monkeypatch.setattr(flow_mod, "sample_sigma_batch", sometimes_cancelling)
        spec = GridSpec(
            [0.0], [0.25], n_traj=8, master_seed=1, base_config=FlowConfig(k_max=20)
        )
        result = run_grid(spec)
        config = spec.cell_config(0)
        # The valid-state counts, re-recorded at 0.25.0 with the coin and the
        # stream of the row's load generator.
        records = [replay(spec, 0, t) for t in range(spec.n_traj)]
        assert [r.n_steps + 1 for r in records] == [1, 1, 1, 21, 21, 1, 1, 21]
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
            NonFiniteState, match=r"cell \(a0=0.0, zeta=0.1\): trajectory 0, step 3"
        ):
            run_grid(spec)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("pair, failing", [
        ((0, 1), [1]), ((3, 4), [4]), ((1, 2), [1, 2]), ((3, 5), [4, 5]), ((0, 2), [1, 2]),
    ])
    def test_non_finite_cell_of_a_pair_is_named(self, pair, failing):
        # The cells of a task evolve in one loop: a pair, or a whole row
        # whose middle cell is the first to fail.  The error names the
        # failing cell, trajectory and step as a run of that cell alone
        # does, and when several fail, the first.  Cells with zeta = 0 stay
        # finite.
        base = FlowConfig(k_max=5, schur_model=LognormalGaussian(sigma_log=300))
        spec = GridSpec([0.0, 0.5], [0.0, 0.1, 0.2], n_traj=2, base_config=base)
        alone = {}
        for cell_index in range(pair[0], pair[1] + 1):
            try:
                run_cell(spec, cell_index)
            except NonFiniteState as exc:
                alone[cell_index] = str(exc)
        assert sorted(alone) == failing
        config = spec.cell_config(failing[0])
        assert alone[failing[0]].startswith(
            f"cell (a0={config.a0}, zeta={config.zeta}): trajectory "
        )
        with pytest.raises(NonFiniteState) as error:
            ensemble_mod._run_task((spec, pair[0], pair[1] + 1))
        assert str(error.value) == alone[failing[0]]
        if pair == (0, 1):  # run_grid's first task
            with pytest.raises(NonFiniteState) as error:
                run_grid(spec)
            assert str(error.value) == alone[1]


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_later_cell_failing_earlier_does_not_hide_the_first(self, monkeypatch):
        # One loop evolves the whole row.  Trajectory 1's load at step 2
        # overflows the update's squares at zeta = 0.2 but not at 0.1, and
        # every trajectory's load at step 5 overflows both.  The last cell
        # fails first, at step 2; the error names the middle cell, the
        # first to fail in cell order, at step 5, as its run alone does.
        def loads(model, d_tan, n, normals, **_):
            out = np.zeros((n, d_tan * (d_tan + 1) // 2, len(normals)))
            out[1, 0, 1] = 1e155
            out[4, :d_tan] = 1e300
            return out

        monkeypatch.setattr(flow_mod, "sample_sigma_batch", loads)
        spec = GridSpec([0.0, 0.5], [0.0, 0.1, 0.2], n_traj=2, base_config=FlowConfig(k_max=6))
        alone = {}
        for cell_index in (4, 5):
            with pytest.raises(NonFiniteState) as error:
                run_cell(spec, cell_index)
            alone[cell_index] = str(error.value)
        assert alone[4] == "cell (a0=0.5, zeta=0.1): trajectory 0, step 5: " \
            "the update or its Frobenius norm is not finite"
        assert ": trajectory 1, step 2: " in alone[5]
        with pytest.raises(NonFiniteState) as error:
            ensemble_mod._run_task((spec, 3, 6))
        assert str(error.value) == alone[4]

    def test_large_master_cells_replay_each_trajectory(self, monkeypatch):
        # 2**64 + 5 is 3 words: with the cell index, 4 words of entropy.
        master = 2**64 + 5
        histories = []
        aggregate = ensemble_mod.mean_first_passage

        def recording(records, target_n_minus):
            # A cell's valid histories, here all of them, in cell order; they
            # are views of the workspace: keep a copy.
            histories.append(records.copy())
            return aggregate(records, target_n_minus)

        monkeypatch.setattr(ensemble_mod, "mean_first_passage", recording)
        spec = GridSpec(
            a0_values=[0.2, 0.8],
            zeta_values=[0.1],
            n_traj=4,
            master_seed=master,
            base_config=FlowConfig(k_max=15),
        )
        run_grid(spec)
        assert len(histories) == spec.n_cells
        for cell_index, n_minus in enumerate(histories):
            for t in range(spec.n_traj):
                record = replay(spec, cell_index, t)
                assert not record.collapsed
                assert n_minus[t, -1] == record.n_minus[-1]


def grid_states(monkeypatch, spec):
    """Every cell's packed states, ``(k_max + 1, n_comp, n_traj)`` each, in
    cell order, as a serial ``run_grid`` of ``spec`` evolves them: the
    states each of its flow loops classifies, the initial state, ``(n_comp,
    1, 1)``, then each block's, ``(n_comp, steps, cells, n_traj)``."""
    loops = []
    classify = flow_mod.embedded_negatives

    def recording(q_t, q_n, **kwargs):
        if q_t.ndim == 3:
            loops.append([])
        loops[-1].append(q_t.copy())
        return classify(q_t, q_n, **kwargs)

    monkeypatch.setattr(flow_mod, "embedded_negatives", recording)
    run_grid(spec)
    monkeypatch.undo()
    states = []
    for initial, *blocks in loops:
        first = np.broadcast_to(initial[:, :, :, None], (len(initial), 1, *blocks[0].shape[2:]))
        history = np.concatenate([first, *blocks], axis=1)
        states.extend(history[:, :, g].swapaxes(0, 1).copy() for g in range(history.shape[2]))
    return states


class TestSeedingRule:
    """A cell draws its anisotropies from ``default_rng([master_seed,
    cell_index])`` and its row its unit loads from ``default_rng(
    [master_seed, row, 1])``; trajectory ``t`` of every cell of the row is
    block ``t`` of each stream."""

    # The a0 = 0 row draws no anisotropies and the zeta = 0 column reads no
    # loads, so their blocks are empty.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        master=st.integers(0, 2**64 + 5),
        model=st.sampled_from([LognormalGaussian(), Wishart()]),
        disorder=st.sampled_from(["annealed", "quenched"]),
        norm_mode=st.sampled_from(["frobenius", "trace"]),
        cell_index=st.integers(0, 3),
        t=st.integers(0, 3),
    )
    @example(master=0, model=Wishart(), disorder="quenched", norm_mode="trace",
             cell_index=1, t=3)
    @example(master=7, model=LognormalGaussian(), disorder="annealed",
             norm_mode="frobenius", cell_index=2, t=1)
    def test_any_grid_trajectory_equals_its_replay(
        self, master, model, disorder, norm_mode, cell_index, t
    ):
        base = FlowConfig(k_max=12, schur_model=model, disorder=disorder, norm_mode=norm_mode)
        spec = GridSpec([0.0, 0.6], [0.0, 0.3], n_traj=4, master_seed=master, base_config=base)
        with pytest.MonkeyPatch.context() as monkeypatch:
            states = grid_states(monkeypatch, spec)[cell_index][..., t]
        assert states.tobytes() == replay_states(spec, cell_index, t).tobytes()
        record = replay(spec, cell_index, t)
        assert (states[:, :3].sum(axis=1) / 3).tobytes() == record.q.tobytes()

    def test_a_trajectory_does_not_depend_on_n_traj(self, monkeypatch):
        specs = [
            GridSpec([0.0, 0.5], [0.0, 0.1, 0.2], n_traj=n, master_seed=9,
                     base_config=FlowConfig(k_max=20))
            for n in (3, 7)
        ]
        few, many = (grid_states(monkeypatch, spec) for spec in specs)
        for cell_few, cell_many in zip(few, many):
            assert cell_few.tobytes() == cell_many[..., :3].copy().tobytes()

    # Master seeds below 2**32, in [2**32, 2**64) and above 2**64 take one,
    # two and three words.  SeedSequence pads a key with zeros to its pool
    # of four words and hashes the words beyond it into the pool.
    @pytest.mark.parametrize("master", [0, 2**32 - 1, 2**32 + 7, 2**64 - 1, 2**64 + 5, 2**70])
    def test_no_load_key_equals_a_cell_key(self, master):
        spec = GridSpec(np.linspace(0.0, 1.0, 20), np.linspace(0.0, 0.3, 20), master_seed=master)
        def state(key):
            return np.random.SeedSequence(key).generate_state(8).tobytes()

        cells = {state([master, c]) for c in range(spec.n_cells)}
        rows = {state([master, i, 1]) for i in range(spec.a0_values.size)}
        assert len(cells) == spec.n_cells and len(rows) == spec.a0_values.size
        assert not cells & rows

    def test_a_row_draws_its_loads_once_per_task(self, monkeypatch):
        # One worker runs each 3-cell row of 8 as one task: one load draw
        # per row with a positive zeta, one anisotropy draw per cell with
        # a0 > 0.
        calls = {"sample_sigma_batch": 0, "sample_anisotropy_batch": 0}
        for name in calls:
            def spy(*args, _name=name, _sampler=getattr(flow_mod, name), **kwargs):
                calls[_name] += 1
                return _sampler(*args, **kwargs)

            monkeypatch.setattr(flow_mod, name, spy)
        spec = GridSpec(np.linspace(0.0, 1.0, 8), [0.0, 0.1, 0.2], n_traj=5,
                        base_config=FlowConfig(k_max=10))
        run_grid(spec)
        assert calls == {"sample_sigma_batch": 8, "sample_anisotropy_batch": 21}
        calls.update(dict.fromkeys(calls, 0))
        run_grid(GridSpec([0.0, 0.5], [0.0], n_traj=5))
        assert calls == {"sample_sigma_batch": 0, "sample_anisotropy_batch": 1}

    def test_a_row_draws_its_loads_once(self, monkeypatch):
        # One worker runs each row of a 2 x 41 grid as one task, which draws
        # the row's loads once.  When a row was split into tasks of 12, 12,
        # 12 and 5 cells, each task drew them: 8 draws.
        calls = []
        sample = flow_mod.sample_sigma_batch
        monkeypatch.setattr(
            flow_mod, "sample_sigma_batch", lambda *args, **kw: calls.append(1) or sample(*args, **kw)
        )
        spec = GridSpec([0.2, 0.6], np.linspace(0.0, 0.3, 41), n_traj=3,
                        base_config=FlowConfig(k_max=8))
        run_grid(spec)
        assert len(calls) == 2

    def test_shared_loads_are_not_scaled_in_place(self):
        # Cells 4 and 5 read one row's unit loads at zeta 0.15 and 0.3 in
        # one loop: had the first scaled them in place, the second would
        # read loads scaled twice.
        spec = dataclasses.replace(WORKSPACE_GRIDS["reference"], n_traj=20)
        pair = ensemble_mod._run_task((spec, 4, 6))
        for cell_index, output in zip((4, 5), pair):
            assert_same_outputs(output, run_cell(spec, cell_index))


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


def task_workspace(spec):
    """A workspace for a task of a whole row of ``spec``, as run_grid builds
    it on one worker."""
    return np.empty(flow_mod.check_batch_budget(
        spec.base_config, spec.n_traj, "n_traj", spec.zeta_values.size
    ))


def assert_same_outputs(got, expected):
    """Cell outputs ``(p, mean_fpt, censored_fraction, n_valid)`` equal bit
    for bit, NaN included."""
    for a, b in zip(got, expected):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestWorkspace:
    """A grid task reuses one workspace for its row's loads and all its
    cells' flow loops.  No view may be read before it is written: a
    workspace full of NaN, or of the previous tasks' arrays, must not reach
    any result."""

    # The 3 x 3 grids' rows as tasks: each a whole row in one loop.
    ROWS = [(0, 3), (3, 6), (6, 9)]

    @pytest.mark.parametrize("name", list(WORKSPACE_GRIDS))
    def test_stale_workspace_never_reaches_a_result(self, name):
        spec = WORKSPACE_GRIDS[name]
        singles = [run_cell(spec, cell_index) for cell_index in range(spec.n_cells)]
        workspace = task_workspace(spec)
        for start, stop in reversed(self.ROWS):
            workspace.fill(np.nan)
            outputs = ensemble_mod._run_task((spec, start, stop), workspace)
            for cell_index, output in zip(range(start, stop), outputs):
                assert_same_outputs(output, singles[cell_index])
        # Now without the NaN fill: each task follows another's arrays.
        for start, stop in [(3, 6), (0, 3), (8, 9), (4, 6)]:
            outputs = ensemble_mod._run_task((spec, start, stop), workspace)
            for cell_index, output in zip(range(start, stop), outputs):
                assert_same_outputs(output, singles[cell_index])

    @pytest.mark.parametrize("name", list(WORKSPACE_GRIDS))
    def test_cell_after_another_matches_replays(self, name):
        spec = WORKSPACE_GRIDS[name]
        workspace = task_workspace(spec)
        ensemble_mod._run_task((spec, 6, 9), workspace)
        cell_index = 4
        config = spec.cell_config(cell_index)
        load_rng = np.random.default_rng([spec.master_seed, 1, 1])
        loads = flow_mod.draw_loads(config, load_rng, spec.n_traj, workspace)
        # The row's block size, with this cell evolved alone.
        steps = flow_mod.row_loop(config, 3, workspace.size // spec.n_traj, config.a0 > 0)[1]
        n_minus, n_valid = flow_mod.evolve_cells(
            [config], [np.random.default_rng([spec.master_seed, cell_index])], loads,
            spec.n_traj, steps, workspace=workspace[loads.size:],
        )
        assert steps < config.k_max
        for array in (loads, n_minus, n_valid):
            assert np.shares_memory(array, workspace)
        for t in range(0, spec.n_traj, 9):
            record = replay(spec, cell_index, t)
            assert not record.collapsed and n_valid[0, t] == config.k_max + 1
            np.testing.assert_array_equal(n_minus[:, 0, t], record.n_minus)

    @pytest.mark.parametrize("name", list(BENCHMARK_BASES))
    def test_a_warm_cell_allocates_under_one_mib(self, name):
        # numpy reports its data buffers to tracemalloc.  A row task given
        # its workspace allocates nothing large: without one, a task
        # allocates and frees about 3.4 MiB, which glibc may hand back to
        # the system and the next task fault in again.
        spec = GridSpec(master_seed=1, base_config=BENCHMARK_BASES[name])
        if name == "wishart":
            spec = dataclasses.replace(spec, zeta_values=np.linspace(0.0, 0.8, 20))
        workspace = task_workspace(spec)
        task = (spec, 200, 220)
        ensemble_mod._run_task(task, workspace)
        tracemalloc.start()
        try:
            ensemble_mod._run_task(task, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_too_small_a_workspace_is_refused(self):
        spec = WORKSPACE_GRIDS["reference"]
        small = task_workspace(spec)[:-1]
        with pytest.raises(ValueError, match="^workspace: .* floats needed"):
            ensemble_mod._run_task((spec, 3, 6), small)
        run_cell(spec, 4, small)  # one cell needs less

    def test_grid_is_worker_independent_over_partial_tasks(self, monkeypatch):
        # 3 rows of 7 cells: one worker runs each row as one task, two
        # workers split each row into tasks of 2 and a last of one, three
        # into tasks of one cell.  Each task draws its row's loads.  Three
        # workers run on a machine of fewer CPUs too.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        spec = GridSpec(
            [0.0, 0.5, 1.0], np.linspace(0.0, 0.3, 7), n_traj=20, master_seed=5,
            base_config=FlowConfig(k_max=30),
        )
        results = [run_grid(spec, parallelism=w) for w in (1, 2, 3)]
        for result in results[1:]:
            for field in ("p_sector", "mean_fpt", "censored_fraction", "n_valid"):
                assert getattr(result, field).tobytes() == getattr(results[0], field).tobytes()
        cells = [run_cell(spec, i) for i in range(spec.n_cells)]
        assert results[0].p_sector.reshape(spec.n_cells, -1).tolist() == [c[0] for c in cells]

    @pytest.mark.parametrize("name", list(WORKSPACE_GRIDS))
    def test_three_by_three_grid_is_worker_independent(self, monkeypatch, name):
        # One worker takes each row as a task, two and three workers each
        # cell.  Every cell equals its run alone.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        spec = WORKSPACE_GRIDS[name]
        singles = [run_cell(spec, i) for i in range(spec.n_cells)]
        for workers in (1, 2, 3):
            result = run_grid(spec, parallelism=workers)
            for i, single in enumerate(singles):
                row, col = divmod(i, spec.zeta_values.size)
                assert_same_outputs(
                    (result.p_sector[row, col], result.mean_fpt[row, col],
                     result.censored_fraction[row, col], result.n_valid[row, col]),
                    (single[0], single[1], single[2], single[3]),
                )

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


def first_load_normals(spec, row):
    """The first load normal of each trajectory of a grid row, which tells
    the trajectory apart in a grid draw and in its replay alike."""
    n_zeta = spec.zeta_values.size
    n_loads = flow_mod.draw_counts(spec.cell_config((row + 1) * n_zeta - 1))[1]
    load_rng = np.random.default_rng([spec.master_seed, row, 1])
    return load_rng.standard_normal((spec.n_traj, n_loads))[:, 0]


def spiked_loads(spec, spikes, value):
    """``sample_sigma_batch``, but trajectory ``t`` of every row, for each
    ``t: step`` of ``spikes``, loads nothing but ``value`` times the
    identity at that step."""
    sample = flow_mod.sample_sigma_batch
    keys = {
        first_load_normals(spec, row)[t]: step
        for row in range(spec.a0_values.size) for t, step in spikes.items()
    }

    def spiked(model, d_tan, n, normals, **kwargs):
        out = sample(model, d_tan, n, normals, **kwargs)
        for t, normal in enumerate(np.asarray(normals)[:, 0]):
            if normal in keys:
                out[:, :, t] = 0.0
                out[keys[normal] - 1, :d_tan, t] = value
        return out

    return spiked


def row_loops(spec, row, cells_per_loop, steps):
    """Run row ``row`` of ``spec`` as flow loops of ``cells_per_loop`` cells
    classified every ``steps`` steps; yield each loop's cells and its
    ``(n_minus, n_valid)``, or its ``NonFiniteState``."""
    n_zeta = spec.zeta_values.size
    last = spec.cell_config((row + 1) * n_zeta - 1)
    load_rng = np.random.default_rng([spec.master_seed, row, 1])
    loads = flow_mod.draw_loads(last, load_rng, spec.n_traj)
    for first in range(row * n_zeta, (row + 1) * n_zeta, cells_per_loop):
        cells = range(first, min(first + cells_per_loop, (row + 1) * n_zeta))
        configs = [spec.cell_config(c) for c in cells]
        rngs = [np.random.default_rng([spec.master_seed, c]) for c in cells]
        try:
            yield cells, flow_mod.evolve_cells(configs, rngs, loads, spec.n_traj, steps)
        except NonFiniteState as exc:
            yield cells, exc


class TestRowLoop:
    """A cell's outputs do not depend on how many cells share its flow loop
    or on how many steps lie between classifications: loops of one cell,
    two and a whole row, classified every step, every 4 steps and once, on
    an annealed and a quenched grid with an a0 = 0 row and a zeta = 0
    column, each trajectory checked against its ``run_trajectory`` replay,
    the independent oracle."""

    # Trace normalization keeps an identity state exact while a0 and the
    # loads are zero, so a spike of 4 I cancels it at zeta = 0.25 and
    # inverts it at zeta = 0.5.
    BASES = {
        "annealed": FlowConfig(k_max=9, norm_mode="trace"),
        "quenched": FlowConfig(k_max=9, norm_mode="trace", disorder="quenched",
                               schur_model=Wishart()),
    }
    LOOPS = [(g, b) for g in (1, 2, 3) for b in (1, 4, 9)]

    def spec(self, name):
        return GridSpec([0.0, 0.6], [0.0, 0.25, 0.5], n_traj=5, master_seed=4,
                        base_config=self.BASES[name])

    @pytest.mark.parametrize("name", list(BASES))
    def test_counts_first_passage_and_n_valid_match_replays(self, monkeypatch, name):
        # Trajectories 1 and 2 of the a0 = 0 row collapse at steps 4 and 5
        # at zeta = 0.25, on either side of the boundary of blocks of 4
        # steps, and pass at those steps at zeta = 0.5.
        spec = self.spec(name)
        monkeypatch.setattr(flow_mod, "sample_sigma_batch", spiked_loads(spec, {1: 4, 2: 5}, 4.0))
        records = {
            c: [replay(spec, c, t) for t in range(spec.n_traj)] for c in range(spec.n_cells)
        }
        assert [r.n_steps + 1 for r in records[1]] == [10, 4, 5, 10, 10]
        assert [r.first_passage for r in records[2]][1:3] == [4, 5]
        for cells_per_loop, steps in self.LOOPS:
            for row in range(spec.a0_values.size):
                for cells, (n_minus, n_valid) in row_loops(spec, row, cells_per_loop, steps):
                    for g, c in enumerate(cells):
                        target = spec.cell_config(c).target_n_minus
                        for t, record in enumerate(records[c]):
                            valid = n_minus[:n_valid[g, t], g, t]
                            assert len(valid) == record.n_steps + 1
                            np.testing.assert_array_equal(valid, record.n_minus)
                            first = int(first_passage_steps(valid, target))
                            assert first == (-1 if record.censored else record.first_passage)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("spikes", [{1: 4, 3: 5}, {3: 5}], ids=["step-4", "step-5"])
    @pytest.mark.parametrize("name", list(BASES))
    def test_non_finite_step_matches_replays(self, monkeypatch, name, spikes):
        # Loads of 1e300 overflow every cell with zeta > 0 at the spiked
        # steps, on either side of the boundary of blocks of 4 steps.  A
        # loop names its first cell with a non-finite update, that cell's
        # first such step and the first trajectory at it, as the replays
        # of its trajectories find them.
        spec = self.spec(name)
        monkeypatch.setattr(flow_mod, "sample_sigma_batch", spiked_loads(spec, spikes, 1e300))
        failures = {}
        for c in range(spec.n_cells):
            for t in range(spec.n_traj):
                try:
                    replay(spec, c, t)
                except NonFiniteState as exc:
                    step = int(re.match(r"trajectory 0, step (\d+):", str(exc))[1])
                    failures.setdefault(c, (step, t))
                    failures[c] = min(failures[c], (step, t))
        assert sorted(failures) == [1, 2, 4, 5]
        for cells_per_loop, steps in self.LOOPS:
            for row in range(spec.a0_values.size):
                for cells, outcome in row_loops(spec, row, cells_per_loop, steps):
                    failing = [g for g, c in enumerate(cells) if c in failures]
                    if not failing:
                        assert not isinstance(outcome, NonFiniteState)
                        continue
                    assert isinstance(outcome, NonFiniteState)
                    assert outcome.cell == failing[0]
                    step, t = failures[cells[failing[0]]]
                    assert str(outcome) == (
                        f"trajectory {t}, step {step}: "
                        "the update or its Frobenius norm is not finite"
                    )
