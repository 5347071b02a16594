"""Tests for the stochastic coarse-graining flow.

Covers the elimination-load and anisotropy samplers, the normalization
rules, single flow steps, and full trajectories.  The batched samplers are
cross-checked against each generator's documented normals replayed from raw
``standard_normal`` calls, and trajectory evolution by replaying the
documented draw order through the public samplers and stepping by hand.
The lognormal loads are checked by law against a reference sampler that
rotates the fast block by an explicit Haar rotation, and the anisotropies
against dense GOE matrices built in the test.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schurflow.flow as flow_mod
from schurflow import (
    Disorder,
    DegenerateDraw,
    FlowConfig,
    GridSpec,
    LognormalGaussian,
    NonFiniteState,
    NormMode,
    Wishart,
    ZeroTensor,
    anisotropy_strength,
    embed_full,
    flow_step,
    run_trajectory,
    sample_anisotropy_batch,
    sample_sigma_batch,
    signature,
)
from schurflow.tensor import ARRAY_BUDGET, count_inertia, packed_index, unpack_symmetric


def dense(packed):
    """A sampler's packed ``(n, n_comp, n_traj)`` output as dense
    ``(n_traj, n, d, d)`` matrices."""
    return unpack_symmetric(packed.transpose(1, 2, 0))


def rows(rngs, count):
    """One row of ``count`` standard normals per generator."""
    return np.stack([rng.standard_normal(count) for rng in rngs])


def draw_sigma(model, d_tan, n, rngs, **kwargs):
    """``sample_sigma_batch`` of one row of normals per generator."""
    count = n * flow_mod._sigma_floats(model, d_tan)[1]
    return sample_sigma_batch(model, d_tan, n, rows(rngs, count), **kwargs)


def draw_anisotropy(d_tan, n, rngs, **kwargs):
    """``sample_anisotropy_batch`` of one row of normals per generator."""
    count = n * d_tan * (d_tan + 1) // 2
    return sample_anisotropy_batch(d_tan, n, rows(rngs, count), **kwargs)


def replay_rngs(seed, load_seed, t, config):
    """``default_rng(seed)`` and ``default_rng(load_seed)`` after the
    anisotropy and the load normals of ``t`` trajectories of ``config``:
    trajectory ``t`` of a batch drawn from those generators."""
    rngs = np.random.default_rng(seed), np.random.default_rng(load_seed)
    for rng, count in zip(rngs, flow_mod.draw_counts(config)):
        rng.standard_normal(t * count)
    return rngs


def unit_drives(config, rngs, n):
    """The unit anisotropies of one cell under ``config`` per generator in
    ``rngs``, ``(cells, n_draws, n_comp, n)``, or None where ``a0`` is
    zero."""
    return flow_mod._draw_drives([config] * len(rngs), rngs, n)


def run_batch(config, rng, load_rng, n):
    """Sample, evolve and classify ``n`` trajectories, their anisotropies
    drawn from ``rng`` and their loads from ``load_rng``: the budget check
    of a task of one cell, the load draw into its workspace, the anisotropy
    draw and one flow loop of one cell that classifies all its states in one
    block.  Returns ``(states, n_minus, n_valid)``: the packed states,
    ``(k_max + 1, n_comp, n)``, the negative count of their full tensors,
    ``(n, k_max + 1)``, and per trajectory the count of valid states."""
    workspace = np.empty(flow_mod.check_batch_budget(config, n, "n, k_max, d_tan, schur_model"))
    loads = flow_mod.draw_loads(config, load_rng, n, workspace)
    n_minus = np.empty((config.k_max + 1, 1, n), np.int8)
    states, n_valid = flow_mod.evolve_columns(
        config, unit_drives(config, [rng], n), loads, config.a0, [config.zeta], history=n_minus
    )
    return states[:, :, 0], n_minus[:, 0].T, n_valid[0]


class TestSigmaSamplers:
    def test_lognormal_loads_are_symmetric_psd(self):
        rng = np.random.default_rng(11)
        packed = draw_sigma(LognormalGaussian(), 4, 50, [rng])
        assert packed.shape == (50, 10, 1)
        eigs = np.linalg.eigvalsh(dense(packed)[0])
        assert eigs.min() >= -1e-12 * max(1.0, abs(eigs).max())

    def test_wishart_loads_are_symmetric_psd(self):
        rng = np.random.default_rng(12)
        eigs = np.linalg.eigvalsh(dense(draw_sigma(Wishart(), 3, 50, [rng]))[0])
        assert eigs.min() >= -1e-12 * max(1.0, abs(eigs).max())

    def test_wishart_mean_load_is_identity(self):
        # E[g g.T / rank] = I, so the mean trace over many draws is d_tan.
        # Margin at this seed: 0.13% against the 1% bound.
        d = 3
        rng = np.random.default_rng(0)
        loads = draw_sigma(Wishart(), d, 100_000, [rng])
        mean_trace = loads[:, :d].sum(axis=1).mean()
        assert abs(mean_trace - d) / d < 0.01

    def test_wishart_rank_one_signature(self):
        rng = np.random.default_rng(5)
        load = dense(draw_sigma(Wishart(rank=1), 3, 1, [rng]))[0, 0]
        assert signature(load) == (1, 0, 2)

    def test_lognormal_low_rank_coupling(self):
        # d_fast < d_tan caps the load rank at d_fast.
        rng = np.random.default_rng(6)
        load = dense(draw_sigma(LognormalGaussian(d_fast=2), 4, 1, [rng]))[0, 0]
        assert signature(load) == (2, 0, 2)

    # The sampler draws the coupling in the fast block's eigenbasis.  Its
    # loads must have the law of the loads of a Haar-rotated fast block:
    # two-sample KS on trace, extreme eigenvalues and entry (0, 1), N =
    # 20,000 a side.  Margins at these seeds: equal laws give p >= 0.17 on
    # every statistic (0.28 for the default model) against the 0.0025
    # bound, and sigma_log 1.1 against 1.0 gives trace p = 5.5e-11 and
    # lambda_max p = 2.3e-12 against the 1e-6 bound.
    @pytest.mark.parametrize("model, d_tan", [
        (LognormalGaussian(), 3),
        (LognormalGaussian(d_fast=5, sigma_log=0.7), 4),
    ])
    def test_lognormal_loads_have_the_law_of_a_haar_rotated_block(self, model, d_tan):
        p = load_law_p_values(model, model, d_tan)
        assert min(p.values()) > 0.01 / 4, p

    def test_load_law_check_flags_a_changed_sigma_log(self):
        p = load_law_p_values(LognormalGaussian(sigma_log=1.1), LognormalGaussian(), 3)
        assert min(p.values()) < 1e-6, p

    def test_invalid_arguments(self):
        normals = np.zeros((1, 5 * 9))
        with pytest.raises(ValueError, match="d_tan"):
            sample_sigma_batch(Wishart(), 0, 5, normals)
        with pytest.raises(ValueError, match="n must"):
            sample_sigma_batch(Wishart(), 3, 0, normals)
        with pytest.raises(TypeError, match="model"):
            sample_sigma_batch(object(), 3, 5, normals)
        for bad in (normals[:, 1:], normals[0], np.zeros((1, 5 * 12))):
            with pytest.raises(ValueError, match=r"^normals: expected shape \(n_traj, 45\)"):
                sample_sigma_batch(Wishart(), 3, 5, bad)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="sigma_log"):
            LognormalGaussian(sigma_log=0.0)
        with pytest.raises(ValueError, match="sigma_log"):
            LognormalGaussian(sigma_log=-1.0)
        with pytest.raises(ValueError, match="d_fast"):
            LognormalGaussian(d_fast=0)
        with pytest.raises(ValueError, match="rank"):
            Wishart(rank=-2)


class TestAnisotropySampler:
    def test_draws_are_traceless_symmetric_unit_norm(self):
        rng = np.random.default_rng(3)
        packed = draw_anisotropy(4, 200, [rng])
        assert packed.shape == (200, 10, 1)
        draws = dense(packed)[0]
        assert np.abs(np.trace(draws, axis1=1, axis2=2)).max() < 1e-12
        norms = np.sqrt(np.einsum("kij,kij->k", draws, draws))
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_entry_means_vanish(self):
        # Entrywise sample means sit within 3 standard errors of zero.
        # Margin at this seed: worst ratio 1.89 against the 3.0 bound.
        rng = np.random.default_rng(0)
        draws = dense(draw_anisotropy(3, 20_000, [rng]))[0]
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.abs(mean / se).max() < 3.0

    def test_requires_at_least_two_dimensions(self):
        with pytest.raises(ValueError, match="d_tan"):
            sample_anisotropy_batch(1, 5, np.zeros((1, 5)))
        with pytest.raises(ValueError, match=r"^normals: expected shape \(n_traj, 30\)"):
            sample_anisotropy_batch(3, 5, np.zeros((2, 36)))

    def test_degenerate_draw_raises_without_redraw(self):
        class ZeroRng:
            calls = 0

            def standard_normal(self, size=None, out=None):
                # Generator.standard_normal's signature: the draw step draws
                # straight into its workspace through ``out``.
                self.calls += 1
                if out is None:
                    return np.zeros(size)
                out[...] = 0.0
                return out

        zero_rng = ZeroRng()
        config = FlowConfig(a0=0.5, k_max=2)
        with pytest.raises(DegenerateDraw, match="norm below"):
            flow_mod.draw_anisotropies(config, zero_rng, np.empty((2, 6, 3)))
        assert zero_rng.calls == 1

    # The sampler draws the packed components of a GOE matrix directly.
    # Its draws must have the law of (g + g.T) / 2 with the trace removed
    # and the Frobenius norm made one: two-sample KS on entries (0, 0) and
    # (0, 1) and the extreme eigenvalues, N = 20,000 a side.  Margins at
    # these seeds: equal laws give p >= 0.087 on every statistic against the
    # 0.0025 bound, and off-diagonal variance 1 instead of 1/2 gives entry
    # (0, 0) p = 3.1e-30 (d_tan 3) and 1.2e-39 (d_tan 4) against the 1e-6
    # bound.
    @pytest.mark.parametrize("d_tan", [3, 4])
    def test_draws_have_the_goe_law(self, d_tan):
        p = anisotropy_law_p_values(d_tan, lambda g: 0.5 * (g + g.swapaxes(1, 2)))
        assert min(p.values()) > 0.01 / 4, p

    @pytest.mark.parametrize("d_tan", [3, 4])
    def test_goe_law_check_flags_a_doubled_off_diagonal_variance(self, d_tan):
        p = anisotropy_law_p_values(d_tan, lambda g: np.triu(g) + np.triu(g, 1).swapaxes(1, 2))
        assert min(p.values()) < 1e-6, p


def anisotropy_law_p_values(d_tan, symmetric, n=20_000):
    """Two-sample KS p-values of four anisotropy statistics: ``n`` sampler
    draws against ``n`` dense references, the traceless unit-Frobenius
    parts of ``symmetric(g)`` for standard Gaussian ``(n, d_tan, d_tan)``
    stacks ``g``."""
    from scipy.stats import ks_2samp  # tests only: scipy is no runtime dependency

    ref = symmetric(np.random.default_rng(24).standard_normal((n, d_tan, d_tan)))
    ref -= (np.trace(ref, axis1=1, axis2=2) / d_tan)[:, None, None] * np.eye(d_tan)
    ref /= np.linalg.norm(ref, axis=(1, 2))[:, None, None]
    draws = {
        "sampler": dense(draw_anisotropy(d_tan, n, [np.random.default_rng(23)]))[0],
        "reference": ref,
    }
    stats = {}
    for side, a in draws.items():
        eigs = np.linalg.eigvalsh(a)
        stats[side] = {"a00": a[:, 0, 0], "a01": a[:, 0, 1],
                       "lambda_min": eigs[:, 0], "lambda_max": eigs[:, -1]}
    return {key: ks_2samp(stats["sampler"][key], stats["reference"][key]).pvalue
            for key in stats["reference"]}


def in_order_sum(terms):
    """``terms[0] + terms[1] + ...``, left to right."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def chunked_sum(terms):
    """The in-order sums of chunks of seven terms, added in order."""
    return in_order_sum([in_order_sum(terms[i:i + 7]) for i in range(0, len(terms), 7)])


def replay_sigma(model, d_tan, n, rng):
    """A row of load normals, drawn from ``rng`` in the documented pieces, as
    packed ``(n, n_comp)`` components, one load and one component at a time:
    the products ``(w_if * w_jf) * weight_f`` are summed over modes by
    :func:`chunked_sum`."""
    if isinstance(model, LognormalGaussian):
        modes = model.d_fast or d_tan
        weight = np.exp(-model.sigma_log * rng.standard_normal((n, modes))) / modes
    else:
        modes = model.rank or d_tan
        weight = np.full((n, modes), 1.0 / modes)
    w = rng.standard_normal((n, d_tan, modes))
    rows, cols = np.divmod(packed_index(d_tan), d_tan)
    out = np.empty((n, len(rows)))
    for k in range(n):
        for c, (i, j) in enumerate(zip(rows, cols)):
            out[k, c] = chunked_sum(
                [w[k, i, f] * w[k, j, f] * weight[k, f] for f in range(modes)]
            )
    return out


def haar_sigma(model, d_tan, n, rng):
    """Lognormal loads of an explicitly rotated fast block: the rotation is
    the Q factor of a Gaussian matrix with its column signs fixed, which
    makes it exactly Haar (Mezzadri, arXiv:math-ph/0609050)."""
    d_fast = model.d_fast or d_tan
    z = rng.standard_normal((n, d_fast))
    rot, r = np.linalg.qr(rng.standard_normal((n, d_fast, d_fast)))
    rot *= np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
    w = rng.standard_normal((n, d_tan, d_fast)) / np.sqrt(d_fast) @ rot
    return (w * np.exp(-model.sigma_log * z)[:, None, :]) @ w.transpose(0, 2, 1)


def load_law_p_values(model, reference, d_tan, n=20_000):
    """Two-sample KS p-values of four load statistics: ``n`` sampler loads
    of ``model`` against ``n`` Haar-rotated loads of ``reference``."""
    from scipy.stats import ks_2samp  # tests only: scipy is no runtime dependency

    loads = {
        "sampler": dense(draw_sigma(model, d_tan, n, [np.random.default_rng(21)]))[0],
        "haar": haar_sigma(reference, d_tan, n, np.random.default_rng(22)),
    }
    stats = {}
    for side, sig in loads.items():
        eigs = np.linalg.eigvalsh(sig)
        stats[side] = {"trace": np.trace(sig, axis1=1, axis2=2), "lambda_min": eigs[:, 0],
                       "lambda_max": eigs[:, -1], "q01": sig[:, 0, 1]}
    return {key: ks_2samp(stats["sampler"][key], stats["haar"][key]).pvalue
            for key in stats["haar"]}


def replay_anisotropy(d_tan, n, rng):
    """A row of anisotropy normals drawn from ``rng`` as packed ``(n,
    n_comp)`` components, one matrix at a time, summed over components by
    :func:`chunked_sum`."""
    out = []
    for s in rng.standard_normal((n, d_tan * (d_tan + 1) // 2)):
        s[d_tan:] *= np.sqrt(0.5)
        s[:d_tan] -= chunked_sum(s[:d_tan]) / d_tan
        square = s * s
        square[d_tan:] *= 2.0
        out.append(s / np.sqrt(chunked_sum(square)))
    return np.array(out)


def batch_rngs():
    return [np.random.default_rng([11, t]) for t in range(7)]


class TestBatchedSamplers:
    # Given the same normals, column i of a batched call equals the dense
    # replay of row i, drawn in pieces from its generator, bit for bit, and
    # equals a call with that row alone: no sum depends on the batch size.
    # d_fast = 10 and rank = 9 sum more than seven modes.
    @pytest.mark.parametrize("model, d_tan", [
        (LognormalGaussian(), 3),
        (LognormalGaussian(d_fast=5, sigma_log=0.7), 4),
        (Wishart(), 3),
        (Wishart(rank=2), 3),
        (LognormalGaussian(d_fast=10), 4),
        (Wishart(rank=9), 4),
    ])
    def test_sigma_matches_per_generator_replay(self, model, d_tan):
        n = FlowConfig().k_max
        loads = draw_sigma(model, d_tan, n, batch_rngs())
        assert loads.shape == (n, d_tan * (d_tan + 1) // 2, 7)
        expected = [replay_sigma(model, d_tan, n, rng) for rng in batch_rngs()]
        np.testing.assert_array_equal(loads, np.stack(expected, axis=-1))
        singles = [draw_sigma(model, d_tan, n, [rng]) for rng in batch_rngs()]
        np.testing.assert_array_equal(loads, np.concatenate(singles, axis=-1))
        one_draw = [draw_sigma(model, d_tan, 1, [rng]) for rng in batch_rngs()]
        np.testing.assert_array_equal(
            draw_sigma(model, d_tan, 1, batch_rngs()),
            np.concatenate(one_draw, axis=-1),
        )

    @pytest.mark.parametrize("n", [FlowConfig().k_max, 1])
    def test_anisotropy_matches_per_generator_replay(self, n):
        for d_tan in (3, 4):
            draws = draw_anisotropy(d_tan, n, batch_rngs())
            assert draws.shape == (n, d_tan * (d_tan + 1) // 2, 7)
            expected = [replay_anisotropy(d_tan, n, rng) for rng in batch_rngs()]
            np.testing.assert_array_equal(draws, np.stack(expected, axis=-1))
            singles = [draw_anisotropy(d_tan, n, [rng]) for rng in batch_rngs()]
            np.testing.assert_array_equal(draws, np.concatenate(singles, axis=-1))

    @pytest.mark.parametrize("zeta, a0, disorder", [
        (0.2, 0.5, Disorder.ANNEALED),
        (0.2, 0.5, Disorder.QUENCHED),
        (0.2, 0.0, Disorder.ANNEALED),
        (0.0, 0.5, Disorder.ANNEALED),
    ])
    def test_evolve_batch_calls_each_sampler_at_most_once(
        self, monkeypatch, zeta, a0, disorder
    ):
        calls = {}
        for name in ("sample_sigma_batch", "sample_anisotropy_batch"):
            def spy(*args, _name=name, _sampler=getattr(flow_mod, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _sampler(*args, **kwargs)

            monkeypatch.setattr(flow_mod, name, spy)
        config = FlowConfig(zeta=zeta, a0=a0, k_max=10, disorder=disorder)
        run_batch(config, np.random.default_rng(11), np.random.default_rng(12), 7)
        assert calls.get("sample_sigma_batch", 0) == (zeta > 0)
        assert calls.get("sample_anisotropy_batch", 0) == (a0 > 0)



class TestWorkspaceContract:
    # What a library caller sees.  Without scratch or workspace every call
    # returns fresh arrays; with them, the result is the same bytes, and a
    # sampler returns the head of its scratch.
    SAMPLERS = {
        "lognormal": lambda rngs, **kw: draw_sigma(LognormalGaussian(), 3, 10, rngs, **kw),
        "wishart": lambda rngs, **kw: draw_sigma(Wishart(rank=2), 4, 10, rngs, **kw),
        "anisotropy": lambda rngs, **kw: draw_anisotropy(3, 10, rngs, **kw),
    }

    @pytest.mark.parametrize("name", list(SAMPLERS))
    def test_sampler_calls_share_no_memory(self, name):
        first, second = (self.SAMPLERS[name](batch_rngs()) for _ in range(2))
        np.testing.assert_array_equal(first, second)
        assert not np.shares_memory(first, second)

    def test_evolve_batch_calls_share_no_memory(self):
        config = FlowConfig(zeta=0.2, a0=0.5, k_max=10)
        first, second = (
            run_batch(config, np.random.default_rng(11), np.random.default_rng(12), 7)
            for _ in range(2)
        )
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
            assert not np.shares_memory(a, b)

    def test_record_counts_own_their_memory(self):
        # The grid's counts are views of its workspace; a record counts
        # anew rather than keep the whole workspace alive.
        record = run_trajectory(FlowConfig(zeta=0.2, a0=0.5, k_max=10), 0, 1)
        for counts in (record.n_plus, record.n_minus, record.n_zero):
            assert counts.flags.owndata

    @pytest.mark.parametrize("name", list(SAMPLERS))
    def test_sampler_returns_the_head_of_its_scratch(self, name):
        fresh = self.SAMPLERS[name](batch_rngs())
        scratch = np.full(10 * 7 * 40, np.nan)
        got = self.SAMPLERS[name](batch_rngs(), scratch=scratch)
        assert got.ctypes.data == scratch.ctypes.data
        assert got.flags.c_contiguous
        assert got.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError, match="too small"):
            self.SAMPLERS[name](batch_rngs(), scratch=scratch[:10])

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("d_tan", [2, 3, 4])
    @pytest.mark.parametrize(
        "model",
        [LognormalGaussian(), LognormalGaussian(d_fast=1), LognormalGaussian(d_fast=10),
         Wishart(), Wishart(rank=1), Wishart(rank=9), None],
        ids=["lognormal", "lognormal-1", "lognormal-10", "wishart", "wishart-1",
             "wishart-9", "anisotropy"],
    )
    def test_stated_scratch_count_is_exact(self, model, d_tan, n):
        # Each sampler takes exactly its stated count per draw.
        if model is None:
            sample = lambda **kw: draw_anisotropy(d_tan, n, batch_rngs(), **kw)
            per_draw = flow_mod._anisotropy_floats(d_tan)
        else:
            sample = lambda **kw: draw_sigma(model, d_tan, n, batch_rngs(), **kw)
            per_draw = flow_mod._sigma_floats(model, d_tan)[2]
        floats = n * len(batch_rngs()) * per_draw
        sample(scratch=np.empty(floats))
        with pytest.raises(ValueError, match="too small"):
            sample(scratch=np.empty(floats - 1))

    # Floats per trajectory of a task of one cell and of a whole row of 20,
    # and the loops a row runs in it.  A row task keeps the budget of a
    # pair of cells with whole histories, 4,430 floats on both grids: the
    # row's unit loads, 600, and per cell two blocks of draws, 101 states
    # and 109 temporaries.  A row loop holds the row's unit loads and per
    # cell its unit anisotropies (600 annealed, 6 quenched), 101 bytes of
    # history and 16 floats, and per step of a block 26 (a state, its norm
    # and its classification).  So the annealed rows fit 4 cells, the last
    # cell's anisotropy draw taking 1,900 floats from its block on, with
    # blocks of 12 steps (4,363 floats), and the quenched rows and the
    # a0 = 0 row all 20 cells with blocks of 6 (4,413 and 4,293).  A cell
    # alone has the budget of the row's load draw, 12 + 21 floats per step
    # (lognormal) and 9 + 18 (Wishart), and blocks of 79 steps.  A task of
    # one cell took 3,300 and 3,125 floats before the row loop.
    @pytest.mark.parametrize(
        "config, single, loop",
        [
            (FlowConfig(), 3300, (4, 12)),
            (FlowConfig(schur_model=Wishart(), norm_mode="trace", disorder="quenched"),
             2700, (20, 6)),
        ],
        ids=["reference", "wishart-trace-quenched"],
    )
    def test_benchmark_grids_keep_their_workspace_size(self, config, single, loop):
        assert flow_mod.check_batch_budget(config, 100, "n_traj") == 100 * single
        assert flow_mod.check_batch_budget(config, 100, "n_traj", 20) == 100 * 4430
        cell = dataclasses.replace(config, a0=0.5)
        assert flow_mod.row_loop(cell, 20, 4430, True) == loop
        assert flow_mod.row_loop(config, 20, 4430, False) == (20, 6)
        assert flow_mod.row_loop(cell, 1, single, True) == (1, 79)


class TestAnisotropyStrength:
    def test_first_step_uses_full_amplitude(self):
        assert anisotropy_strength(0.7, 0.2, 0) == 0.7

    def test_exponential_decay(self):
        assert anisotropy_strength(2.0, 0.1, 3) == pytest.approx(
            2.0 * np.exp(-0.3), rel=1e-15
        )

    def test_array_argument(self):
        out = anisotropy_strength(1.0, 0.5, np.array([0, 1, 2]))
        np.testing.assert_allclose(out, np.exp(-0.5 * np.array([0, 1, 2])))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="a0"):
            anisotropy_strength(-1.0, 0.1, 0)
        with pytest.raises(ValueError, match="beta_decay"):
            anisotropy_strength(1.0, -0.1, 0)
        with pytest.raises(ValueError, match="k must"):
            anisotropy_strength(1.0, 0.1, -1)

    @pytest.mark.parametrize("k", [np.nan, np.array([0.0, np.nan])], ids=["scalar", "array"])
    def test_nan_step_index_is_refused(self, k):
        with pytest.raises(ValueError, match="k must be non-negative"):
            anisotropy_strength(1.0, 0.1, k)


def normalized(q, mode=NormMode.FROBENIUS):
    """A flow step with no load and no anisotropy: the normalization alone."""
    zero = np.zeros_like(q)
    return flow_step(q, zero, zero, 0.0, 0.0, mode)


class TestNormalize:
    def test_frobenius_mode(self):
        out = normalized(2.0 * np.eye(3))
        np.testing.assert_allclose(out, np.eye(3) / np.sqrt(3.0), rtol=1e-15)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_trace_mode_fixes_trace_magnitude(self):
        out = normalized(np.diag([2.0, 2.0]), NormMode.TRACE)
        np.testing.assert_allclose(out, np.eye(2), rtol=1e-15)
        out = normalized(np.diag([-4.0, -4.0]), NormMode.TRACE)
        np.testing.assert_allclose(out, -np.eye(2), rtol=1e-15)

    def test_trace_mode_falls_back_on_traceless_input(self):
        q = np.diag([1.0, -1.0])
        out = normalized(q, NormMode.TRACE)
        np.testing.assert_allclose(out, q / np.sqrt(2.0), rtol=1e-15)

    def test_signature_is_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = rng.standard_normal((4, 4))
            q = 0.5 * (g + g.T)
            for mode in NormMode:
                assert signature(normalized(q, mode)) == signature(q)

    def test_zero_tensor_raises(self):
        with pytest.raises(ZeroTensor, match="below floor"):
            normalized(1e-16 * np.eye(3))

    def test_overflowing_norm_raises(self):
        # Finite entries whose Frobenius norm overflows used to scale to zero.
        with pytest.raises(NonFiniteState, match="not finite"):
            normalized(1e200 * np.eye(3))

    def test_mode_accepts_string(self):
        out = normalized(np.diag([3.0, 3.0]), "trace")
        np.testing.assert_allclose(out, np.eye(2))


class TestFlowStep:
    def test_pure_compression_flips_all_directions(self):
        q = np.eye(3)
        out = flow_step(q, np.eye(3), np.zeros((3, 3)), 0.0, 2.0, NormMode.FROBENIUS)
        np.testing.assert_allclose(out, -np.eye(3) / np.sqrt(3.0), rtol=1e-15)
        assert signature(out) == (0, 3, 0)

    def test_partial_compression_splits_signature(self):
        q = np.eye(2)
        sigma = np.diag([2.0, 0.0])
        out = flow_step(q, sigma, np.zeros((2, 2)), 0.0, 1.0, NormMode.FROBENIUS)
        assert signature(out) == (1, 1, 0)

    def test_matches_manual_formula(self):
        rng = np.random.default_rng(31)
        q = np.eye(3)
        sigma = dense(draw_sigma(LognormalGaussian(), 3, 1, [rng]))[0, 0]
        a = dense(draw_anisotropy(3, 1, [rng]))[0, 0]
        out = flow_step(q, sigma, a, 0.4, 0.2, NormMode.FROBENIUS)
        upd = q - 0.2 * sigma + 0.4 * a
        upd = 0.5 * (upd + upd.T)
        np.testing.assert_allclose(out, upd / np.linalg.norm(upd), rtol=1e-14)

    def test_anisotropy_term_is_trace_neutral(self):
        # The anisotropy channel redistributes weight without changing the
        # trace; only the elimination load compresses it.
        rng = np.random.default_rng(32)
        q = np.eye(3)
        a = dense(draw_anisotropy(3, 1, [rng]))[0, 0]
        upd = q + 0.9 * a
        assert abs(np.trace(upd) - np.trace(q)) < 1e-12
        sigma = dense(draw_sigma(Wishart(), 3, 1, [rng]))[0, 0]
        compressed = q - 0.3 * sigma
        assert np.trace(compressed) < np.trace(q)

    def test_zero_update_raises(self):
        q = np.eye(2)
        with pytest.raises(ZeroTensor, match="below floor"):
            flow_step(q, np.eye(2), np.zeros((2, 2)), 0.0, 1.0, NormMode.FROBENIUS)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            flow_step(np.eye(2), np.eye(3), np.zeros((2, 2)), 0.0, 1.0, NormMode.FROBENIUS)
        with pytest.raises(ValueError, match="shape mismatch"):
            flow_step(
                np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)), 0.0, 1.0,
                NormMode.FROBENIUS,
            )

    def test_overflowing_update_raises(self):
        with pytest.raises(NonFiniteState, match="not finite"):
            flow_step(np.eye(2), 1e200 * np.eye(2), np.zeros((2, 2)), 0.0, 1.0, "trace")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_trajectory_names_step(self):
        # Fast-block eigenvalues near 1e302 overflow the update norm at step 3
        # of the flow command's stream at seed 0.
        config = FlowConfig(zeta=0.1, k_max=5, schur_model=LognormalGaussian(sigma_log=300))
        with pytest.raises(NonFiniteState, match="trajectory 0, step 3"):
            run_trajectory(config, [0, 0], [0, 0, 1])

    def test_non_finite_scalars_raise(self):
        with pytest.raises(ValueError, match="finite"):
            flow_step(np.eye(2), np.eye(2), np.eye(2), np.nan, 1.0, NormMode.FROBENIUS)


class TestEmbedFull:
    def test_block_layout(self):
        q_t = np.diag([2.0, -3.0])
        full = embed_full(q_t, 5.0)
        np.testing.assert_array_equal(full, np.diag([5.0, 2.0, -3.0]))

    def test_signature_adds_one_positive_direction(self):
        rng = np.random.default_rng(41)
        g = rng.standard_normal((3, 3))
        q_t = 0.5 * (g + g.T)
        tang = signature(q_t)
        full = signature(embed_full(q_t, 1.0))
        assert full == (tang.n_plus + 1, tang.n_minus, tang.n_zero)

    def test_invalid_normal_weight_raises(self):
        with pytest.raises(ValueError, match="q_n"):
            embed_full(np.eye(2), 0.0)


def replay_trajectory(config: FlowConfig, seed, load_seed):
    """Re-run a trajectory through the public samplers and flow_step, its
    anisotropy normals drawn from ``default_rng(seed)`` and its load normals
    from ``default_rng(load_seed)``, each in the documented pieces."""
    rng, load_rng = np.random.default_rng(seed), np.random.default_rng(load_seed)
    annealed = config.disorder is Disorder.ANNEALED
    a_batch = None
    if config.a0 > 0:
        n_draws = config.k_max if annealed else 1
        a_batch = dense(draw_anisotropy(config.d_tan, n_draws, [rng]))[0]
    sig_batch = None
    if config.zeta > 0:
        sig_batch = dense(
            draw_sigma(config.schur_model, config.d_tan, config.k_max, [load_rng])
        )[0]
    zero = np.zeros((config.d_tan, config.d_tan))
    q = config.initial_state()
    states = [q.copy()]
    for k in range(config.k_max):
        sigma = sig_batch[k] if sig_batch is not None else zero
        a = a_batch[k if annealed else 0] if a_batch is not None else zero
        a_k = anisotropy_strength(config.a0, config.beta_decay, k) if a_batch is not None else 0.0
        zeta = config.zeta if sig_batch is not None else 0.0
        q = flow_step(q, sigma, a, a_k, zeta, config.norm_mode)
        states.append(q.copy())
    return states


class TestTrajectories:
    def test_annealed_run_matches_manual_replay(self):
        config = FlowConfig(zeta=0.15, a0=0.5, d_tan=3, k_max=40)
        seed = 2024
        record = run_trajectory(config, seed, [seed, 1])
        states = replay_trajectory(config, seed, [seed, 1])
        assert record.n_steps == config.k_max
        for k, q in enumerate(states):
            sig = signature(embed_full(q, config.q_n))
            assert record.n_plus[k] == sig.n_plus
            assert record.n_minus[k] == sig.n_minus
            assert record.n_zero[k] == sig.n_zero
            assert record.q[k] == pytest.approx(np.trace(q) / config.d_tan, abs=1e-12)

    def test_quenched_run_reuses_one_anisotropy(self):
        config = FlowConfig(
            zeta=0.1, a0=0.6, d_tan=3, k_max=30, disorder=Disorder.QUENCHED,
            schur_model=Wishart(),
        )
        seed = 77
        record = run_trajectory(config, seed, [seed, 1])
        states = replay_trajectory(config, seed, [seed, 1])
        for k, q in enumerate(states):
            assert record.n_minus[k] == signature(q).n_minus

    def test_trace_mode_run_matches_manual_replay(self):
        config = FlowConfig(
            zeta=0.2, a0=0.3, d_tan=3, k_max=25, norm_mode=NormMode.TRACE,
        )
        seed = 5
        record = run_trajectory(config, seed, [seed, 1])
        states = replay_trajectory(config, seed, [seed, 1])
        for k, q in enumerate(states):
            assert record.q[k] == pytest.approx(np.trace(q) / config.d_tan, abs=1e-12)
            assert record.n_minus[k] == signature(q).n_minus

    def test_traceless_start_falls_back_every_step(self):
        # A traceless start with a traceless drive and no load keeps every
        # update's trace within rounding of zero: each step falls back to
        # unit Frobenius norm.
        q_init = np.array([[1.0, 0.5, 0.0], [0.5, -2.0, 0.25], [0.0, 0.25, 1.0]])
        config = FlowConfig(
            zeta=0.0, a0=0.8, d_tan=3, k_max=25, norm_mode=NormMode.TRACE,
            q_init=q_init,
        )
        seed = 12
        record = run_trajectory(config, seed, [seed, 1])
        states = replay_trajectory(config, seed, [seed, 1])
        assert record.n_steps == config.k_max
        for k, q in enumerate(states[1:], start=1):
            assert abs(np.trace(q)) < flow_mod.TRACE_FLOOR
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-14)
            assert record.q[k] == pytest.approx(np.trace(q) / 3, abs=1e-14)
            assert record.s_opnorm[k] == pytest.approx(
                np.abs(np.linalg.eigvalsh(q)).max(), abs=1e-12
            )
        sigs = [signature(embed_full(q, config.q_n)) for q in states]
        assert [tuple(s) for s in sigs] == list(
            zip(record.n_plus, record.n_minus, record.n_zero)
        )

    def test_same_seed_reproduces(self):
        config = FlowConfig(zeta=0.12, a0=0.4, d_tan=3, k_max=20)
        assert run_trajectory(config, 123, 124) == run_trajectory(config, 123, 124)

    def test_different_seeds_differ(self):
        config = FlowConfig(zeta=0.12, a0=0.4, d_tan=3, k_max=20)
        r1 = run_trajectory(config, 1, 11)
        r2 = run_trajectory(config, 2, 12)
        assert not np.array_equal(r1.q, r2.q)

    def test_zero_drive_keeps_initial_signature(self):
        config = FlowConfig(zeta=0.0, a0=0.0, d_tan=3, k_max=10)
        record = run_trajectory(config, 0, 1)
        assert record.censored
        assert record.first_passage is None
        assert not record.collapsed
        np.testing.assert_array_equal(record.n_plus, np.full(11, 4))
        np.testing.assert_array_equal(record.n_minus, np.zeros(11, dtype=int))

    def test_immediate_first_passage_on_inverted_start(self):
        config = FlowConfig(
            zeta=0.0, a0=0.0, d_tan=3, k_max=5, q_init=-np.eye(3),
        )
        record = run_trajectory(config, 0, 1)
        assert record.first_passage == 0
        assert not record.censored

    def test_separation_flags_match_definition(self):
        config = FlowConfig(zeta=0.18, a0=0.7, d_tan=3, k_max=30)
        record = run_trajectory(config, 9, 10)
        states = replay_trajectory(config, 9, 10)
        for k, q in enumerate(states):
            iso = np.trace(q) / 3
            s = q - iso * np.eye(3)
            expected = abs(iso) > np.abs(np.linalg.eigvalsh(s)).max()
            assert bool(record.separation_holds[k]) == expected
            assert record.s_opnorm[k] == pytest.approx(
                np.abs(np.linalg.eigvalsh(s)).max(), abs=1e-12
            )

    def test_collapse_returns_partial_record(self, monkeypatch):
        # Force the first update to cancel exactly: the trajectory collapses
        # at step 1 and its record holds the one-state prefix.
        def cancelling_batch(model, d_tan, n, normals, **_):
            out = np.zeros((n, d_tan * (d_tan + 1) // 2, len(normals)))
            out[0, :d_tan] = 1.0 / 0.25
            return out

        monkeypatch.setattr(flow_mod, "sample_sigma_batch", cancelling_batch)
        config = FlowConfig(zeta=0.25, a0=0.0, d_tan=3, k_max=10)
        record = run_trajectory(config, 0, 1)
        assert record.collapsed
        assert record.n_steps == 0
        np.testing.assert_array_equal(record.n_minus, [0])
        # The valid-state count of 0.9.0, which checked the floor every step.
        rngs = np.random.default_rng(0), np.random.default_rng(1)
        assert run_batch(config, *rngs, 2)[2].tolist() == [1, 1]


# Trajectory cases of TestClassificationContract.
TRAJECTORY_CASES = dict(
    log_q_n=st.floats(-3.0, 9.0),
    norm_mode=st.sampled_from(list(NormMode)),
    disorder=st.sampled_from(list(Disorder)),
    d_tan=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**32 - 1),
    k_max=st.just(40),
)


class TestClassificationContract:
    # Record counts and first passage are those of signature() on the full
    # tensor diag(q_n, q_t), whose zero band scales with max(q_n, ||q_t||).
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(**TRAJECTORY_CASES)
    @example(log_q_n=8.0, norm_mode=NormMode.FROBENIUS, disorder=Disorder.ANNEALED,
             d_tan=3, seed=1, k_max=180)
    def test_record_counts_match_full_tensor_signature(
        self, log_q_n, norm_mode, disorder, d_tan, seed, k_max
    ):
        config = FlowConfig(
            zeta=0.3, a0=0.5, d_tan=d_tan, q_n=10.0**log_q_n, k_max=k_max,
            norm_mode=norm_mode, disorder=disorder, target_n_minus=d_tan,
        )
        record = run_trajectory(config, seed, [seed, 1])
        states = replay_trajectory(config, seed, [seed, 1])
        sigs = [signature(embed_full(q, config.q_n)) for q in states]
        assert [tuple(s) for s in sigs] == list(
            zip(record.n_plus, record.n_minus, record.n_zero)
        )
        hits = [k for k, s in enumerate(sigs) if s.n_minus == config.target_n_minus]
        assert record.first_passage == (hits[0] if hits else None)

    # The grid kernel's negative count is signature()'s too, on every state.
    # The example's Wishart/trace states reach ||q||_F = 5.4e9 at step 56,
    # where the zero band reaches q_n.
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(model=st.sampled_from([LognormalGaussian(), Wishart()]), **TRAJECTORY_CASES)
    @example(log_q_n=0.0, norm_mode=NormMode.TRACE, disorder=Disorder.QUENCHED,
             d_tan=3, seed=0, k_max=60, model=Wishart())
    def test_kernel_negatives_match_full_tensor_signature(
        self, model, log_q_n, norm_mode, disorder, d_tan, seed, k_max
    ):
        config = FlowConfig(
            zeta=0.3, a0=0.5, d_tan=d_tan, q_n=10.0**log_q_n, k_max=k_max,
            norm_mode=norm_mode, disorder=disorder, schur_model=model,
        )
        rngs = np.random.default_rng(seed), np.random.default_rng([seed, 1])
        _, n_minus, n_valid = run_batch(config, *rngs, 1)
        states = replay_trajectory(config, seed, [seed, 1])
        assert n_valid[0] == len(states)
        expected = [signature(embed_full(q, config.q_n)).n_minus for q in states]
        assert n_minus[0].tolist() == expected


class TestEvolveBatch:
    # The packed kernel against the dense flow_step oracle: every unpacked
    # state equals the replayed one up to the rounding of the Frobenius
    # norm, which the kernel sums over packed components; and each
    # trajectory equals a batch of one drawn from its blocks of the two
    # streams, bit for bit.  Zero a0 or zeta empties a block.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from([LognormalGaussian(), Wishart()]),
        norm_mode=st.sampled_from(list(NormMode)),
        disorder=st.sampled_from(list(Disorder)),
        zeta=st.floats(0.0, 1.0),
        a0=st.floats(0.0, 1.5),
        d_tan=st.sampled_from([2, 3, 4]),
        init_seed=st.none() | st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_states_match_flow_step_replay(
        self, model, norm_mode, disorder, zeta, a0, d_tan, init_seed, seed
    ):
        q_init = None
        if init_seed is not None:
            g = np.random.default_rng(init_seed).standard_normal((d_tan, d_tan))
            q_init = g + g.T
        config = FlowConfig(
            zeta=zeta, a0=a0, d_tan=d_tan, k_max=30, norm_mode=norm_mode,
            schur_model=model, disorder=disorder, q_init=q_init,
        )
        rngs = np.random.default_rng(seed), np.random.default_rng([seed, 1])
        states, _, n_valid = run_batch(config, *rngs, 3)
        assert states.shape == (31, d_tan * (d_tan + 1) // 2, 3)
        assert n_valid.tolist() == [31] * 3
        for t, got in enumerate(unpack_symmetric(states.transpose(1, 2, 0))):
            single = run_batch(config, *replay_rngs(seed, [seed, 1], t, config), 1)[0]
            np.testing.assert_array_equal(states[..., t], single[..., 0])
            expected = np.array(
                replay_trajectory(config, *replay_rngs(seed, [seed, 1], t, config))
            )
            scale = np.maximum(1.0, np.abs(expected).max(axis=(1, 2)))
            deviation = np.abs(got - expected).max(axis=(1, 2))
            assert (deviation <= 1e-14 * scale).all()

    def test_first_non_finite_update_is_named(self, monkeypatch):
        # Trajectory 0 cancels to zero at step 1 and stays there; the loads
        # of trajectories 2 and 1 overflow their update norms at steps 4 and
        # 6.  The loop takes every update's norm, in both modes, and checks
        # the norms once it is done: the error names the first step with a
        # non-finite update and its trajectory.
        def loads(model, d_tan, n, normals, **_):
            out = np.zeros((n, d_tan * (d_tan + 1) // 2, len(normals)))
            out[0, :d_tan, 0] = 1.0 / 0.25
            out[3, :d_tan, 2] = out[5, :d_tan, 1] = 1e300
            return out

        monkeypatch.setattr(flow_mod, "sample_sigma_batch", loads)
        for norm_mode in NormMode:
            config = FlowConfig(zeta=0.25, k_max=8, norm_mode=norm_mode)
            with pytest.raises(NonFiniteState, match=r"^trajectory 2, step 4: .* not finite$"):
                run_batch(config, np.random.default_rng(11), np.random.default_rng(12), 4)

    def test_trace_floor_falls_back_per_trajectory(self, monkeypatch):
        # At step 1 trajectory 0's update, diag(-1, 0, 1), has a trace of
        # exactly 0; at step 3 trajectory 1's, diag(1, -1, 2**-30), one below
        # TRACE_FLOOR; both stay below the floor after.  Trajectory 2's loads
        # are random and keep its trace above the floor, so it scales by
        # d / |trace| in the steps where the others fall back.  The dyadic
        # loads keep every Frobenius norm exact, so each trajectory equals
        # its dense flow_step replay bit for bit.
        sigmas = np.zeros((3, 6, 3, 3))
        sigmas[0, 0] = np.diag([8.0, 4.0, 0.0])
        sigmas[1, 2] = np.diag([0.0, 8.0, 4.0 - 2.0**-28])
        g = np.random.default_rng(3).standard_normal((6, 3, 3))
        sigmas[2] = 0.1 * (g + g.swapaxes(1, 2))

        def loads(model, d_tan, n, normals, **_):
            rows, cols = np.divmod(packed_index(d_tan), d_tan)
            return sigmas[:, :, rows, cols].transpose(1, 2, 0).copy()

        monkeypatch.setattr(flow_mod, "sample_sigma_batch", loads)
        config = FlowConfig(zeta=0.25, k_max=6, norm_mode=NormMode.TRACE)
        states, _, n_valid = run_batch(
            config, np.random.default_rng(11), np.random.default_rng(12), 3
        )
        assert n_valid.tolist() == [7] * 3
        dense_states = unpack_symmetric(states.transpose(1, 2, 0))
        for t, got in enumerate(dense_states):
            q, expected = np.eye(3), [np.eye(3)]
            for sigma in sigmas[t]:
                q = flow_step(q, sigma, np.zeros((3, 3)), 0.0, 0.25, NormMode.TRACE)
                expected.append(q)
            np.testing.assert_array_equal(got, expected)
        traces = np.abs(np.trace(dense_states, axis1=2, axis2=3))
        assert (traces[0, 1:] < flow_mod.TRACE_FLOOR).all()
        assert (traces[1, 3:] < flow_mod.TRACE_FLOOR).all()
        np.testing.assert_allclose(traces[2], 3.0)

    def test_batch_is_budgeted_before_allocation(self):
        # Sizes only.  Per trajectory a Wishart/trace/quenched task of one
        # cell takes as much as its row's load draw, 9 normals and 18
        # scratch floats per step, and its loop fits in that (re-pinned with
        # the row loop; a cell took 100 x 6 + 101 x (6 + 19) floats before).
        # The largest batch that fits reaches the load draw; one more
        # trajectory is refused before it.
        class Started(Exception):
            pass

        class StartingRng:
            def standard_normal(self, *args, **kwargs):
                raise Started

        config = FlowConfig(
            zeta=0.4, a0=0.5, schur_model=Wishart(), norm_mode="trace",
            disorder="quenched",
        )
        per_traj = 8 * 100 * (9 + 18)
        fits = ARRAY_BUDGET // per_traj
        with pytest.raises(Started):
            run_batch(config, StartingRng(), StartingRng(), fits)
        with pytest.raises(ValueError, match=r"^n, k_max, d_tan, schur_model ask for"):
            run_batch(config, StartingRng(), StartingRng(), fits + 1)

    # The two benchmark grids: the reference grid at the CLI defaults and
    # the Wishart/trace/quenched grid over zeta in [0, 0.8], where trace
    # normalization grows the states and some fall back to eigvalsh.
    @pytest.mark.parametrize("master_seed", [0, 1])
    @pytest.mark.parametrize("spec", [
        GridSpec(),
        GridSpec(
            zeta_values=np.linspace(0.0, 0.8, 20),
            base_config=FlowConfig(
                schur_model=Wishart(), norm_mode="trace", disorder="quenched"
            ),
        ),
    ], ids=["lognormal", "wishart"])
    def test_counts_match_eigvalsh_on_benchmark_cells(self, spec, master_seed):
        for cell in (0, 19, 210, 399):
            config = spec.cell_config(cell)
            rngs = (np.random.default_rng([master_seed, cell]),
                    np.random.default_rng([master_seed, cell // 20, 1]))
            states, n_minus, _ = run_batch(config, *rngs, 20)
            eigs = np.linalg.eigvalsh(unpack_symmetric(states.transpose(1, 2, 0)))
            full = np.concatenate(
                [np.full(eigs.shape[:-1] + (1,), config.q_n), eigs], axis=-1
            )
            np.testing.assert_array_equal(n_minus, count_inertia(full)[1])

    def test_wishart_trace_cell_computes_no_eigenvalues(self, monkeypatch):
        # Trace normalization lets ||q||_F reach 1e10, where the zero band
        # reaches q_n; the negative count is certified all the same.  Before
        # 0.21.0 the kernel also certified whether q_n lay inside the band,
        # and sent 765 of this criterion-7 cell's 10,100 states to eigvalsh.
        spec = GridSpec(
            zeta_values=np.linspace(0.0, 0.8, 20), master_seed=0,
            base_config=FlowConfig(
                schur_model=Wishart(), norm_mode="trace", disorder="quenched"
            ),
        )
        rngs = np.random.default_rng([0, 285]), np.random.default_rng([0, 14, 1])
        eigvalsh = np.linalg.eigvalsh
        seen = []
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: seen.append(len(a)) or eigvalsh(a)
        )
        run_batch(spec.cell_config(285), *rngs, spec.n_traj)
        assert seen == []


class TestDrawThenEvolve:
    # The draw steps and the evolve step apart: one draw evolved as several
    # cells at several zeta, each trajectory equal to a single run at its
    # scalar zeta.  A zero zeta adds -0.0 loads, as a run at zeta = 0, which
    # draws none, does: the off-diagonal -0.0 of this q_init stays -0.0
    # only if no +0.0 is added to it.  The single run at zeta = 0 draws
    # nothing from its load generator.
    Q_INIT = np.array([[1.0, -0.0, -0.0], [-0.0, 2.0, -0.0], [-0.0, -0.0, 0.5]])

    @pytest.mark.parametrize("a0, q_init", [(0.6, None), (0.0, Q_INIT)], ids=["a0", "no-a0"])
    @pytest.mark.parametrize("model, norm_mode", [
        (LognormalGaussian(), NormMode.FROBENIUS), (Wishart(), NormMode.TRACE),
    ], ids=["lognormal", "wishart-trace"])
    def test_one_draw_evolves_at_several_zeta_vectors(self, a0, q_init, model, norm_mode):
        config = FlowConfig(
            zeta=0.3, a0=a0, k_max=40, schur_model=model, norm_mode=norm_mode,
            q_init=q_init,
        )
        drive = unit_drives(config, [np.random.default_rng(7)], 4)
        loads = flow_mod.draw_loads(config, np.random.default_rng([7, 1]), 4)
        for zeta in ([0.3, 0.3, 0.3, 0.3], [0.05, 0.0, 0.2, 0.7], [0.0] * 4):
            # Every cell reads the one anisotropy draw.
            drives = None if drive is None else np.repeat(drive, len(zeta), axis=0)
            states, n_valid = flow_mod.evolve_columns(config, drives, loads, a0, zeta)
            for g, z in enumerate(zeta):
                single = dataclasses.replace(config, zeta=z)
                for t in range(4):
                    rngs = replay_rngs(7, [7, 1], t, config)
                    expected, _, valid = run_batch(single, *rngs, 1)
                    assert states[:, :, g, t].tobytes() == expected[..., 0].tobytes()
                    assert n_valid[g, t] == valid[0]
                    record = run_trajectory(single, *replay_rngs(7, [7, 1], t, config))
                    q = states[: valid[0], :3, g, t].sum(axis=1) / 3
                    assert q.tobytes() == record.q.tobytes()

    @pytest.mark.parametrize("norm_mode", list(NormMode), ids=lambda m: m.value)
    def test_evolve_step_leaves_its_draws_unwritten(self, norm_mode):
        # One contract in both modes: the loop forms each step's terms apart
        # from the unit draws, which every cell of a row shares, and writes
        # nothing into them, in blocks of any size.
        config = FlowConfig(
            zeta=0.3, a0=0.6, k_max=40, schur_model=Wishart(), norm_mode=norm_mode,
        )
        drives = unit_drives(config, [np.random.default_rng(7), np.random.default_rng(8)], 4)
        loads = flow_mod.draw_loads(config, np.random.default_rng([7, 1]), 4)
        before = drives.tobytes(), loads.tobytes()
        for steps in (1, 7, config.k_max):
            history = np.empty((config.k_max + 1, 2, 4), np.int8)
            flow_mod.evolve_columns(
                config, drives, loads, 0.6, [0.05, 0.3], steps=steps, history=history
            )
            assert (drives.tobytes(), loads.tobytes()) == before

    def test_run_trajectory_classifies_nothing_in_bulk(self, monkeypatch):
        # A record counts from the eigvalsh spectra it computes anyway.
        def spy(*args, **kwargs):
            raise AssertionError("run_trajectory called embedded_negatives")

        monkeypatch.setattr(flow_mod, "embedded_negatives", spy)
        record = run_trajectory(FlowConfig(zeta=0.15, a0=0.5, k_max=20), 3, 4)
        assert record.n_steps == 20


class TestFlowConfigValidation:
    def test_defaults_are_valid(self):
        config = FlowConfig()
        assert config.d_tan == 3
        assert config.norm_mode is NormMode.FROBENIUS
        np.testing.assert_array_equal(config.initial_state(), np.eye(3))

    def test_string_enums_are_coerced(self):
        config = FlowConfig(norm_mode="trace", disorder="quenched")
        assert config.norm_mode is NormMode.TRACE
        assert config.disorder is Disorder.QUENCHED

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="d_tan"):
            FlowConfig(d_tan=0)
        with pytest.raises(ValueError, match="k_max"):
            FlowConfig(k_max=0)
        with pytest.raises(ValueError, match="k_max"):
            FlowConfig(k_max=True)
        with pytest.raises(ValueError, match="zeta"):
            FlowConfig(zeta=-0.1)
        with pytest.raises(ValueError, match="a0"):
            FlowConfig(a0=float("inf"))
        with pytest.raises(ValueError, match="q_n"):
            FlowConfig(q_n=0.0)
        with pytest.raises(ValueError, match="q_n"):
            FlowConfig(q_n=True)
        # Non-numbers fail with the named ValueError, not numpy's TypeError.
        not_a_number = [
            ("zeta", "0.1", "non-negative, got '0.1'"),
            ("q_n", None, "positive, got None"),
            ("a0", [0.1], r"non-negative, got \[0.1\]"),
            ("q_n", np.array([1.0]), r"positive, got array\(\[1.\]\)"),
        ]
        for key, value, message in not_a_number:
            with pytest.raises(ValueError, match=f"^{key} must be finite and {message}$"):
                FlowConfig(**{key: value})
        with pytest.raises(ValueError, match="anisotropy requires"):
            FlowConfig(a0=0.5, d_tan=1, target_n_minus=1)
        with pytest.raises(ValueError, match="target_n_minus"):
            FlowConfig(target_n_minus=4)
        with pytest.raises(ValueError):
            FlowConfig(norm_mode="euclid")
        with pytest.raises(TypeError, match="schur_model"):
            FlowConfig(schur_model="wishart")

    def test_target_defaults_to_fully_inverted_sector(self):
        assert FlowConfig().target_n_minus == 3
        assert FlowConfig(d_tan=2).target_n_minus == 2
        assert FlowConfig(d_tan=5, target_n_minus=1).target_n_minus == 1

    def test_target_follows_d_tan_under_replace(self):
        assert dataclasses.replace(FlowConfig(d_tan=2), d_tan=4).target_n_minus == 4
        assert dataclasses.replace(FlowConfig(d_tan=4), d_tan=2).target_n_minus == 2
        explicit = FlowConfig(d_tan=4, target_n_minus=1)
        assert dataclasses.replace(explicit, d_tan=2).target_n_minus == 1
        assert dataclasses.replace(explicit, zeta=0.2).target_n_minus == 1

    def test_trajectory_arrays_are_budgeted(self):
        # Sizes only: a config allocates nothing.  Each step of a d_tan = 3
        # trajectory holds its 12 load normals (3 lognormal z and a coupling
        # of 3 x 3) and its load sampler's scratch: the packed load, 3
        # lognormal weights, the coupling's transposed copy and 3 products,
        # over which its anisotropies, states and the loop's temporaries lie
        # later.
        fits = ARRAY_BUDGET // 8 // (12 + 6 + 3 + 9 + 3)
        FlowConfig(k_max=fits)
        keys = r"^k_max, d_tan, schur_model ask for .* budget$"
        with pytest.raises(ValueError, match=keys):
            FlowConfig(k_max=fits + 1)
        with pytest.raises(ValueError, match=keys):
            FlowConfig(schur_model=Wishart(rank=10**6))

    def test_q_init_validation(self):
        with pytest.raises(ValueError, match="expected shape"):
            FlowConfig(q_init=np.eye(2))
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError, match="asymmetry"):
            FlowConfig(q_init=bad)
