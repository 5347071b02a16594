"""Tests for the stochastic coarse-graining flow.

Covers the elimination-load and anisotropy samplers, the normalization
rules, single flow steps, and full trajectories.  The batched samplers are
cross-checked against each generator's documented draws replayed from raw
``standard_normal`` calls, and trajectory evolution by replaying the
documented draw order through the public samplers and stepping by hand.
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
    normalize,
    run_trajectory,
    sample_anisotropy_batch,
    sample_sigma_batch,
    signature,
)
from schurflow.tensor import ARRAY_BUDGET, count_inertia


class TestSigmaSamplers:
    def test_lognormal_loads_are_symmetric_psd(self):
        rng = np.random.default_rng(11)
        loads = sample_sigma_batch(LognormalGaussian(), 4, 50, [rng])[0]
        assert loads.shape == (50, 4, 4)
        assert np.allclose(loads, loads.transpose(0, 2, 1))
        eigs = np.linalg.eigvalsh(loads)
        assert eigs.min() >= -1e-12 * max(1.0, abs(eigs).max())

    def test_wishart_loads_are_symmetric_psd(self):
        rng = np.random.default_rng(12)
        loads = sample_sigma_batch(Wishart(), 3, 50, [rng])[0]
        assert np.allclose(loads, loads.transpose(0, 2, 1))
        eigs = np.linalg.eigvalsh(loads)
        assert eigs.min() >= -1e-12 * max(1.0, abs(eigs).max())

    def test_wishart_mean_load_is_identity(self):
        # E[g g.T / rank] = I, so the mean trace over many draws is d_tan.
        # Margin at this seed: 0.13% against the 1% bound.
        d = 3
        rng = np.random.default_rng(0)
        loads = sample_sigma_batch(Wishart(), d, 100_000, [rng])[0]
        mean_trace = np.trace(loads, axis1=1, axis2=2).mean()
        assert abs(mean_trace - d) / d < 0.01

    def test_wishart_rank_one_signature(self):
        rng = np.random.default_rng(5)
        load = sample_sigma_batch(Wishart(rank=1), 3, 1, [rng])[0, 0]
        assert signature(load) == (1, 0, 2)

    def test_lognormal_low_rank_coupling(self):
        # d_fast < d_tan caps the load rank at d_fast.
        rng = np.random.default_rng(6)
        load = sample_sigma_batch(LognormalGaussian(d_fast=2), 4, 1, [rng])[0, 0]
        assert signature(load) == (2, 0, 2)

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="d_tan"):
            sample_sigma_batch(Wishart(), 0, 5, [rng])
        with pytest.raises(ValueError, match="n must"):
            sample_sigma_batch(Wishart(), 3, 0, [rng])
        with pytest.raises(TypeError, match="model"):
            sample_sigma_batch(object(), 3, 5, [rng])

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
        draws = sample_anisotropy_batch(4, 200, [rng])[0]
        assert draws.shape == (200, 4, 4)
        assert np.allclose(draws, draws.transpose(0, 2, 1))
        assert np.abs(np.trace(draws, axis1=1, axis2=2)).max() < 1e-12
        norms = np.sqrt(np.einsum("kij,kij->k", draws, draws))
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_entry_means_vanish(self):
        # Entrywise sample means sit within 3 standard errors of zero.
        # Margin at this seed: worst ratio 1.89 against the 3.0 bound.
        rng = np.random.default_rng(0)
        draws = sample_anisotropy_batch(3, 20_000, [rng])[0]
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.abs(mean / se).max() < 3.0

    def test_requires_at_least_two_dimensions(self):
        with pytest.raises(ValueError, match="d_tan"):
            sample_anisotropy_batch(1, 5, [np.random.default_rng(0)])

    def test_degenerate_draw_raises_without_redraw(self):
        class ZeroRng:
            calls = 0

            def standard_normal(self, shape):
                self.calls += 1
                return np.zeros(shape)

        zero_rng = ZeroRng()
        with pytest.raises(DegenerateDraw, match="norm below"):
            sample_anisotropy_batch(3, 2, [zero_rng])
        assert zero_rng.calls == 1


def replay_sigma(model, d_tan, n, rng):
    """One generator's documented load draws, transformed one matrix at a time."""
    if isinstance(model, LognormalGaussian):
        d_fast = model.d_fast or d_tan
        z = rng.standard_normal((n, d_fast))
        seed = rng.standard_normal((n, d_fast, d_fast))
        b = rng.standard_normal((n, d_tan, d_fast)) / np.sqrt(d_fast)
        loads = []
        for k in range(n):
            rot, r = np.linalg.qr(seed[k])
            rot = rot * np.where(np.diag(r) < 0.0, -1.0, 1.0)
            w = b[k] @ rot
            loads.append((w * np.exp(-model.sigma_log * z[k])) @ w.T)
    else:
        rank = model.rank or d_tan
        g = rng.standard_normal((n, d_tan, rank)) / np.sqrt(rank)
        loads = [gk @ gk.T for gk in g]
    return np.array([0.5 * (s + s.T) for s in loads])


def replay_anisotropy(d_tan, n, rng):
    """One generator's documented anisotropy draws, one matrix at a time."""
    out = []
    for g in rng.standard_normal((n, d_tan, d_tan)):
        s = 0.5 * (g + g.T)
        s = s - np.trace(s) / d_tan * np.eye(d_tan)
        # The sampler's einsum sum of squares; another summation order
        # moves the last bit of the norm.
        out.append(s / np.sqrt(np.einsum("ij,ij->", s, s)))
    return np.array(out)


def batch_rngs():
    return [np.random.default_rng([11, t]) for t in range(7)]


class TestBatchedSamplers:
    # Row i of a batched call equals the replay of generator i alone, bit for
    # bit, and equals a call with that generator alone: the stacked qr and
    # matmul do not depend on the stack size.
    @pytest.mark.parametrize("model, d_tan", [
        (LognormalGaussian(), 3),
        (LognormalGaussian(d_fast=5, sigma_log=0.7), 4),
        (Wishart(), 3),
        (Wishart(rank=2), 3),
    ])
    def test_sigma_matches_per_generator_replay(self, model, d_tan):
        n = FlowConfig().k_max
        loads = sample_sigma_batch(model, d_tan, n, batch_rngs())
        assert loads.shape == (7, n, d_tan, d_tan)
        expected = [replay_sigma(model, d_tan, n, rng) for rng in batch_rngs()]
        np.testing.assert_array_equal(loads, expected)
        singles = [sample_sigma_batch(model, d_tan, n, [rng])[0] for rng in batch_rngs()]
        np.testing.assert_array_equal(loads, singles)

    @pytest.mark.parametrize("n", [FlowConfig().k_max, 1])
    def test_anisotropy_matches_per_generator_replay(self, n):
        draws = sample_anisotropy_batch(3, n, batch_rngs())
        assert draws.shape == (7, n, 3, 3)
        expected = [replay_anisotropy(3, n, rng) for rng in batch_rngs()]
        np.testing.assert_array_equal(draws, expected)
        singles = [sample_anisotropy_batch(3, n, [rng])[0] for rng in batch_rngs()]
        np.testing.assert_array_equal(draws, singles)

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
            def spy(*args, _name=name, _sampler=getattr(flow_mod, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _sampler(*args)

            monkeypatch.setattr(flow_mod, name, spy)
        config = FlowConfig(zeta=zeta, a0=a0, k_max=10, disorder=disorder)
        flow_mod.evolve_batch(config, batch_rngs())
        assert calls.get("sample_sigma_batch", 0) == (zeta > 0)
        assert calls.get("sample_anisotropy_batch", 0) == (a0 > 0)


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


class TestNormalize:
    def test_frobenius_mode(self):
        out = normalize(2.0 * np.eye(3))
        np.testing.assert_allclose(out, np.eye(3) / np.sqrt(3.0), rtol=1e-15)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_trace_mode_fixes_trace_magnitude(self):
        out = normalize(np.diag([2.0, 2.0]), NormMode.TRACE)
        np.testing.assert_allclose(out, np.eye(2), rtol=1e-15)
        out = normalize(np.diag([-4.0, -4.0]), NormMode.TRACE)
        np.testing.assert_allclose(out, -np.eye(2), rtol=1e-15)

    def test_trace_mode_falls_back_on_traceless_input(self):
        q = np.diag([1.0, -1.0])
        out = normalize(q, NormMode.TRACE)
        np.testing.assert_allclose(out, q / np.sqrt(2.0), rtol=1e-15)

    def test_signature_is_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = rng.standard_normal((4, 4))
            q = 0.5 * (g + g.T)
            for mode in NormMode:
                assert signature(normalize(q, mode)) == signature(q)

    def test_zero_tensor_raises(self):
        with pytest.raises(ZeroTensor, match="below floor"):
            normalize(1e-16 * np.eye(3))

    def test_overflowing_norm_raises(self):
        # Finite entries whose Frobenius norm overflows used to scale to zero.
        with pytest.raises(NonFiniteState, match="not finite"):
            normalize(1e200 * np.eye(3))

    def test_mode_accepts_string(self):
        out = normalize(np.diag([3.0, 3.0]), "trace")
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
        sigma = sample_sigma_batch(LognormalGaussian(), 3, 1, [rng])[0, 0]
        a = sample_anisotropy_batch(3, 1, [rng])[0, 0]
        out = flow_step(q, sigma, a, 0.4, 0.2, NormMode.FROBENIUS)
        upd = q - 0.2 * sigma + 0.4 * a
        upd = 0.5 * (upd + upd.T)
        np.testing.assert_allclose(out, upd / np.linalg.norm(upd), rtol=1e-14)

    def test_anisotropy_term_is_trace_neutral(self):
        # The anisotropy channel redistributes weight without changing the
        # trace; only the elimination load compresses it.
        rng = np.random.default_rng(32)
        q = np.eye(3)
        a = sample_anisotropy_batch(3, 1, [rng])[0, 0]
        upd = q + 0.9 * a
        assert abs(np.trace(upd) - np.trace(q)) < 1e-12
        sigma = sample_sigma_batch(Wishart(), 3, 1, [rng])[0, 0]
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
        # Fast-block eigenvalues near 1e302 overflow the update norm at step 4.
        config = FlowConfig(zeta=0.1, k_max=5, schur_model=LognormalGaussian(sigma_log=300))
        with pytest.raises(NonFiniteState, match="trajectory 0, step 4"):
            run_trajectory(config, [0, 0, 0])

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


def replay_trajectory(config: FlowConfig, seed):
    """Re-run a trajectory through the public samplers and flow_step."""
    rng = np.random.default_rng(seed)
    annealed = config.disorder is Disorder.ANNEALED
    a_batch = None
    if config.a0 > 0:
        n_draws = config.k_max if annealed else 1
        a_batch = sample_anisotropy_batch(config.d_tan, n_draws, [rng])[0]
    sig_batch = None
    if config.zeta > 0:
        sig_batch = sample_sigma_batch(
            config.schur_model, config.d_tan, config.k_max, [rng]
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
        record = run_trajectory(config, seed)
        states = replay_trajectory(config, seed)
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
        record = run_trajectory(config, seed)
        states = replay_trajectory(config, seed)
        for k, q in enumerate(states):
            assert record.n_minus[k] == signature(q).n_minus

    def test_trace_mode_run_matches_manual_replay(self):
        config = FlowConfig(
            zeta=0.2, a0=0.3, d_tan=3, k_max=25, norm_mode=NormMode.TRACE,
        )
        seed = 5
        record = run_trajectory(config, seed)
        states = replay_trajectory(config, seed)
        for k, q in enumerate(states):
            assert record.q[k] == pytest.approx(np.trace(q) / config.d_tan, abs=1e-12)
            assert record.n_minus[k] == signature(q).n_minus

    def test_same_seed_reproduces(self):
        config = FlowConfig(zeta=0.12, a0=0.4, d_tan=3, k_max=20)
        assert run_trajectory(config, 123) == run_trajectory(config, 123)

    def test_different_seeds_differ(self):
        config = FlowConfig(zeta=0.12, a0=0.4, d_tan=3, k_max=20)
        r1 = run_trajectory(config, 1)
        r2 = run_trajectory(config, 2)
        assert not np.array_equal(r1.q, r2.q)

    def test_zero_drive_keeps_initial_signature(self):
        config = FlowConfig(zeta=0.0, a0=0.0, d_tan=3, k_max=10)
        record = run_trajectory(config, 0)
        assert record.censored
        assert record.first_passage is None
        assert not record.collapsed
        np.testing.assert_array_equal(record.n_plus, np.full(11, 4))
        np.testing.assert_array_equal(record.n_minus, np.zeros(11, dtype=int))

    def test_immediate_first_passage_on_inverted_start(self):
        config = FlowConfig(
            zeta=0.0, a0=0.0, d_tan=3, k_max=5, q_init=-np.eye(3),
        )
        record = run_trajectory(config, 0)
        assert record.first_passage == 0
        assert not record.censored

    def test_separation_flags_match_definition(self):
        config = FlowConfig(zeta=0.18, a0=0.7, d_tan=3, k_max=30)
        record = run_trajectory(config, 9)
        states = replay_trajectory(config, 9)
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
        def cancelling_batch(model, d_tan, n, rngs):
            for rng in rngs:
                rng.standard_normal((n, d_tan, d_tan))
            out = np.zeros((len(rngs), n, d_tan, d_tan))
            out[:, 0] = np.eye(d_tan) / 0.25
            return out

        monkeypatch.setattr(flow_mod, "sample_sigma_batch", cancelling_batch)
        config = FlowConfig(zeta=0.25, a0=0.0, d_tan=3, k_max=10)
        record = run_trajectory(config, 0)
        assert record.collapsed
        assert record.n_steps == 0
        np.testing.assert_array_equal(record.n_minus, [0])


class TestClassificationContract:
    # Record counts and first passage are those of signature() on the full
    # tensor diag(q_n, q_t), whose zero band scales with max(q_n, ||q_t||).
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        log_q_n=st.floats(-3.0, 9.0),
        norm_mode=st.sampled_from(list(NormMode)),
        disorder=st.sampled_from(list(Disorder)),
        d_tan=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**32 - 1),
        k_max=st.just(40),
    )
    @example(log_q_n=8.0, norm_mode=NormMode.FROBENIUS, disorder=Disorder.ANNEALED,
             d_tan=3, seed=1, k_max=180)
    def test_record_counts_match_full_tensor_signature(
        self, log_q_n, norm_mode, disorder, d_tan, seed, k_max
    ):
        config = FlowConfig(
            zeta=0.3, a0=0.5, d_tan=d_tan, q_n=10.0**log_q_n, k_max=k_max,
            norm_mode=norm_mode, disorder=disorder, target_n_minus=d_tan,
        )
        record = run_trajectory(config, seed)
        states = replay_trajectory(config, seed)
        sigs = [signature(embed_full(q, config.q_n)) for q in states]
        assert [tuple(s) for s in sigs] == list(
            zip(record.n_plus, record.n_minus, record.n_zero)
        )
        hits = [k for k, s in enumerate(sigs) if s.n_minus == config.target_n_minus]
        assert record.first_passage == (hits[0] if hits else None)


class TestEvolveBatch:
    # evolve_batch does not symmetrize its updates; this is the premise:
    # every state it returns equals its transpose bit for bit.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from([LognormalGaussian(), Wishart()]),
        norm_mode=st.sampled_from(list(NormMode)),
        disorder=st.sampled_from(list(Disorder)),
        zeta=st.floats(0.0, 1.0),
        a0=st.floats(0.0, 1.5),
        log_q_n=st.floats(-3.0, 9.0),
        d_tan=st.sampled_from([2, 3, 4]),
        init_seed=st.none() | st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_states_are_exactly_symmetric(
        self, model, norm_mode, disorder, zeta, a0, log_q_n, d_tan, init_seed, seed
    ):
        q_init = None
        if init_seed is not None:
            g = np.random.default_rng(init_seed).standard_normal((d_tan, d_tan))
            q_init = g + g.T
        config = FlowConfig(
            zeta=zeta, a0=a0, d_tan=d_tan, q_n=10.0**log_q_n, k_max=30,
            norm_mode=norm_mode, schur_model=model, disorder=disorder, q_init=q_init,
        )
        rngs = [np.random.default_rng([seed, t]) for t in range(3)]
        states = flow_mod.evolve_batch(config, rngs)[0]
        assert np.array_equal(states, states.swapaxes(-1, -2))


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
            rngs = [
                np.random.default_rng([master_seed, cell, t]) for t in range(20)
            ]
            states, counts, _ = flow_mod.evolve_batch(config, rngs)
            eigs = np.linalg.eigvalsh(states)
            full = np.concatenate(
                [np.full(eigs.shape[:-1] + (1,), config.q_n), eigs], axis=-1
            )
            for got, expected in zip(counts, count_inertia(full)):
                np.testing.assert_array_equal(got, expected)


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
        with pytest.raises(ValueError, match="zeta"):
            FlowConfig(zeta=-0.1)
        with pytest.raises(ValueError, match="a0"):
            FlowConfig(a0=float("inf"))
        with pytest.raises(ValueError, match="q_n"):
            FlowConfig(q_n=0.0)
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
        # trajectory holds a state, a load and an anisotropy of 3 x 3 floats.
        fits = ARRAY_BUDGET // (3 * 9 * 8) - 1
        FlowConfig(k_max=fits)
        with pytest.raises(ValueError, match=r"^k_max, d_tan ask for .* budget$"):
            FlowConfig(k_max=fits + 1)

    def test_q_init_validation(self):
        with pytest.raises(ValueError, match="expected shape"):
            FlowConfig(q_init=np.eye(2))
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError, match="asymmetry"):
            FlowConfig(q_init=bad)
