"""Tests for fluctuation reconstruction.

The fluctuation-balance solver is checked three independent ways: closed
forms for small systems, residual properties on random stable systems, and
direct Euler integration of the Langevin dynamics written out inside the
test.  The closed form and the integration both discriminate the transpose
convention ``m.T gamma + gamma m = 2 d``, so a flipped convention fails
loudly rather than within tolerance.
"""

import numpy as np
import pytest

from schurflow import (
    LinearSDE,
    ResponseNotPD,
    SingularCovariance,
    StepTooLarge,
    UnstableDrift,
    einstein_check,
    estimate_log_curvature,
    reconstruct,
    simulate_sde,
    solve_lyapunov,
    stationary_gaussian,
)


def random_decay(rng, d, scale=1.0):
    """Decay matrix with positive-definite symmetric part, hence Hurwitz."""
    g = rng.standard_normal((d, d))
    skew = rng.standard_normal((d, d))
    return scale * (g @ g.T + 0.5 * np.eye(d)) + 0.3 * (skew - skew.T)


def random_diffusion(rng, d):
    g = rng.standard_normal((d, d))
    return g @ g.T + 0.1 * np.eye(d)


class TestSolveLyapunov:
    def test_scalar(self):
        np.testing.assert_allclose(
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]])), [[1.0]]
        )
        np.testing.assert_allclose(
            solve_lyapunov(np.array([[4.0]]), np.array([[2.0]])), [[0.5]]
        )

    def test_identity_decay_returns_diffusion(self):
        rng = np.random.default_rng(1)
        d_mat = random_diffusion(rng, 3)
        np.testing.assert_allclose(
            solve_lyapunov(np.eye(3), d_mat), d_mat, rtol=1e-12, atol=1e-12
        )

    def test_closed_form_rotation_plus_damping(self):
        # m = [[1, a], [-a, 1]], d = diag(d1, d2) has the closed-form
        # solution gamma = [[d1 + a c, c], [c, d2 - a c]] with
        # c = -a (d1 - d2) / (2 (1 + a^2)).  The sign of the off-diagonal
        # entry pins the transpose convention of the balance equation.
        a, d1, d2 = 0.7, 2.0, 0.5
        m = np.array([[1.0, a], [-a, 1.0]])
        d_mat = np.diag([d1, d2])
        c = -a * (d1 - d2) / (2.0 * (1.0 + a * a))
        expected = np.array([[d1 + a * c, c], [c, d2 - a * c]])
        gamma = solve_lyapunov(m, d_mat)
        np.testing.assert_allclose(gamma, expected, rtol=1e-12, atol=1e-14)
        assert gamma[0, 1] < 0.0

    def test_residual_property_on_random_systems(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            m = random_decay(rng, d)
            d_mat = random_diffusion(rng, d)
            gamma = solve_lyapunov(m, d_mat)
            np.testing.assert_allclose(gamma, gamma.T)
            residual = np.linalg.norm(m.T @ gamma + gamma @ m - 2.0 * d_mat)
            assert residual <= 1e-10 * np.linalg.norm(d_mat)

    def test_ill_conditioned_spd_system_solves(self):
        # Eigenvalues {1e-3, 1} of mu and {1e-6, 1} of q_eff: ||gamma|| is
        # about 1e6, and the residual 1.6e-10 the solve leaves here is
        # rounding at that scale, not a failure.  A tolerance scaled by
        # ||d_mat||_F alone refused it.
        mu = np.array([[0.20654369193095476, 0.40384395370788523],
                       [0.40384395370788523, 0.7944563080690453]])
        q_eff = np.array([[0.3863995662545038, 0.48692332851528214],
                          [0.48692332851528214, 0.6136014337454961]])
        gamma = solve_lyapunov((mu @ q_eff).T, mu)
        np.testing.assert_allclose(np.linalg.inv(gamma), q_eff, rtol=1e-8)
        report = reconstruct(mu, q_eff, beta=1.0, n_steps=2_000, burn_in=0)
        np.testing.assert_array_equal(report.gamma, gamma)

    def test_unstable_decay_raises(self):
        with pytest.raises(UnstableDrift, match="Re"):
            solve_lyapunov(-np.eye(2), np.eye(2))
        with pytest.raises(UnstableDrift):
            solve_lyapunov(np.diag([1.0, 0.0]), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            solve_lyapunov(np.eye(2), np.eye(3))


class TestSdeIntegrationOracle:
    def test_sampled_covariance_matches_balance_solution(self):
        # Independent check: Euler-integrate dp = -m.T p dt + sqrt(2) L dW
        # here in the test and compare the sample covariance against the
        # solver.  Margin at this seed: 1.4% against the 3% bound, while
        # integrating with drift -m p instead gives a 35% discrepancy.
        m = np.array([[1.0, 0.6], [-0.6, 1.4]])
        d_mat = np.array([[0.8, 0.2], [0.2, 0.5]])
        gamma = solve_lyapunov(m, d_mat)

        dt, n_steps, burn_in = 0.02, 1_000_000, 5_000
        chol = np.linalg.cholesky(d_mat)
        rng = np.random.default_rng(0)
        kicks = np.sqrt(2.0 * dt) * (rng.standard_normal((n_steps, 2)) @ chol.T)
        states = np.empty((n_steps, 2))
        p = np.zeros(2)
        for k in range(n_steps):
            p = p - (m.T @ p) * dt + kicks[k]
            states[k] = p
        cov = np.cov(states[burn_in:], rowvar=False)
        err = np.linalg.norm(cov - gamma) / np.linalg.norm(gamma)
        assert err < 0.03


class TestSimulateSde:
    def test_scalar_variance(self):
        # Stationary variance of dp = -2 p dt + sqrt(3) dW is 1.5 / 2.
        # Margin at this seed: 0.5% against the 2% bound.
        sde = LinearSDE(m=np.array([[2.0]]), d_mat=np.array([[1.5]]))
        samples = simulate_sde(sde, dt=1e-3, n_steps=1_000_000, burn_in=10_000, seed=0)
        assert samples.shape == (1_000_000, 1)
        assert abs(samples.var(ddof=1) - 0.75) / 0.75 < 0.02

    def test_zero_diffusion_stays_at_origin(self):
        sde = LinearSDE(m=np.eye(2), d_mat=np.zeros((2, 2)))
        samples = simulate_sde(sde, dt=0.01, n_steps=100, seed=3)
        np.testing.assert_array_equal(samples, np.zeros((100, 2)))

    def test_same_seed_reproduces(self):
        sde = LinearSDE(m=np.eye(2), d_mat=np.eye(2))
        a = simulate_sde(sde, dt=0.01, n_steps=500, seed=42)
        b = simulate_sde(sde, dt=0.01, n_steps=500, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_step_guard(self):
        sde = LinearSDE(m=np.array([[10.0]]), d_mat=np.array([[1.0]]))
        with pytest.raises(StepTooLarge, match="reduce dt"):
            simulate_sde(sde, dt=0.02, n_steps=10)

    def test_unstable_drift_raises(self):
        sde = LinearSDE(m=np.array([[-1.0]]), d_mat=np.array([[1.0]]))
        with pytest.raises(UnstableDrift):
            simulate_sde(sde, dt=0.01, n_steps=10)

    def test_indefinite_diffusion_raises(self):
        sde = LinearSDE(m=np.eye(2), d_mat=np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="PSD"):
            simulate_sde(sde, dt=0.01, n_steps=10)

    def test_argument_validation(self):
        sde = LinearSDE(m=np.eye(1), d_mat=np.eye(1))
        with pytest.raises(ValueError, match="dt"):
            simulate_sde(sde, dt=0.0, n_steps=10)
        with pytest.raises(ValueError, match="n_steps"):
            simulate_sde(sde, dt=0.01, n_steps=0)
        with pytest.raises(ValueError, match="burn_in"):
            simulate_sde(sde, dt=0.01, n_steps=10, burn_in=-1)

    def test_buffers_are_budgeted_before_allocation(self):
        # One (burn_in + n_steps, 1) buffer of 8 PB: refused unallocated.
        sde = LinearSDE(m=np.eye(1), d_mat=np.eye(1))
        with pytest.raises(ValueError, match="n_steps, burn_in ask for"):
            simulate_sde(sde, dt=0.01, n_steps=10**15)

    def test_linear_sde_validation(self):
        with pytest.raises(ValueError, match="d_mat"):
            LinearSDE(m=np.eye(2), d_mat=np.eye(3))
        assert LinearSDE(m=np.eye(2), d_mat=np.eye(2)).is_stable()
        assert not LinearSDE(m=-np.eye(2), d_mat=np.eye(2)).is_stable()


class TestEstimateLogCurvature:
    def test_recovers_inverse_covariance_of_exact_gaussian(self):
        # Margin at this seed: 1.2% against the 5% bound.
        gamma = np.array([[1.0, 0.4], [0.4, 2.0]])
        chol = np.linalg.cholesky(gamma)
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((20_000, 2)) @ chol.T
        curvature = estimate_log_curvature(samples)
        target = np.linalg.inv(gamma)
        assert np.linalg.norm(curvature - target) / np.linalg.norm(target) < 0.05

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError, match="need more than 40"):
            estimate_log_curvature(np.zeros((40, 2)))

    def test_degenerate_samples_raise(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(100)
        samples = np.column_stack([x, x])
        with pytest.raises(SingularCovariance):
            estimate_log_curvature(samples)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="expected"):
            estimate_log_curvature(np.zeros(10))


class TestStationaryGaussian:
    def test_commuting_mobility_returns_beta_q(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 3))
        q_eff = g @ g.T + 0.5 * np.eye(3)
        out = stationary_gaussian(0.8 * np.eye(3), q_eff, beta=1.7)
        np.testing.assert_allclose(out, 1.7 * q_eff, rtol=1e-14)

    def test_non_commuting_mobility(self):
        mu = np.diag([1.0, 3.0])
        q_eff = np.array([[1.0, 0.4], [0.4, 2.0]])
        out = stationary_gaussian(mu, q_eff, beta=2.0)
        np.testing.assert_allclose(out, 2.0 * q_eff, rtol=1e-14)

    def test_ill_conditioned_system_returns_beta_q(self):
        # Eigenvalues {1e-3, 1} of mu and {1e-6, 1} of q_eff: beta * q_eff
        # needs no balance solve, however ill-conditioned the system.
        mu = np.array([[0.20654369193095476, 0.40384395370788523],
                       [0.40384395370788523, 0.7944563080690453]])
        q_eff = np.array([[0.3863995662545038, 0.48692332851528214],
                          [0.48692332851528214, 0.6136014337454961]])
        np.testing.assert_array_equal(stationary_gaussian(mu, q_eff, 1.0), q_eff)

    def test_indefinite_response_raises(self):
        with pytest.raises(ResponseNotPD, match="q_eff"):
            stationary_gaussian(np.eye(2), np.diag([1.0, -0.5]), beta=1.0)

    def test_invalid_mobility_raises(self):
        with pytest.raises(ValueError, match="positive definite"):
            stationary_gaussian(np.diag([1.0, -1.0]), np.eye(2), beta=1.0)

    def test_invalid_beta(self):
        with pytest.raises(ValueError, match="beta"):
            stationary_gaussian(np.eye(2), np.eye(2), beta=0.0)

    def test_closure_for_scalar_mobility(self):
        # Inverting the balance covariance recovers beta * q_eff whenever
        # the mobility is a positive scalar matrix.
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            g = rng.standard_normal((d, d))
            q_eff = g @ g.T + 0.5 * np.eye(d)
            beta = float(rng.uniform(0.5, 3.0))
            mu = float(rng.uniform(0.2, 2.0)) * np.eye(d)
            gamma = solve_lyapunov(mu @ q_eff, mu / beta)
            recovered = np.linalg.inv(gamma)
            target = beta * q_eff
            err = np.linalg.norm(recovered - target) / np.linalg.norm(target)
            assert err <= 1e-8


class TestEinsteinCheck:
    def test_exact_relation_gives_zero(self):
        mu = np.diag([1.0, 2.0])
        assert einstein_check(mu / 1.7, mu, beta=1.7) == 0.0

    def test_scaled_diffusion_gives_relative_deviation(self):
        mu = np.diag([1.0, 2.0])
        assert einstein_check(1.1 * mu / 1.7, mu, beta=1.7) == pytest.approx(0.1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="beta"):
            einstein_check(np.eye(2), np.eye(2), beta=-1.0)
        with pytest.raises(ValueError, match="shape"):
            einstein_check(np.eye(3), np.eye(2), beta=1.0)


class TestReconstruct:
    def test_end_to_end_recovers_curvature(self):
        # Margin at this seed: 2.9% against the 5% bound.
        q_eff = np.array([[1.0, 0.3], [0.3, 1.5]])
        mu = 0.8 * np.eye(2)
        report = reconstruct(mu, q_eff, beta=2.0)
        target = report.curvature_target
        np.testing.assert_allclose(target, 2.0 * q_eff)
        err = np.linalg.norm(report.g_eff - target) / np.linalg.norm(target)
        assert err < 0.05
        assert report.einstein_residual == 0.0
        np.testing.assert_allclose(
            report.gamma, np.linalg.inv(2.0 * q_eff), rtol=1e-10
        )
        assert report.beta == 2.0

    def test_indefinite_response_fails_as_unstable(self):
        with pytest.raises(UnstableDrift):
            reconstruct(np.eye(2), np.diag([1.0, -0.5]), beta=1.0)

    def test_custom_diffusion_reports_einstein_residual(self):
        q_eff = np.eye(2)
        mu = np.eye(2)
        report = reconstruct(
            mu, q_eff, beta=1.0, d_mat=1.2 * np.eye(2), n_steps=2_000, burn_in=100
        )
        assert report.einstein_residual == pytest.approx(0.2)

    def test_gamma_is_covariance_of_sampled_process_for_any_mobility(self):
        # simulate_sde integrates dp = -mu q_eff p dt + sqrt(2 mu / beta) dW,
        # whose stationary covariance is inv(beta q_eff) for every SPD
        # mobility, here one that does not commute with q_eff.
        mu = np.diag([0.5, 0.9, 1.4])
        q_eff = np.array([[1.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 0.8]])
        report = reconstruct(mu, q_eff, beta=1.3, n_steps=1_000, burn_in=0)
        target = 1.3 * q_eff
        err = np.linalg.norm(np.linalg.inv(report.gamma) - target)
        assert err / np.linalg.norm(target) <= 1e-10

    def test_invalid_beta(self):
        with pytest.raises(ValueError, match="beta"):
            reconstruct(np.eye(2), np.eye(2), beta=0.0)
