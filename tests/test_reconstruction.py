"""Tests for fluctuation reconstruction.

The fluctuation-balance solver is checked three independent ways: closed
forms for small systems, residual properties on random stable systems, and
direct Euler integration of the Langevin dynamics written out inside the
test.  The closed form and the integration both discriminate the transpose
convention ``m.T gamma + gamma m = 2 d``, so a flipped convention fails
loudly rather than within tolerance.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg  # tests only: scipy is no runtime dependency
from hypothesis import given, settings
from hypothesis import strategies as st

from schurflow import (
    LinearSDE,
    ResponseNotPD,
    SingularCovariance,
    UnstableDrift,
    einstein_check,
    estimate_log_curvature,
    reconstruct,
    simulate_sde,
    solve_lyapunov,
    stationary_gaussian,
)
from schurflow import reconstruction
from schurflow.reconstruction import SCAN_BLOCK, _exact_transition
from schurflow.tensor import ARRAY_BUDGET, SIGNATURE_TOL, signature


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

    def test_closed_form_jordan_block(self):
        # The defective m = [[1, 1], [0, 1]] with d = I has the closed form
        # gamma = [[1, -1/2], [-1/2, 3/2]]; a solve through an eigenbasis of
        # m has none to use here.
        gamma = solve_lyapunov(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
        np.testing.assert_allclose(gamma, [[1.0, -0.5], [-0.5, 1.5]], rtol=1e-12)

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
        report = reconstruct(mu, q_eff, beta=1.0, n_steps=2_000)
        np.testing.assert_array_equal(report.gamma, gamma)

    def test_unstable_decay_raises(self):
        with pytest.raises(UnstableDrift, match="Re"):
            solve_lyapunov(-np.eye(2), np.eye(2))
        with pytest.raises(UnstableDrift):
            solve_lyapunov(np.diag([1.0, 0.0]), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            solve_lyapunov(np.eye(2), np.eye(3))

    def test_system_is_budgeted_before_allocation(self):
        # d = 1000: one d**2 x d**2 system of 8 TB, refused unallocated.
        with pytest.raises(ValueError, match="^m ask for"):
            solve_lyapunov(np.eye(1000), np.eye(1000))
        # d = 82: one system fits, the three held at once do not.
        d2 = 82 * 82
        assert 8 * d2 * d2 < ARRAY_BUDGET < 3 * 8 * d2 * d2
        with pytest.raises(ValueError, match="^m ask for"):
            solve_lyapunov(np.eye(82), np.eye(82))


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


def van_loan(m, d_mat, dt):
    """The kick covariance ``int_0^dt e^{-m s} 2 d_mat e^{-m.T s} ds`` of
    ``dp = -m p dt + sqrt(2) L dW`` from a block exponential (Van Loan, IEEE
    Trans. Autom. Control 23, 395, 1978).

    The block is exponentiated at ``t = dt / 2**s`` with ``||m t||_1 < 1``
    and doubled back by ``cov(2t) = cov(t) + a(t) cov(t) a(t).T``, which adds
    only PSD terms: one block exponential at a large ``||m dt||`` cancels
    ``e^{+m dt}`` against ``e^{-m dt}`` and lost 2e-4 of a strongly non-normal
    ``m``'s kick covariance against a 50-digit reference.
    """
    dim = len(m)
    s = max(0, int(np.frexp(dt * np.linalg.norm(m, 1))[1]))
    block = np.zeros((2 * dim, 2 * dim))
    block[:dim, :dim] = m
    block[:dim, dim:] = 2.0 * d_mat
    block[dim:, dim:] = -m.T
    exp = scipy.linalg.expm(block * (dt / 2**s))
    a = exp[dim:, dim:].T
    cov = a @ exp[:dim, dim:]
    for _ in range(s):
        cov = cov + a @ cov @ a.T
        a = a @ a
    return cov


def symmetric_root(s):
    w, v = np.linalg.eigh((s + s.T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def exact_loop(m, d_mat, dt, n_steps, burn_in, seed):
    """The exact transition taken one state at a time on the draws that
    ``simulate_sde`` documents for ``seed``: row 0 of one ``(burn_in +
    n_steps, dim)`` standard-normal draw starts the chain from the
    stationary law, row ``k`` is the kick of step ``k``.  The transition,
    the kick covariance and the stationary covariance come from scipy
    (``expm`` and ``solve_continuous_lyapunov``), not from the library."""
    a = scipy.linalg.expm(-m * dt)
    kick_cov = van_loan(m, d_mat, dt)
    gamma = scipy.linalg.solve_continuous_lyapunov(m, 2.0 * d_mat)
    total = burn_in + n_steps
    z = np.random.default_rng(seed).standard_normal((total, len(m)))
    kicks = z @ symmetric_root(kick_cov)
    states = np.empty((total, len(m)))
    p = symmetric_root(gamma) @ z[0]
    states[0] = p
    for k in range(1, total):
        p = a @ p + kicks[k]
        states[k] = p
    return states[burn_in:]


def decay_of_kind(kind, dim, rng):
    """A stable decay matrix: diagonalisable with real spectrum, with
    complex eigenvalues, a single Jordan block, or strongly non-normal."""
    rates = rng.uniform(0.2, 2.0, dim)
    if kind == "similar-to-symmetric":
        basis = np.eye(dim) + 0.4 * rng.standard_normal((dim, dim))
        return basis @ np.diag(rates) @ np.linalg.inv(basis)
    if kind == "rotation":
        m = np.diag(rates)
        for i in range(0, dim - 1, 2):
            m[i, i + 1], m[i + 1, i] = -3.0 * rates[i], 3.0 * rates[i]
            m[i + 1, i + 1] = rates[i]
        return m
    if kind == "jordan":
        return rates[0] * np.eye(dim) + np.eye(dim, k=1)
    # Upper triangular with off-diagonal entries of 50 to 100.
    return np.diag(rates) + np.triu(rng.uniform(50.0, 100.0, (dim, dim)), k=1)


DECAY_KINDS = ["similar-to-symmetric", "rotation", "jordan", "non-normal"]


class TestExactTransition:
    """``_exact_transition`` against scipy: ``A`` against ``expm`` and the
    kick covariance against Van Loan's block exponential, neither of them
    through ``solve_lyapunov``.  Both sides are accurate to a few ulps of
    the largest entry met on the way, so the bounds are set at 1e-12 of the
    largest entry of ``A`` and 1e-10 of the largest entry of the covariance,
    which the doublings sum from up to a few hundred terms."""

    @pytest.mark.parametrize("kind", DECAY_KINDS)
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 40.0])
    def test_matches_scipy(self, kind, scale):
        rng = np.random.default_rng(12)
        m = decay_of_kind(kind, 4, rng)
        d_mat = random_diffusion(rng, 4)
        dt = scale / np.linalg.norm(m, 2)
        a, kick_cov = _exact_transition(m, d_mat, dt)
        want_a = scipy.linalg.expm(-m * dt)
        want_cov = van_loan(m, d_mat, dt)
        assert np.abs(a - want_a).max() <= 1e-12 * np.abs(want_a).max()
        assert np.abs(kick_cov - want_cov).max() <= 1e-10 * np.abs(want_cov).max()

    def test_extreme_spacings(self):
        m, d_mat = np.diag([1.0, 2.0]), np.eye(2)
        # m = 0: A = I and the kicks are 2 d_mat dt, exactly.
        a, kick_cov = _exact_transition(np.zeros((2, 2)), d_mat, 0.3)
        np.testing.assert_array_equal(a, np.eye(2))
        np.testing.assert_array_equal(kick_cov, 0.6 * d_mat)
        # ||m dt||_1 near the float maximum: scaled by 2**-1025 and doubled
        # back, A vanishes and the kicks carry the whole stationary law.
        a, kick_cov = _exact_transition(m, d_mat, 1e308 / 2.0)
        np.testing.assert_array_equal(a, np.zeros((2, 2)))
        np.testing.assert_allclose(kick_cov, np.diag([1.0, 0.5]), rtol=1e-14)


class TestBlockedScanMatchesEulerLoop:
    """simulate_sde's exact chain against the step-by-step exact loop.

    The loop builds its transition, kick covariance and starting law with
    scipy, so it checks the library's ``A``, ``gamma - A gamma A.T`` and the
    ``p_0`` draw as well as the blocked scan.  The two sides agree to
    rounding in those inputs, amplified by the square roots; the bound is
    set beforehand at 1e-8 * max(1, max |p|), far below the 1e-3 or more
    that an Euler transition ``I - m dt`` or a chain started at the origin
    leaves.  Run lengths straddle one block, where the carries between
    blocks start, and one block of blocks, where the carries need carries
    of their own.
    """

    def assert_matches_loop(self, kind, dim, n_steps, burn_in, step, seed):
        rng = np.random.default_rng(seed)
        m = decay_of_kind(kind, dim, rng)
        g = rng.standard_normal((dim, dim))
        d_mat = g @ g.T
        dt = step / np.linalg.eigvals(m).real.min()
        sde = LinearSDE(m=m, d_mat=d_mat)
        got = simulate_sde(sde, dt=dt, n_steps=n_steps, burn_in=burn_in, seed=seed)
        want = exact_loop(sde.m, sde.d_mat, dt, n_steps, burn_in, seed)
        assert got.shape == (n_steps, dim)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-8 * scale

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(DECAY_KINDS),
        dim=st.integers(1, 4),
        total=st.sampled_from(
            [1, 2, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1,
             SCAN_BLOCK**2 - 1, SCAN_BLOCK**2 + 1]
        ) | st.integers(1, 3 * SCAN_BLOCK**2),
        burn_fraction=st.floats(0.0, 0.5),
        step=st.floats(0.01, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_length_and_decay(self, kind, dim, total, burn_fraction, step, seed):
        burn_in = int(burn_fraction * (total - 1))
        self.assert_matches_loop(kind, dim, total - burn_in, burn_in, step, seed)

    @pytest.mark.parametrize("kind", DECAY_KINDS)
    def test_four_nested_scans(self, kind):
        # Past SCAN_BLOCK**3 rows the scan nests four levels deep.
        self.assert_matches_loop(kind, 3, SCAN_BLOCK**3 + 5, 1_000, step=0.9, seed=11)


class TestSimulateSde:
    def test_scalar_variance(self):
        # Stationary variance of dp = -2 p dt + sqrt(3) dW is 1.5 / 2.
        # Margin at this seed: 0.6% against the 2% bound.
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

    def test_any_spacing_is_exact(self):
        # dt = 50 / ||m||_2 was refused by the Euler step guard; the exact
        # chain takes it, and its states are then nearly independent draws
        # of the stationary law N(0, 1.5 / 10).  Margin at this seed: 0.03%
        # against the 2% bound.
        sde = LinearSDE(m=np.array([[10.0]]), d_mat=np.array([[1.5]]))
        samples = simulate_sde(sde, dt=5.0, n_steps=100_000, seed=0)
        assert abs(samples.var(ddof=1) - 0.15) / 0.15 < 0.02

    def test_kicks_in_row_chunks_equal_one_product(self, monkeypatch):
        # 100k steps of a 3-dimensional chain take four chunks; with one
        # chunk for every row the states are the same bytes.
        rng = np.random.default_rng(9)
        sde = LinearSDE(m=random_decay(rng, 3), d_mat=random_diffusion(rng, 3))
        chunked = simulate_sde(sde, dt=0.05, n_steps=100_000, seed=4)
        monkeypatch.setattr(reconstruction, "KICK_PRODUCT_SIZE", 2**40)
        whole = simulate_sde(sde, dt=0.05, n_steps=100_000, seed=4)
        assert chunked.tobytes() == whole.tobytes()

    def test_first_state_is_a_stationary_draw(self):
        # Row 0 of the draw through the root of gamma = 1.5 / 2: the chain
        # starts in its stationary law, not at the origin.
        sde = LinearSDE(m=np.array([[2.0]]), d_mat=np.array([[1.5]]))
        z = np.random.default_rng(5).standard_normal((3, 1))
        got = simulate_sde(sde, dt=0.1, n_steps=3, seed=5)
        np.testing.assert_allclose(got[0], np.sqrt(0.75) * z[0], rtol=1e-14)

    def test_overflowing_step_is_refused_before_allocation(self):
        sde = LinearSDE(m=np.diag([1.0, 2.0]), d_mat=np.eye(2))
        with pytest.raises(ValueError, match=r"^dt = 1\.000e\+308 overflows m dt"):
            simulate_sde(sde, dt=1e308, n_steps=100)
        # Refused before the buffers: a run far over no budget still names dt.
        with pytest.raises(ValueError, match="^dt = "):
            simulate_sde(sde, dt=1e308, n_steps=10**6)

    def test_unstable_drift_raises(self):
        # Refused when the model is built: a LinearSDE that exists is stationary.
        with pytest.raises(UnstableDrift, match=r"Re = -1\.000e\+00"):
            LinearSDE(m=np.array([[-1.0]]), d_mat=np.array([[1.0]]))

    def test_indefinite_diffusion_raises(self):
        with pytest.raises(ValueError, match=r"eigenvalue -1\.000e\+00 .*PSD"):
            LinearSDE(m=np.eye(2), d_mat=np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
    def test_diffusion_is_psd_on_the_zero_band(self, factor, accepted):
        # d_mat = diag(100, -factor * band), band = SIGNATURE_TOL * 100: an
        # eigenvalue inside the band counts as zero, as in signature.
        d_mat = np.diag([100.0, -factor * SIGNATURE_TOL * 100.0])
        assert (signature(d_mat).n_minus == 0) == accepted
        if accepted:
            sde = LinearSDE(m=np.eye(2), d_mat=d_mat)
            assert simulate_sde(sde, dt=0.1, n_steps=10).shape == (10, 2)
        else:
            with pytest.raises(ValueError, match=r"eigenvalue -2\.000e-08 .*PSD"):
                LinearSDE(m=np.eye(2), d_mat=d_mat)

    def test_argument_validation(self):
        sde = LinearSDE(m=np.eye(1), d_mat=np.eye(1))
        with pytest.raises(ValueError, match="dt"):
            simulate_sde(sde, dt=0.0, n_steps=10)
        with pytest.raises(ValueError, match="n_steps"):
            simulate_sde(sde, dt=0.01, n_steps=0)
        with pytest.raises(ValueError, match="burn_in"):
            simulate_sde(sde, dt=0.01, n_steps=10, burn_in=-1)
        with pytest.raises(ValueError, match="^dt must be finite and positive, got None$"):
            simulate_sde(sde, dt=None, n_steps=10)

    def test_buffers_are_budgeted_before_allocation(self):
        # One (burn_in + n_steps, 1) buffer of 8 PB: refused unallocated.
        sde = LinearSDE(m=np.eye(1), d_mat=np.eye(1))
        with pytest.raises(ValueError, match="n_steps, burn_in ask for"):
            simulate_sde(sde, dt=0.01, n_steps=10**15)
        # The longest 3-column run that fits unpadded is over the budget
        # once padded to whole scan blocks: refused as well.
        rows = ARRAY_BUDGET // (8 * 3)
        assert -(-rows // SCAN_BLOCK) * SCAN_BLOCK * 3 * 8 > ARRAY_BUDGET
        sde = LinearSDE(m=np.eye(3), d_mat=np.eye(3))
        with pytest.raises(ValueError, match="n_steps, burn_in ask for"):
            simulate_sde(sde, dt=0.01, n_steps=rows)

    def test_peak_memory_is_two_padded_buffers(self):
        # The draw lands in the states and the scan of the block ends runs
        # in them too: the kicks and the states are all that is held.
        sde = LinearSDE(m=np.diag([1.0, 2.0, 3.0]), d_mat=np.eye(3))
        simulate_sde(sde, dt=0.5, n_steps=1_000)
        n_steps = 100_000
        padded = -(-n_steps // SCAN_BLOCK) * SCAN_BLOCK
        tracemalloc.start()
        try:
            simulate_sde(sde, dt=0.5, n_steps=n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * padded * 3 * 8 + 64 * 1024

    def test_linear_sde_validation(self):
        with pytest.raises(ValueError, match="d_mat"):
            LinearSDE(m=np.eye(2), d_mat=np.eye(3))
        sde = LinearSDE(m=np.diag([1.0, 4.0]), d_mat=np.eye(2))
        np.testing.assert_array_equal(sde.gamma, np.diag([1.0, 0.25]))
        assert "gamma" not in repr(sde)
        with pytest.raises(UnstableDrift):
            LinearSDE(m=-np.eye(2), d_mat=np.eye(2))


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
        # Zero columns: refused by shape, not by an empty reduction.
        with pytest.raises(ValueError, match=r"d >= 1, got \(100, 0\)$"):
            estimate_log_curvature(np.zeros((100, 0)))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_matches_inverse_of_np_cov(self, d):
        # np.cov is the oracle here only.  The common mean of 1e3 makes the
        # centring count; every other column of a wider array is a strided
        # input.
        rng = np.random.default_rng(d)
        g = rng.standard_normal((2 * d, 2 * d))
        wide = rng.standard_normal((5_000, 2 * d)) @ (g @ g.T + np.eye(2 * d)) + 1e3
        for samples in (wide[:, ::2], np.ascontiguousarray(wide[:, ::2])):
            want = np.linalg.inv(np.atleast_2d(np.cov(samples, rowvar=False)))
            np.testing.assert_allclose(estimate_log_curvature(samples), want, rtol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_raise(self, bad):
        # The covariance of such samples has a NaN spectrum, which passes
        # the singularity test; the curvature would come back all NaN.
        samples = np.random.default_rng(6).standard_normal((200, 2))
        samples[17] = bad
        with pytest.raises(ValueError, match="samples: entries must be finite"):
            estimate_log_curvature(samples)


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
        # Margin at this seed: 0.6% against the 5% bound (2.9% with the
        # Euler chain of 0.13.0).
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

    def test_stiff_system_relaxes_at_the_defaults(self, monkeypatch):
        # Eigenvalues {1e-3, 1} of mu and {1e-6, 1} of q_eff: the slowest
        # decay rate of mu q_eff is 1e-9.  The Euler chain of 0.13.0 covered
        # 5e-6 slowest decay times and missed beta * q_eff by 231% at this
        # seed without a word; spaced by 1 / lambda_min, the run spans
        # n_steps of them.  Margin at this seed: 0.4% against the 5% bound.
        mu = np.array([[0.20654369193095476, 0.40384395370788523],
                       [0.40384395370788523, 0.7944563080690453]])
        q_eff = np.array([[0.3863995662545038, 0.48692332851528214],
                          [0.48692332851528214, 0.6136014337454961]])
        spans = []

        def spy(sde, dt, n_steps, **kwargs):
            spans.append(n_steps * dt * np.linalg.eigvals(sde.m).real.min())
            return simulate_sde(sde, dt, n_steps, **kwargs)

        monkeypatch.setattr(reconstruction, "simulate_sde", spy)
        report = reconstruct(mu, q_eff, beta=1.0, seed=0)
        assert spans == [pytest.approx(100_000, rel=1e-9)]
        target = report.curvature_target
        err = np.linalg.norm(report.g_eff - target) / np.linalg.norm(target)
        assert err < 0.05

    def test_indefinite_response_fails_as_unstable(self):
        with pytest.raises(UnstableDrift):
            reconstruct(np.eye(2), np.diag([1.0, -0.5]), beta=1.0)

    @pytest.mark.parametrize(
        "mu, q_eff, rate, margin",
        [
            # Decay rates 1 and 1e12: the margin 1e-12 * 1e12 refuses the
            # slow mode, though no eigenvalue has Re <= 0.
            (np.eye(2), np.diag([1.0, 1e12]), "1.000e+00", "1.000e+00"),
            (np.eye(1), [[1e-300]], "1.000e-300", "1.000e-12"),
        ],
        ids=["stiff", "tiny"],
    )
    def test_hurwitz_failure_names_real_part_and_margin(self, mu, q_eff, rate, margin):
        with pytest.raises(UnstableDrift) as info:
            reconstruct(mu, q_eff, beta=1.0)
        assert f"Re = {rate}, not above the margin {margin}" in str(info.value)

    def test_one_covariance_solve_per_reconstruction(self, monkeypatch):
        calls = []

        def spy(m, d_mat):
            calls.append(m)
            return solve_lyapunov(m, d_mat)

        monkeypatch.setattr(reconstruction, "solve_lyapunov", spy)
        mu, q_eff = 0.8 * np.eye(2), np.array([[1.0, 0.3], [0.3, 1.5]])
        report = reconstruct(mu, q_eff, beta=2.0, n_steps=2_000)
        assert len(calls) == 1
        np.testing.assert_array_equal(report.gamma, solve_lyapunov(calls[0], mu / 2.0))
        # The sampler reads the model's gamma and solves nothing itself.
        sde = LinearSDE(m=mu @ q_eff, d_mat=mu / 2.0)
        simulate_sde(sde, dt=0.1, n_steps=100)
        assert len(calls) == 2

    def test_custom_diffusion_reports_einstein_residual(self):
        q_eff = np.eye(2)
        mu = np.eye(2)
        report = reconstruct(mu, q_eff, beta=1.0, d_mat=1.2 * np.eye(2), n_steps=2_000)
        assert report.einstein_residual == pytest.approx(0.2)

    def test_gamma_is_covariance_of_sampled_process_for_any_mobility(self):
        # simulate_sde integrates dp = -mu q_eff p dt + sqrt(2 mu / beta) dW,
        # whose stationary covariance is inv(beta q_eff) for every SPD
        # mobility, here one that does not commute with q_eff.
        mu = np.diag([0.5, 0.9, 1.4])
        q_eff = np.array([[1.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 0.8]])
        report = reconstruct(mu, q_eff, beta=1.3, n_steps=1_000)
        target = 1.3 * q_eff
        err = np.linalg.norm(np.linalg.inv(report.gamma) - target)
        assert err / np.linalg.norm(target) <= 1e-10

    def test_invalid_beta(self):
        with pytest.raises(ValueError, match="beta"):
            reconstruct(np.eye(2), np.eye(2), beta=0.0)

    def test_shape_mismatch_names_q_eff(self):
        with pytest.raises(ValueError, match=r"^q_eff: expected shape \(2, 2\), got \(3, 3\)"):
            reconstruct(np.eye(2), np.eye(3), beta=1.0)

    def test_stack_of_q_eff_is_refused(self):
        # Only BlockQuadratic and schur_complement take leading axes.
        with pytest.raises(
            ValueError, match=r"^q_eff: expected shape \(2, 2\), got \(3, 2, 2\)$"
        ):
            reconstruct(np.eye(2), np.tile(np.eye(2), (3, 1, 1)), beta=1.0)
