"""Tests for slow-fast elimination and response/drift bridges."""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from schurflow import (
    BlockGenerator,
    BlockQuadratic,
    FastSectorUnstable,
    check_mobility,
    eliminate_fast,
    fast_slave,
    m_from_q,
    schur_complement,
    symmetrize,
)
from schurflow.reduction import check_decaying


def dense_eliminate_oracle(k):
    """Independent route via a plain dense inverse."""
    return k.k_ss - k.k_sf @ np.linalg.inv(k.k_ff) @ k.k_fs


def random_generator(rng, d_s, d_f, fast_scale=10.0):
    # Stable by construction: symmetric part negative definite, plus skew.
    g = rng.standard_normal((d_f, d_f))
    sym = g @ g.T + 0.5 * np.eye(d_f)
    skew = rng.standard_normal((d_f, d_f))
    k_ff = -fast_scale * sym + 0.2 * (skew - skew.T)
    return BlockGenerator(
        k_ss=rng.standard_normal((d_s, d_s)),
        k_sf=rng.standard_normal((d_s, d_f)),
        k_fs=rng.standard_normal((d_f, d_s)),
        k_ff=k_ff,
    )


class TestEliminateFast:
    def test_scalar_example(self):
        k = BlockGenerator(k_ss=[[-1.0]], k_sf=[[2.0]], k_fs=[[2.0]], k_ff=[[-4.0]])
        assert eliminate_fast(k)[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            k = random_generator(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            got = eliminate_fast(k)
            oracle = dense_eliminate_oracle(k)
            np.testing.assert_allclose(got, oracle, atol=1e-10 * (1 + np.abs(oracle).max()))

    def test_unstable_fast_block_raises(self):
        k = BlockGenerator(k_ss=[[-1.0]], k_sf=[[1.0]], k_fs=[[1.0]], k_ff=[[0.5]])
        with pytest.raises(FastSectorUnstable):
            eliminate_fast(k)

    def test_marginal_fast_block_raises(self):
        k = BlockGenerator(k_ss=[[-1.0]], k_sf=[[1.0]], k_fs=[[1.0]], k_ff=[[0.0]])
        with pytest.raises(FastSectorUnstable):
            eliminate_fast(k)

    def test_failure_names_real_part_and_margin(self):
        # k_ff = -1e-13 has a negative real part, but it is inside the
        # Hurwitz margin 1e-12: the message names both, not a sign.
        k = BlockGenerator(k_ss=[[-1.0]], k_sf=[[1.0]], k_fs=[[1.0]], k_ff=[[-1e-13]])
        message = (r"-k_ff has an eigenvalue with Re = 1\.000e-13, "
                   r"not above the margin 1\.000e-12")
        with pytest.raises(FastSectorUnstable, match=message):
            eliminate_fast(k)
        with pytest.raises(FastSectorUnstable, match=message):
            fast_slave(k, np.ones(1))

    def test_matches_quadratic_elimination(self):
        # For K = -mu Q with block mobility diag(mu_s, mu_f I), scalar mu_f,
        # eliminating the fast dynamics equals -mu_s times the eliminated tensor.
        rng = np.random.default_rng(32)
        for _ in range(20):
            d_s, d_f = 3, 2
            g = rng.standard_normal((d_s + d_f, d_s + d_f))
            full_q = g @ g.T + 0.5 * np.eye(d_s + d_f)
            a, b, c = full_q[:d_s, :d_s], full_q[:d_s, d_s:], full_q[d_s:, d_s:]
            gs = rng.standard_normal((d_s, d_s))
            mu_s = gs @ gs.T + 0.5 * np.eye(d_s)
            mu_f = float(rng.uniform(0.5, 3.0))
            k = BlockGenerator(
                k_ss=-mu_s @ a, k_sf=-mu_s @ b, k_fs=-mu_f * b.T, k_ff=-mu_f * c
            )
            k_eff = eliminate_fast(k)
            q_eff = schur_complement(BlockQuadratic(a=a, b=b, c=c))
            np.testing.assert_allclose(k_eff, -mu_s @ q_eff, atol=1e-10)


class TestSlowFastOracle:
    """Reduction against the full dynamics with strong scale separation."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        a = np.eye(2) + 0.3 * symmetrize(rng.standard_normal((2, 2)))
        c = 1000.0 * (np.eye(2) + 0.3 * symmetrize(rng.standard_normal((2, 2))))
        b = 0.3 * np.sqrt(1000.0) * rng.standard_normal((2, 2))
        self.k = BlockGenerator(k_ss=-a, k_sf=-b, k_fs=-b.T, k_ff=-c)
        self.k_eff = eliminate_fast(self.k)

    def test_slow_eigenvalues_match_full_spectrum(self):
        w_full = np.sort_complex(np.linalg.eigvals(self.k.full()))
        w_slow = w_full[-2:]  # least-negative pair = slow modes
        w_eff = np.sort_complex(np.linalg.eigvals(self.k_eff))
        assert np.all(np.abs(w_slow - w_eff) / np.abs(w_eff) < 5e-4)

    def test_integrated_slow_dynamics_match_reduced_propagator(self):
        x_s0 = np.array([1.0, -0.5])
        x0 = np.concatenate([x_s0, fast_slave(self.k, x_s0)])
        t_end = 0.5
        sol = scipy.integrate.solve_ivp(
            lambda t, x: self.k.full() @ x, (0.0, t_end), x0, rtol=1e-10, atol=1e-12
        )
        predicted = scipy.linalg.expm(self.k_eff * t_end) @ x_s0
        err = np.linalg.norm(sol.y[:2, -1] - predicted) / np.linalg.norm(predicted)
        assert err < 5e-4


PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def gell_mann(n):
    """Traceless Hermitian basis of ``n x n`` matrices with
    ``tr(l_a l_b) = 2 delta_ab``: for each pair ``j < k`` the real and
    imaginary off-diagonal matrices, then the ``n - 1`` diagonal ones.  For
    ``n = 2`` it is ``(sigma_x, sigma_y, sigma_z)``."""
    basis = []
    for j in range(n):
        for k in range(j + 1, n):
            for entry in (1.0, -1j):
                off = np.zeros((n, n), dtype=complex)
                off[j, k], off[k, j] = entry, np.conj(entry)
                basis.append(off)
    for level in range(1, n):
        diag = np.r_[np.ones(level), -level, np.zeros(n - level - 1)]
        basis.append(np.diag(diag * np.sqrt(2.0 / (level * (level + 1)))) + 0j)
    return basis


def bloch_generator(hamiltonian, jumps):
    """Real generator ``G`` of ``dr/dt = G r`` for the generalized Bloch
    vector ``r_a = tr(l_a rho)`` (``l_a`` from :func:`gell_mann`) of a GKSL
    master equation
    ``drho/dt = -i[H, rho] + sum_j (L_j rho L_j^+ - {L_j^+ L_j, rho} / 2)``.

    The Liouvillian acts on column-stacked matrices,
    ``vec(A X B) = (B^T kron A) vec(X)``; the generator must be unital, so
    that the Bloch dynamics is linear without an inhomogeneous term.
    """
    n = len(hamiltonian)
    eye = np.eye(n)
    liouvillian = -1j * (np.kron(eye, hamiltonian) - np.kron(hamiltonian.T, eye))
    for jump in jumps:
        decay = jump.conj().T @ jump
        liouvillian += np.kron(jump.conj(), jump)
        liouvillian -= 0.5 * (np.kron(eye, decay) + np.kron(decay.T, eye))

    def apply(rho):
        return (liouvillian @ rho.reshape(-1, order="F")).reshape(n, n, order="F")

    assert np.allclose(apply(eye), 0.0)
    basis = gell_mann(n)
    g = np.array([[np.trace(sa @ apply(sb)) / 2 for sb in basis] for sa in basis])
    assert np.allclose(g.imag, 0.0)
    return g.real


def split_generator(g, slow, fast):
    return BlockGenerator(
        k_ss=g[np.ix_(slow, slow)],
        k_sf=g[np.ix_(slow, fast)],
        k_fs=g[np.ix_(fast, slow)],
        k_ff=g[np.ix_(fast, fast)],
    )


class TestDrivenDephasedQubit:
    """Zeno elimination of a Rabi-driven qubit under sigma_z dephasing.

    ``H = (omega / 2) sigma_x`` and ``L = sqrt(gamma / 2) sigma_z``: the
    coherences ``(x, y)`` decay at rate ``gamma`` and are fast, the
    population ``z`` is slow.  Eliminating the coherences gives the Zeno
    rate ``-omega**2 / gamma``; the exact slow eigenvalue
    ``(-gamma + sqrt(gamma**2 - 4 omega**2)) / 2`` lies below it by a
    relative ``(omega / gamma)**2`` to leading order.
    """

    OMEGA = 1.0
    GAMMAS = (10.0, 100.0, 1000.0)

    def bloch_generator(self, gamma):
        return bloch_generator(
            0.5 * self.OMEGA * PAULI["x"], [np.sqrt(gamma / 2) * PAULI["z"]]
        )

    def reduced_rate(self, g):
        return eliminate_fast(split_generator(g, slow=[2], fast=[0, 1]))[0, 0]

    def test_elimination_gives_zeno_rate(self):
        for gamma in self.GAMMAS:
            rate = self.reduced_rate(self.bloch_generator(gamma))
            np.testing.assert_allclose(rate, -self.OMEGA**2 / gamma, rtol=1e-12)

    def test_slow_eigenvalue_correction_scales_as_rate_ratio_squared(self):
        ratios = []
        for gamma in self.GAMMAS:
            g = self.bloch_generator(gamma)
            reduced = self.reduced_rate(g)
            exact = np.linalg.eigvals(g).real.max()  # the slowest mode
            ratios.append((exact - reduced) / reduced / (self.OMEGA / gamma) ** 2)
        assert all(0.9 <= ratio <= 1.1 for ratio in ratios), ratios


class TestMonitoredLambdaSystem:
    """Zeno elimination in a Lambda system whose excited level is monitored.

    Ground levels ``|0>``, ``|1>`` are split by a detuning ``delta`` and
    driven to the excited level ``|2>`` with Rabi frequencies ``omega`` and
    ``0.7 omega``; the monitoring ``L = sqrt(gamma) |2><2|`` damps the four
    coherences between ``|2>`` and the ground levels at ``gamma / 2``.
    Those Bloch components (``gell_mann`` indices 2-5) are fast; the
    ground-state coherence and the two populations (indices 0, 1, 6, 7) are
    undamped and form the 4-D slow sector.  The detuning leaves no dark
    state, so every slow eigenvalue is nonzero: a coherence pair near
    ``+-i delta`` and two Zeno rates of order ``omega**2 / gamma``.
    Eliminating the fast sector neglects the slow eigenvalue against
    ``k_ff``, an error of relative order ``(omega / gamma)**2``.
    """

    OMEGA, DELTA = 1.0, 0.5
    GAMMAS = (10.0, 100.0, 1000.0)
    SLOW, FAST = [0, 1, 6, 7], [2, 3, 4, 5]

    def bloch_generator(self, gamma):
        hamiltonian = np.diag([0.5 * self.DELTA, -0.5 * self.DELTA, 0.0]) + 0j
        hamiltonian[0, 2] = hamiltonian[2, 0] = 0.5 * self.OMEGA
        hamiltonian[1, 2] = hamiltonian[2, 1] = 0.35 * self.OMEGA
        g = bloch_generator(hamiltonian, [np.sqrt(gamma) * np.diag([0, 0, 1 + 0j])])
        # The Hamiltonian adds nothing to the diagonal, so it shows the split.
        np.testing.assert_allclose(np.diag(g)[self.FAST], -0.5 * gamma, rtol=1e-12)
        np.testing.assert_allclose(np.diag(g)[self.SLOW], 0.0, atol=1e-12)
        return g

    def test_slow_eigenvalue_error_scales_as_rate_ratio_squared(self):
        ratios = []
        for gamma in self.GAMMAS:
            g = self.bloch_generator(gamma)
            exact = np.linalg.eigvals(g)
            exact = np.sort_complex(exact[np.argsort(exact.real)[-4:]])  # the slow four
            k_eff = eliminate_fast(split_generator(g, self.SLOW, self.FAST))
            reduced = np.sort_complex(np.linalg.eigvals(k_eff))
            rel_err = np.abs(reduced - exact) / np.abs(exact)
            ratios.append(rel_err / (self.OMEGA / gamma) ** 2)
        # 1.2-1.3 and 4.7-6.0 for the Zeno rates, 1.4-1.5 for the pair.
        assert np.all((np.array(ratios) >= 1.0) & (np.array(ratios) <= 8.0)), ratios

    def test_slaved_slow_dynamics_match_reduced_propagator(self):
        x_s0 = np.array([0.3, -0.2, 0.5, -0.4])
        t_end = 5.0
        for gamma in self.GAMMAS:
            g = self.bloch_generator(gamma)
            k = split_generator(g, self.SLOW, self.FAST)
            x0 = np.zeros(8)
            x0[self.SLOW], x0[self.FAST] = x_s0, fast_slave(k, x_s0)
            exact = (scipy.linalg.expm(g * t_end) @ x0)[self.SLOW]
            reduced = scipy.linalg.expm(eliminate_fast(k) * t_end) @ x_s0
            err = np.linalg.norm(exact - reduced) / np.linalg.norm(x_s0)
            # About 1.2, 2.1 and 2.3 times (omega / gamma)**2.
            assert err <= 4.0 * (self.OMEGA / gamma) ** 2, (gamma, err)


class TestFastSlave:
    def test_slaved_state_is_stationary(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            k = random_generator(rng, 3, 2)
            x_s = rng.standard_normal(3)
            x_f = fast_slave(k, x_s)
            residual = k.k_fs @ x_s + k.k_ff @ x_f
            assert np.linalg.norm(residual) < 1e-10 * (1 + np.linalg.norm(x_s))

    def test_rejects_bad_shape(self):
        k = random_generator(np.random.default_rng(34), 3, 2)
        with pytest.raises(ValueError):
            fast_slave(k, np.ones(2))

    def test_rejects_unstable_fast_block(self):
        k = BlockGenerator(k_ss=[[-1.0]], k_sf=[[1.0]], k_fs=[[1.0]], k_ff=[[1.0]])
        with pytest.raises(FastSectorUnstable):
            fast_slave(k, np.ones(1))


class TestFastStable:
    """The Hurwitz test of a fast block, seen through eliminate_fast."""

    @staticmethod
    def generator(k_ff):
        d_f = len(k_ff)
        return BlockGenerator(k_ss=[[-1.0]], k_sf=np.ones((1, d_f)),
                              k_fs=np.ones((d_f, 1)), k_ff=k_ff)

    def test_triangular_example(self):
        # A triangular fast block is stable on its diagonal, -1 and -2,
        # whatever its off-diagonal entry adds to the Hurwitz margin.
        k = self.generator([[-1.0, 10.0], [0.0, -2.0]])
        np.testing.assert_allclose(eliminate_fast(k), dense_eliminate_oracle(k), rtol=1e-14)

    def test_rotation_block_is_marginal(self):
        # The eigenvalues +-i have zero real part: marginal, not decaying.
        with pytest.raises(FastSectorUnstable):
            eliminate_fast(self.generator([[0.0, 1.0], [-1.0, 0.0]]))


class TestMobilityBridges:
    def test_check_mobility_accepts_pd(self):
        out = check_mobility(np.diag([1.0, 2.0]))
        np.testing.assert_array_equal(out, np.diag([1.0, 2.0]))

    def test_check_mobility_rejects_indefinite(self):
        with pytest.raises(ValueError):
            check_mobility(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            check_mobility(np.diag([1.0, 0.0]))

    def test_pd_pair_gives_decaying_generator(self):
        # mu Q with both PD has spectrum in the right half plane, so
        # dx/dt = -mu Q x strictly decays.
        rng = np.random.default_rng(36)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            g1 = rng.standard_normal((d, d))
            g2 = rng.standard_normal((d, d))
            mu = g1 @ g1.T + 0.5 * np.eye(d)
            q = g2 @ g2.T + 0.5 * np.eye(d)
            m = m_from_q(mu, q)
            np.testing.assert_allclose(m, mu @ q, rtol=1e-14, atol=1e-14 * np.abs(m).max())
            check_decaying(m, "mu q", AssertionError)
