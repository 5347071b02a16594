"""Tests for symmetric-tensor algebra: elimination, inertia, margins."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurflow import (
    BlockQuadratic,
    FastSectorNotPD,
    check_symmetric,
    embed_full,
    iso_traceless,
    operator_norm,
    perturbation_preserves_signature,
    schur_complement,
    separation_check,
    signature,
    stability_margin,
    symmetrize,
)
from schurflow.tensor import ARRAY_BUDGET, SIGNATURE_TOL, check_budget, embedded_inertia


def dense_schur_oracle(a, b, c):
    """Independent route: plain dense inverse instead of eigendecomposition."""
    return a - b @ np.linalg.inv(c) @ b.T


def random_block(rng, d_s, d_f, coupling=1.0):
    """Random block form with a PD fast block."""
    a = symmetrize(rng.standard_normal((d_s, d_s)))
    b = coupling * rng.standard_normal((d_s, d_f))
    g = rng.standard_normal((d_f, d_f))
    c = g @ g.T + 0.5 * np.eye(d_f)
    return BlockQuadratic(a=a, b=b, c=c)


class TestSchurComplement:
    def test_worked_example(self):
        q = BlockQuadratic(a=np.diag([2.0, 2.0]), b=np.ones((2, 2)), c=np.eye(2))
        q_eff = schur_complement(q)
        np.testing.assert_allclose(q_eff, [[0.0, -2.0], [-2.0, 0.0]], atol=1e-14)
        np.testing.assert_allclose(q_eff, dense_schur_oracle(q.a, q.b, q.c), atol=1e-12)
        assert signature(q_eff) == (1, 1, 0)

    def test_scalar_blocks(self):
        q = BlockQuadratic(a=[[2.0]], b=[[1.0]], c=[[0.5]])
        assert schur_complement(q)[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d_s = int(rng.integers(1, 6))
            d_f = int(rng.integers(1, 6))
            q = random_block(rng, d_s, d_f)
            q_eff = schur_complement(q)
            oracle = dense_schur_oracle(q.a, q.b, q.c)
            np.testing.assert_allclose(q_eff, oracle, atol=1e-10 * (1 + np.abs(oracle).max()))

    def test_zero_coupling_returns_a_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d_s = int(rng.integers(1, 5))
            d_f = int(rng.integers(1, 5))
            q = random_block(rng, d_s, d_f, coupling=0.0)
            assert np.array_equal(schur_complement(q), q.a)

    def test_subtractive(self):
        # The eliminated correction is positive semidefinite: q_eff <= a.
        rng = np.random.default_rng(13)
        for _ in range(50):
            q = random_block(rng, 3, 4)
            gap = q.a - schur_complement(q)
            assert np.linalg.eigvalsh(gap).min() >= -1e-10

    def test_scalar_negativity_onset(self):
        # a = 1, b^2 = c: effective scalar crosses zero exactly at the onset.
        rng = np.random.default_rng(14)
        for _ in range(25):
            c = float(rng.uniform(0.1, 10.0))
            q = BlockQuadratic(a=[[1.0]], b=[[np.sqrt(c)]], c=[[c]])
            assert abs(schur_complement(q)[0, 0]) < 1e-12

    def test_coupling_monotonicity(self):
        # Growing coupling can only push the smallest eigenvalue down.
        rng = np.random.default_rng(15)
        q = random_block(rng, 3, 3)
        mins = []
        for t in np.linspace(0.0, 2.0, 9):
            scaled = BlockQuadratic(a=q.a, b=t * q.b, c=q.c)
            mins.append(np.linalg.eigvalsh(schur_complement(scaled)).min())
        assert all(later <= earlier + 1e-12 for earlier, later in zip(mins, mins[1:]))

    def test_fast_block_not_pd_raises(self):
        with pytest.raises(FastSectorNotPD):
            schur_complement(BlockQuadratic(a=np.eye(2), b=np.zeros((2, 2)), c=np.diag([1.0, 0.0])))
        with pytest.raises(FastSectorNotPD):
            schur_complement(BlockQuadratic(a=np.eye(1), b=np.zeros((1, 1)), c=[[-2.0]]))

    def test_near_singular_fast_block_raises(self):
        c = np.diag([1.0, 5e-11])
        with pytest.raises(FastSectorNotPD):
            schur_complement(BlockQuadratic(a=np.eye(2), b=np.zeros((2, 2)), c=c))


class TestBlockQuadratic:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BlockQuadratic(a=np.eye(2), b=np.ones((3, 2)), c=np.eye(2))
        with pytest.raises(ValueError):
            BlockQuadratic(a=np.ones((2, 3)), b=np.ones((2, 2)), c=np.eye(2))

    def test_symmetry_validation(self):
        with pytest.raises(ValueError):
            BlockQuadratic(a=[[0.0, 1.0], [0.0, 0.0]], b=np.zeros((2, 2)), c=np.eye(2))

    def test_full_assembly(self):
        q = BlockQuadratic(a=np.diag([1.0, 2.0]), b=np.ones((2, 1)), c=[[3.0]])
        full = q.full()
        assert full.shape == (3, 3)
        np.testing.assert_array_equal(full, full.T)
        assert full[0, 2] == 1.0 and full[2, 2] == 3.0


class TestCheckSymmetric:
    def test_accepts_roundoff_asymmetry(self):
        m = np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]])
        out = check_symmetric(m)
        np.testing.assert_array_equal(out, out.T)

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValueError):
            check_symmetric([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonfinite_and_nonsquare(self):
        with pytest.raises(ValueError):
            check_symmetric([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            check_symmetric(np.ones((2, 3)))
        with pytest.raises(ValueError):
            check_symmetric(np.ones(3))


class TestSignature:
    def test_zero_matrix(self):
        assert signature(np.zeros((3, 3))) == (0, 0, 3)

    def test_tolerance_band(self):
        m = np.diag([5.0, -3.0, 1e-14])
        assert signature(m) == (1, 1, 1)

    def test_band_scales_with_spectrum(self):
        # 1e-8 is negligible next to 1e4, so it falls inside the band.
        assert signature(np.diag([1e4, 1e-8])) == (1, 0, 1)
        assert signature(np.diag([1.0, 1e-8])) == (2, 0, 0)

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = symmetrize(rng.standard_normal((4, 4)))
            scale = float(rng.uniform(0.1, 100.0))
            assert signature(m) == signature(scale * m)

    def test_counts_sum_to_dimension(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            d = int(rng.integers(1, 7))
            sig = signature(symmetrize(rng.standard_normal((d, d))))
            assert sig.n_plus + sig.n_minus + sig.n_zero == d


@st.composite
def embedded_states(draw):
    """A ``3 x 3`` state and a ``q_n``, built from a random eigenbasis with
    eigenvalues at 0, +-band/2, +-2 band and +-3 band of the full tensor's
    band, or at the spectral scale; ``"trace"`` states have a near-zero
    trace and ``"minors"`` states a near-zero sum of 2 x 2 minors."""
    q_n = 10.0 ** draw(st.floats(-13.0, 9.0))
    scale = 10.0 ** draw(st.floats(-3.0, 17.0))
    band = SIGNATURE_TOL * max(1.0, q_n, scale)
    near = [0.0, band / 2, -band / 2, 2 * band, -2 * band, 3 * band, -3 * band]
    sign = draw(st.sampled_from([1.0, -1.0]))
    small = draw(st.sampled_from(near))
    kind = draw(st.sampled_from(["free", "trace", "minors"]))
    if kind == "trace":
        lam = [sign * scale, -sign * scale, small]
    elif kind == "minors":
        lam = [sign * scale, sign * scale, -sign * scale / 2 + small]
    else:
        pool = near + [scale, -scale, scale / 3, -scale / 3]
        lam = [sign * scale, small, draw(st.sampled_from(pool))]
    seed = draw(st.integers(0, 2**32 - 1))
    v, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return symmetrize((v * lam) @ v.T), q_n


def symmetrize_stack(m):
    return 0.5 * (m + m.swapaxes(-1, -2))


def full_signature(states, q_n):
    return tuple(
        np.array(c) for c in zip(*(signature(embed_full(q, q_n)) for q in states))
    )


class TestEmbeddedInertia:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=embedded_states())
    def test_matches_full_tensor_signature(self, case):
        q, q_n = case
        got = embedded_inertia(q[None], q_n)
        for g, e in zip(got, full_signature([q], q_n)):
            np.testing.assert_array_equal(g, e)

    def test_hits_closed_form_and_fallback(self, monkeypatch):
        # The fallback is the only eigvalsh call: spy on the states it gets.
        eigvalsh = np.linalg.eigvalsh
        seen = []
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: seen.append(len(a)) or eigvalsh(a)
        )
        rng = np.random.default_rng(5)
        q_n = 1.0
        band = SIGNATURE_TOL
        lam = np.array([[1.0, 0.5, -0.3], [1.0, -1.0, band / 2], [2.0, 1.0, 0.0],
                        [1.0, 1.0, -0.5], [-1.0, 2 * band, -3 * band],
                        [1e12, -5e11, 3e11]])
        v, _ = np.linalg.qr(rng.standard_normal((len(lam), 3, 3)))
        states = symmetrize_stack((v * lam[:, None, :]) @ v.transpose(0, 2, 1))
        got = embedded_inertia(states, q_n)
        # Uncertified: an eigenvalue at band/2 or 0, and two eigenvalues so
        # small that |det| / ||q||_F**2 no longer bounds them off the band.
        # Certified: q_n = 1 inside the band of the state of norm 1e12.
        assert seen == [3]
        for g, e in zip(got, full_signature(states, q_n)):
            np.testing.assert_array_equal(g, e)

    def test_zero_state_falls_back_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = embedded_inertia(np.zeros((2, 3, 3)), 1.0)
        assert [c.tolist() for c in counts] == [[1, 1], [0, 0], [3, 3]]

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_other_dimensions_use_eigvalsh(self, d):
        rng = np.random.default_rng(d)
        states = symmetrize_stack(rng.standard_normal((6, d, d)))
        got = embedded_inertia(states, 0.5)
        for g, e in zip(got, full_signature(states, 0.5)):
            np.testing.assert_array_equal(g, e)


class TestIsoTraceless:
    def test_worked_example(self):
        q, s = iso_traceless(np.diag([-3.0, -2.0, -2.5]))
        assert q == pytest.approx(-2.5)
        np.testing.assert_allclose(s, np.diag([-0.5, 0.5, 0.0]), atol=1e-14)

    def test_decomposition_orthogonal(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = symmetrize(rng.standard_normal((4, 4)))
            q, s = iso_traceless(m)
            assert abs(np.trace(s)) < 1e-12
            # Frobenius inner product of the two parts vanishes.
            assert abs(np.sum(q * np.eye(4) * s)) < 1e-12
            np.testing.assert_allclose(q * np.eye(4) + s, m, atol=1e-14)


class TestNormsAndMargins:
    def test_operator_norm_rank_one(self):
        v = np.array([1.0, 2.0, np.sqrt(2.0)])
        assert operator_norm(np.outer(v, v)) == pytest.approx(7.0, abs=1e-12)

    def test_operator_norm_sign_insensitive(self):
        assert operator_norm(np.diag([-5.0, 2.0])) == pytest.approx(5.0)

    def test_stability_margin(self):
        assert stability_margin(np.diag([-3.0, 0.5, 2.0])) == pytest.approx(0.5)

    def test_separation_example(self):
        holds, q, s_norm = separation_check(np.diag([-3.0, -2.0, -2.5]))
        assert holds and q == pytest.approx(-2.5) and s_norm == pytest.approx(0.5)

    def test_separation_failure(self):
        holds, q, s_norm = separation_check(np.diag([1.0, -1.0]))
        assert not holds and q == pytest.approx(0.0) and s_norm == pytest.approx(1.0)

    def test_separation_forces_uniform_sign(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            m = symmetrize(rng.standard_normal((4, 4)))
            holds, q, _ = separation_check(m)
            if holds:
                expected = (4, 0, 0) if q > 0 else (0, 4, 0)
                assert signature(m) == expected


class TestPerturbationBound:
    def test_true_and_false_cases(self):
        m = np.diag([2.0, -1.0])
        assert perturbation_preserves_signature(m, 0.5 * np.eye(2))
        assert not perturbation_preserves_signature(m, 1.5 * np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            perturbation_preserves_signature(np.eye(2), np.eye(3))

    def test_guarantee_holds_random(self):
        # Whenever the bound accepts, the signature must actually survive.
        rng = np.random.default_rng(25)
        accepted = 0
        for _ in range(200):
            d = int(rng.integers(2, 6))
            w = rng.uniform(0.2, 3.0, d) * rng.choice([-1.0, 1.0], d)
            basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
            m = basis @ np.diag(w) @ basis.T
            a = symmetrize(rng.standard_normal((d, d)))
            a *= rng.uniform(0.0, 1.3) / max(operator_norm(a), 1e-12)
            if perturbation_preserves_signature(m, a):
                accepted += 1
                assert signature(m + a) == signature(m)
        assert accepted > 20  # the accepting branch is actually exercised


class TestCheckBudget:
    def test_refuses_one_float_over_the_budget(self):
        # Sizes only: the check allocates nothing.
        check_budget((2, ARRAY_BUDGET // 16), "n_steps, burn_in")
        with pytest.raises(ValueError, match=r"^n_steps, burn_in ask for .* budget$"):
            check_budget((2, ARRAY_BUDGET // 16 + 1), "n_steps, burn_in")

    def test_sizes_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="n_traj ask for"):
            check_budget((3, 10**300, 101, 3, 3), "n_traj")
