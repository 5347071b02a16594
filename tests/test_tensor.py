"""Tests for symmetric-tensor algebra: elimination, inertia, margins."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurflow import (
    BlockGenerator,
    BlockQuadratic,
    FastSectorNotPD,
    FlowConfig,
    GridSpec,
    LinearSDE,
    MinimalModelSpec,
    check_symmetric,
    embed_full,
    operator_norm,
    perturbation_preserves_signature,
    run_trajectory,
    schur_complement,
    signature,
    stability_margin,
    symmetrize,
)
from schurflow.tensor import (
    ARRAY_BUDGET, SIGNATURE_TOL, check_budget, check_pd, count_inertia, embedded_negatives,
    packed_index, unpack_symmetric,
)


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


@st.composite
def block_stacks(draw):
    """Stacked block forms over batch shapes ``(n,)`` and ``(n, m)``, with
    ``d_s`` and ``d_f`` drawn apart and each member at its own scale, so
    that members' zero bands differ by up to twelve decades."""
    batch = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    d_s, d_f = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-6.0, 6.0, (*batch, 1, 1))
    a = symmetrize(rng.standard_normal((*batch, d_s, d_s))) * scale
    b = rng.standard_normal((*batch, d_s, d_f)) * scale
    g = rng.standard_normal((*batch, d_f, d_f))
    c = (g @ np.swapaxes(g, -1, -2) + 0.5 * np.eye(d_f)) * scale
    return a, b, c


class TestStackedSchurComplement:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(blocks=block_stacks())
    def test_equals_loop_of_single_calls_bitwise(self, blocks):
        a, b, c = blocks
        stacked = BlockQuadratic(a=a, b=b, c=c)
        batch = a.shape[:-2]
        singles = [BlockQuadratic(a=a[i], b=b[i], c=c[i]) for i in np.ndindex(batch)]
        loop = np.stack([schur_complement(q) for q in singles]).reshape(*batch, a.shape[-1], -1)
        assert schur_complement(stacked).tobytes() == loop.tobytes()
        full = np.stack([q.full() for q in singles]).reshape(stacked.full().shape)
        assert stacked.full().tobytes() == full.tobytes()
        assert (stacked.d_s, stacked.d_f) == (singles[0].d_s, singles[0].d_f)

    def test_non_pd_member_is_named(self):
        c = np.tile(np.eye(2), (2, 3, 1, 1))
        c[1, 2] = np.diag([1.0, -0.5])
        c[1, 0] = np.diag([1.0, -0.25])
        q = BlockQuadratic(a=np.tile(np.eye(2), (2, 3, 1, 1)), b=np.zeros((2, 3, 2, 2)), c=c)
        with pytest.raises(
            FastSectorNotPD,
            match=r"^fast block\[1, 0\] has eigenvalue -2\.500e-01 <= tolerance 1\.000e-10;",
        ):
            schur_complement(q)

    def test_pd_band_is_set_per_member(self):
        # The large member's band is 1e-10 * 1e12 = 100.  The small member's
        # eigenvalue 1e-5 clears its own band, 1e-10, so the stack is accepted
        # as each member is alone; one band over the stack would refuse it.
        c = np.stack([1e12 * np.eye(2), np.diag([1.0, 1e-5])])
        q = BlockQuadratic(a=np.tile(np.eye(2), (2, 1, 1)), b=np.ones((2, 2, 2)), c=c)
        single = BlockQuadratic(a=np.eye(2), b=np.ones((2, 2)), c=c[1])
        assert schur_complement(q)[1].tobytes() == schur_complement(single).tobytes()

    @pytest.mark.parametrize("block", ["a", "c"])
    def test_asymmetric_member_is_refused(self, block):
        blocks = {"a": np.tile(np.eye(2), (3, 1, 1)), "b": np.zeros((3, 2, 2)),
                  "c": np.tile(np.eye(2), (3, 1, 1))}
        blocks[block][2, 0, 1] = 1.0
        with pytest.raises(
            ValueError, match=rf"^{block}\[2\]: asymmetry 1\.000e\+00 exceeds tolerance"
        ):
            BlockQuadratic(**blocks)

    def test_symmetry_tolerance_is_set_per_member(self):
        # Asymmetry 1e-6 is roundoff next to 1e12 but not next to 1.
        a = np.stack([1e12 * np.eye(2), np.eye(2)])
        a[1, 0, 1] = 1e-6
        with pytest.raises(ValueError, match=r"^a\[1\]: asymmetry"):
            BlockQuadratic(a=a, b=np.zeros((2, 2, 2)), c=np.tile(np.eye(2), (2, 1, 1)))

    def test_leading_axes_of_a_fix_those_of_b_and_c(self):
        stack = np.tile(np.eye(2), (3, 1, 1))
        with pytest.raises(
            ValueError,
            match=r"^c: expected square matrices over leading axes \(3,\), got shape \(2, 2\)$",
        ):
            BlockQuadratic(a=stack, b=np.zeros((3, 2, 2)), c=np.eye(2))
        with pytest.raises(ValueError, match=r"^b: expected shape \(3, 2, 2\), got \(2, 2\)$"):
            BlockQuadratic(a=stack, b=np.zeros((2, 2)), c=stack)
        with pytest.raises(ValueError, match=r"^c: expected a square matrix, got shape \(3, 2, 2\)$"):
            BlockQuadratic(a=np.eye(2), b=np.zeros((2, 2)), c=stack)


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

    def test_shape_is_checked_under_its_name(self):
        with pytest.raises(ValueError, match=r"^x: expected shape \(2, 2\), got \(3, 3\)$"):
            check_symmetric(np.eye(3), "x", shape=(2, 2))
        np.testing.assert_array_equal(check_symmetric(np.eye(2), "x", (2, 2)), np.eye(2))


class TestSymmetrize:
    @pytest.mark.parametrize("batch", [(7,), (2, 3)])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_stack_equals_per_slice(self, batch, d):
        stack = np.random.default_rng(d).standard_normal((*batch, d, d))
        slices = np.stack([0.5 * (m + m.T) for m in stack.reshape(-1, d, d)])
        assert symmetrize(stack).tobytes() == slices.tobytes()


@st.composite
def spectra_near_band(draw):
    """Eigenvalues of scale up to ``10**12``, one of them a few band widths
    either side of ``+band`` or ``-band``, ``band = SIGNATURE_TOL * max(1,
    max |w|)``."""
    scale = 10.0 ** draw(st.floats(-3.0, 12.0))
    rest = draw(st.lists(st.floats(-0.2, 1.0), min_size=0, max_size=4))
    w = [scale] + [scale * u for u in rest]
    band = SIGNATURE_TOL * max(1.0, scale)
    edge = draw(st.sampled_from([1.0, -1.0])) * band
    offset = draw(st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]))
    w.insert(draw(st.integers(0, len(w))), edge + offset * band)
    return np.array(w)


class TestCheckPD:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(w=spectra_near_band())
    def test_fails_exactly_where_inertia_finds_a_non_positive(self, w):
        try:
            check_pd(w, "w")
            raised = False
        except ValueError:
            raised = True
        assert raised == (count_inertia(w)[0] < len(w))


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

    def test_refuses_a_stack(self):
        # Only BlockQuadratic and schur_complement take leading axes.
        with pytest.raises(
            ValueError, match=r"^matrix: expected a square matrix, got shape \(2, 2, 2\)$"
        ):
            signature(np.zeros((2, 2, 2)))

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


def pack(states):
    """Packed components, along a new first axis, of a stack of symmetric
    states: the diagonal, then the upper off-diagonal entries row by row."""
    states = np.asarray(states, dtype=float)
    d = states.shape[-1]
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    return np.stack([states[..., i, j] for i, j in [(i, i) for i in range(d)] + upper])


class TestPackedLayout:
    def test_component_order(self):
        q = np.array([[1.0, 4.0, 5.0], [4.0, 2.0, 6.0], [5.0, 6.0, 3.0]])
        np.testing.assert_array_equal(pack(q), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        np.testing.assert_array_equal(packed_index(3), [0, 4, 8, 1, 2, 5])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_unpack_inverts_pack(self, d):
        states = symmetrize(np.random.default_rng(d).standard_normal((2, 4, d, d)))
        p = pack(states)
        assert p.shape == (d * (d + 1) // 2, 2, 4)
        np.testing.assert_array_equal(unpack_symmetric(p), states)
        np.testing.assert_array_equal(np.ravel(states[1, 2])[packed_index(d)], p[:, 1, 2])


def full_negatives(states, q_n):
    return np.array([signature(embed_full(q, q_n)).n_minus for q in states])


class TestEmbeddedInertia:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=embedded_states())
    def test_matches_full_tensor_signature(self, case):
        q, q_n = case
        got = embedded_negatives(pack(q[None]), q_n)
        np.testing.assert_array_equal(got, full_negatives([q], q_n))

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
        states = symmetrize((v * lam[:, None, :]) @ v.transpose(0, 2, 1))
        got = embedded_negatives(pack(states), q_n)
        # Uncertified: an eigenvalue at band/2 or 0, and two eigenvalues so
        # small that |det| / ||q||_F**2 no longer bounds them off the band.
        # Certified: the state of norm 1e12, whose band holds q_n = 1.
        assert seen == [3]
        np.testing.assert_array_equal(got, full_negatives(states, q_n))

    @pytest.mark.parametrize("q_n", [1.0, 1e-13])
    def test_near_zero_coefficients_match_eigvalsh(self, monkeypatch, q_n):
        # Rotated s diag(1, 1, -2) has a trace that is zero up to rounding,
        # and s diag(1, 2, -2/3) and s diag(3, -1, 3/2) a sum of 2 x 2 minors
        # that is.  The closed form certifies them all with an uncertain sign.
        eigvalsh = np.linalg.eigvalsh
        seen = []
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: seen.append(len(a)) or eigvalsh(a)
        )
        rng = np.random.default_rng(8)
        s = np.outer([1.0, -1.0], 10.0 ** np.arange(-4, 9, 2)).ravel()
        lam = np.concatenate([
            s[:, None] * spectrum
            for spectrum in ([1.0, 1.0, -2.0], [1.0, 2.0, -2.0 / 3.0], [3.0, -1.0, 1.5])
        ])
        v, _ = np.linalg.qr(rng.standard_normal((len(lam), 3, 3)))
        states = symmetrize((v * lam[:, None, :]) @ v.transpose(0, 2, 1))
        got = embedded_negatives(pack(states), q_n)
        monkeypatch.undo()
        assert seen == []
        np.testing.assert_array_equal(got, full_negatives(states, q_n))

    def test_zero_state_falls_back_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n_minus = embedded_negatives(pack(np.zeros((2, 3, 3))), 1.0)
        assert n_minus.tolist() == [0, 0]

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_other_dimensions_use_eigvalsh(self, d):
        rng = np.random.default_rng(d)
        states = symmetrize(rng.standard_normal((6, d, d)))
        got = embedded_negatives(pack(states), 0.5)
        np.testing.assert_array_equal(got, full_negatives(states, 0.5))


class TestNormsAndMargins:
    def test_operator_norm_rank_one(self):
        v = np.array([1.0, 2.0, np.sqrt(2.0)])
        assert operator_norm(np.outer(v, v)) == pytest.approx(7.0, abs=1e-12)

    def test_operator_norm_sign_insensitive(self):
        assert operator_norm(np.diag([-5.0, 2.0])) == pytest.approx(5.0)

    def test_stability_margin(self):
        assert stability_margin(np.diag([-3.0, 0.5, 2.0])) == pytest.approx(0.5)

    # The separation test is run_trajectory's, over a trajectory's states:
    # its first record is the initial state, q_t = q I + s.
    def test_separation_example(self):
        config = FlowConfig(k_max=1, q_init=np.diag([-3.0, -2.0, -2.5]))
        record = run_trajectory(config, 0, 1)
        assert record.separation_holds[0]
        assert record.q[0] == pytest.approx(-2.5)
        assert record.s_opnorm[0] == pytest.approx(0.5)

    def test_separation_failure(self):
        config = FlowConfig(k_max=1, d_tan=2, q_init=np.diag([1.0, -1.0]))
        record = run_trajectory(config, 0, 1)
        assert not record.separation_holds[0]
        assert record.q[0] == pytest.approx(0.0)
        assert record.s_opnorm[0] == pytest.approx(1.0)

    def test_separation_forces_uniform_sign(self):
        # Wherever |q| > ||s||_op, every tangential eigenvalue has the sign
        # of q; the normal sector q_n = 1 adds one positive direction.
        seen = {-1: 0, 1: 0}
        for seed in range(10):
            record = run_trajectory(FlowConfig(zeta=0.3, a0=0.5, d_tan=4), seed, [seed, 1])
            holds = record.separation_holds
            assert np.all(record.n_plus[holds & (record.q < 0)] == 1)
            assert np.all(record.n_minus[holds & (record.q > 0)] == 0)
            for sign in seen:
                seen[sign] += np.count_nonzero(holds & (np.sign(record.q) == sign))
        assert min(seen.values()) > 0


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


# Two factories per dataclass with array fields: equal instances come from
# one factory called twice, an unequal one from the other.
EQUALITY_CASES = {
    "FlowConfig": (
        lambda: FlowConfig(q_init=np.eye(3)),
        lambda: FlowConfig(q_init=np.diag([1.0, 1.0, -1.0])),
    ),
    "LinearSDE": (
        lambda: LinearSDE(np.eye(2), np.eye(2)),
        lambda: LinearSDE(np.eye(2), 2.0 * np.eye(2)),
    ),
    "BlockGenerator": (
        lambda: BlockGenerator(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.eye(1)),
        lambda: BlockGenerator(np.eye(2), np.zeros((2, 1)), np.ones((1, 2)), np.eye(1)),
    ),
    "BlockQuadratic": (
        lambda: BlockQuadratic(np.eye(2), np.ones((2, 1)), np.eye(1)),
        lambda: BlockQuadratic(np.eye(2), np.ones((2, 3)), np.eye(3)),
    ),
    "GridSpec": (
        lambda: GridSpec([0.0, 1.0], [0.0, 0.3]),
        lambda: GridSpec([0.0, 0.5, 1.0], [0.0, 0.3]),
    ),
    "MinimalModelSpec": (
        lambda: MinimalModelSpec(b0=np.eye(2)),
        lambda: MinimalModelSpec(b0=2.0 * np.eye(2)),
    ),
    "TrajectoryRecord": (
        lambda: run_trajectory(FlowConfig(zeta=0.1, k_max=5), [0, 0], [0, 0, 1]),
        lambda: run_trajectory(FlowConfig(zeta=0.1, k_max=5), [0, 0], [0, 0, 2]),
    ),
}


class TestFieldsEqual:
    """One array-aware ``__eq__`` serves every dataclass with array fields."""

    @pytest.mark.parametrize("name", list(EQUALITY_CASES))
    def test_equal_instances(self, name):
        build, _ = EQUALITY_CASES[name]
        first, second = build(), build()
        assert type(first).__name__ == name
        assert first == second
        assert not first != second

    @pytest.mark.parametrize("name", list(EQUALITY_CASES))
    def test_unequal_instances(self, name):
        build, build_other = EQUALITY_CASES[name]
        first, other = build(), build_other()
        assert first != other
        assert not first == other
        assert first != "not a dataclass"

    def test_default_flow_configs_stay_equal_and_hashable(self):
        assert FlowConfig() == FlowConfig()
        assert hash(FlowConfig()) == hash(FlowConfig())
        assert FlowConfig(q_init=np.eye(3)) != FlowConfig()

    def test_nested_configs_compare_by_their_arrays(self):
        def spec(q_init):
            return GridSpec([0.0, 1.0], [0.0, 0.3], base_config=FlowConfig(q_init=q_init))

        assert spec(np.eye(3)) == spec(np.eye(3))
        assert spec(np.eye(3)) != spec(2.0 * np.eye(3))

    def test_uncompared_fields_are_skipped(self):
        # gamma is derived from m and d_mat and declared compare=False.
        first, second = LinearSDE(np.eye(2), np.eye(2)), LinearSDE(np.eye(2), np.eye(2))
        object.__setattr__(second, "gamma", np.zeros((2, 2)))
        assert first == second
