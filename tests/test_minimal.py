"""Tests for the minimal coherence-sensitivity model.

The eliminated tensor has the closed form ``I - (chi**2 / g) b0 b0.T``, so
its smallest eigenvalue is ``1 - chi**2 sigma_max(b0)**2 / g`` and the
threshold sits at ``chi = sqrt(g) / sigma_max(b0)``.  Every numerical
output is checked against that closed form through an SVD oracle.
"""

import numpy as np
import pytest

import schurflow.minimal as minimal_mod
import schurflow.tensor as tensor_mod
from schurflow import MinimalModelSpec, b_eff_final, build_blocks, minimal_scan


def closed_form_b_eff(spec: MinimalModelSpec) -> float:
    sigma_max = np.linalg.svd(spec.coupling(), compute_uv=False)[0]
    return 1.0 - spec.chi**2 * sigma_max**2 / spec.g


def per_cell_b_eff(chi, g, b0):
    """``b_eff`` of every ``(chi, g)`` cell, one 2-D elimination per cell in
    the order of operations the scan has always used: symmetrized blocks,
    ``eigh`` of the fast block, ``b v``, the correction ``(b v / w) (b v).T``
    and the symmetrized difference.  Written here, apart from the library."""
    d_s, d_f = b0.shape
    out = np.empty((chi.size, g.size))
    for i, chi_i in enumerate(chi):
        for j, g_j in enumerate(g):
            a = np.eye(d_s)
            b = float(chi_i) * b0
            c = float(g_j) * np.eye(d_f)
            w, v = np.linalg.eigh(0.5 * (c + c.T))
            bv = b @ v
            q_eff = 0.5 * (a + a.T) - (bv / w) @ bv.T
            out[i, j] = np.linalg.eigvalsh(0.5 * (q_eff + q_eff.T))[0]
    return out


class TestBEffFinal:
    def test_matches_closed_form_identity_coupling(self):
        for chi in (0.0, 0.3, 1.0, 1.7):
            for g in (0.5, 1.0, 4.0):
                spec = MinimalModelSpec(chi=chi, g=g)
                assert b_eff_final(spec) == pytest.approx(
                    closed_form_b_eff(spec), abs=1e-12
                )

    def test_matches_closed_form_random_coupling(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d_s = int(rng.integers(1, 4))
            d_f = int(rng.integers(1, 4))
            spec = MinimalModelSpec(
                chi=float(rng.uniform(0.0, 2.0)),
                g=float(rng.uniform(0.2, 3.0)),
                d_s=d_s,
                d_f=d_f,
                b0=rng.standard_normal((d_s, d_f)),
            )
            assert b_eff_final(spec) == pytest.approx(
                closed_form_b_eff(spec), abs=1e-10
            )

    def test_decreases_with_coupling(self):
        values = [b_eff_final(MinimalModelSpec(chi=c)) for c in np.linspace(0, 2, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_sign_change_across_threshold(self):
        g = 1.3
        threshold = np.sqrt(g)
        assert b_eff_final(MinimalModelSpec(chi=0.9 * threshold, g=g)) > 0
        assert b_eff_final(MinimalModelSpec(chi=1.1 * threshold, g=g)) < 0

    def test_vanishes_at_threshold(self):
        for g in (0.5, 1.0, 2.0):
            spec = MinimalModelSpec(chi=float(np.sqrt(g)), g=g)
            assert abs(b_eff_final(spec)) <= 1e-12

    def test_uncoupled_model_is_marginal_free(self):
        assert b_eff_final(MinimalModelSpec(chi=0.0, g=2.0)) == pytest.approx(1.0)


class TestBuildBlocks:
    def test_block_layout(self):
        spec = MinimalModelSpec(chi=0.5, g=2.0)
        q = build_blocks(spec)
        np.testing.assert_array_equal(q.a, np.eye(2))
        np.testing.assert_array_equal(q.b, 0.5 * np.eye(2))
        np.testing.assert_array_equal(q.c, 2.0 * np.eye(2))

    def test_rectangular_coupling_default(self):
        spec = MinimalModelSpec(d_s=2, d_f=3)
        np.testing.assert_array_equal(spec.coupling(), np.eye(2, 3))


class TestSpecValidation:
    def test_invalid_scalars(self):
        with pytest.raises(ValueError, match="chi"):
            MinimalModelSpec(chi=-0.1)
        with pytest.raises(ValueError, match="g must"):
            MinimalModelSpec(g=0.0)
        with pytest.raises(ValueError, match="d_s"):
            MinimalModelSpec(d_s=0)

    def test_invalid_coupling(self):
        with pytest.raises(ValueError, match="expected shape"):
            MinimalModelSpec(b0=np.ones((3, 3)))
        with pytest.raises(ValueError, match="non-zero"):
            MinimalModelSpec(b0=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            MinimalModelSpec(b0=np.full((2, 2), np.nan))


class TestScan:
    def test_contour_tracks_analytic_threshold(self):
        chi = np.linspace(0.0, 2.0, 20)
        g = np.linspace(0.5, 2.0, 20)
        result = minimal_scan(chi, g)
        assert result.b_eff.shape == (20, 20)
        assert not result.contour.is_empty
        half_cell_chi = 0.5 * (chi[1] - chi[0])
        for x, y in result.contour.points():
            assert abs(x - np.sqrt(y)) <= half_cell_chi

    def test_field_matches_closed_form(self):
        chi = np.linspace(0.0, 1.5, 6)
        g = np.linspace(0.5, 1.5, 5)
        result = minimal_scan(chi, g)
        for i, chi_i in enumerate(chi):
            for j, g_j in enumerate(g):
                expected = closed_form_b_eff(MinimalModelSpec(chi=chi_i, g=g_j))
                assert result.b_eff[i, j] == pytest.approx(expected, abs=1e-12)

    def test_template_coupling_shifts_threshold(self):
        b0 = np.array([[2.0, 0.0], [0.0, 0.5]])
        template = MinimalModelSpec(b0=b0)
        chi = np.linspace(0.0, 1.0, 30)
        g = np.linspace(0.5, 1.5, 10)
        result = minimal_scan(chi, g, template=template)
        half_cell_chi = 0.5 * (chi[1] - chi[0])
        # sigma_max(b0) = 2 moves the threshold to chi = sqrt(g) / 2.
        for x, y in result.contour.points():
            assert abs(x - 0.5 * np.sqrt(y)) <= half_cell_chi

    # The CLI's default axes.
    CHI = np.linspace(0.0, 2.0, 50)
    G = np.linspace(0.5, 2.0, 50)

    @pytest.mark.parametrize(
        "b0",
        [None, np.array([[1.0, 0.5], [0.2, 0.8]]),
         np.random.default_rng(5).standard_normal((3, 4))],
        ids=["default", "2x2", "3x4"],
    )
    def test_equals_per_cell_loop_bitwise(self, b0):
        template = MinimalModelSpec() if b0 is None else MinimalModelSpec(
            d_s=b0.shape[0], d_f=b0.shape[1], b0=b0
        )
        result = minimal_scan(self.CHI, self.G, template=template)
        expected = per_cell_b_eff(self.CHI, self.G, template.coupling())
        assert result.b_eff.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "chi, g, message",
        [
            ([-1.0, 1.0], [0.5, 1.0], "chi must be finite and non-negative, got -1.0"),
            ([0.0, 1.0], [0.0, 1.0], "g must be finite and positive, got 0.0"),
            ([0.0, 1.0], [-2.0, 1.0], "g must be finite and positive, got -2.0"),
            ([-1.0, 1.0], [0.0, 1.0], "chi must be finite and non-negative, got -1.0"),
        ],
        ids=["negative-chi", "zero-g", "negative-g", "both"],
    )
    def test_axes_are_refused_as_a_cell_spec_refuses_them(self, chi, g, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            minimal_scan(chi, g)

    def test_one_elimination_within_the_budget(self, monkeypatch):
        calls = []
        schur = minimal_mod.schur_complement
        monkeypatch.setattr(
            minimal_mod, "schur_complement", lambda q: calls.append(q) or schur(q)
        )
        # 30 floats per cell of the 2 x 2 default: a, b, c, w, v, b v, the
        # correction and q_eff.
        monkeypatch.setattr(tensor_mod, "ARRAY_BUDGET", 8 * 30 * 50 * 50)
        minimal_scan(self.CHI, self.G)
        assert len(calls) == 1

    def test_over_budget_is_refused_before_elimination(self, monkeypatch):
        def eliminated(q):
            raise AssertionError("schur_complement was called")

        monkeypatch.setattr(minimal_mod, "schur_complement", eliminated)
        monkeypatch.setattr(tensor_mod, "ARRAY_BUDGET", 8 * 30 * 50 * 50 - 1)
        with pytest.raises(ValueError, match=r"^chi_values, g_values ask for .* budget$"):
            minimal_scan(self.CHI, self.G)
