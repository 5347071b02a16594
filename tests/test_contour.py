"""Tests for marching-squares level-set extraction."""

import numpy as np
import pytest

from schurflow import find_contour


class TestBasicShapes:
    def test_constant_field_is_empty(self):
        curve = find_contour([0.0, 1.0], [0.0, 1.0], np.full((2, 2), 0.3), 0.5)
        assert curve.is_empty
        assert curve.points().shape == (0, 2)

    def test_vertical_step(self):
        # Field jumps from 0 to 1 along x: contour is the vertical midline.
        curve = find_contour([0.0, 1.0], [0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]], 0.5)
        assert curve.n_components == 1
        pts = curve.points()
        np.testing.assert_allclose(pts[:, 0], 0.5, atol=1e-15)
        assert set(np.round(pts[:, 1], 12)) == {0.0, 1.0}

    def test_linear_field_contour_is_exact(self):
        # f = y - x vanishes on the diagonal; linear interpolation is exact.
        x = np.linspace(0.0, 1.0, 11)
        y = np.linspace(0.0, 1.0, 11)
        f = y[None, :] - x[:, None]
        curve = find_contour(x, y, f, 0.0)
        pts = curve.points()
        assert len(pts) > 0
        np.testing.assert_allclose(pts[:, 1], pts[:, 0], atol=1e-12)

    def test_interpolation_position(self):
        # Crossing between nodes at 0.2 and 0.8 sits at t = (0.5-0.2)/0.6.
        curve = find_contour([0.0, 1.0], [0.0, 1.0], [[0.2, 0.2], [0.8, 0.8]], 0.5)
        np.testing.assert_allclose(curve.points()[:, 0], 0.5, atol=1e-15)

    def test_circle_is_single_closed_loop(self):
        x = np.linspace(-2.0, 2.0, 41)
        y = np.linspace(-2.0, 2.0, 41)
        f = -(x[:, None] ** 2 + y[None, :] ** 2)
        curve = find_contour(x, y, f, -1.0)
        assert curve.n_components == 1
        poly = curve.polylines[0]
        # closed: walk returns to its starting edge
        np.testing.assert_allclose(poly[0], poly[-1], atol=1e-12)
        radii = np.hypot(poly[:, 0], poly[:, 1])
        np.testing.assert_allclose(radii, 1.0, atol=0.02)

    def test_two_separate_blobs(self):
        x = np.linspace(0.0, 10.0, 21)
        y = np.linspace(0.0, 10.0, 21)
        f = np.exp(-((x[:, None] - 2.5) ** 2 + (y[None, :] - 5.0) ** 2)) + np.exp(
            -((x[:, None] - 7.5) ** 2 + (y[None, :] - 5.0) ** 2)
        )
        curve = find_contour(x, y, f, 0.5)
        assert curve.n_components == 2


class TestSharedEdges:
    def test_adjacent_cells_chain_exactly(self):
        # A slanted linear field crosses many cells; every junction between
        # consecutive polyline points comes from a shared, cached edge point,
        # so chains never break on roundoff.
        x = np.linspace(0.0, 3.0, 7)
        y = np.linspace(0.0, 2.0, 5)
        f = 0.7 * x[:, None] + 0.3 * y[None, :] - 1.1
        curve = find_contour(x, y, f, 0.0)
        assert curve.n_components == 1


class TestSaddles:
    def test_saddle_resolved_by_center_average(self):
        # Diagonal corners high, anti-diagonal low; center = 0.5 decides.
        f_hi = np.array([[1.0, 0.0], [0.0, 1.0]])
        curve = find_contour([0.0, 1.0], [0.0, 1.0], f_hi, 0.4)
        assert curve.n_components == 2
        curve2 = find_contour([0.0, 1.0], [0.0, 1.0], f_hi, 0.6)
        assert curve2.n_components == 2

    def test_saddle_curves_do_not_cross(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        curve = find_contour([0.0, 1.0], [0.0, 1.0], f, 0.4)
        # both chains have two points and stay on their own side
        for poly in curve.polylines:
            assert len(poly) == 2


class TestNaNHandling:
    def test_nan_corner_skips_cells(self):
        f = np.array([[0.0, 0.0, 0.0], [1.0, np.nan, 1.0], [1.0, 1.0, 1.0]])
        curve = find_contour([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], f, 0.5)
        assert curve.skipped_cells == 4  # the NaN node touches all four cells

    def test_all_nan_field(self):
        f = np.full((2, 2), np.nan)
        curve = find_contour([0.0, 1.0], [0.0, 1.0], f, 0.5)
        assert curve.is_empty and curve.skipped_cells == 1


class TestValidation:
    def test_rejects_bad_axes(self):
        with pytest.raises(ValueError):
            find_contour([0.0], [0.0, 1.0], np.zeros((1, 2)), 0.5)
        with pytest.raises(ValueError):
            find_contour([1.0, 0.0], [0.0, 1.0], np.zeros((2, 2)), 0.5)
        with pytest.raises(ValueError):
            find_contour([0.0, np.inf], [0.0, 1.0], np.zeros((2, 2)), 0.5)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            find_contour([0.0, 1.0], [0.0, 1.0], np.zeros((3, 2)), 0.5)

    def test_rejects_nonfinite_level(self):
        with pytest.raises(ValueError):
            find_contour([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)), np.nan)


class TestPinnedOutput:
    def test_polylines_and_skipped_cells_are_pinned(self):
        # Cell (0, 0) is a case-5 saddle with its centre outside, cell (1, 0)
        # a case-10 saddle with its centre inside.  Node (1, 3) sits exactly
        # at the level with every neighbour inside, so its four cells give
        # degenerate segments, all dropped; node (3, 5) sits at the level
        # next to outside nodes, so a crossing lands on it.  The NaN and inf
        # nodes skip six cells, and node (1, 6) is ringed by a closed loop.
        # The literal fixes every point's bytes, the polyline order and each
        # polyline's direction.
        nan, inf = np.nan, np.inf
        f = np.array([
            [1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0],
            [-1.0, 1.0, 1.0, 0.0, 1.0, -1.0, 1.0, -1.0],
            [2.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0],
            [0.5, nan, -0.5, 2.0, -1.0, 0.0, -1.0, -1.0],
            [-1.0, 0.3, 1.0, inf, 0.7, 1.0, -1.0, -1.0],
        ])
        x = [0.0, 1.0, 2.5, 3.0, 4.5]
        y = [0.0, 0.5, 1.5, 2.0, 3.0, 3.5, 4.5, 5.0]
        curve = find_contour(x, y, f, 0.0)
        expected = [
            [[0.5, 0.0], [0.0, 0.25]],
            [[0.0, 1.0], [0.5, 0.5], [1.0, 0.25], [1.5, 0.0]],
            [[0.0, 3.25], [1.0, 3.25], [2.5, 3.25], [2.75, 3.0],
             [3.0, 2.6666666666666665]],
            [[2.5, 0.3333333333333333], [1.75, 0.5], [2.5, 1.0]],
            [[2.8333333333333335, 1.5], [3.0, 1.6]],
            [[3.8823529411764706, 3.0], [3.0, 3.5], [4.5, 4.0]],
            [[1.0, 4.0], [1.75, 4.5], [1.0, 4.75], [0.5, 4.5], [1.0, 4.0]],
        ]
        assert curve.skipped_cells == 6
        assert len(curve.polylines) == len(expected)
        for poly, want in zip(curve.polylines, expected):
            assert np.array_equal(poly, np.array(want))
