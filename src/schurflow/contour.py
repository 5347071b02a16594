"""Level-set extraction on rectilinear scalar fields.

Marching squares with linearly interpolated crossings.  Every cell is
classified at once from shifted views of the field: a cell with a
non-finite corner is skipped and counted, and the others get the case index
of their inside corners.  Only the cells the level crosses are visited, in
row-major order, and a case table gives their segments.  Crossing points are
keyed by the grid edge they live on, so the two cells sharing an edge reuse
the identical floating-point point and chained polylines join exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .tensor import check_axis

# Cell edges as (corner, corner), lower node first, over the corners
# 0 = (i, j), 1 = (i+1, j), 2 = (i+1, j+1), 3 = (i, j+1); corner b sets
# bit 2**b of the case index when it is inside.
_S, _E, _N, _W = (0, 1), (1, 2), (3, 2), (0, 3)
# Case index -> segments as (edge, edge), cases 0-4, 5, 6-9, 10 and 11-15.
# The saddle cases 5 and 10 list two segment sets, for the cell centre
# outside and inside.
_SEGMENTS = (
    (), ((_W, _S),), ((_S, _E),), ((_W, _E),), ((_E, _N),),
    (((_S, _W), (_E, _N)), ((_S, _E), (_N, _W))),
    ((_S, _N),), ((_W, _N),), ((_N, _W),), ((_S, _N),),
    (((_S, _E), (_N, _W)), ((_S, _W), (_E, _N))),
    ((_E, _N),), ((_W, _E),), ((_S, _E),), ((_W, _S),), (),
)


@dataclasses.dataclass
class BoundaryCurve:
    """Polyline representation of a single level set."""

    level: float
    polylines: list[np.ndarray]
    skipped_cells: int = 0

    @property
    def is_empty(self) -> bool:
        return len(self.polylines) == 0

    @property
    def n_components(self) -> int:
        return len(self.polylines)

    def points(self) -> np.ndarray:
        """All crossing points as an ``(n, 2)`` array of ``(x, y)`` pairs."""
        if self.is_empty:
            return np.empty((0, 2))
        return np.vstack(self.polylines)


def find_contour(x_values, y_values, field, level: float) -> BoundaryCurve:
    """Extract the ``field == level`` curve from samples on a rectilinear grid.

    Parameters
    ----------
    x_values, y_values : array_like
        Strictly increasing axis coordinates, lengths ``nx`` and ``ny``.
    field : array_like
        Samples with shape ``(nx, ny)``; ``field[i, j]`` sits at
        ``(x_values[i], y_values[j])``.  Non-finite samples cause the four
        adjacent cells to be skipped (reported in ``skipped_cells``).
    level : float
        Contour level.  A node is "inside" when its value is strictly
        greater than ``level``.

    Returns
    -------
    BoundaryCurve
        Chained polylines; saddle cells are resolved with the cell-center
        average so curves never cross.
    """
    x = check_axis(x_values, "x_values", min_size=2)
    y = check_axis(y_values, "y_values", min_size=2)
    f = np.asarray(field, dtype=float)
    if f.shape != (x.size, y.size):
        raise ValueError(
            f"field: expected shape {(x.size, y.size)}, got {f.shape}"
        )
    if not np.isfinite(level):
        raise ValueError("level must be finite")

    corners = (f[:-1, :-1], f[1:, :-1], f[1:, 1:], f[:-1, 1:])
    finite = np.logical_and.reduce([np.isfinite(c) for c in corners])
    cases = sum((c > level) * (1 << b) for b, c in enumerate(corners))
    cells = np.nonzero(finite & (cases > 0) & (cases < 15))
    point_cache: dict[tuple, np.ndarray] = {}
    segments: list[tuple[tuple, tuple]] = []

    def edge_point(key):
        pt = point_cache.get(key)
        if pt is None:
            (i0, j0), (i1, j1) = key
            f0, f1 = f[i0, j0], f[i1, j1]
            t = (level - f0) / (f1 - f0)
            pt = np.array(
                [x[i0] + t * (x[i1] - x[i0]), y[j0] + t * (y[j1] - y[j0])]
            )
            point_cache[key] = pt
        return pt

    for i, j, case in zip(*(a.tolist() for a in (*cells, cases[cells]))):
        nodes = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
        pairs = _SEGMENTS[case]
        if case in (5, 10):
            pairs = pairs[bool(np.mean([f[n] for n in nodes]) > level)]
        for pair in pairs:
            k0, k1 = ((nodes[a], nodes[b]) for a, b in pair)
            if np.array_equal(edge_point(k0), edge_point(k1)):
                continue
            segments.append((k0, k1))

    return BoundaryCurve(
        level=float(level),
        polylines=_chain(segments, point_cache),
        skipped_cells=int(np.count_nonzero(~finite)),
    )


def _chain(segments, point_cache) -> list[np.ndarray]:
    """Join segments sharing an edge key into maximal polylines."""
    adjacency: dict[tuple, list[tuple]] = {}
    for k0, k1 in segments:
        adjacency.setdefault(k0, []).append(k1)
        adjacency.setdefault(k1, []).append(k0)

    def walk(here):
        # Each step uses up the segment it crosses, in both directions.
        chain = [here]
        while adjacency[here]:
            nxt = adjacency[here].pop()
            adjacency[nxt].remove(here)
            chain.append(nxt)
            here = nxt
        return np.array([point_cache[k] for k in chain])

    # Open chains first, from an end (one unused neighbour); the segments
    # left then form closed loops, and a walk returns to its start.
    polylines = [walk(key) for key in adjacency if len(adjacency[key]) == 1]
    return polylines + [walk(key) for key in adjacency if adjacency[key]]
