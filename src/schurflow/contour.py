"""Level-set extraction on rectilinear scalar fields.

Marching squares with linearly interpolated crossings.  Crossing points are
keyed by the grid edge they live on, so the two cells sharing an edge reuse
the identical floating-point point and chained polylines join exactly.
Cells with a non-finite corner value are skipped and counted.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .tensor import check_axis

# Case index -> list of (edge, edge) segments; edges are S, E, N, W.
# Bits: 1 = (i, j), 2 = (i+1, j), 4 = (i+1, j+1), 8 = (i, j+1) inside.
_SEGMENTS = {
    0: [],
    1: [("W", "S")],
    2: [("S", "E")],
    3: [("W", "E")],
    4: [("E", "N")],
    6: [("S", "N")],
    7: [("W", "N")],
    8: [("N", "W")],
    9: [("S", "N")],
    11: [("E", "N")],
    12: [("W", "E")],
    13: [("S", "E")],
    14: [("W", "S")],
    15: [],
}


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

    inside = f > level
    finite = np.isfinite(f)
    point_cache: dict[tuple, np.ndarray] = {}
    segments: list[tuple[tuple, tuple]] = []
    skipped = 0

    def edge_key(n0, n1):
        return (n0, n1) if n0 <= n1 else (n1, n0)

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

    for i in range(x.size - 1):
        for j in range(y.size - 1):
            corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            if not all(finite[c] for c in corners):
                skipped += 1
                continue
            case = (
                1 * inside[i, j]
                + 2 * inside[i + 1, j]
                + 4 * inside[i + 1, j + 1]
                + 8 * inside[i, j + 1]
            )
            edges = {
                "S": edge_key(corners[0], corners[1]),
                "E": edge_key(corners[1], corners[2]),
                "N": edge_key(corners[3], corners[2]),
                "W": edge_key(corners[0], corners[3]),
            }
            if case in (5, 10):
                center_inside = np.mean([f[c] for c in corners]) > level
                if case == 5:
                    pairs = [("S", "E"), ("N", "W")] if center_inside else [
                        ("S", "W"),
                        ("E", "N"),
                    ]
                else:
                    pairs = [("S", "W"), ("E", "N")] if center_inside else [
                        ("S", "E"),
                        ("N", "W"),
                    ]
            else:
                pairs = _SEGMENTS[case]
            for e0, e1 in pairs:
                k0, k1 = edges[e0], edges[e1]
                if np.array_equal(edge_point(k0), edge_point(k1)):
                    continue
                segments.append((k0, k1))

    return BoundaryCurve(
        level=float(level),
        polylines=_chain(segments, point_cache),
        skipped_cells=skipped,
    )


def _chain(segments, point_cache) -> list[np.ndarray]:
    """Join segments sharing an edge key into maximal polylines."""
    adjacency: dict[tuple, list[tuple]] = {}
    for k0, k1 in segments:
        adjacency.setdefault(k0, []).append(k1)
        adjacency.setdefault(k1, []).append(k0)

    unused = {key: list(nbrs) for key, nbrs in adjacency.items()}

    def walk(start):
        chain = [start]
        while True:
            here = chain[-1]
            nbrs = unused.get(here, [])
            if not nbrs:
                break
            nxt = nbrs.pop()
            unused[nxt].remove(here)
            chain.append(nxt)
        return chain

    polylines = []
    # Open chains first: start from endpoints (degree one).
    for key in list(adjacency):
        if len(unused.get(key, [])) == 1:
            chain = walk(key)
            polylines.append(np.array([point_cache[k] for k in chain]))
    # Remaining segments form closed loops; the walk returns to its start.
    for key in list(adjacency):
        if unused.get(key):
            chain = walk(key)
            polylines.append(np.array([point_cache[k] for k in chain]))
    return polylines
