"""Deterministic result serialization.

CSV tables are written by ``numpy.savetxt``: floats with 17 significant
digits (``%.17g``, full float64 round-trip precision), integer and boolean
columns as ``%d``, comma separators and ``\n`` line endings, so identical
results serialize to identical bytes on every platform.  JSON files use
sorted keys and two-space indentation; NaN values are emitted as ``null``
to stay inside strict JSON.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np


def _savetxt(path, table, fmt, header="") -> None:
    # Given a path, savetxt would write "\r\n" line endings on Windows.
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", header=header, comments="")


def write_csv(path, columns: dict) -> None:
    """Write named 1-D columns under a header of their names: floats as
    ``%.17g``, integers and booleans (counts, far below 2**53) as ``%d``."""
    arrays = [np.asarray(column) for column in columns.values()]
    fmt = ["%.17g" if a.dtype.kind == "f" else "%d" for a in arrays]
    _savetxt(path, np.column_stack(arrays).astype(float), fmt, ",".join(columns))


def write_matrix_csv(path, matrix) -> None:
    """Write a matrix as bare CSV rows of 17-digit floats."""
    _savetxt(path, np.atleast_2d(np.asarray(matrix, dtype=float)), "%.17g")


def field_columns(axes: dict, fields: dict) -> dict:
    """CSV columns of fields on a rectilinear grid, one row per node: ``axes``
    maps the two axis names to 1-D values, outer axis first, and ``fields``
    maps column names to ``(n_outer, n_inner)`` arrays."""
    (x_name, x_values), (y_name, y_values) = axes.items()
    return {
        x_name: np.repeat(x_values, len(y_values)),
        y_name: np.tile(y_values, len(x_values)),
        **{name: np.ravel(field) for name, field in fields.items()},
    }


def to_builtin(obj):
    """Recursively convert numpy scalars/arrays to plain Python objects.

    NaN and infinities become ``None`` so the result is strict-JSON safe.
    """
    if isinstance(obj, dict):
        return {key: to_builtin(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_builtin(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return [to_builtin(value) for value in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if np.isfinite(value) else None
    return obj


def dump_json(path, payload) -> None:
    """Write a payload as deterministic, strict JSON."""
    text = json.dumps(to_builtin(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def write_records_jsonl(path, records) -> None:
    """Write trajectory records as JSON lines, one record per line."""
    with open(path, "w", newline="\n") as fh:
        for record in records:
            fields = to_builtin(dataclasses.asdict(record))
            fh.write(json.dumps(fields, sort_keys=True) + "\n")
