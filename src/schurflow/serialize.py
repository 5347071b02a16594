"""Deterministic result serialization.

CSV files are written with 17-significant-digit floats (full float64
round-trip precision), comma separators and ``\n`` line endings, so
identical results serialize to identical bytes on every platform.  JSON
files use sorted keys and two-space indentation; NaN values are emitted as
``null`` to stay inside strict JSON.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .flow import TrajectoryRecord


def format_float(x: float) -> str:
    """Format a float with 17 significant digits (lossless for float64)."""
    return f"{float(x):.17g}"


def write_csv(path, header: str, rows) -> None:
    """Write pre-formatted rows under a single header line."""
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_matrix_csv(path, matrix) -> None:
    """Write a matrix as bare CSV rows of 17-digit floats."""
    arr = np.asarray(matrix, dtype=float)
    rows = [",".join(format_float(x) for x in row) for row in np.atleast_2d(arr)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


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


def record_to_dict(record: TrajectoryRecord) -> dict:
    """JSON-safe dictionary for one trajectory record, keyed by field."""
    return to_builtin(dataclasses.asdict(record))


def write_records_jsonl(path, records) -> None:
    """Write trajectory records as JSON lines, one record per line."""
    with open(path, "w", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), sort_keys=True))
            fh.write("\n")


def record_steps_rows(record: TrajectoryRecord):
    """Per-step CSV rows for a trajectory record, one column per array
    field; floats get 17 digits, counts and flags are written as integers."""
    names = [
        f.name
        for f in dataclasses.fields(record)
        if isinstance(getattr(record, f.name), np.ndarray)
    ]
    columns = [getattr(record, name) for name in names]
    rows = [
        [str(k)]
        + [format_float(c[k]) if c.dtype.kind == "f" else str(int(c[k])) for c in columns]
        for k in range(record.n_steps + 1)
    ]
    header = ",".join(["step", *names])
    return header, rows


def field_rows(axes: dict, fields: dict):
    """CSV header and rows of fields sampled on a rectilinear grid.

    ``axes`` maps the two axis names to their 1-D values, outer axis first;
    ``fields`` maps column names to ``(n_outer, n_inner)`` arrays.  One row
    per node, outer axis outer, every value with 17 digits.
    """
    (x_name, x_values), (y_name, y_values) = axes.items()
    header = ",".join([x_name, y_name, *fields])
    rows = [
        [format_float(x), format_float(y)]
        + [format_float(field[i, j]) for field in fields.values()]
        for i, x in enumerate(x_values)
        for j, y in enumerate(y_values)
    ]
    return header, rows
