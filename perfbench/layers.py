"""The schurflow functions the traced run wraps, one layer per module.

Each entry is ``(module, attribute, counter hook)``; the hook receives the
call's bound arguments and its result.  ``run.py`` turns the per-name
summaries into the per-layer metrics listed in ``README.md``.
"""

from __future__ import annotations

import os


def _written_bytes(args, _result):
    return {"serialize.bytes_written": os.path.getsize(args["path"])}


TRACED = (
    ("schurflow.cli", "main", None),
    ("schurflow.ensemble", "run_grid", None),
    ("schurflow.flow", "sample_sigma_batch", None),
    ("schurflow.flow", "sample_anisotropy_batch", None),
    ("schurflow.ensemble", "sector_probability", None),
    (
        "schurflow.ensemble",
        "mean_first_passage",
        lambda args, _: {"ensemble.valid_trajectories": len(args["records"])},
    ),
    (
        "schurflow.contour",
        "find_contour",
        lambda _, curve: {
            "contour.polylines": curve.n_components,
            "contour.skipped_cells": curve.skipped_cells,
        },
    ),
    ("schurflow.minimal", "scan", None),
    ("schurflow.tensor", "schur_complement", None),
    ("schurflow.reconstruction", "reconstruct", None),
    ("schurflow.reconstruction", "solve_lyapunov", None),
    (
        "schurflow.reconstruction",
        "simulate_sde",
        lambda args, _: {"reconstruction.sde_steps": args["burn_in"] + args["n_steps"]},
    ),
    ("schurflow.reconstruction", "estimate_log_curvature", None),
    ("schurflow.serialize", "write_csv", _written_bytes),
    ("schurflow.serialize", "write_matrix_csv", _written_bytes),
    ("schurflow.serialize", "dump_json", _written_bytes),
    ("schurflow.serialize", "write_records_jsonl", _written_bytes),
)

SERIALIZE = tuple(
    f"serialize.{attr}" for module, attr, _ in TRACED if module == "schurflow.serialize"
)


def install(tracer) -> None:
    for module, attr, count in TRACED:
        tracer.wrap(module, attr, count)
