"""Batch command-line interface.

A run is described by a JSON config file containing exactly one top-level
key naming the command: ``schur``, ``flow``, ``grid``, ``minimal-scan`` or
``reconstruct``.  Results are written into ``--out`` together with a
``manifest.json`` echoing the fully resolved configuration, the applied
seed and worker count, the library version, wall time and status.  Result
files are deterministic for a given config and seed; only the manifest
wall time varies between reruns.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, serialize
from .ensemble import GridSpec, run_grid
from .errors import ConfigInvalid, FlowCollapsed, SchurFlowError
from .flow import FlowConfig, LognormalGaussian, Wishart, run_trajectory
from .minimal import MinimalModelSpec, scan
from .reconstruction import reconstruct
from .tensor import BlockQuadratic, schur_complement, signature

_COMMANDS = ("schur", "flow", "grid", "minimal-scan", "reconstruct")

_DEFAULT_AXES = {
    "grid": {
        "a0_values": {"start": 0.0, "stop": 1.0, "num": 20},
        "zeta_values": {"start": 0.0, "stop": 0.3, "num": 20},
    },
    "minimal-scan": {
        "chi_values": {"start": 0.0, "stop": 2.0, "num": 50},
        "g_values": {"start": 0.5, "stop": 2.0, "num": 50},
    },
}


def _fail(path: str, message: str):
    raise ConfigInvalid(f"{path}: {message}")


def _require_keys(node: dict, path: str, allowed) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        _fail(path, f"unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool):
        _fail(path, f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    _fail(path, f"expected an integer, got {value!r}")


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    return float(value)


def _matrix(node, path: str) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 2:
        _fail(path, "expected a matrix as a list of equal-length rows")
    return arr


def _axis(node, path: str) -> np.ndarray:
    if isinstance(node, dict):
        _require_keys(node, path, {"start", "stop", "num"})
        for key in ("start", "stop", "num"):
            if key not in node:
                _fail(path, f"missing key {key!r}")
        num = _as_int(node["num"], f"{path}.num")
        if num < 1:
            _fail(f"{path}.num", "must be at least 1")
        return np.linspace(
            _as_number(node["start"], f"{path}.start"),
            _as_number(node["stop"], f"{path}.stop"),
            num,
        )
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 1 or arr.size < 1:
        _fail(path, "expected a list of numbers or {start, stop, num}")
    return arr


# JSON "kind" of each elimination-load model; drives parsing and the echo.
_MODELS = {"lognormal_gaussian": LognormalGaussian, "wishart": Wishart}
# Flow fields a grid supplies cell by cell, absent from its base_config.
_CELL_PARAMS = ("zeta", "a0")


def _raw(value, path: str):
    return value


def _dataclass(cls, node: dict, path: str, skip=()):
    """Build a config dataclass from a JSON object.

    Each key names a field of ``cls``; its value is parsed by the leading
    type of the field's annotation, and the dataclass validates the rest.
    """
    if not isinstance(node, dict):
        _fail(path, "expected an object")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in skip}
    _require_keys(node, path, fields)
    kwargs = {
        key: _PARSERS.get(fields[key].type.split(" | ")[0], _raw)(
            value, f"{path}.{key}"
        )
        for key, value in node.items()
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        _fail(path, str(exc))


def _schur_model(node, path: str):
    if not isinstance(node, dict) or "kind" not in node:
        _fail(path, 'expected an object with a "kind" key')
    kind = node["kind"]
    if not isinstance(kind, str) or kind not in _MODELS:
        _fail(
            f"{path}.kind", f"unknown model kind {kind!r}; expected one of {sorted(_MODELS)}"
        )
    options = {key: value for key, value in node.items() if key != "kind"}
    return _dataclass(_MODELS[kind], options, path)


# Parser per leading type of a field annotation.  The config modules use
# ``from __future__ import annotations``, so annotations are strings.
_PARSERS = {
    "float": _as_number,
    "int": _as_int,
    "np.ndarray": _matrix,
    "SchurModel": _schur_model,
}


def _echo(config, skip=()) -> dict:
    """Manifest echo of a config dataclass: every field not in ``skip`` and
    not ``None``, with enums as their values and models with their kind."""
    kinds = {cls: kind for kind, cls in _MODELS.items()}
    echo = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.name in skip or value is None:
            continue
        if isinstance(value, enum.Enum):
            value = value.value
        elif type(value) in kinds:
            value = {"kind": kinds[type(value)], **_echo(value)}
        echo[field.name] = value
    return echo


def _resolve_seed(payload: dict, path: str, flag_seed, key: str = "seed", default=0):
    if flag_seed is not None:
        return int(flag_seed)
    if key in payload:
        value = _as_int(payload[key], f"{path}.{key}")
        if value < 0:
            _fail(f"{path}.{key}", "must be non-negative")
        return value
    return default


def _cmd_schur(payload, args, out_dir):
    _require_keys(payload, "schur", {"a", "b", "c"})
    for key in ("a", "b", "c"):
        if key not in payload:
            _fail("schur", f"missing required key {key!r}")
    try:
        blocks = BlockQuadratic(
            a=_matrix(payload["a"], "schur.a"),
            b=_matrix(payload["b"], "schur.b"),
            c=_matrix(payload["c"], "schur.c"),
        )
    except ValueError as exc:
        _fail("schur", str(exc))
    q_eff = schur_complement(blocks)
    sig = signature(q_eff)
    summary = {"n_plus": sig.n_plus, "n_minus": sig.n_minus, "n_zero": sig.n_zero}
    if args.fmt == "json":
        serialize.dump_json(
            out_dir / "result.json", {"q_eff": q_eff, "signature": summary}
        )
        files = ["result.json"]
    else:
        serialize.write_matrix_csv(out_dir / "q_eff.csv", q_eff)
        files = ["q_eff.csv"]
    return files, summary, _echo(blocks)


def _cmd_flow(payload, args, out_dir):
    seed = _resolve_seed(payload, "flow", args.seed)
    config = _dataclass(
        FlowConfig, {k: v for k, v in payload.items() if k != "seed"}, "flow"
    )
    # The single-trajectory stream matches cell 0, trajectory 0 of a grid
    # run with this master seed.
    try:
        record = run_trajectory(config, [seed, 0, 0])
    except FlowCollapsed as exc:
        record = exc.record
    serialize.write_records_jsonl(out_dir / "record.jsonl", [record])
    files = ["record.jsonl"]
    if args.fmt == "csv":
        header, rows = serialize.record_steps_rows(record)
        serialize.write_csv(out_dir / "steps.csv", header, rows)
        files.append("steps.csv")
    else:
        serialize.dump_json(out_dir / "record.json", serialize.record_to_dict(record))
        files.append("record.json")
    summary = {
        "first_passage": record.first_passage,
        "censored": record.censored,
        "collapsed": record.collapsed,
        "n_steps": record.n_steps,
    }
    echo = _echo(config)
    echo["seed"] = seed
    return files, summary, echo


def _cmd_grid(payload, args, out_dir):
    _require_keys(
        payload,
        "grid",
        {"a0_values", "zeta_values", "n_traj", "master_seed", "base_config"},
    )
    master_seed = _resolve_seed(payload, "grid", args.seed, key="master_seed")
    a0_values = _axis(
        payload.get("a0_values", _DEFAULT_AXES["grid"]["a0_values"]), "grid.a0_values"
    )
    zeta_values = _axis(
        payload.get("zeta_values", _DEFAULT_AXES["grid"]["zeta_values"]),
        "grid.zeta_values",
    )
    n_traj = _as_int(payload.get("n_traj", 100), "grid.n_traj")
    base_config = _dataclass(
        FlowConfig, payload.get("base_config", {}), "grid.base_config", _CELL_PARAMS
    )
    try:
        spec = GridSpec(
            a0_values=a0_values,
            zeta_values=zeta_values,
            n_traj=n_traj,
            master_seed=master_seed,
            base_config=base_config,
        )
    except (TypeError, ValueError) as exc:
        _fail("grid", str(exc))
    result = run_grid(spec, parallelism=args.workers)
    if args.fmt == "json":
        serialize.dump_json(out_dir / "grid.json", serialize.grid_to_dict(result))
        files = ["grid.json"]
    else:
        header, rows = serialize.grid_rows(result)
        serialize.write_csv(out_dir / "grid.csv", header, rows)
        files = ["grid.csv"]
    summary = {
        "n_cells": spec.n_cells,
        "n_traj": spec.n_traj,
        "min_n_valid": int(result.n_valid.min()),
        # run_grid starts no more worker processes than there are cells.
        "workers": min(args.workers, spec.n_cells),
    }
    echo = {
        "a0_values": a0_values.tolist(),
        "zeta_values": zeta_values.tolist(),
        "n_traj": n_traj,
        "master_seed": master_seed,
        "base_config": _echo(base_config, _CELL_PARAMS),
    }
    return files, summary, echo


def _cmd_minimal_scan(payload, args, out_dir):
    # Every key but the two axes configures the template; chi and g come
    # from the axes cell by cell.
    axes = _DEFAULT_AXES["minimal-scan"]
    options = {k: v for k, v in payload.items() if k not in axes}
    template = _dataclass(MinimalModelSpec, options, "minimal-scan", ("chi", "g"))
    chi_values = _axis(
        payload.get("chi_values", _DEFAULT_AXES["minimal-scan"]["chi_values"]),
        "minimal-scan.chi_values",
    )
    g_values = _axis(
        payload.get("g_values", _DEFAULT_AXES["minimal-scan"]["g_values"]),
        "minimal-scan.g_values",
    )
    try:
        result = scan(chi_values, g_values, template)
    except (TypeError, ValueError) as exc:
        _fail("minimal-scan", str(exc))
    if args.fmt == "json":
        serialize.dump_json(out_dir / "scan.json", dataclasses.asdict(result))
        files = ["scan.json"]
    else:
        rows = []
        for i, chi in enumerate(result.chi_values):
            for j, g in enumerate(result.g_values):
                rows.append(
                    [
                        serialize.format_float(chi),
                        serialize.format_float(g),
                        serialize.format_float(result.b_eff[i, j]),
                    ]
                )
        serialize.write_csv(out_dir / "scan.csv", "chi,g,b_eff", rows)
        files = ["scan.csv"]
    summary = {
        "n_polylines": result.contour.n_components,
        "skipped_cells": result.contour.skipped_cells,
    }
    echo = {"chi_values": chi_values.tolist(), "g_values": g_values.tolist()}
    echo.update({key: getattr(template, key) for key in options})
    return files, summary, echo


def _cmd_reconstruct(payload, args, out_dir):
    _require_keys(
        payload,
        "reconstruct",
        {"mu", "q_eff", "beta", "d_mat", "dt", "n_steps", "burn_in", "seed"},
    )
    for key in ("mu", "q_eff", "beta"):
        if key not in payload:
            _fail("reconstruct", f"missing required key {key!r}")
    seed = _resolve_seed(payload, "reconstruct", args.seed)
    kwargs = {
        "mu": _matrix(payload["mu"], "reconstruct.mu"),
        "q_eff": _matrix(payload["q_eff"], "reconstruct.q_eff"),
        "beta": _as_number(payload["beta"], "reconstruct.beta"),
        "seed": seed,
    }
    if "d_mat" in payload:
        kwargs["d_mat"] = _matrix(payload["d_mat"], "reconstruct.d_mat")
    if "dt" in payload:
        kwargs["dt"] = _as_number(payload["dt"], "reconstruct.dt")
    if "n_steps" in payload:
        kwargs["n_steps"] = _as_int(payload["n_steps"], "reconstruct.n_steps")
    if "burn_in" in payload:
        kwargs["burn_in"] = _as_int(payload["burn_in"], "reconstruct.burn_in")
    report = reconstruct(**kwargs)
    if args.fmt == "json":
        serialize.dump_json(out_dir / "report.json", dataclasses.asdict(report))
        files = ["report.json"]
    else:
        serialize.write_matrix_csv(out_dir / "gamma.csv", report.gamma)
        serialize.write_matrix_csv(out_dir / "g_eff.csv", report.g_eff)
        files = ["gamma.csv", "g_eff.csv"]
    summary = {"einstein_residual": report.einstein_residual, "beta": report.beta}
    echo = {
        key: (value.tolist() if isinstance(value, np.ndarray) else value)
        for key, value in kwargs.items()
    }
    return files, summary, echo


_DISPATCH = {
    "schur": _cmd_schur,
    "flow": _cmd_flow,
    "grid": _cmd_grid,
    "minimal-scan": _cmd_minimal_scan,
    "reconstruct": _cmd_reconstruct,
}


def _load_config(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict) or len(data) != 1:
        raise ConfigInvalid(
            "config must be an object with exactly one top-level command key"
        )
    ((command, payload),) = data.items()
    if command not in _COMMANDS:
        raise ConfigInvalid(
            f"unknown command {command!r}; expected one of {list(_COMMANDS)}"
        )
    if not isinstance(payload, dict):
        raise ConfigInvalid(f"{command}: payload must be an object")
    return command, payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurflow",
        description="Batch runner for coarse-graining flows and reconstruction.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument(
        "--seed", type=int, default=None, help="override the seed in the config"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes for grid runs"
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", dest="fmt",
        help="result file format",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    started = time.perf_counter()
    try:
        command, payload = _load_config(args.config)
        if args.workers < 1:
            raise ConfigInvalid(f"--workers must be at least 1, got {args.workers}")
        if args.seed is not None and args.seed < 0:
            raise ConfigInvalid(f"--seed must be non-negative, got {args.seed}")
        out_dir.mkdir(parents=True, exist_ok=True)
        files, summary, echo = _DISPATCH[command](payload, args, out_dir)
        serialize.dump_json(
            out_dir / "manifest.json",
            {
                "command": command,
                "config": {command: echo},
                "seed": args.seed,
                "workers": args.workers,
                "format": args.fmt,
                "version": __version__,
                "status": "ok",
                "wall_time_s": time.perf_counter() - started,
                "outputs": files,
                "summary": summary,
            },
        )
        return 0
    except (SchurFlowError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            serialize.dump_json(
                out_dir / "manifest.json",
                {
                    "status": "error",
                    "error": str(exc),
                    "version": __version__,
                    "wall_time_s": time.perf_counter() - started,
                },
            )
        except OSError:
            pass
        return 1


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
