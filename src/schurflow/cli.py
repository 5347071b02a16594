"""Batch command-line interface.

A run is described by a JSON config file containing exactly one top-level
key naming the command: ``schur``, ``flow``, ``grid``, ``minimal-scan`` or
``reconstruct``.  A command returns its result files as data, which
:func:`main` writes into ``--out`` with a ``manifest.json`` echoing the
fully resolved configuration, the applied seed and worker count, the
library version, wall time and status; a failed run's manifest keeps the
error and what was known of the run.  Result files are deterministic for
a given config and seed; only the manifest wall time varies between reruns.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import inspect
import json
import reprlib
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, serialize
from .ensemble import GridSpec, grid_workers, run_grid
from .errors import ConfigInvalid, SchurFlowError
from .flow import Disorder, FlowConfig, LognormalGaussian, NormMode, Wishart, run_trajectory
from .minimal import MinimalModelSpec, check_scan_budget, scan
from .reconstruction import reconstruct
from .tensor import BlockQuadratic, check_budget, check_matrix, schur_complement, signature

# Payload key that --seed overrides, per command.
_SEED_KEYS = {"flow": "seed", "grid": "master_seed", "reconstruct": "seed"}
# Default axes of minimal-scan; the library's scan requires both.
_SCAN_AXES = {
    "chi_values": {"start": 0.0, "stop": 2.0, "num": 50},
    "g_values": {"start": 0.5, "stop": 2.0, "num": 50},
}
# JSON "kind" of each elimination-load model; drives parsing and the echo.
_MODELS = {"lognormal_gaussian": LognormalGaussian, "wishart": Wishart}
# Flow fields a grid supplies cell by cell, absent from its base_config.
_CELL_PARAMS = ("zeta", "a0")


def _fail(path: str, message: str):
    raise ConfigInvalid(f"{path}: {message}")


def _as_int(value, path: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    _fail(path, f"expected an integer, got {reprlib.repr(value)}")


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError:
        _fail(path, "number out of the float range")


def _choice(cls):
    """Parser of the string enum ``cls``: one of its values, which the
    library converts."""
    values = [member.value for member in cls]

    def parse(value, path: str) -> str:
        if value not in values:
            _fail(path, f"expected one of {values}, got {reprlib.repr(value)}")
        return value

    return parse


def _linspace(start: float, stop: float, num: int) -> np.ndarray:
    """Evenly spaced values; the signature is the ``{start, stop, num}`` key set.
    ``num`` is checked against the array budget before anything is allocated."""
    check_budget((num,), "num")
    return np.linspace(start, stop, num)


def _axis_size(node, path: str) -> int:
    """Length of the axis :func:`_array` builds from ``node``, found without
    building it: ``num`` of ``{start, stop, num}`` within the array budget,
    or a list's length.  Other nodes count 0, and their build says why."""
    if isinstance(node, dict):
        num = _kwargs(inspect.signature(_linspace), node, path)["num"]
        _call(check_budget, {"shape": (num,), "keys": "num"}, path)
        return max(num, 0)
    return len(node) if isinstance(node, list) else 0


def _array(node, path: str) -> np.ndarray:
    """Array from a list, a list of rows or ``{start, stop, num}`` (evenly
    spaced values); the library checks the shape."""
    if isinstance(node, dict):
        return _build(_linspace, node, path)
    try:
        return np.asarray(node, dtype=float)
    except (TypeError, ValueError, OverflowError):
        _fail(path, "expected a list of numbers, a list of equal-length rows "
              "or {start, stop, num}")


def _raw(value, path: str):
    return value


def _schur_model(node, path: str):
    if not isinstance(node, dict) or "kind" not in node:
        _fail(path, 'expected an object with a "kind" key')
    kind = node["kind"]
    if not isinstance(kind, str) or kind not in _MODELS:
        _fail(
            f"{path}.kind",
            f"unknown model kind {reprlib.repr(kind)}; expected one of {sorted(_MODELS)}",
        )
    options = {key: value for key, value in node.items() if key != "kind"}
    return _build(_MODELS[kind], options, path)


# Parser per leading type of a parameter annotation.  The library modules
# use ``from __future__ import annotations``, so annotations are strings.
_PARSERS = {
    "float": _as_number,
    "int": _as_int,
    "np.ndarray": _array,
    "SchurModel": _schur_model,
    "NormMode": _choice(NormMode),
    "Disorder": _choice(Disorder),
    "FlowConfig": lambda node, path: _build(FlowConfig, node, path, _CELL_PARAMS),
}

# Signatures of the library calls a payload configures, read at import:
# the commands call ``scan`` and ``reconstruct`` through this module's
# names, which a caller may rebind with a plain wrapper (e.g. to time them).
_SCAN = inspect.signature(scan)
_RECONSTRUCT = inspect.signature(reconstruct)


def _kwargs(signature: inspect.Signature, node, path: str, skip=()) -> dict:
    """Keyword arguments for a call with ``signature`` from a JSON object.

    Each key names a parameter outside ``skip``, and every parameter
    without a default is required.  A value is parsed by the leading type
    of its parameter's annotation; the callee validates the rest.
    """
    if not isinstance(node, dict):
        _fail(path, "expected an object")
    params = {
        name: param
        for name, param in signature.parameters.items()
        if name not in skip
    }
    unknown = sorted(set(node) - set(params))
    if unknown:
        _fail(path, f"unknown key(s) {reprlib.repr(unknown)}; allowed: {sorted(params)}")
    for name, param in params.items():
        if param.default is param.empty and name not in node:
            _fail(path, f"missing required key {name!r}")
    return {
        key: _PARSERS.get(params[key].annotation.split(" | ")[0], _raw)(
            value, f"{path}.{key}"
        )
        for key, value in node.items()
    }


def _call(target, kwargs: dict, path: str):
    """``target(**kwargs)``, reporting its argument errors under ``path``."""
    try:
        return target(**kwargs)
    except (TypeError, ValueError) as exc:
        _fail(path, str(exc))


def _build(target, node, path: str, skip=()):
    """``target(**kwargs)`` for a config dataclass or helper ``target``,
    the keyword arguments parsed from a JSON object by :func:`_kwargs`."""
    return _call(target, _kwargs(inspect.signature(target), node, path, skip), path)


def _echo(values, skip=()) -> dict:
    """Manifest echo of resolved values, a dict or a config dataclass: every
    entry not in ``skip`` and not ``None``, with enums as their values,
    models with their kind and a grid's base config without cell fields."""
    if dataclasses.is_dataclass(values):
        values = {f.name: getattr(values, f.name) for f in dataclasses.fields(values)}
    kinds = {cls: kind for kind, cls in _MODELS.items()}
    echo = {}
    for name, value in values.items():
        if name in skip or value is None:
            continue
        if isinstance(value, enum.Enum):
            value = value.value
        elif type(value) in kinds:
            value = {"kind": kinds[type(value)], **_echo(value)}
        elif isinstance(value, FlowConfig):
            value = _echo(value, _CELL_PARAMS)
        echo[name] = value
    return echo


def _seeded(command: str, payload: dict, flag_seed) -> dict:
    """``payload`` with its seed key resolved: ``--seed`` overrides it, and
    a seed from the payload must be a non-negative integer."""
    key = _SEED_KEYS.get(command)
    if key is not None and flag_seed is not None:
        return {**payload, key: flag_seed}
    if key in payload:
        seed = _as_int(payload[key], f"{command}.{key}")
        if seed < 0:
            _fail(f"{command}.{key}", "must be non-negative")
        return {**payload, key: seed}
    return payload


def _cmd_schur(payload, args):
    kwargs = _kwargs(inspect.signature(BlockQuadratic), payload, "schur")
    # The command reports one form's signature, so it refuses the leading
    # axes of a that would make BlockQuadratic a stack of forms.
    _call(check_matrix, {"m": kwargs["a"], "name": "a"}, "schur")
    blocks = _call(BlockQuadratic, kwargs, "schur")
    q_eff = schur_complement(blocks)
    sig = signature(q_eff)
    summary = {"n_plus": sig.n_plus, "n_minus": sig.n_minus, "n_zero": sig.n_zero}
    if args.fmt == "json":
        outputs = {"result.json": (serialize.dump_json, {"q_eff": q_eff, "signature": summary})}
    else:
        outputs = {"q_eff.csv": (serialize.write_matrix_csv, q_eff)}
    return outputs, summary, _echo(blocks)


def _cmd_flow(payload, args):
    options = {key: value for key, value in payload.items() if key != "seed"}
    config = _build(FlowConfig, options, "flow")
    seed = payload.get("seed", 0)
    # The single-trajectory streams match cell 0, trajectory 0 of a grid
    # run with this master seed: cell 0's anisotropies and row 0's loads.
    record = run_trajectory(config, [seed, 0], [seed, 0, 1])
    outputs = {"record.jsonl": (serialize.write_records_jsonl, [record])}
    if args.fmt == "csv":
        arrays = {k: v for k, v in vars(record).items() if isinstance(v, np.ndarray)}
        columns = {"step": np.arange(record.n_steps + 1), **arrays}
        outputs["steps.csv"] = (serialize.write_csv, columns)
    else:
        outputs["record.json"] = (serialize.dump_json, dataclasses.asdict(record))
    summary = {
        "first_passage": record.first_passage,
        "censored": record.censored,
        "collapsed": record.collapsed,
        "n_steps": record.n_steps,
    }
    return outputs, summary, {**_echo(config), "seed": seed}


def _cmd_grid(payload, args):
    spec = _build(GridSpec, payload, "grid")
    result = run_grid(spec, parallelism=args.workers)
    if args.fmt == "json":
        outputs = {"grid.json": (serialize.dump_json, dataclasses.asdict(result))}
    else:
        fields = {f"P{m}": result.p_sector[..., m] for m in range(result.n_sectors)}
        fields.update(mean_fpt=result.mean_fpt, censored_fraction=result.censored_fraction)
        axes = {"a0": result.a0_values, "zeta": result.zeta_values}
        outputs = {"grid.csv": (serialize.write_csv, serialize.field_columns(axes, fields))}
    summary = {
        "n_cells": spec.n_cells,
        "n_traj": spec.n_traj,
        "min_n_valid": int(result.n_valid.min()),
        "workers": grid_workers(spec, args.workers),
    }
    return outputs, summary, _echo(spec)


def _cmd_minimal_scan(payload, args):
    # The axes are arguments of scan; every other key configures the
    # template, whose chi and g the axes supply cell by cell.
    axes = {**_SCAN_AXES, **{k: v for k, v in payload.items() if k in _SCAN_AXES}}
    options = {k: v for k, v in payload.items() if k not in _SCAN_AXES}
    template = _build(MinimalModelSpec, options, "minimal-scan", ("chi", "g"))
    # The scan's budget is checked on the axis lengths, before either axis
    # is built.
    sizes = [_axis_size(axes[key], f"minimal-scan.{key}") for key in _SCAN_AXES]
    _call(check_scan_budget, {"n_chi": sizes[0], "n_g": sizes[1], "template": template},
          "minimal-scan")
    kwargs = _kwargs(_SCAN, axes, "minimal-scan", ("template",))
    result = _call(scan, {**kwargs, "template": template}, "minimal-scan")
    if args.fmt == "json":
        outputs = {"scan.json": (serialize.dump_json, dataclasses.asdict(result))}
    else:
        columns = serialize.field_columns(
            {"chi": result.chi_values, "g": result.g_values}, {"b_eff": result.b_eff}
        )
        outputs = {"scan.csv": (serialize.write_csv, columns)}
    summary = {
        "n_polylines": result.contour.n_components,
        "skipped_cells": result.contour.skipped_cells,
    }
    return outputs, summary, {**_echo(kwargs), **_echo(template, ("chi", "g"))}


def _cmd_reconstruct(payload, args):
    kwargs = _kwargs(_RECONSTRUCT, payload, "reconstruct")
    report = _call(reconstruct, kwargs, "reconstruct")
    if args.fmt == "json":
        outputs = {"report.json": (serialize.dump_json, dataclasses.asdict(report))}
    else:
        outputs = {
            "gamma.csv": (serialize.write_matrix_csv, report.gamma),
            "g_eff.csv": (serialize.write_matrix_csv, report.g_eff),
        }
    summary = {"einstein_residual": report.einstein_residual, "beta": report.beta}
    resolved = _RECONSTRUCT.bind(**kwargs)
    resolved.apply_defaults()
    return outputs, summary, _echo(resolved.arguments)


_DISPATCH = {
    "schur": _cmd_schur,
    "flow": _cmd_flow,
    "grid": _cmd_grid,
    "minimal-scan": _cmd_minimal_scan,
    "reconstruct": _cmd_reconstruct,
}


def _read_config(path: str):
    """The JSON value of the config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigInvalid("config nests too deeply to parse")


def _command(data):
    """``(command, payload)`` of a config with one top-level command key."""
    if not isinstance(data, dict) or len(data) != 1:
        raise ConfigInvalid(
            "config must be an object with exactly one top-level command key"
        )
    ((command, payload),) = data.items()
    if command not in _DISPATCH:
        raise ConfigInvalid(
            f"unknown command {reprlib.repr(command)}; expected one of {list(_DISPATCH)}"
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
    # What the manifest says about the run, ok or not, as far as it is known;
    # an error manifest keeps the config as loaded.
    run = {"seed": args.seed, "workers": args.workers, "format": args.fmt,
           "version": __version__}
    try:
        run["config"] = _read_config(args.config)
        command, payload = _command(run["config"])
        run["command"] = command
        if args.workers < 1:
            raise ConfigInvalid(f"--workers must be at least 1, got {args.workers}")
        if args.seed is not None and args.seed < 0:
            raise ConfigInvalid(f"--seed must be non-negative, got {args.seed}")
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = _seeded(command, payload, args.seed)
        outputs, summary, echo = _DISPATCH[command](payload, args)
        for name, (write, data) in outputs.items():
            write(out_dir / name, data)
        serialize.dump_json(
            out_dir / "manifest.json",
            {
                **run,
                "config": {command: echo},
                "status": "ok",
                "wall_time_s": time.perf_counter() - started,
                "outputs": list(outputs),
                "summary": summary,
            },
        )
        return 0
    except (SchurFlowError, ValueError, TypeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        manifest = {
            **run,
            "status": "error",
            "error": str(exc),
            "wall_time_s": time.perf_counter() - started,
        }
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            try:
                serialize.dump_json(out_dir / "manifest.json", manifest)
            except RecursionError:  # a config nested too deeply to serialize
                del manifest["config"]
                serialize.dump_json(out_dir / "manifest.json", manifest)
        except OSError:
            pass
        return 1


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
