"""schurflow benchmark: CLI workloads, end-to-end metrics and traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-lognormal --seed 0 --seconds 20 --trace 0

A pass runs all of a workload's CLI jobs through ``schurflow.cli.main(argv)``
in one fresh interpreter (``child.py``), with the BLAS/OpenMP thread
variables pinned to 1.  Passes repeat until ``--seconds`` have elapsed (at
least two, for the determinism check) and metrics are medians over passes.
Untraced passes sample the machine speed as they run (``speed.py``) and
report times at the reference speed, so that the host's speed swings do
not show as program changes; the log prints the raw times too.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one
single-worker traced pass and prints the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from layers import SERIALIZE

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"

DEFAULT_SEED = 0

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Fresh interpreters started per run to time set-up; setup_s is their median.
SETUP_PROBES = 7
MIN_PASSES = 2
# A pass with fewer speed samples than this (its workers could not be
# sampled) is scaled by samples taken in this process right after it.
MIN_SAMPLES = 10
CHILD_TIMEOUT_S = 150.0

# Grid size at the CLI defaults: 20 x 20 cells, 100 trajectories, 100 steps.
GRID_CELLS, GRID_TRAJ, GRID_STEPS = 400, 100, 100
RECONSTRUCT_STEPS = 100_000 + 1_000  # default n_steps plus default burn_in
CURVATURE_RTOL = 0.05  # criterion 10, applied to the mean over seeds

# Positive-definite reconstruction systems as (mu, q_eff, beta, seeds).  Each
# mu commutes with its q_eff, so g_eff converges to beta * q_eff.
_Q3 = [[1.2, 0.1, 0.05], [0.1, 1.1, -0.1], [0.05, -0.1, 1.3]]
_MU3 = [[0.5 * (i == j) + 0.25 * _Q3[i][j] for j in range(3)] for i in range(3)]
SYSTEMS = {
    "crit10": ([[0.8, 0.0], [0.0, 0.8]], [[1.0, 0.3], [0.3, 1.5]], 2.0, 5),
    "commuting3": (_MU3, _Q3, 1.0, 3),
}

WISHART_GRID = {
    "zeta_values": {"start": 0.0, "stop": 0.8, "num": 20},
    "base_config": {
        "schur_model": {"kind": "wishart"},
        "norm_mode": "trace",
        "disorder": "quenched",
    },
}


def grid_job(payload: dict, seed: int, workers: int, corners: bool) -> dict:
    return {
        "name": "grid",
        "kind": "grid",
        "payload": {"grid": payload},
        "flags": ["--seed", str(seed), "--workers", str(workers)],
        "workers": workers,
        "corners": corners,
    }


def reconstruct_scan_jobs(seed: int) -> list[dict]:
    import numpy as np

    rng = np.random.default_rng(seed)
    jobs = []
    for system, (mu, q_eff, beta, n_seeds) in SYSTEMS.items():
        for job_seed in rng.integers(0, 2**31, size=n_seeds).tolist():
            jobs.append(
                {
                    "name": f"{system}-{job_seed}",
                    "kind": "reconstruct",
                    "system": system,
                    "payload": {
                        "reconstruct": {
                            "mu": mu, "q_eff": q_eff, "beta": beta, "seed": job_seed
                        }
                    },
                    "flags": [],
                    "workers": 1,
                }
            )
    jobs.append(
        {"name": "scan", "kind": "minimal-scan", "payload": {"minimal-scan": {}},
         "flags": [], "workers": 1}
    )
    return jobs


def workload_jobs(name: str, seed: int, nproc: int) -> list[dict]:
    if name == "grid-lognormal":
        return [grid_job({}, seed, 1, corners=True)]
    if name == "grid-wishart-2w":
        return [grid_job(WISHART_GRID, seed, min(2, nproc), corners=False)]
    return reconstruct_scan_jobs(seed)


WORKLOADS = ("grid-lognormal", "grid-wishart-2w", "reconstruct-scan")


# ---------------------------------------------------------------- children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(pass_dir: Path, jobs: list[dict], workers=None, probe=False, trace=False):
    """Run ``jobs`` in one fresh interpreter; return (spawn time, result).

    ``workers`` overrides the jobs' own ``--workers`` flag (the CLI keeps
    the last one given).
    """
    pass_dir.mkdir(parents=True)
    spec = {
        "src": str(SRC),
        "probe": probe,
        "trace": trace,
        "sample": not (probe or trace),
        "jobs": [
            {
                "name": job["name"],
                "argv": [
                    "--config", job["config"], "--out", str(pass_dir / job["name"]),
                    *job["flags"],
                ]
                + ([] if workers is None else ["--workers", str(workers)]),
            }
            for job in jobs
        ],
    }
    spec_path, result_path = pass_dir / "spec.json", pass_dir / "result.json"
    spec_path.write_text(json.dumps(spec))
    with open(pass_dir / "child.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            cwd=pass_dir, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:  # timed out, or this process is stopping
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if code != 0 or not result_path.is_file():
        detail = (pass_dir / "child.log").read_text()[-2000:]
        raise RuntimeError(f"child in {pass_dir} exited with {code}:\n{detail}")
    return spawned, json.loads(result_path.read_text())


# ---------------------------------------------------------------- checks


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path):
    import numpy as np

    header, *lines = path.read_text().splitlines()
    return header.split(","), np.array([[float(x) for x in ln.split(",")] for ln in lines])


def check_grid(job: dict, out: Path) -> list[str]:
    import numpy as np
    from schurflow import find_contour

    header, rows = read_csv(out / "grid.csv")
    problems = []
    if len(rows) != GRID_CELLS:
        return [f"{len(rows)} rows, expected {GRID_CELLS}"]
    sectors = rows[:, [header.index(f"P{m}") for m in range(4)]]
    worst = float(np.max(np.abs(sectors.sum(axis=1) - 1.0)))
    if not worst <= 1e-12:
        problems.append(f"P0..P3 sum deviates from 1 by {worst:.3e}")
    if job["corners"]:
        a0, zeta = np.unique(rows[:, 0]), np.unique(rows[:, 1])
        p3 = sectors[:, 3].reshape(a0.size, zeta.size)
        if not p3[0, -1] >= 0.9:
            problems.append(f"inverted corner p3 = {p3[0, -1]:.3f} < 0.9")
        if not p3[-1, 0] <= 0.1:
            problems.append(f"anisotropy corner p3 = {p3[-1, 0]:.3f} > 0.1")
        # The p3 == 0.5 level set, as extract_boundary computes it.
        if find_contour(a0, zeta, p3, 0.5).is_empty:
            problems.append("inversion boundary is empty")
    return problems


def check_scan(out: Path) -> list[str]:
    import numpy as np
    from schurflow import find_contour

    _, rows = read_csv(out / "scan.csv")
    chi, g = np.unique(rows[:, 0]), np.unique(rows[:, 1])
    b_eff = rows[:, 2].reshape(chi.size, g.size)
    if not np.all(np.isfinite(b_eff)):
        return ["non-finite b_eff"]
    points = find_contour(chi, g, b_eff, 0.0).points()
    if len(points) == 0:
        return ["threshold contour is empty"]
    half_cell = 0.5 * (chi[1] - chi[0])
    worst = float(np.max(np.abs(points[:, 0] - np.sqrt(points[:, 1]))))
    return [] if worst <= half_cell else [f"contour off sqrt(g) by {worst:.3e}"]


def check_reconstruct(job: dict, out: Path, manifest: dict):
    """Problems and the relative curvature error of one reconstruction."""
    import numpy as np

    problems = []
    if manifest["summary"]["einstein_residual"] != 0.0:
        problems.append(f"einstein_residual {manifest['summary']['einstein_residual']}")
    g_eff = np.loadtxt(out / "g_eff.csv", delimiter=",", ndmin=2)
    spec = job["payload"]["reconstruct"]
    target = spec["beta"] * np.asarray(spec["q_eff"])
    if not (np.all(np.isfinite(g_eff)) and np.array_equal(g_eff, g_eff.T)):
        return problems + ["g_eff is not finite and symmetric"], float("nan")
    if not np.linalg.eigvalsh(g_eff)[0] > 0:
        problems.append("g_eff is not positive definite")
    err = float(np.linalg.norm(g_eff - target) / np.linalg.norm(target))
    return problems, err


def check_pass(jobs, result, pass_dir: Path, reference: dict):
    """Check every job of a pass; return (failed job names, messages, errors).

    ``reference`` maps job name to its result-file hashes and is filled by
    the first pass; later passes must reproduce those bytes.
    """
    failed, messages, errors = set(), [], {}
    ran = {entry["name"]: entry for entry in result["jobs"]}
    for job in jobs:
        name, out = job["name"], pass_dir / job["name"]
        entry = ran.get(name)
        if entry is None or entry["code"] != 0:
            failed.add(name)
            messages.append(f"{name}: exit code {entry and entry['code']}")
            continue
        manifest = json.loads((out / "manifest.json").read_text())
        problems = [] if manifest["status"] == "ok" else ["manifest status not ok"]
        if job["kind"] == "grid":
            problems += check_grid(job, out)
        elif job["kind"] == "minimal-scan":
            problems += check_scan(out)
        else:
            more, errors[name] = check_reconstruct(job, out, manifest)
            problems += more
        hashes = {f: sha256(out / f) for f in manifest["outputs"]}
        expected = reference.setdefault(name, hashes)
        if hashes != expected:
            problems.append(f"result bytes differ from an earlier run: {hashes}")
        if problems:
            failed.add(name)
            messages.extend(f"{name}: {p}" for p in problems)
    for system in SYSTEMS:
        names = [j["name"] for j in jobs if j.get("system") == system]
        if names and all(n in errors for n in names):
            mean_err = statistics.fmean(errors[n] for n in names)
            if not mean_err <= CURVATURE_RTOL:
                failed.update(names)
                messages.append(f"{system}: mean curvature error {mean_err:.4f} > 0.05")
    return failed, messages, errors


# ---------------------------------------------------------------- metrics


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu": cpu,
        "thread_vars_inherited": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_vars_child": "1",
    }


def pass_numbers(jobs, result, notes: list) -> dict:
    """Times of one pass: ``measured_s`` as measured less the sampler's
    share, and ``wall_s`` and ``steps_per_s`` at the reference speed."""
    entries = result["jobs"]
    sampled = "samples" in entries[0]
    scale, sample_ms = 1.0, None
    if sampled:
        samples = sum(e["samples"] for e in entries)
        if samples >= MIN_SAMPLES:
            mean_sample = sum(e["sample_s"] for e in entries) / samples
        else:
            notes.append(f"speed: {samples} samples in the pass; sampled here instead")
            speed.kernel_seconds()
            mean_sample = statistics.fmean(
                speed.kernel_seconds() for _ in range(MIN_SAMPLES)
            )
        scale, sample_ms = speed.REF_SAMPLE_S / mean_sample, 1e3 * mean_sample
    sampler = sum(e.get("sampler_s", 0.0) for e in entries)
    measured = entries[-1]["end"] - entries[0]["start"] - sampler
    wall = measured * scale
    numbers = {
        "measured_s": measured,
        "wall_s": wall,
        "sample_ms": sample_ms,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    grid_jobs = sum(1 for job in jobs if job["kind"] == "grid")
    if grid_jobs:
        numbers["steps_per_s"] = grid_jobs * GRID_CELLS * GRID_TRAJ * GRID_STEPS / wall
    else:
        kinds = {job["name"]: job["kind"] for job in jobs}
        rec = [
            (e["end"] - e["start"] - e.get("sampler_s", 0.0)) * scale
            for e in entries
            if kinds[e["name"]] == "reconstruct"
        ]
        numbers["steps_per_s"] = len(rec) * RECONSTRUCT_STEPS / sum(rec)
    return numbers


# Traced names each per-layer metric reads, for the missing-name report.
_EVOLVE_SOURCES = [
    "ensemble.run_grid", "flow.sample_sigma_batch", "flow.sample_anisotropy_batch",
    "ensemble.sector_probability", "ensemble.mean_first_passage",
]
LAYER_SOURCES = {
    "flow.sample_sigma_s": ["flow.sample_sigma_batch"],
    "flow.sample_sigma_calls": ["flow.sample_sigma_batch"],
    "flow.sample_anisotropy_s": ["flow.sample_anisotropy_batch"],
    "flow.sample_anisotropy_calls": ["flow.sample_anisotropy_batch"],
    "flow.evolve_classify_s": _EVOLVE_SOURCES,
    "flow.ns_per_state": _EVOLVE_SOURCES,
    "ensemble.run_grid_s": ["ensemble.run_grid"],
    "ensemble.aggregate_s": ["ensemble.sector_probability", "ensemble.mean_first_passage"],
    "ensemble.collapsed_trajectories": ["ensemble.mean_first_passage"],
    "contour.find_contour_s": ["contour.find_contour"],
    "contour.polylines": ["contour.find_contour"],
    "contour.skipped_cells": ["contour.find_contour"],
    "minimal.scan_s": ["minimal.scan"],
    "tensor.schur_complement_s": ["tensor.schur_complement"],
    "tensor.schur_complement_calls": ["tensor.schur_complement"],
    "reconstruction.solve_lyapunov_s": ["reconstruction.solve_lyapunov"],
    "reconstruction.simulate_sde_s": ["reconstruction.simulate_sde"],
    "reconstruction.estimate_s": ["reconstruction.estimate_log_curvature"],
    "reconstruction.sde_steps": ["reconstruction.simulate_sde"],
    "serialize.write_s": list(SERIALIZE),
    "serialize.bytes_written": list(SERIALIZE),
    "cli.self_s": ["cli.main"],
}


def required_names(jobs) -> set:
    """Traced names the workload's configs must call at least once."""
    names = {"cli.main", "serialize.dump_json"}
    for job in jobs:
        if job["kind"] == "grid":
            # Every CLI grid axis spans a0 and zeta above zero.
            names |= {
                "ensemble.run_grid", "flow.sample_sigma_batch",
                "flow.sample_anisotropy_batch", "ensemble.sector_probability",
                "ensemble.mean_first_passage", "serialize.write_csv",
            }
        elif job["kind"] == "minimal-scan":
            names |= {"minimal.scan", "tensor.schur_complement",
                      "contour.find_contour", "serialize.write_csv"}
        else:
            names |= {"reconstruction.reconstruct", "reconstruction.solve_lyapunov",
                      "reconstruction.simulate_sde",
                      "reconstruction.estimate_log_curvature",
                      "serialize.write_matrix_csv"}
    return names


def layer_metrics(jobs, trace: dict, notes: list) -> dict:
    """Per-layer metrics of the traced pass."""
    summary, counters = trace["summary"], trace["counters"]
    empty = {"calls": 0, "total_s": 0.0}

    def span(name):
        return summary.get(name, empty)

    def residual(label, value):
        if value < 0:
            notes.append(f"trace: negative residual {label} = {value:.6f} s clamped to 0")
        return max(value, 0.0)

    grid_jobs = [job for job in jobs if job["kind"] == "grid"]
    cells = len(grid_jobs) * GRID_CELLS
    states = cells * GRID_TRAJ * (GRID_STEPS + 1)
    samplers = ("flow.sample_sigma_batch", "flow.sample_anisotropy_batch")
    aggregate = ("ensemble.sector_probability", "ensemble.mean_first_passage")
    evolve = residual(
        "flow.evolve_classify_s",
        span("ensemble.run_grid")["total_s"]
        - sum(span(n)["total_s"] for n in samplers + aggregate),
    )
    children = ("ensemble.run_grid", "minimal.scan", "reconstruction.reconstruct")
    cli_self = residual(
        "cli.self_s",
        span("cli.main")["total_s"]
        - sum(span(n)["total_s"] for n in children)
        - sum(span(n)["total_s"] for n in SERIALIZE),
    )
    valid = counters.get("ensemble.valid_trajectories", 0)
    values = {
        "flow.sample_sigma_s": span("flow.sample_sigma_batch")["total_s"],
        "flow.sample_sigma_calls": span("flow.sample_sigma_batch")["calls"],
        "flow.sample_anisotropy_s": span("flow.sample_anisotropy_batch")["total_s"],
        "flow.sample_anisotropy_calls": span("flow.sample_anisotropy_batch")["calls"],
        "flow.evolve_classify_s": evolve,
        "flow.states_classified": states,
        "flow.ns_per_state": evolve / states * 1e9 if states else 0.0,
        "ensemble.run_grid_s": span("ensemble.run_grid")["total_s"],
        "ensemble.aggregate_s": sum(span(n)["total_s"] for n in aggregate),
        "ensemble.cells": cells,
        "ensemble.collapsed_trajectories": cells * GRID_TRAJ - valid if cells else 0,
        "contour.find_contour_s": span("contour.find_contour")["total_s"],
        "contour.polylines": counters.get("contour.polylines", 0),
        "contour.skipped_cells": counters.get("contour.skipped_cells", 0),
        "minimal.scan_s": span("minimal.scan")["total_s"],
        "tensor.schur_complement_s": span("tensor.schur_complement")["total_s"],
        "tensor.schur_complement_calls": span("tensor.schur_complement")["calls"],
        "reconstruction.solve_lyapunov_s": span("reconstruction.solve_lyapunov")["total_s"],
        "reconstruction.simulate_sde_s": span("reconstruction.simulate_sde")["total_s"],
        "reconstruction.estimate_s": span("reconstruction.estimate_log_curvature")["total_s"],
        "reconstruction.sde_steps": counters.get("reconstruction.sde_steps", 0),
        "serialize.write_s": sum(span(n)["total_s"] for n in SERIALIZE),
        "serialize.bytes_written": counters.get("serialize.bytes_written", 0),
        "cli.self_s": cli_self,
    }
    required = required_names(jobs)
    for metric, sources in LAYER_SOURCES.items():
        gone = [n for n in sources if n in trace["missing"]]
        uncalled = [n for n in sources if n in required and span(n)["calls"] == 0]
        if gone or uncalled:
            values[metric] = None
            notes.append(
                f"trace: {metric} missing (not found or counter failed: {gone}, "
                f"never called: {uncalled})"
            )
    return values


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="workload seed; re-check a claimed gain on the held-out seed 1",
    )
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: add a traced pass and print the per-layer metrics",
    )
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so the running pass is killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "schurflow" / "__init__.py").is_file():
        print(f"error: no schurflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    nproc = len(os.sched_getaffinity(0))
    env = environment(nproc)
    print("env: " + json.dumps(env, sort_keys=True))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    jobs = workload_jobs(args.workload, args.seed, nproc)
    for job in jobs:
        job["config"] = str(work / "configs" / f"{job['name']}.json")
        Path(job["config"]).write_text(json.dumps(job["payload"]))

    setup, setup_measured = [], []
    for k in range(SETUP_PROBES):
        spawned, result = run_child(work / f"probe{k}", jobs[:1], probe=True)
        setup_measured.append(result["first_compute"] - spawned)
        mean_sample = statistics.fmean(result["probe_samples"])
        setup.append(setup_measured[-1] * speed.REF_SAMPLE_S / mean_sample)

    reference, notes = {}, []
    attempted, failed = 0, 0

    def run_pass(label, workers=None, trace=False):
        nonlocal attempted, failed
        spawned, result = run_child(work / label, jobs, workers=workers, trace=trace)
        bad, messages, errors = check_pass(jobs, result, work / label, reference)
        attempted += len(jobs)
        failed += len(bad)
        notes.extend(f"check {label}: {m}" for m in messages)
        return pass_numbers(jobs, result, notes), result, errors

    passes = []
    started = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - started < args.seconds:
        passes.append(run_pass(f"pass{len(passes)}")[0])

    def median(key):
        return statistics.median(p[key] for p in passes)

    values = {
        "wall_s": median("wall_s"),
        "setup_s": statistics.median(setup),
        "steps_per_s": median("steps_per_s"),
        "peak_rss_mb": median("peak_rss_mb"),
    }
    throughput = "traj_steps_per_s" if args.workload.startswith("grid") else "sde_steps_per_s"
    print(f"passes: {len(passes)}; setup probes: {len(setup)}")
    print(f"setup measured s: {[round(t, 4) for t in setup_measured]}")
    for key in ("measured_s", "sample_ms", "wall_s"):
        print(f"pass {key}: {[round(p[key], 4) for p in passes]}")
    print(f"{throughput} = steps_per_s = {values['steps_per_s']:.6g} 1/s")

    if args.trace:
        # The traced pass is not speed-sampled, so its overhead is taken
        # against measured times; the speedup compares reference-speed times.
        untraced_1w = {"wall_s": values["wall_s"], "measured_s": median("measured_s")}
        if max(job["workers"] for job in jobs) > 1:
            untraced_1w = run_pass("untraced-1w", workers=1)[0]
        traced, result, errors = run_pass("traced", workers=1, trace=True)
        values = layer_metrics(jobs, result["trace"], notes)
        values["trace.overhead_s"] = traced["measured_s"] - untraced_1w["measured_s"]
        values["ensemble.worker_speedup"] = untraced_1w["wall_s"] / median("wall_s")
        values["reconstruction.rel_err"] = (
            statistics.fmean(errors.values()) if errors else 0.0
        )
        for name in result["trace"]["missing"]:
            notes.append(f"trace: wrapped name {name} not found or its counter failed")

    print("result sha256: " + json.dumps(reference, sort_keys=True))
    values["ok_fraction"] = 1.0 - failed / attempted
    print(f"fail_fraction = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for note in notes:
        print(note)
    group = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for metric in group:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} = {value} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
