"""Run one pass of CLI jobs in this fresh interpreter and report timings.

Usage: python child.py SPEC.json RESULT.json

SPEC holds ``jobs`` (a list of ``{"name", "argv"}``), ``src`` (the
directory ``schurflow`` must be imported from), and the flags ``probe``
(stop at the first compute call, then time ``PROBE_SAMPLES`` calibration
kernels), ``trace`` (record layer spans) and ``sample`` (sample the machine
speed while the jobs run, see ``speed.py``).
Every time is read from ``time.monotonic`` and ``time.perf_counter``, which
on Linux share the system-wide monotonic clock with the parent process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import speed

# Functions the CLI calls once per job after parsing and validating its
# config; the first call to any of them ends the set-up phase.
COMPUTE_ENTRIES = ("run_grid", "scan", "reconstruct")
PROBE_SAMPLES = 5


class SetupDone(BaseException):
    """Raised by a probe at the first compute call; the CLI does not catch it."""


def job_samples(sampler, before) -> dict:
    """Calibration samples of one job, from this process and its workers.

    ``sampler_s`` is the sampler's share of the job's wall time: all of this
    process's sampling, plus the workers' sampling divided by the number of
    workers, which sampled side by side.
    """
    samples, sample_s = sampler.snapshot()
    samples, sample_s = samples - before[0], sample_s - before[1]
    sampler_s = sample_s
    workers = speed.collect_workers(Path.cwd())
    for totals in workers:
        samples += totals["samples"]
        sample_s += totals["sample_s"]
        sampler_s += totals["sample_s"] / len(workers)
    return {"samples": samples, "sample_s": sample_s, "sampler_s": sampler_s}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import schurflow.cli as cli

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"schurflow imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        import layers

        tracer = Tracer()
        layers.install(tracer)

    first_compute = []

    def mark(fn):
        def marked(*args, **kwargs):
            if not first_compute:
                first_compute.append(time.monotonic())
            if spec["probe"]:
                raise SetupDone
            return fn(*args, **kwargs)

        return marked

    for name in COMPUTE_ENTRIES:
        setattr(cli, name, mark(getattr(cli, name)))

    sampler = None
    if spec["sample"]:
        sampler = speed.Sampler()
        sampler.start()

    jobs, probe_samples = [], []
    try:
        for job in spec["jobs"]:
            before = sampler.snapshot() if sampler else (0, 0.0)
            start = time.perf_counter()
            try:
                code = cli.main(job["argv"])
            except Exception as exc:  # a traceback out of the CLI fails the job
                code = repr(exc)
            end = time.perf_counter()
            entry = {"name": job["name"], "code": code, "start": start, "end": end}
            if sampler:
                entry.update(job_samples(sampler, before))
            jobs.append(entry)
    except SetupDone:
        speed.kernel_seconds()  # warm-up, not counted
        probe_samples = [speed.kernel_seconds() for _ in range(PROBE_SAMPLES)]
    if sampler:
        sampler.stop()

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "first_compute": first_compute[0] if first_compute else None,
        "probe_samples": probe_samples,
        "jobs": jobs,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    if tracer is not None:
        result["trace"] = {
            "summary": tracer.summary(),
            "counters": tracer.counters,
            "missing": sorted(tracer.missing),
        }
        Path(result_path).with_name("spans.json").write_text(json.dumps(tracer.spans))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
