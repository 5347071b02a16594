"""Machine-speed sampling, so that pass times can be put on one speed scale.

The shared host this benchmark runs on changes speed by up to a third within
seconds and drifts over minutes; CPU time tracks wall time, so the slowdown
is not time spent waiting.  A pass therefore samples the speed of the core
it runs on while it runs: every ``INTERVAL_S`` of process CPU time a
``SIGPROF`` handler runs a fixed calibration kernel (small QR and ``eigvalsh``
calls, the same kind of work as the flow's inner loop) and records how long
it took.  The handler runs between bytecodes of the main thread, so the
program's own state, random generators included, is untouched.

Grid pool workers are forked; a fork hook re-arms the timer in each worker,
which writes its running totals to ``speed-<pid>-<n>.json`` in the working
directory.  ``run.py`` turns the totals into times at the reference speed:
(measured time - time spent in the sampler) x ``REF_SAMPLE_S`` / mean sample.
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path

import numpy as np

# Seconds one calibration kernel takes at the reference speed.  It fixes the
# scale of every normalised time; changing it moves all of them at once.
REF_SAMPLE_S = 0.015
INTERVAL_S = 0.2
_KERNEL_SIZE, _KERNEL_CALLS = 6, 400
_MATRICES = np.random.default_rng(20260101).standard_normal(
    (_KERNEL_CALLS, _KERNEL_SIZE, _KERNEL_SIZE)
)


def kernel_seconds() -> float:
    """Run the calibration kernel once; return its wall time."""
    start = time.perf_counter()
    for a in _MATRICES:
        q, _ = np.linalg.qr(a)
        np.linalg.eigvalsh(q + q.T)
    return time.perf_counter() - start


class Sampler:
    """Totals of the calibration samples taken in this process."""

    def __init__(self):
        self.samples = 0
        self.sample_s = 0.0
        self.worker_file = None

    def snapshot(self) -> tuple[int, float]:
        return self.samples, self.sample_s

    def _sample(self, *_):
        self.sample_s += kernel_seconds()
        self.samples += 1
        if self.worker_file is not None:
            self.worker_file.write_text(
                json.dumps({"samples": self.samples, "sample_s": self.sample_s})
            )

    def _arm(self):
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def _after_fork(self):
        self.samples, self.sample_s = 0, 0.0
        self.worker_file = Path(f"speed-{os.getpid()}-{time.monotonic_ns()}.json")
        self._arm()

    def start(self) -> None:
        kernel_seconds()  # warm up LAPACK before the first timed sample
        signal.signal(signal.SIGPROF, self._sample)
        os.register_at_fork(after_in_child=self._after_fork)
        self._arm()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)


def collect_workers(directory: Path) -> list[dict]:
    """Read and remove the totals the forked workers left in ``directory``."""
    totals = []
    for path in sorted(directory.glob("speed-*.json")):
        totals.append(json.loads(path.read_text()))
        path.unlink()
    return totals
