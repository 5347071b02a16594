"""Statistical-equivalence check of two schurflow source trees.

A change to the random stream moves result bytes; what must not move is the
law of the results.  This script runs the same kind of grid on two sides,
each a source tree, a grid config and a first master seed, over ``K``
consecutive master seeds per side (``grid --format json``), and tests per
cell:

- Mann-Whitney U on the ``K`` per-seed ``mean_fpt`` values of each side
  (seeds whose cell is fully censored drop out; a cell needs at least
  ``MIN_SEEDS`` finite values a side and not all values equal);
- chi-square homogeneity on the final-sector counts ``p_sector * n_valid``
  pooled over the seeds (sectors empty on both sides drop out; a cell needs
  two sectors left).

Benjamini-Hochberg controls the false-discovery rate at ``ALPHA`` = 0.05
across all tests (JRSS B 57, 289, 1995).  The exit status is 0 when no test
is a discovery, 1 when some are, 2 when a side could not run or no cell was
testable.

The base side defaults to ``src/`` of ``git archive HEAD``; ``--base REF``
picks another ref and ``--base-tree DIR`` a source tree as it is.  The head
side is this checkout.  The default grid is boundary-focused: every third
``a0`` row of the reference grid by all 20 ``zeta`` columns, 7 x 20 cells of
100 trajectories.  The head's seeds default to the ``K`` seeds after the
base's, so the sides share no generator: shared seeds correlate the two
samples, which makes both tests conservative.  The two sides run at once,
one process each.

    python tools/equivalence.py --base 2f707d6      # a change against its parent
    python tools/equivalence.py --base-tree .       # a seed shift of one tree

Needs numpy and scipy (``scipy.stats``); schurflow itself needs numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy.stats import chi2_contingency, mannwhitneyu

REPO = Path(__file__).resolve().parents[1]
ALPHA = 0.05
MIN_SEEDS = 3
BOUNDARY_GRID = {"grid": {
    "a0_values": np.linspace(0.0, 1.0, 20)[::3].tolist(),
    "zeta_values": np.linspace(0.0, 0.3, 20).tolist(),
}}
# Runs one side in a fresh interpreter that imports that side's schurflow.
RUNNER = """
import sys
from schurflow.cli import main
config, out, first, k = sys.argv[1:]
for seed in range(int(first), int(first) + int(k)):
    argv = ["--config", config, "--out", f"{out}/{seed}", "--seed", str(seed),
            "--format", "json"]
    if main(argv):
        sys.exit(f"seed {seed} failed")
"""


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def benjamini_hochberg(p_values, alpha: float) -> np.ndarray:
    """Discovery mask of the Benjamini-Hochberg step-up rule at ``alpha``:
    reject the ``k`` smallest p-values for the largest ``k`` with
    ``p_(k) <= k alpha / m``."""
    p = np.asarray(p_values, dtype=float)
    order = np.argsort(p, kind="stable")
    below = p[order] <= alpha * np.arange(1, p.size + 1) / max(p.size, 1)
    n_reject = below.nonzero()[0].max() + 1 if below.any() else 0
    mask = np.zeros(p.size, dtype=bool)
    mask[order[:n_reject]] = True
    return mask


def cell_tests(base: dict, head: dict) -> list[tuple[tuple[int, int], str, float]]:
    """``(cell, test, p)`` of every testable cell.  Each side holds
    ``mean_fpt``, ``(K, n_a0, n_zeta)`` with NaN where a seed's cell is
    fully censored, and ``counts``, ``(n_a0, n_zeta, n_sectors)`` pooled
    over its seeds."""
    tests = []
    for cell in np.ndindex(*base["counts"].shape[:2]):
        x, y = (side["mean_fpt"][(slice(None), *cell)] for side in (base, head))
        x, y = x[np.isfinite(x)], y[np.isfinite(y)]
        if min(x.size, y.size) >= MIN_SEEDS and np.ptp(np.concatenate([x, y])) > 0:
            tests.append((cell, "mann-whitney", mannwhitneyu(x, y).pvalue))
        table = np.stack([base["counts"][cell], head["counts"][cell]])
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] >= 2 and table.sum(axis=1).all():
            p = chi2_contingency(table, correction=False).pvalue
            tests.append((cell, "chi-square", p))
    return tests


def decide(base: dict, head: dict) -> list[dict]:
    """Every test of :func:`cell_tests` with its Benjamini-Hochberg verdict
    at ``ALPHA``, smallest p first."""
    tests = cell_tests(base, head)
    found = benjamini_hochberg([p for _, _, p in tests], ALPHA)
    rows = [{"cell": cell, "test": name, "p": float(p), "discovery": bool(d)}
            for (cell, name, p), d in zip(tests, found)]
    return sorted(rows, key=lambda row: row["p"])


def load_side(out: Path, first: int, k: int) -> dict:
    """A side's per-seed ``mean_fpt`` and pooled sector counts, read from
    its ``grid.json`` files, with its axes and version."""
    grids = [json.loads((out / str(s) / "grid.json").read_text())
             for s in range(first, first + k)]
    manifest = json.loads((out / str(first) / "manifest.json").read_text())
    mean_fpt = np.array([[[np.nan if v is None else v for v in row]
                          for row in g["mean_fpt"]] for g in grids])
    counts = sum(np.rint(np.asarray(g["p_sector"]) * np.asarray(g["n_valid"])[..., None])
                 for g in grids)
    return {"mean_fpt": mean_fpt, "counts": counts.astype(int),
            "axes": (grids[0]["a0_values"], grids[0]["zeta_values"]),
            "version": manifest["version"]}


def archive_src(ref: str, dest: Path) -> Path:
    """``src/`` of ``git archive ref`` of this repository, unpacked in ``dest``."""
    git = subprocess.Popen(["git", "-C", str(REPO), "archive", "--format=tar", ref, "src"],
                           stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout)
    git.stdout.close()
    if git.wait() or tar.returncode:
        fail(f"cannot archive src/ of git ref {ref!r}")
    return dest


def run_sides(sides: list[dict], k: int, work: Path) -> None:
    """Run every side's ``k`` seeds into ``work / name``, all sides at once."""
    procs = []
    for side in sides:
        config = work / f"{side['name']}.json"
        config.write_text(json.dumps(side["config"]))
        env = {**os.environ, "PYTHONPATH": str(Path(side["tree"]) / "src"),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        argv = [sys.executable, "-c", RUNNER, str(config), str(work / side["name"]),
                str(side["seed"]), str(k)]
        procs.append(subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, text=True))
    errors = [proc.communicate()[1] for proc in procs]
    for side, proc, err in zip(sides, procs, errors):
        if proc.returncode:
            fail(f"the {side['name']} side failed:\n{err}")


def read_config(path: str | None) -> dict:
    return BOUNDARY_GRID if path is None else json.loads(Path(path).read_text())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    base = parser.add_mutually_exclusive_group()
    base.add_argument("--base", default="HEAD", help="git ref of the base side")
    base.add_argument("--base-tree", help="source tree of the base side")
    parser.add_argument("--base-config", help="grid config of the base side")
    parser.add_argument("--head-config", help="grid config of the head side")
    parser.add_argument("--seeds", type=int, default=10, help="master seeds per side, K")
    parser.add_argument("--base-seed", type=int, default=100, help="first base seed")
    parser.add_argument("--head-seed", type=int,
                        help="first head seed (default: the K seeds after the base's)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seeds < MIN_SEEDS:
        fail(f"--seeds must be at least {MIN_SEEDS}")
    if args.head_seed is None:
        args.head_seed = args.base_seed + args.seeds
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        work = Path(tmp)
        sides = [
            {"name": "base", "tree": args.base_tree or archive_src(args.base, work),
             "source": args.base_tree or f"git archive {args.base}",
             "seed": args.base_seed, "config": read_config(args.base_config)},
            {"name": "head", "tree": REPO, "source": str(REPO),
             "seed": args.head_seed, "config": read_config(args.head_config)},
        ]
        run_sides(sides, args.seeds, work)
        base, head = (load_side(work / s["name"], s["seed"], args.seeds) for s in sides)
    if base["axes"] != head["axes"]:
        fail("the two sides ran different grids")
    for side, result in zip(sides, (base, head)):
        print(f"{side['name']}: {side['source']} (schurflow {result['version']}), "
              f"seeds {side['seed']}..{side['seed'] + args.seeds - 1}")
    tests = decide(base, head)
    if not tests:
        fail("no cell is testable, so the check shows nothing")
    a0, zeta = base["axes"]

    def where(t):
        return f"a0={a0[t['cell'][0]]:.4g} zeta={zeta[t['cell'][1]]:.4g} {t['test']}"

    print(f"grid: {len(a0)} x {len(zeta)} cells, K = {args.seeds} seeds a side")
    for t in tests:
        if t["discovery"]:
            print(f"discovery: {where(t)} p={t['p']:.3g}")
    for name in ("mann-whitney", "chi-square"):
        ran = [t for t in tests if t["test"] == name]
        print(f"{name} discoveries: {sum(t['discovery'] for t in ran)} of {len(ran)} tests")
    n_found = sum(t["discovery"] for t in tests)
    print(f"BH discoveries at alpha {ALPHA}: {n_found} of {len(tests)}; "
          f"smallest p {tests[0]['p']:.3g} ({where(tests[0])}); "
          f"run time {time.perf_counter() - started:.1f} s")
    return 1 if n_found else 0


if __name__ == "__main__":
    raise SystemExit(main())
