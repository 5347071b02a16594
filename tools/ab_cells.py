"""Interleaved timing of two schurflow source trees, a pair of cells at a time.

Each tree's ``schurflow`` package is imported under its own name, so both
run in one process and every pair is timed on both at nearly the same host
speed.  The unit is a grid task's: two consecutive cells, ``(2 p, 2 p +
1)``, run in one call of the tree's ``ensemble._run_cells(spec, cells,
workspace)`` (0.22.0 and later), their cells evolved in one flow loop.
Each tree's pairs reuse one workspace, as a grid task's do.  For a named
grid this times every ``--every``-th pair, ``--rounds`` times, alternating
which tree runs a pair first.  It prints the summed times, their ratio
(new / old) and the median over pairs of the per-pair ratio of summed
times.

Both trees must return equal cell outputs, compared by ``repr``, so the run
doubles as a byte-identity check of the timed cells: on the first
difference it prints the pair and exits 1.  Otherwise it reports and gates
nothing; the exit status is 0.

Both trees share one process heap, so the ratio overstates a change in how
the program allocates.  A prototype grid kernel that allocated fresh arrays
in place of the workspace read 1.29 on the reference grid and 1.35 on the
Wishart/trace/quenched grid, and 0.998 on the reference grid with glibc's
trim and mmap thresholds raised; perfbench ``wall_s`` read +3 to +12% on
grid-lognormal and no change on grid-wishart-2w.  Time such a change with
perfbench.  A change to computation alone is not affected.

    python tools/ab_cells.py OLD_SRC NEW_SRC --grid wishart-trace-quenched

``OLD_SRC`` and ``NEW_SRC`` are directories holding a ``schurflow``
package, such as the ``src`` directories of two checkouts.  The grids are
the reference grid (the CLI defaults, also criterion 7's lognormal/annealed
grid) and criterion 7's three other protocol grids, at ``--seed``.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# Grid name: (FlowConfig keywords, whether the load is Wishart with trace
# normalization over zeta in [0, 0.8], as in criterion 7).
GRIDS = {
    "reference": ({}, False),
    "lognormal-quenched": ({"disorder": "quenched"}, False),
    "wishart-trace-annealed": ({"disorder": "annealed"}, True),
    "wishart-trace-quenched": ({"disorder": "quenched"}, True),
}


def load(src: str, name: str):
    """The ``schurflow`` package under ``src``, imported as ``name``."""
    init = Path(src, "schurflow", "__init__.py")
    if not init.is_file():
        raise SystemExit(f"{src}: no schurflow package")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def grid_spec(package, grid: str, seed: int):
    """The named grid's ``GridSpec``, built from ``package``'s classes."""
    keywords, wishart = GRIDS[grid]
    axes = {}
    if wishart:
        keywords = {**keywords, "schur_model": package.Wishart(), "norm_mode": "trace"}
        axes["zeta_values"] = np.linspace(0.0, 0.8, 20)
    config = package.FlowConfig(**keywords)
    return package.GridSpec(master_seed=seed, base_config=config, **axes)


def pair_runner(package, ensemble, spec):
    """A function of ``p`` that returns the outputs of the cells ``2 p`` and
    ``2 p + 1`` of ``spec``, run as ``package``'s grid tasks run them, in a
    workspace that every call reuses."""
    budget = package.flow.check_batch_budget
    workspace = np.empty(budget(spec.base_config, spec.n_traj, ensemble._CELL_KEYS, 2))
    return lambda p: ensemble._run_cells(spec, (2 * p, 2 * p + 1), workspace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--grid", choices=sorted(GRIDS), default="reference")
    parser.add_argument("--every", type=int, default=7, help="time every N-th pair")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1, help="the grid's master seed")
    args = parser.parse_args(argv)

    sides = []
    for label, src in (("old", args.old_src), ("new", args.new_src)):
        package = load(src, f"schurflow_{label}")
        spec = grid_spec(package, args.grid, args.seed)
        ensemble = sys.modules[f"schurflow_{label}.ensemble"]
        sides.append(pair_runner(package, ensemble, spec))

    pairs = range(0, spec.n_cells // 2, args.every)
    seconds = np.zeros((2, len(pairs)))
    for r in range(args.rounds):
        for i, p in enumerate(pairs):
            outputs = [None, None]
            for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                outputs[side] = sides[side](p)
                seconds[side, i] += time.perf_counter() - start
            if repr(outputs[0]) != repr(outputs[1]):
                print(
                    f"cells {2 * p} and {2 * p + 1}: outputs differ\n"
                    f"  old {outputs[0]!r}\n  new {outputs[1]!r}"
                )
                return 1

    old, new = seconds.sum(axis=1)
    print(
        f"{args.grid} grid, seed {args.seed}: {len(pairs)} pairs x {args.rounds} rounds, "
        f"outputs equal; old {old:.3f} s, new {new:.3f} s, ratio {new / old:.3f}, "
        f"median per-pair ratio {statistics.median(seconds[1] / seconds[0]):.3f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
