"""Interleaved timing of two schurflow source trees, a grid row at a time.

Each tree's ``schurflow`` package is imported under its own name, so both
run in one process and every row is timed on both at nearly the same host
speed.  The unit is a grid task of one whole row, run in one call of the
tree's ``ensemble._run_task((spec, start, stop))``, which every tree since
0.22.0 has: it allocates its workspace and evolves the row's cells, two at
a time before 0.26.0 and in row loops since; since 0.25.0 it draws the
row's loads once for all of them.  For
a named grid this times every ``--every``-th row, ``--rounds`` times,
alternating which tree runs a row first.  It prints the summed times, their
ratio (new / old) and the median over rows of the per-row ratio of summed
times.

Both trees must return equal cell outputs, compared by ``repr``, so the run
doubles as a byte-identity check of the timed cells: on the first
difference it prints the row and exits 1.  Otherwise it reports and gates
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


def row_runner(ensemble, spec):
    """A function of ``i`` that returns the outputs of row ``i`` of
    ``spec``, run as one of ``ensemble``'s grid tasks."""
    n_zeta = spec.zeta_values.size
    return lambda i: ensemble._run_task((spec, i * n_zeta, (i + 1) * n_zeta))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--grid", choices=sorted(GRIDS), default="reference")
    parser.add_argument("--every", type=int, default=1, help="time every N-th row")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1, help="the grid's master seed")
    args = parser.parse_args(argv)

    sides = []
    for label, src in (("old", args.old_src), ("new", args.new_src)):
        package = load(src, f"schurflow_{label}")
        spec = grid_spec(package, args.grid, args.seed)
        ensemble = sys.modules[f"schurflow_{label}.ensemble"]
        sides.append(row_runner(ensemble, spec))

    rows = range(0, spec.a0_values.size, args.every)
    seconds = np.zeros((2, len(rows)))
    for r in range(args.rounds):
        for k, i in enumerate(rows):
            outputs = [None, None]
            for side in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                outputs[side] = sides[side](i)
                seconds[side, k] += time.perf_counter() - start
            if repr(outputs[0]) != repr(outputs[1]):
                print(
                    f"row {i}: outputs differ\n"
                    f"  old {outputs[0]!r}\n  new {outputs[1]!r}"
                )
                return 1

    old, new = seconds.sum(axis=1)
    print(
        f"{args.grid} grid, seed {args.seed}: {len(rows)} rows x {args.rounds} rounds, "
        f"outputs equal; old {old:.3f} s, new {new:.3f} s, ratio {new / old:.3f}, "
        f"median per-row ratio {statistics.median(seconds[1] / seconds[0]):.3f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
