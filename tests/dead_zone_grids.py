"""Run the dead-zone grids on which f's dual solvers are compared.

    PYTHONPATH=src python tests/dead_zone_grids.py [--cap 100000] [--tol 1e-7] [--grid 32 96]

Each case evaluates ``induced_regularizer`` once on a block of 8 columns,
with ``shrinkage._MAX_ITER`` set to ``--cap``. A case certifies when every
column does, and is open when the evaluation raises NotConverged.

- The 32-case grid: ``cli.load_named_matrix("random:NxD:S")`` for shapes
  20x10, 60x30, 100x50 and 200x100 and seeds S of 1 and 2; soft shrinkage at
  lam 1 and 10; x = scale * default_rng(S).standard_normal((d, 8)) at
  scales 1e-3 and 1e-5.
- The 96-case grid: ``random_operator(n, d, default_rng(1000 n + d), cond)``
  for shapes 9x2, 13x6, 60x30 and 200x100 at conditions 1 and 1e3; soft
  shrinkage at lam 0.1, 1 and 10; x = scale * default_rng(7).standard_normal((d, 8))
  at scales 1e-7, 1e-4, 1e-1 and 10.

One line per case gives its outcome, the largest iteration count of its
columns and their sum (the column-iterations), and its wall time; a
summary line per grid counts the certified cases and sums the
column-iterations and time of those. pytest does not collect this file;
``test_shrinkage`` runs one case of it through ``run_grid``.
"""

from __future__ import annotations

import argparse
import itertools
import time

import numpy as np

from proxframe import (
    FrameShrinkage,
    InducedRegularizer,
    NotConverged,
    build_operator,
    induced_regularizer,
    random_operator,
    soft_shrink_map,
    shrinkage,
)
from proxframe.cli import load_named_matrix
from support import recording


def grid32():
    """(label, operator, lam, x) of each case of the 32-case grid."""
    for (n, d), seed in itertools.product(((20, 10), (60, 30), (100, 50), (200, 100)), (1, 2)):
        op = build_operator(load_named_matrix(f"random:{n}x{d}:{seed}"))
        draws = np.random.default_rng(seed).standard_normal((d, 8))
        for lam, scale in itertools.product((1.0, 10.0), (1e-3, 1e-5)):
            yield f"random:{n}x{d}:{seed} lam {lam:g} scale {scale:g}", op, lam, scale * draws


def grid96():
    """(label, operator, lam, x) of each case of the 96-case grid."""
    for (n, d), cond in itertools.product(((9, 2), (13, 6), (60, 30), (200, 100)), (1.0, 1e3)):
        op = random_operator(n, d, np.random.default_rng(1000 * n + d), cond)
        draws = np.random.default_rng(7).standard_normal((d, 8))
        for lam, scale in itertools.product((0.1, 1.0, 10.0), (1e-7, 1e-4, 1e-1, 10.0)):
            yield f"{n}x{d} cond {cond:g} lam {lam:g} scale {scale:g}", op, lam, scale * draws


def run_grid(name, cases, tol):
    """Evaluate each case, print its line, then the grid's summary line.

    Returns each case's label and its columns' iterations, None if open.
    """
    runs, certify = [], shrinkage._certify
    shrinkage._certify = recording(certify, runs)
    try:
        outcomes, seconds = [], 0.0
        for label, op, lam, x in cases:
            reg = InducedRegularizer(FrameShrinkage(op, soft_shrink_map(lam)))
            runs.clear()
            start = time.perf_counter()
            try:
                induced_regularizer(reg, x, tol=tol)
            except NotConverged as exc:
                outcomes.append((label, None))
                print(f"{name} | {label} | open | {exc} | {time.perf_counter() - start:.3f} s")
            else:
                elapsed = time.perf_counter() - start
                (iters,) = runs
                outcomes.append((label, iters))
                seconds += elapsed
                print(f"{name} | {label} | certified | max {np.max(iters)} "
                      f"sum {np.sum(iters)} | {elapsed:.3f} s")
    finally:
        shrinkage._certify = certify
    done = [iters for _, iters in outcomes if iters is not None]
    open_cases = [label for label, iters in outcomes if iters is None]
    print(f"{name}: {len(done)}/{len(outcomes)} certified, {sum(int(np.sum(i)) for i in done)} "
          f"column-iterations in {seconds:.1f} s over the certified cases; "
          f"open: {', '.join(open_cases) or 'none'}")
    return outcomes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cap", type=int, default=shrinkage._MAX_ITER,
                        help="shrinkage._MAX_ITER for the run (default: its value)")
    parser.add_argument("--tol", type=float, default=1e-7, help="induced_regularizer's tol")
    parser.add_argument("--grid", nargs="+", choices=("32", "96"), default=["32", "96"])
    args = parser.parse_args()
    shrinkage._MAX_ITER = args.cap
    grids = {"32": grid32, "96": grid96}
    for name in args.grid:
        run_grid(name, grids[name](), args.tol)


if __name__ == "__main__":
    main()
