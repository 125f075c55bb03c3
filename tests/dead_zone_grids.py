"""Run the dead-zone grids on which f's dual solvers are compared.

    PYTHONPATH=src python tests/dead_zone_grids.py [--cap 100000] [--tol 1e-7] [--grid 32 96 shrinkage]

Each case evaluates ``shrinkage._certify`` once, as ``induced_regularizer``
does, on a block of 8 columns, with ``shrinkage._MAX_ITER`` set to
``--cap``. A case certifies when every column does, and is open when the
evaluation raises NotConverged.

- The 32-case grid: ``cli.load_named_matrix("random:NxD:S")`` for shapes
  20x10, 60x30, 100x50 and 200x100 and seeds S of 1 and 2; soft shrinkage at
  lam 1 and 10; x = scale * default_rng(S).standard_normal((d, 8)) at
  scales 1e-3 and 1e-5.
- The 96-case grid: ``random_operator(n, d, default_rng(1000 n + d), cond)``
  for shapes 9x2, 13x6, 60x30 and 200x100 at conditions 1 and 1e3; soft
  shrinkage at lam 0.1, 1 and 10; x = scale * default_rng(7).standard_normal((d, 8))
  at scales 1e-7, 1e-4, 1e-1 and 10.
- The shrinkage grid: the 96-case grid's operators, lam and draws, each
  column scaled so that max|Tx| / lam - 1 is 1e-7, 1e-4, 1e-1 or 10, and f
  evaluated at the shrinkage output y = T^+ S_lam(Tx), whose exact value
  ``support.proof_regularizer`` gives.

One line per case gives its outcome, the largest iteration count of its
columns and their sum (the column-iterations), how many columns stopped at
the rounding floor (upper - lower > tol), and its wall time; a shrinkage
case adds its largest gap and its miss, the largest of (lower - f) / f and
(f - upper) / f over its columns, positive where the bracket misses f. A
summary line per grid counts the certified cases, then on the shrinkage
grid the cases that miss f by more than ``MISS``, then the cases with a
column at the floor, and sums the column-iterations and time of the
certified cases. pytest does not collect this file; ``test_shrinkage`` runs
the shrinkage grid and ``test_certify_kernels`` single cases through
``run_grid``.
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
    random_operator,
    soft_shrink_map,
    shrinkage,
)
from proxframe.cli import load_named_matrix
from support import proof_regularizer

# the bound on a bracket's relative miss of the exact f that
# test_certify_lower_end_is_a_bound_in_the_dead_zone holds
MISS = 1e-13


def grid32():
    """(label, operator, lam, x, None) of each case of the 32-case grid."""
    for (n, d), seed in itertools.product(((20, 10), (60, 30), (100, 50), (200, 100)), (1, 2)):
        op = build_operator(load_named_matrix(f"random:{n}x{d}:{seed}"))
        draws = np.random.default_rng(seed).standard_normal((d, 8))
        for lam, scale in itertools.product((1.0, 10.0), (1e-3, 1e-5)):
            yield f"random:{n}x{d}:{seed} lam {lam:g} scale {scale:g}", op, lam, scale * draws, None


def _operators96():
    """(n, d, cond, operator, draws) of the 96-case grid's operators."""
    for (n, d), cond in itertools.product(((9, 2), (13, 6), (60, 30), (200, 100)), (1.0, 1e3)):
        op = random_operator(n, d, np.random.default_rng(1000 * n + d), cond)
        yield n, d, cond, op, np.random.default_rng(7).standard_normal((d, 8))


def grid96():
    """(label, operator, lam, x, None) of each case of the 96-case grid."""
    for n, d, cond, op, draws in _operators96():
        for lam, scale in itertools.product((0.1, 1.0, 10.0), (1e-7, 1e-4, 1e-1, 10.0)):
            yield f"{n}x{d} cond {cond:g} lam {lam:g} scale {scale:g}", op, lam, scale * draws, None


def grid_shrinkage():
    """(label, operator, lam, y, f(y)) of each case of the shrinkage grid."""
    for n, d, cond, op, draws in _operators96():
        peak = np.max(np.abs(op.matrix @ draws), axis=0)
        for lam, past in itertools.product((0.1, 1.0, 10.0), (1e-7, 1e-4, 1e-1, 10.0)):
            y, f = proof_regularizer(op, draws * (lam * (1.0 + past) / peak), lam)
            yield f"{n}x{d} cond {cond:g} lam {lam:g} past {past:g}", op, lam, y, f


def run_grid(name, cases, tol):
    """Evaluate each case, print its line, then the grid's summary line.

    Returns each case's label, its columns' iterations (None if open) and
    its miss of the exact f (None if open or without one).
    """
    outcomes, seconds, floor = [], 0.0, 0
    for label, op, lam, x, exact in cases:
        reg = InducedRegularizer(FrameShrinkage(op, soft_shrink_map(lam)))
        c = op.matrix @ x
        start = time.perf_counter()
        try:
            upper, lower, iters = shrinkage._certify(reg, c, reg.g(c), tol)
        except NotConverged as exc:
            outcomes.append((label, None, None))
            print(f"{name} | {label} | open | {exc} | {time.perf_counter() - start:.3f} s")
            continue
        elapsed = time.perf_counter() - start
        seconds += elapsed
        at_floor = int(np.sum(upper - lower > tol))
        floor += at_floor > 0
        line = f"{name} | {label} | certified | max {np.max(iters)} sum {np.sum(iters)} | floor {at_floor}"
        miss = None
        if exact is not None:
            miss = float(np.max(np.maximum(lower - exact, exact - upper) / exact))
            line += f" | gap {np.max(upper - lower):.1e} miss {miss:+.1e}"
        outcomes.append((label, iters, miss))
        print(f"{line} | {elapsed:.3f} s")
    done = [iters for _, iters, _ in outcomes if iters is not None]
    open_cases = [label for label, iters, _ in outcomes if iters is None]
    summary = f"{name}: {len(done)}/{len(outcomes)} certified, "
    misses = [miss for _, _, miss in outcomes if miss is not None]
    if misses:
        summary += (f"{sum(miss > MISS for miss in misses)} miss f by more than {MISS:g} "
                    f"(largest {max(misses):+.1e}), ")
    print(f"{summary}{floor} with a column at the rounding floor, "
          f"{sum(int(np.sum(i)) for i in done)} column-iterations in {seconds:.1f} s "
          f"over the certified cases; open: {', '.join(open_cases) or 'none'}")
    return outcomes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cap", type=int, default=shrinkage._MAX_ITER,
                        help="shrinkage._MAX_ITER for the run (default: its value)")
    parser.add_argument("--tol", type=float, default=1e-7, help="induced_regularizer's tol")
    grids = {"32": grid32, "96": grid96, "shrinkage": grid_shrinkage}
    parser.add_argument("--grid", nargs="+", choices=tuple(grids), default=list(grids))
    args = parser.parse_args()
    shrinkage._MAX_ITER = args.cap
    for name in args.grid:
        run_grid(name, grids[name](), args.tol)


if __name__ == "__main__":
    main()
