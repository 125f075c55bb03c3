"""Command-line entry point.

Subcommands
-----------
verify       run the verification suites for an operator/prox pair
example      print the packaged worked example (operator (1, 2)^T, lam = 1)
regularizer  export induced-regularizer values over a grid as CSV/JSON
solve        solve the analysis-sparsity problem for given data

Operators are named inline ("example35", "identity:3", "random:6x3:42") or
loaded from .csv / .json matrix files. Runs are reproducible: the seed fully
determines every sample, and reports are emitted in a fixed order with fixed
key order, so identical configurations produce byte-identical streams. Seeds
are integers in [0, 2**64); verify also draws on seed + 1 .. seed + 5, so
its --seed is at most 2**64 - 6.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

import numpy as np

from .errors import ProxFrameError
from .operators import (
    _json_floats,
    build_operator,
    load_matrix_csv,
    load_matrix_json,
    verify_operator_identities,
)
from .prox import (
    prox_map_by_name,
    soft_shrink_map,
    verify_firm_nonexpansive,
    verify_moreau_characterization,
)
from .sampling import _generator
from .shrinkage import (
    EXAMPLE_MATRIX,
    FrameShrinkage,
    InducedRegularizer,
    example_regularizer_closed_form,
    frame_prox,
    induced_regularizer,
    verify_prox_identity,
    verify_t_firm_nonexpansive,
    weaker_regularizer_check,
)
from .solvers import AnalysisProblem, _scale, solve_analysis_dual


def load_named_matrix(spec: str) -> np.ndarray:
    """Resolve an operator argument to a dense matrix.

    A bad size, shape or seed in an inline spec raises ValueError quoting the
    spec, and one too large to allocate raises MemoryError quoting it.
    """
    if spec == "example35":
        return np.array(EXAMPLE_MATRIX)
    try:
        if spec.startswith("identity:"):
            d = int(spec.split(":", 1)[1])
            if d < 1:
                raise ValueError("identity dimension must be >= 1")
            return np.eye(d)
        if spec.startswith("random:"):
            try:
                _, shape, seed = spec.split(":")
                n, d = (int(v) for v in shape.lower().split("x"))
            except ValueError as exc:
                raise ValueError("expected random:NxD:SEED") from exc
            return _generator(int(seed)).standard_normal((n, d))
    except ValueError as exc:
        raise ValueError(f"--operator {spec!r}: {exc}") from exc
    except MemoryError as exc:
        raise MemoryError(f"--operator {spec!r}: {exc}") from exc
    if spec.endswith(".json"):
        return load_matrix_json(spec)
    if spec.endswith(".csv"):
        return load_matrix_csv(spec)
    raise ValueError(
        f"unknown operator {spec!r}; use example35, identity:D, random:NxD:SEED, "
        "or a .csv/.json matrix file"
    )


def parse_prox(spec: str):
    """NAME or NAME:LAMBDA as a catalog map; identity takes no LAMBDA."""
    name, colon, lam = spec.partition(":")
    if colon and name == "identity":
        raise ValueError(f"identity takes no LAMBDA, got {spec!r}")
    return prox_map_by_name(name, float(lam) if colon else 1.0)


def parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"expected LO:HI:STEP, got {spec!r}") from exc
    if not 0 < step < np.inf or hi < lo or not np.isfinite((hi - lo) / step):
        raise ValueError(f"bad grid {spec!r}: needs finite LO <= HI, STEP > 0 and point count")
    count = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(count)


def _csv_row(values) -> str:
    """One CSV line: booleans as true/false, floats by repr, anything else by str."""
    return ",".join(str(v).lower() if isinstance(v, bool) else repr(v) if isinstance(v, float) else str(v) for v in values)


def _tol(args: argparse.Namespace) -> dict:
    """``{"tol": --tol}`` as given (0 included), or ``{}`` without --tol.

    Passed as ``**_tol(args)``, so without --tol each check and solve runs at
    its own default tolerance, the one its signature states. A NaN,
    infinite or negative --tol raises ValueError naming --tol.
    """
    if args.tol is not None and not 0 <= args.tol < np.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    return {} if args.tol is None else {"tol": args.tol}


def _shrinkage(args: argparse.Namespace) -> InducedRegularizer:
    """The regularizer induced by --operator and --prox; its shrinkage is ``.shrinkage``."""
    fs = FrameShrinkage(build_operator(load_named_matrix(args.operator)), parse_prox(args.prox))
    return InducedRegularizer(fs)


def cmd_verify(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    # the six checks draw on seed .. seed + 5, and each must be a 64-bit key
    if not 0 <= args.seed <= 2**64 - 6:
        raise ValueError(f"--seed must be in the range 0 .. 2**64 - 6, got {args.seed}")
    reg = _shrinkage(args)
    fs = reg.shrinkage
    op, prox = fs.operator, fs.inner_prox
    tol = _tol(args)

    reports = [
        verify_operator_identities(op, trials=args.trials, seed=args.seed, **tol),
        verify_firm_nonexpansive(prox, dim=op.n, trials=args.trials, seed=args.seed + 1, **tol),
        verify_moreau_characterization(prox, dim=op.n, trials=min(args.trials, 200), seed=args.seed + 2, **tol),
        verify_t_firm_nonexpansive(fs, trials=args.trials, seed=args.seed + 3, **tol),
        verify_prox_identity(fs, reg, trials=min(args.trials, 200), seed=args.seed + 4, **tol),
        weaker_regularizer_check(reg, trials=args.trials, seed=args.seed + 5, **tol),
    ]
    for rep in reports:
        emit(_csv_row(rep.to_dict().values()) if args.fmt == "csv" else rep.to_json())
    return 0 if all(r.passed for r in reports) else 1


def cmd_regularizer(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    # checked here, before any work, so that the usage error names --seed
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must be in the range 0 .. 2**64 - 1, got {args.seed}")
    reg = _shrinkage(args)
    op, prox = reg.shrinkage.operator, reg.shrinkage.inner_prox
    grid = parse_grid(args.grid)
    tol = _tol(args)

    # the grid runs along a seeded unit direction, +-1 when d = 1
    direction = _generator(args.seed).standard_normal(op.d)
    direction /= np.linalg.norm(direction)
    points = direction[:, None] * grid[None, :]

    columns = {"x": grid, "f_numeric": np.atleast_1d(induced_regularizer(reg, points, **tol))}
    if np.array_equal(op.matrix, EXAMPLE_MATRIX) and prox.name == "soft_shrink" and prox.lam == 1.0:
        half_step = 0.5 * float(grid[1] - grid[0]) if grid.size > 1 else 0.0
        columns["f_closed_form"] = example_regularizer_closed_form(grid)
        columns["at_branch"] = (np.abs(np.abs(grid) - 0.4) <= half_step).astype(int)

    table = {name: col.tolist() for name, col in columns.items()}
    if args.fmt == "json":
        emit(json.dumps(table))
    else:
        emit(",".join(table))
        for row in zip(*table.values()):
            emit(_csv_row(row))
    return 0


def cmd_solve(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    matrix = load_named_matrix(args.operator)
    lam = args.lam
    if args.problem:
        with open(args.problem) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{args.problem} must hold a JSON object")
        if "x" not in doc:
            raise ValueError(f'{args.problem} has no "x" field')
        try:
            x = _json_floats(doc["x"])
            lam = float(_json_floats([doc.get("lambda", lam)])[0])
        except ValueError as exc:
            raise ValueError(f"malformed problem JSON in {args.problem}: {exc}") from exc
    elif args.x:
        try:
            x = np.asarray([float(v) for v in args.x.split(",")], dtype=float)
        except ValueError as exc:
            raise ValueError(f"malformed --x: {exc}") from exc
    else:
        raise ValueError("solve needs --x or --problem")
    report = solve_analysis_dual(AnalysisProblem(x, matrix, lam), **_tol(args))
    emit(report.to_json())

    # contrast with the frame shrinkage at the same lambda when the matrix is a frame
    if matrix.shape[0] >= matrix.shape[1]:
        try:
            op = build_operator(matrix)
        except ProxFrameError:
            pass
        else:
            y = frame_prox(FrameShrinkage(op, soft_shrink_map(lam)), x)
            diff = op.matrix @ (np.asarray(report.minimizer) - y)
            # taken on diff / s, whose square neither overflows nor underflows;
            # exact for a power of two
            s = _scale(diff)
            dist = s * float(np.linalg.norm(diff / s))
            emit(json.dumps({"frame_prox": np.atleast_1d(y).tolist(), "t_distance": dist}))
    return 0 if report.converged else 1


def cmd_example(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    emit("soft shrinkage, envelope and potential at lam = 1")
    emit("x        S_1(x)   envelope  potential")
    from .prox import huber_envelope, shrink_potential, soft_shrink

    for x in (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
        emit(
            f"{x:+.2f}   {soft_shrink(x, 1.0) + 0.0:+.3f}   "
            f"{huber_envelope(x, 1.0):.4f}    {shrink_potential(x, 1.0):.4f}"
        )
    emit("")
    emit("induced regularizer for T = (1, 2)^T with S_1 (branch point |y| = 2/5)")
    emit("y        f(y)")
    for y in (-1.0, -0.4, -0.2, 0.0, 0.2, 0.4, 1.0, 2.0):
        emit(f"{y:+.2f}   {example_regularizer_closed_form(y):.6f}")
    emit("")
    emit("at x = 1: frame shrinkage gives 0.4, the analysis problem's")
    emit("minimizer is 0.0; the shrinkage is the prox of f in the T metric,")
    emit("not the minimizer of the analysis objective.")
    return 0


_OPTIONS = {
    "operator": dict(default="example35",
                     help="example35 | identity:D | random:NxD:SEED | matrix .csv/.json"),
    "prox": dict(default="soft:1", help="NAME:LAMBDA, e.g. soft:0.5 or identity"),
    "tol": dict(type=float, default=None, help="tolerance override"),
    "trials": dict(type=int, default=100, help="sampling trials per check"),
    "seed": dict(type=int, default=0, help="seed pinning all sampling"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proxframe", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand registers only the options it reads, so any other is a usage error
    for name, handler, help_text, options, fmt in (
        ("verify", cmd_verify, "run the verification suites",
         ("operator", "prox", "tol", "trials", "seed"), "json"),
        ("example", cmd_example, "print the packaged worked example", (), None),
        ("regularizer", cmd_regularizer, "export induced-regularizer values over a grid",
         ("operator", "prox", "tol", "seed"), "csv"),
        ("solve", cmd_solve, "solve the analysis-sparsity problem", ("operator", "tol"), None),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
        p.add_argument("--out", default=None, help="mirror output to this file")
        if fmt:
            p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=fmt)
        if name == "regularizer":
            p.add_argument("--grid", default="-2:2:0.01", help="LO:HI:STEP")
        if name == "solve":
            p.add_argument("--x", default=None, help="comma-separated data vector")
            p.add_argument("--problem", default=None, help='JSON file {"x": [...], "lambda": ...}')
            p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                           help="analysis regularization weight")
    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Let value flags take arguments that start with a dash (e.g. -2:2:0.01)."""
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--grid", "--x") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


# OpenBLAS's (getter, setter) of its thread count, by the names its builds export
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _numpy_core():
    """NumPy's compiled core as a ``ctypes`` library, loaded once per process.

    Its loader also searches the libraries the core links, so a symbol found
    on it belongs to the BLAS that NumPy's products run on.
    """
    import ctypes

    core = sys.modules.get("numpy._core._multiarray_umath") or sys.modules["numpy.core._multiarray_umath"]
    return ctypes.CDLL(core.__file__)


@functools.cache
def _blas_threads():
    """The (getter, setter) of NumPy's OpenBLAS thread count, or None if none is found.

    Looked up once per process on ``_numpy_core()``.
    """
    import ctypes

    handle = _numpy_core()
    for get, put in _BLAS_THREAD_SYMBOLS:
        getter, setter = getattr(handle, get, None), getattr(handle, put, None)
        if getter and setter:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


def main(argv=None) -> int:
    """Run one ``proxframe`` invocation and return its exit code.

    Each call parses into a fresh namespace, so main may run again in the
    same process. The parser and its handlers are bound on the first call,
    so patching a ``cmd_*`` name later does not reach them; the library
    functions and sys.stdout and sys.stderr are looked up per call. The
    handler runs with NumPy's OpenBLAS pinned to one thread
    (``_blas_threads``), restored on return, since the thread count can move
    a product's last bits; without a setter the BLAS runs as it is set.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = parser.parse_args(_merge_dash_values(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    lines: list[str] = []

    def emit(text: str) -> None:
        lines.append(text)
        sys.stdout.write(text + "\n")

    blas = _blas_threads()
    if blas:
        threads = blas[0]()
        blas[1](1)
    # --out mirrors stdout once the handler returns, so a run that fails writes no file
    try:
        code = ns.handler(ns, emit)
        if ns.out:
            with open(ns.out, "w") as fh:
                fh.write("".join(line + "\n" for line in lines))
    except (ProxFrameError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if blas:
            blas[1](threads)
    return code


if __name__ == "__main__":
    sys.exit(main())
