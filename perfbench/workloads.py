"""The benchmark's workloads: inputs drawn from the seed, calls, output gates.

A run is a fixed number of passes. Pass ``p`` draws its inputs from
``numpy.random.default_rng([seed, p])``, so a run measures many independent
instances and the same seed always gives the same inputs. Every input is
drawn and every operator built in ``prepare``, before timing starts; the
calls themselves go through ``proxframe``'s public names only.

Each call is gated. A ``"pass": false`` report, a raised error, an
unconverged solve and a mismatch against a reference all count as a failed
call; no input is skipped or redrawn. Each workload also repeats, on every
pass, the default-tolerance failures reproduced on the CLI (see
``REGRESSIONS``), so its failure ratio is never zero by construction.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass

import numpy as np

import proxframe
import proxframe.cli

perf = time.perf_counter

# Inputs are drawn for this many passes; a longer run cycles through them.
POOL_PASSES = 32

# Key of the seed-independent schedule of operator shapes in sampled_pairs.
SHAPE_KEY = 20191007

# Checks that fail at their default tolerances, reproduced on the CLI:
#   verify --operator random:8x8:4 --prox soft:1 --trials 1000 --seed 1
#     -> t_firm_nonexpansive 5.5e-12 > 1e-12
#   verify --operator random:20x10:5 --prox identity --trials 1000 --seed 1
#     -> t_firm_nonexpansive 1.5e-10 > 1e-12
#   verify --operator random:200x100:2 --prox soft:1 --trials 100 --seed 1
#     -> prox_identity 1.43e-6 > 1e-6
# The CLI derives each check's seed from --seed (t_firm: +3, prox_identity: +4).
REGRESSIONS = (
    (8, 8, 4, "soft:1", 1000, 1),
    (20, 10, 5, "identity", 1000, 1),
    (200, 100, 2, "soft:1", 100, 1),
)


# The reference kernel: small NumPy operations driven from a Python loop,
# the mix the library's calls are made of, on fixed data. It is timed after
# every call, outside the call's own time, to track how fast the machine runs
# at that moment (see run.py).
_REF_A = np.random.default_rng(0).standard_normal((12, 12)) / 4.0
_REF_X = np.random.default_rng(1).standard_normal((12, 400))


def reference() -> float:
    """Seconds the reference kernel takes now."""
    t0 = perf()
    x = _REF_X
    for _ in range(30):
        x = np.tanh(_REF_A @ x) + 0.5 * np.maximum(np.abs(x) - 0.1, 0.0)
    return perf() - t0


@dataclass
class Call:
    kind: str
    seconds: float
    units: int
    ok: bool
    ref: float


def _feed(digest, values) -> None:
    for v in values:
        if isinstance(v, (bool, np.bool_, int, np.integer, str)):
            digest.update(repr(v).encode())
        elif isinstance(v, (float, np.floating)):
            digest.update(float(v).hex().encode())
        else:
            digest.update(np.ascontiguousarray(v, dtype=float).tobytes())
        digest.update(b"|")


class Pass:
    """Times the calls of one pass, gates their results and hashes them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls: list[Call] = []
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.wall = 0.0

    def call(self, kind: str, fn, check):
        """Time ``fn()``; ``check(result)`` gives (units, ok, numbers, note)."""
        self.tracer.take_unconverged()
        t0 = perf()
        try:
            result = fn()
        except Exception as exc:  # a raised error is a wrong answer: count it, go on
            seconds = perf() - t0
            self._record(kind, seconds, 0, False, [type(exc).__name__], f"{type(exc).__name__}: {exc}")
            return None
        seconds = perf() - t0
        traced, self.tracer.active = self.tracer.active, False
        units, ok, numbers, note = check(result)
        self.tracer.active = traced
        if self.tracer.take_unconverged():
            ok, note = False, note or "numeric_prox did not converge"
        self._record(kind, seconds, units, ok, numbers, note)
        return result

    def _record(self, kind, seconds, units, ok, numbers, note):
        self.calls.append(Call(kind, seconds, units, ok, reference()))
        _feed(self.digest, [kind, *numbers])
        if not ok:
            self.failures.append(f"{kind}: {note}")


def check_report(rep):
    numbers = [rep.property_name, rep.trials, rep.max_violation, rep.tolerance, rep.passed]
    note = "" if rep.passed else f"{rep.property_name} {rep.max_violation:.3e} > {rep.tolerance:.0e}"
    return rep.trials, rep.passed, numbers, note


def cli_matrix(n: int, d: int, key: int) -> np.ndarray:
    """The matrix the CLI names ``random:NxD:KEY``."""
    return np.random.Generator(np.random.Philox(key=np.uint64(key))).standard_normal((n, d))


def _prox(spec: str):
    name, _, lam = spec.partition(":")
    return proxframe.prox_map_by_name(name, float(lam) if lam else 1.0)


def _seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


class SampledPairs:
    """Sampled checks on small operators; sampling-bound, no splitting calls.

    The random operators' shapes and condition numbers follow a schedule
    that is the same for every seed (``SHAPE_KEY``); the seed draws their
    entries and every trial. A check's cost follows the operator's shape, so
    runs on different seeds do the same amount of work.
    """

    name = "sampled_pairs"
    TRIALS = 2500
    RANDOM_OPERATORS = 8

    def prepare(self, seed: int) -> None:
        self.regressions = []
        for n, d, key, prox, trials, cli_seed in REGRESSIONS[:2]:
            fs = proxframe.FrameShrinkage(proxframe.build_operator(cli_matrix(n, d, key)), _prox(prox))
            self.regressions.append((fs, trials, cli_seed + 3))
        self.pool = []
        for p in range(POOL_PASSES):
            rng = np.random.default_rng([seed, p])
            shapes = np.random.default_rng([SHAPE_KEY, p])
            ops = [proxframe.example_operator(), proxframe.build_operator(np.eye(4))]
            for _ in range(self.RANDOM_OPERATORS):
                n = int(shapes.integers(2, 16))
                d = int(shapes.integers(1, n + 1))
                cond = 10.0 ** shapes.uniform(0.0, 3.0)
                ops.append(proxframe.random_operator(n, d, rng, cond=cond))
            shrinkages = [proxframe.FrameShrinkage(op, proxframe.soft_shrink_map(1.0)) for op in ops]
            self.pool.append([(fs, _seeds(rng, 3)) for fs in shrinkages])

    def warm_up(self) -> None:
        fs, _ = self.pool[0][0]
        proxframe.verify_t_firm_nonexpansive(fs, trials=8, tol=1e-12)
        proxframe.verify_firm_nonexpansive(fs.inner_prox, dim=fs.operator.n, trials=8, tol=1e-12)
        proxframe.verify_operator_identities(fs.operator, tol=1e-10, trials=8)

    def run_pass(self, p: int, out: Pass) -> None:
        t = self.TRIALS
        for fs, (s1, s2, s3) in self.pool[p % POOL_PASSES]:
            op = fs.operator
            out.call("t_firm", lambda: proxframe.verify_t_firm_nonexpansive(fs, trials=t, tol=1e-12, seed=s1), check_report)
            out.call("firm", lambda: proxframe.verify_firm_nonexpansive(fs.inner_prox, dim=op.n, trials=t, tol=1e-12, seed=s2), check_report)
            out.call("identities", lambda: proxframe.verify_operator_identities(op, tol=1e-10, trials=t, seed=s3), check_report)
        for fs, trials, seed in self.regressions:
            out.call("t_firm", lambda: proxframe.verify_t_firm_nonexpansive(fs, trials=trials, tol=1e-12, seed=seed), check_report)


def check_grid(x):
    def check(f):
        f = np.asarray(f, dtype=float)
        err = float(np.max(np.abs(f - proxframe.example_regularizer_closed_form(x))))
        excess = float(np.max(f - 3.0 * np.abs(x)))
        ok = err <= 1e-6 and excess <= 1e-9
        return x.size, ok, [f], f"grid |f - closed form| {err:.3e}, f - g(Tx) {excess:.3e}"
    return check


def check_solves(result):
    reports, shrunk = result
    flagship = float(reports[-1].minimizer[0])
    converged = all(r.converged for r in reports)
    ok = converged and abs(flagship) <= 1e-6 and abs(shrunk - 0.4) <= 1e-12
    numbers = [v for r in reports for v in (r.minimizer, r.objective, r.iterations, r.converged)]
    note = f"converged={converged}, solve(1)={flagship:.3e}, frame_prox(1)={shrunk!r}"
    return len(reports), ok, numbers + [shrunk], note


def acceptance_shrinkages() -> list:
    """The shrinkages of acceptance criteria 6 and 2, drawn as those tests draw them.

    Criterion 6: ``example35`` and six random rectangular shrinkages
    (``n < 14``, ``d < n``, lambda in {0.1, 1, 10}, condition 1-1e3) from
    ``default_rng(6)``. Criterion 2: its first random operator, from
    ``default_rng(2024)``, at each of its lambdas 0.1, 1 and 10.
    """
    rng = np.random.default_rng(6)
    out = [proxframe.example_shrinkage()]
    for _ in range(6):
        n = int(rng.integers(2, 14))
        d = int(rng.integers(1, n))
        lam = float(rng.choice([0.1, 1.0, 10.0]))
        op = proxframe.random_operator(n, max(d, 1), rng, cond=10.0 ** rng.uniform(0.0, 3.0))
        out.append(proxframe.FrameShrinkage(op, proxframe.soft_shrink_map(lam)))
    rng = np.random.default_rng(2024)
    n = int(rng.integers(2, 21))
    d = int(rng.integers(1, min(n, 10) + 1))
    op = proxframe.random_operator(n, d, rng, cond=10.0 ** rng.uniform(0.0, 3.0))
    out += [proxframe.FrameShrinkage(op, proxframe.soft_shrink_map(lam)) for lam in (0.1, 1.0, 10.0)]
    return out


class IterativeSolves:
    """Induced-regularizer and T-metric prox solves; splitting-bound.

    The shrinkages are fixed (``acceptance_shrinkages``); the seed draws
    every sampled point. One operator draw can cost 100x another here, so a
    seed-drawn set of shrinkages would make runs on different seeds measure
    different work. Pass p checks every other shrinkage, alternating between
    passes, so a run makes more than ten passes and as many runs of the
    200x100 regression, which takes longer than any other call: call_tail_ms
    then falls among these identical calls rather than on whichever slow
    column a seed happened to draw.
    """

    name = "iterative_solves"
    WEAKER_TRIALS = 5
    PROX_TRIALS = 5
    GRID = 101

    def prepare(self, seed: int) -> None:
        n, d, key, prox, trials, cli_seed = REGRESSIONS[2]
        fs = proxframe.FrameShrinkage(proxframe.build_operator(cli_matrix(n, d, key)), _prox(prox))
        self.regression = (fs, proxframe.InducedRegularizer.from_shrinkage(fs), trials, cli_seed + 4)
        self.shrinkages = [(fs, proxframe.InducedRegularizer.from_shrinkage(fs)) for fs in acceptance_shrinkages()]
        self.example, self.example_reg = self.shrinkages[0]
        self.pool = []
        for p in range(POOL_PASSES):
            rng = np.random.default_rng([seed, p])
            seeds = [_seeds(rng, 2) for _ in self.shrinkages]
            step = 4.0 / (self.GRID - 1)
            grid = -2.0 + step * (np.arange(self.GRID) + rng.uniform())
            data = [rng.standard_normal(fs.operator.d) for fs, _ in self.shrinkages]
            self.pool.append((seeds, grid, data))

    def warm_up(self) -> None:
        fs, reg = self.shrinkages[1]
        proxframe.weaker_regularizer_check(reg, trials=2, tol=1e-9)
        proxframe.verify_prox_identity(fs, reg, trials=2, tol=1e-6)
        self._solves(self.pool[0][2])
        proxframe.induced_regularizer(self.example_reg, np.array([[0.5, 1.5]]), tol=1e-9)

    def _solves(self, xs):
        problems = [proxframe.AnalysisProblem(x, fs.operator, fs.inner_prox.lam) for (fs, _), x in zip(self.shrinkages, xs)]
        problems.append(proxframe.AnalysisProblem(np.array([1.0]), self.example.operator, 1.0))
        reports = [proxframe.solve_analysis_dual(pr, tol=1e-10) for pr in problems]
        return reports, float(proxframe.frame_prox(self.example, np.array([1.0]))[0])

    def run_pass(self, p: int, out: Pass) -> None:
        seeds, grid, data = self.pool[p % POOL_PASSES]
        for (fs, reg), (s1, s2) in list(zip(self.shrinkages, seeds))[p % 2::2]:
            out.call("weaker", lambda: proxframe.weaker_regularizer_check(reg, trials=self.WEAKER_TRIALS, tol=1e-9, seed=s1), check_report)
            out.call("prox_identity", lambda: proxframe.verify_prox_identity(fs, reg, trials=self.PROX_TRIALS, tol=1e-6, seed=s2), check_report)
        out.call("grid", lambda: proxframe.induced_regularizer(self.example_reg, grid[None, :], tol=1e-9), check_grid(grid))
        out.call("solves", lambda: self._solves(data), check_solves)
        fs, reg, trials, seed = self.regression
        out.call("prox_identity", lambda: proxframe.verify_prox_identity(fs, reg, trials=trials, tol=1e-6, seed=seed), check_report)


REPORT_KEYS = ["property", "trials", "max_violation", "tolerance", "pass"]


def run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = proxframe.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_cli_verify(result):
    code, text, err = result
    try:
        reports = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError:
        reports = []
    if len(reports) != 6 or not all(isinstance(r, dict) and list(r) == REPORT_KEYS for r in reports):
        return 0, False, [code, text], f"malformed verify output, exit {code} {err.strip()}"
    failing = [f"{r['property']} {r['max_violation']:.3e} > {r['tolerance']:.0e}" for r in reports if r["pass"] is not True]
    ok = code == 0 and not failing
    return sum(int(r["trials"]) for r in reports), ok, [code, text], "; ".join(failing) or f"exit {code} {err.strip()}"


def check_cli_solve(flagship: bool):
    def check(result):
        code, text, err = result
        lines = text.splitlines()
        try:
            solve = json.loads(lines[0])
            ok = code == 0 and solve["converged"] is True
            if flagship:
                shrunk = json.loads(lines[1])["frame_prox"][0]
                ok = ok and abs(solve["minimizer"][0]) <= 1e-6 and abs(shrunk - 0.4) <= 1e-12
        except (json.JSONDecodeError, IndexError, KeyError, TypeError):
            ok = False
        return 1, ok, [code, text], f"exit {code} {text.strip()[:120]} {err.strip()}"
    return check


def check_cli_grid(result):
    code, text, err = result
    try:
        doc = json.loads(text)
        x, f = np.asarray(doc["x"]), np.asarray(doc["f_numeric"])
        err_closed = float(np.max(np.abs(f - np.asarray(doc["f_closed_form"]))))
        excess = float(np.max(f - 3.0 * np.abs(x)))
        ok = code == 0 and err_closed <= 1e-6 and excess <= 1e-9
        units, note = x.size, f"grid |f - closed form| {err_closed:.3e}, f - g(Tx) {excess:.3e}"
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        ok, units, note = False, 0, f"exit {code} {err.strip()}"
    return units, ok, [code, text], note


class VerifyCli:
    """In-process ``proxframe`` CLI invocations, the user's path."""

    name = "verify_cli"
    # (rows x cols, prox, trials): 12x5 up to 400x250, so BLAS carries the
    # large cases and per-call Python overhead the small ones. Pass p runs
    # case p mod 6, so a run makes many short passes. Each pass also runs
    # the 200x100 regression, which takes 5-10x any other call: a run makes
    # more than ten of them, so call_tail_ms falls among these identical
    # calls, not on the edge between them and the data-dependent rest.
    VERIFY = (
        ("12x5", "soft:0.5", 100),
        ("30x12", "soft:1", 50),
        ("60x30", "identity", 40),
        ("100x60", "soft:1", 20),
        ("200x100", "soft:1", 10),
        ("400x250", "soft:1", 4),
    )
    SOLVE_SHAPE = (40, 20)
    GRID_STEP = 0.04

    def prepare(self, seed: int) -> None:
        self.regressions = [
            ["verify", "--operator", f"random:{n}x{d}:{key}", "--prox", prox, "--trials", str(trials), "--seed", str(s)]
            for n, d, key, prox, trials, s in REGRESSIONS
        ]
        self.pool = []
        for p in range(POOL_PASSES):
            rng = np.random.default_rng([seed, p])
            verify = []
            for shape, prox, trials in self.VERIFY[p % len(self.VERIFY)::len(self.VERIFY)]:
                key, s = _seeds(rng, 2)
                verify.append(["verify", "--operator", f"random:{shape}:{key}", "--prox", prox, "--trials", str(trials), "--seed", str(s)])
            n, d = self.SOLVE_SHAPE
            key = _seeds(rng, 1)[0]
            x = ",".join(repr(float(v)) for v in rng.standard_normal(d))
            solve = ["solve", "--operator", f"random:{n}x{d}:{key}", "--x", x, "--lambda", "0.5"]
            lo = -2.0 + self.GRID_STEP * rng.uniform()
            grid = ["regularizer", "--operator", "example35", "--grid", f"{lo!r}:{lo + 4.0!r}:{self.GRID_STEP!r}", "--format", "json"]
            self.pool.append((verify, solve, grid))

    def warm_up(self) -> None:
        run_cli(["verify", "--operator", "random:12x5:1", "--trials", "4"])
        run_cli(["solve", "--operator", "example35", "--x", "1", "--lambda", "1"])
        run_cli(["regularizer", "--operator", "example35", "--grid", "0:1:0.5", "--format", "json"])

    def run_pass(self, p: int, out: Pass) -> None:
        verify, solve, grid = self.pool[p % POOL_PASSES]
        for argv in verify + self.regressions:
            out.call("cli_verify", lambda: run_cli(argv), check_cli_verify)
        out.call("cli_solve", lambda: run_cli(["solve", "--operator", "example35", "--x", "1", "--lambda", "1"]), check_cli_solve(True))
        out.call("cli_solve", lambda: run_cli(solve), check_cli_solve(False))
        out.call("cli_regularizer", lambda: run_cli(grid), check_cli_grid)


WORKLOADS = {w.name: w for w in (SampledPairs, IterativeSolves, VerifyCli)}

