"""Spans around proxframe's public functions, recorded from outside the library.

The benchmark imports no private name. ``Tracer.install`` looks up every
function that ``proxframe.__all__`` exports, plus ``proxframe.cli.main``, and
replaces each module-level binding of it inside the loaded ``proxframe.*``
modules with a wrapper. Calls the library makes to its own public functions
(``frame_prox`` inside a check, ``numeric_prox`` inside
``verify_prox_identity``, ``soft_shrink`` inside a splitting loop) are then
timed as child spans, and refactors that delete internals do not break it.

Spans are folded into per-function accumulators as they close, so a run of
millions of splitting iterations keeps constant memory. A span's self time
is its duration minus the time of the spans it directly caused.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

perf = time.perf_counter

# Check functions whose own body, outside their traced children, draws the
# trial samples and reduces over them. Their self time is booked to the
# "sampling" layer; proxframe.sampling exports nothing that could be wrapped.
SAMPLED_CHECKS = frozenset({
    "verify_operator_identities",
    "verify_firm_nonexpansive",
    "verify_moreau_characterization",
    "verify_t_firm_nonexpansive",
    "verify_prox_identity",
    "weaker_regularizer_check",
})

# numeric_prox is a thin driver around the splitting iterations (ADMM in the
# T metric, Douglas-Rachford without one); its self time is splitting time.
SPLITTING_DRIVERS = frozenset({"numeric_prox"})

LAYERS = ("operators", "sampling", "prox", "splitting", "shrinkage", "solvers", "cli")


def layer_of(name: str, module: str) -> str:
    if name in SAMPLED_CHECKS:
        return "sampling"
    if name in SPLITTING_DRIVERS:
        return "splitting"
    return module.rsplit(".", 1)[-1]


@dataclass
class Stat:
    """Accumulated spans of one function."""

    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)


def _columns(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


def _count_frame_prox(stat, bound, result):
    stat.add("columns", _columns(bound["x"]))


def _count_induced(stat, bound, result):
    import numpy as np

    reg, x = bound["reg"], np.asarray(bound["x"], dtype=float)
    tol = bound.get("tol", 1e-9)
    matrix = reg.shrinkage.operator.matrix
    stat.add("columns", _columns(x))
    if matrix.shape[0] > matrix.shape[1]:
        cols = x if x.ndim == 2 else np.atleast_1d(x)[:, None]
        g = reg.shrinkage.inner_prox.function
        g_vals = np.atleast_1d(np.asarray(g(matrix @ cols), dtype=float))
        stat.add("active", int(np.count_nonzero(g_vals > tol)))


def _count_numeric_prox(stat, bound, result):
    cols = _columns(bound["x"])
    stat.add("columns", cols)
    stat.add("unconverged", 0 if result.converged else 1)
    stat.add("col_iterations", cols * result.iterations)
    stat.sample("iterations", result.iterations)


def _count_solve(stat, bound, result):
    stat.add("iterations", result.iterations)
    stat.add("unconverged", 0 if result.converged else 1)
    stat.sample("iterations", result.iterations)


def _count_trials(stat, bound, result):
    stat.add("trials", result.trials)


def _count_cli(stat, bound, result):
    argv = bound.get("argv") or ["?"]
    stat.add(f"{argv[0]}.calls", 1)


COUNTERS = {
    "frame_prox": _count_frame_prox,
    "induced_regularizer": _count_induced,
    "numeric_prox": _count_numeric_prox,
    "solve_analysis_dual": _count_solve,
    "main": _count_cli,
    **{name: _count_trials for name in SAMPLED_CHECKS},
}


class Tracer:
    """Wraps the public functions and accumulates their spans.

    ``install(spans=False)`` wraps only ``numeric_prox``, to observe the
    ``converged`` flag the output gate needs. ``install(spans=True)`` wraps
    every public function; spans are recorded while ``active`` is true.
    Not thread safe: timed runs keep ``PROXFRAME_THREADS=1``.
    """

    def __init__(self):
        self.active = False
        self.stats: dict[str, Stat] = {}
        self.cli_stats: dict[str, Stat] = {}
        self.overhead_s = 0.0
        self.unconverged = 0
        self._stack: list[float] = []

    def install(self, spans: bool) -> None:
        import proxframe
        import proxframe.cli

        targets = {name: getattr(proxframe, name) for name in proxframe.__all__}
        targets = {n: f for n, f in targets.items() if inspect.isfunction(f)}
        targets["main"] = proxframe.cli.main
        if not spans:
            targets = {"numeric_prox": targets["numeric_prox"]}
        wrappers = {id(f): self._wrap(n, f) for n, f in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "proxframe" and not mod_name.startswith("proxframe."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def take_unconverged(self) -> int:
        n, self.unconverged = self.unconverged, 0
        return n

    def reset(self) -> None:
        self.stats = {name: Stat(st.layer) for name, st in self.stats.items()}
        self.cli_stats = {}
        self.overhead_s = 0.0

    def raw(self) -> dict:
        """The accumulated spans as plain data, for ``merge``."""
        return {"stats": {n: asdict(st) for n, st in self.stats.items()},
                "cli": {n: asdict(st) for n, st in self.cli_stats.items()},
                "bookkeeping_s": self.overhead_s}

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        observe = name == "numeric_prox"
        layer = layer_of(name, fn.__module__)
        stack = self._stack
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if not self.active:
                result = fn(*args, **kwargs)
                if observe and not result.converged:
                    self.unconverged += 1
                return result
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                stat = self.stats.get(name) or self.stats.setdefault(name, Stat(layer))
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt
            t1 = perf()
            if observe and not result.converged:
                self.unconverged += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                counter(stat, bound, result)
                if name == "main":
                    sub = self.cli_stats.setdefault((bound.get("argv") or ["?"])[0], Stat("cli"))
                    sub.calls += 1
                    sub.total_s += dt
                    sub.self_s += dt - child
            extra = perf() - t1
            self.overhead_s += extra
            if stack:
                # bookkeeping is excluded from the parent's self time
                stack[-1] += extra
            return result

        return traced


def merge(raws: list[dict]) -> tuple[dict, dict, float]:
    """Sum the spans several worker processes recorded."""
    stats: dict[str, Stat] = {}
    cli_stats: dict[str, Stat] = {}
    for raw in raws:
        for key, into in (("stats", stats), ("cli", cli_stats)):
            for name, d in raw[key].items():
                st = into.setdefault(name, Stat(d["layer"]))
                st.calls += d["calls"]
                st.total_s += d["total_s"]
                st.self_s += d["self_s"]
                for k, v in d["counts"].items():
                    st.add(k, v)
                for k, v in d["samples"].items():
                    st.samples.setdefault(k, []).extend(v)
    return stats, cli_stats, sum(raw["bookkeeping_s"] for raw in raws)


def report(stats: dict[str, Stat], cli_stats: dict[str, Stat], setup: dict[str, Stat], wall_s: float) -> dict:
    """Per-layer metrics, and the self time and counts of each layer."""
    get = lambda name: stats.get(name) or Stat("")  # noqa: E731

    def per(total: float, count: float, scale: float = 1e6) -> float:
        return scale * total / count if count else 0.0

    build = get("build_operator")
    pre = setup.get("build_operator") or Stat("")
    t_firm = get("verify_t_firm_nonexpansive")
    nprox = get("numeric_prox")
    ireg = get("induced_regularizer")
    solve = get("solve_analysis_dual")
    main = get("main")
    iters = sorted(nprox.samples.get("iterations", []))
    solve_iters = solve.samples.get("iterations", [])
    m = {
        "operators.build_operator.us_per_call": per(build.total_s + pre.total_s, build.calls + pre.calls),
        "operators.build_operator.calls": build.calls + pre.calls,
        "operators.verify_operator_identities.us_per_trial": per(get("verify_operator_identities").total_s, get("verify_operator_identities").counts.get("trials", 0)),
        # derived: t_firm self time (its frame_prox children excluded) per drawn stream
        "sampling.us_per_trial": per(t_firm.self_s, 2 * t_firm.counts.get("trials", 0)),
        "prox.verify_firm_nonexpansive.us_per_trial": per(get("verify_firm_nonexpansive").total_s, get("verify_firm_nonexpansive").counts.get("trials", 0)),
        "prox.verify_moreau_characterization.us_per_trial": per(get("verify_moreau_characterization").total_s, get("verify_moreau_characterization").counts.get("trials", 0)),
        "prox.numeric_prox.us_per_col": per(nprox.total_s, nprox.counts.get("columns", 0)),
        "prox.numeric_prox.unconverged": nprox.counts.get("unconverged", 0),
        "splitting.admm.iterations_median": statistics.median(iters) if iters else 0,
        "splitting.admm.iterations_max": iters[-1] if iters else 0,
        "splitting.admm.us_per_col_iter": per(nprox.total_s, nprox.counts.get("col_iterations", 0)),
        "shrinkage.frame_prox.us_per_col": per(get("frame_prox").total_s, get("frame_prox").counts.get("columns", 0)),
        "shrinkage.induced_regularizer.us_per_col": per(ireg.total_s, ireg.counts.get("columns", 0)),
        "shrinkage.induced_regularizer.active_ratio": per(ireg.counts.get("active", 0), ireg.counts.get("columns", 0), 1.0),
        "solvers.solve_analysis_dual.us_per_call": per(solve.total_s, solve.calls),
        "solvers.solve_analysis_dual.iterations": statistics.median(solve_iters) if solve_iters else 0,
        "solvers.solve_analysis_dual.us_per_iter": per(solve.total_s, solve.counts.get("iterations", 0)),
        # derived: cli.main self time, the library calls it makes excluded
        "cli.self_ms_per_call": per(main.self_s, main.calls, 1e3),
    }
    for name in ("verify_t_firm_nonexpansive", "verify_prox_identity", "weaker_regularizer_check"):
        st = get(name)
        m[f"shrinkage.{name}.us_per_trial"] = per(st.total_s, st.counts.get("trials", 0))
    for sub in ("verify", "solve", "regularizer"):
        st = cli_stats.get(sub) or Stat("")
        m[f"cli.{sub}.ms_per_call"] = per(st.total_s, st.calls, 1e3)
    layers = layer_self(stats)
    spanned = sum(layers.values())
    layers["unattributed"] = wall_s - spanned
    for layer, self_s in layers.items():
        m[f"{layer}.self_share"] = self_s / wall_s if wall_s else 0.0
    rows = []
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        if st.calls:
            rows.append({"function": name, "layer": st.layer, "calls": st.calls, "total_s": st.total_s,
                         "self_s": st.self_s, "counts": st.counts})
    return {"metrics": m, "layers": layers, "functions": rows, "span_coverage": spanned / wall_s if wall_s else 0.0}


def layer_self(stats: dict[str, Stat]) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for stat in stats.values():
        out[stat.layer] = out.get(stat.layer, 0.0) + stat.self_s
    return out
