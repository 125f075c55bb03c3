"""proxframe benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck [--seed N] [--seconds S]

Run from the repository root; the library is imported from ``src/``. A run
is a fixed amount of work: ``passes_for(workload, seconds)`` passes, each
drawn from the seed. Fresh interpreters (``worker.py``) run one after
another, each with one BLAS thread and ``PROXFRAME_THREADS=1``:

* ``SETUP_PROBES`` set-up probes. The first also runs pass 0 untimed, under
  ``PROXFRAME_THREADS=2`` for ``sampled_pairs`` (the fan-out contract: the
  thread count never changes a reported number);
* ``PARTS`` timed workers; worker ``j`` makes passes ``j, j + PARTS, ...``.
  Their calls are pooled. Splitting the timed section over processes
  follows pyperf: one process's memory layout can make Python-bound code
  tens of percent faster or slower for its whole life.

Times are scaled to the reference speed. The shared machine this benchmark
was written on ran the same code anywhere from 1x to 1.8x its quiet time,
in phases that last from seconds to minutes. Right after every call the
worker times a fixed reference kernel (``workloads.reference``); a call's
time is multiplied by ``REF_NOMINAL_S`` over the median reference time of
the calls around it. A change to the library moves the call's time and not
the reference, so it shows in full; a slow phase of the machine moves both
and cancels. The raw times are printed beside the scaled ones.

The run is ``correct`` when the first timed worker and the digest probe
report the same digest for pass 0, and the traced replay (``--trace 1``)
reproduces every pass's digest. Failed calls are wrong answers of the
library; they are counted in ``failed`` and ``failed_ratio`` and do not make
the run incorrect. The same seed and ``--seconds`` always give the same
``attempted`` and ``failed``.

Human-readable lines come first; the last stdout line is the JSON result:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. ``--selfcheck`` runs every workload twice on one seed and
``sampled_pairs`` under one and two threads, and compares the digests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import tracing  # noqa: E402  (after disabling the bytecode cache)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
PARTS = 3
# Typical seconds one pass takes on a shared 2-vCPU Intel Xeon virtual
# machine; sets the number of passes a run makes from --seconds.
PASS_SECONDS = {"sampled_pairs": 2.2, "iterative_solves": 1.6, "verify_cli": 1.7}
# Passes p and p + PERIOD make the same sequence of calls (iterative_solves
# alternates between two halves of its shrinkages).
PERIOD = {"sampled_pairs": 1, "iterative_solves": 2, "verify_cli": 1}
# What the reference kernel takes on that machine when it is quiet, so that
# scaled times read as seconds there.
REF_NOMINAL_S = 0.7e-3
# A call's reference time is the median over the calls within this many
# places of it in its worker.
REF_WINDOW = 3
# A run ends within 180 s; a worker still running at the deadline is killed.
DEADLINE = time.monotonic() + 175
WORKLOADS = tuple(PASS_SECONDS)


def passes_for(workload: str, seconds: float) -> int:
    """Passes per run, so that the timed workers together take about ``seconds``."""
    return max(PARTS, round(seconds / PASS_SECONDS[workload]))


def units_of(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PROXFRAME_THREADS=str(threads),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    return env


def worker(workload: str, seed: int, passes: int, trace: int, probe: str | None = None,
           threads: int = 1, part: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--passes", str(passes), "--trace", str(trace), "--part", str(part), "--parts", str(PARTS)]
    if probe:
        cmd += ["--probe", probe]
    launched = time.perf_counter()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=ROOT, env=child_env(threads),
                          capture_output=True, text=True, timeout=max(1.0, DEADLINE - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed ({workload}, probe={probe}) with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return "n=1"
    q = statistics.quantiles(values, n=4)
    return f"IQR {q[2] - q[0]:.4g}, n={len(values)}"


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten calls beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 0.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def scaled(calls: list[list]) -> list[float]:
    """Each call's time at the reference speed; ``calls`` in the order one worker made them."""
    refs = [c[3] for c in calls]
    out = []
    for i, c in enumerate(calls):
        local = statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        out.append(c[0] * REF_NOMINAL_S / local)
    return out


def summarize(parts: list[dict], period: int) -> dict:
    """End-to-end figures of the pooled calls of a run's workers.

    ``wall_s`` is the run's typical wall time: the sum over the calls of the
    median scaled time of the calls at the same position in the passes that
    make the same sequence of calls (every ``period``-th pass). Those passes
    make the same calls on fresh inputs, and one input in tens can cost
    10-100x the others (a column block iterates until its slowest column
    converges), so a plain sum would measure which inputs a seed happened to
    draw; those slow calls show in ``call_tail_ms``.
    """
    by_pass = {}
    for j, part in enumerate(parts):
        flat = scaled([c for q in part["calls"] for c in q])
        for k, q in enumerate(part["calls"]):
            by_pass[j + k * PARTS], flat = flat[:len(q)], flat[len(q):]
    passes = [by_pass[p] for p in sorted(by_pass)]
    wall_s = 0.0
    for r in range(period):
        alike = passes[r::period]
        if len({len(q) for q in alike}) != 1:
            raise SystemExit("passes of one kind made different numbers of calls")
        wall_s += len(alike) * sum(statistics.median(column) for column in zip(*alike))
    calls = [c for part in parts for q in part["calls"] for c in q]
    latencies = [t for q in passes for t in q]
    pct, tail_s = tail(latencies)
    units = sum(c[1] for c in calls)
    return {
        "passes": len(passes),
        "calls": len(calls),
        "failed": sum(not c[2] for c in calls),
        "units": units,
        "wall_s": wall_s,
        "sum_s": sum(latencies),
        "raw_s": sum(c[0] for c in calls),
        "trials_per_s": units / wall_s,
        "call_p50_ms": 1e3 * statistics.median(latencies),
        "raw_p50_ms": 1e3 * statistics.median(c[0] for c in calls),
        "call_tail_ms": 1e3 * tail_s,
        "call_tail_pct": pct,
        "ref_ms": 1e3 * statistics.median(c[3] for c in calls),
    }


def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    passes = passes_for(workload, seconds)
    fanout = 2 if workload == "sampled_pairs" else 1
    probes = [worker(workload, seed, passes, 0, "digest", threads=fanout)]
    probes += [worker(workload, seed, passes, 0, "setup") for _ in range(SETUP_PROBES - 1)]
    parts = [worker(workload, seed, passes, trace, part=j) for j in range(PARTS)]
    raw_setups = [p["setup_s"] for p in probes + parts]
    setups = [p["setup_s"] * REF_NOMINAL_S / p["setup_ref"] for p in probes + parts]
    digests = {"timed": parts[0]["digests"][0], f"probe(PROXFRAME_THREADS={fanout})": probes[0]["digests"][0]}
    correct = len(set(digests.values())) == 1
    if trace:
        same = all(p["traced"]["digests"] == p["digests"] for p in parts)
        digests["traced replay"] = "reproduces every pass" if same else "DIFFERS"
        correct &= same
    timed = summarize(parts, PERIOD[workload])
    failures = sorted({f for p in parts for f in p["failures"]})

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}  passes {passes}  parts {PARTS}")
    print("environment " + json.dumps(parts[0]["environment"]))
    for name, value in digests.items():
        print(f"digest {name} {value}")
    print(f"reproducible {'yes' if correct else 'NO'}")
    print(f"gate: {timed['failed']} of {timed['calls']} calls failed over {timed['passes']} passes")
    for line in failures:
        print(f"  failed: {line}")
    print(f"reference kernel: median {timed['ref_ms']:.4f} ms during the calls, "
          f"{REF_NOMINAL_S * 1e3:g} ms nominal")

    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": timed["wall_s"],
            "trials_per_s": timed["trials_per_s"],
            "call_p50_ms": timed["call_p50_ms"],
            "call_tail_ms": timed["call_tail_ms"],
            "failed_ratio": timed["failed"] / timed["calls"],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        }
        units = units_of("end_to_end")
        notes = {
            "setup_s": f"median of {len(setups)} fresh interpreters, scaled, {spread(setups)} "
                       f"(raw median {statistics.median(raw_setups):.4f} s)",
            "wall_s": f"median call at each position of the {timed['passes']} passes; plain sum of the n={timed['calls']} "
                      f"calls {timed['sum_s']:.4f} s scaled, {timed['raw_s']:.4f} s raw",
            "trials_per_s": f"{timed['units']:g} work units / wall_s",
            "call_p50_ms": f"median of n={timed['calls']} scaled calls (raw {timed['raw_p50_ms']:.4f} ms)",
            "call_tail_ms": f"p{timed['call_tail_pct']:.2f} of n={timed['calls']} scaled calls (10 beyond it)",
            "failed_ratio": f"{timed['failed']} / {timed['calls']} calls",
            "peak_rss_mb": f"largest ru_maxrss of the {PARTS} timed workers",
        }
    else:
        traced_s = sum(w for p in parts for w in p["traced"]["walls"])
        untraced_s = sum(w for p in parts for w in p["walls"])
        # both at the reference speed, so a slow phase of the machine during
        # one of them does not read as tracing overhead
        overhead = (sum(t for p in parts for t in scaled([c for q in p["traced"]["calls"] for c in q]))
                    / sum(t for p in parts for t in scaled([c for q in p["calls"] for c in q])) - 1.0)
        stats, cli_stats, bookkeeping = tracing.merge([p["trace"] for p in parts])
        setup_stats, _, _ = tracing.merge([p["setup_trace"] for p in parts])
        tr = tracing.report(stats, cli_stats, setup_stats, traced_s)
        metrics = dict(tr["metrics"])
        metrics["cli.import_s"] = statistics.median(p["cli_import_s"] for p in probes + parts)
        metrics["trace.wall_s"] = traced_s
        metrics["trace.overhead_ratio"] = overhead
        metrics["trace.span_coverage"] = tr["span_coverage"]
        units = units_of("per_layer")
        notes = {"sampling.us_per_trial": "derived", "cli.self_ms_per_call": "derived"}
        print(f"traced replay of the same {timed['passes']} passes: {traced_s:.4f} s vs {untraced_s:.4f} s untraced "
              f"in the same processes, raw (overhead at the reference speed {100 * overhead:.1f}%, "
              f"bookkeeping {bookkeeping:.4f} s)")
        print(f"{'layer':<14}{'self_s':>12}{'self_share':>12}")
        for layer, self_s in sorted(tr["layers"].items(), key=lambda kv: -kv[1]):
            print(f"{layer:<14}{self_s:>12.4f}{self_s / traced_s:>12.4f}")
        if tr["span_coverage"] < 0.95:
            print(f"note: named spans cover {100 * tr['span_coverage']:.1f}% of the traced wall time; "
                  "the rest is the benchmark's own gating and bookkeeping")
        print(f"{'function':<34}{'layer':<11}{'calls':>7}{'total_s':>11}{'self_s':>11}  counts")
        for row in tr["functions"]:
            print(f"{row['function']:<34}{row['layer']:<11}{row['calls']:>7}{row['total_s']:>11.4f}"
                  f"{row['self_s']:>11.4f}  {json.dumps(row['counts'])}")
        missing = set(units) - set(metrics)
        if missing:
            raise SystemExit(f"per-layer metrics not produced: {sorted(missing)}")
        metrics = {name: metrics[name] for name in units}

    print(f"{'metric':<52}{'value':>16}  unit")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<52}{value:>16.6g}  {units[name]:<6}{('  ' + note) if note else ''}")
    result = {
        "correct": correct,
        "attempted": timed["calls"],
        "failed": timed["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def selfcheck(seed: int, seconds: float) -> int:
    ok = True
    digests = {}
    for workload in WORKLOADS:
        passes = passes_for(workload, seconds)
        a = worker(workload, seed, passes, 0, "digest")
        b = worker(workload, seed, passes, 0, "digest")
        digests[workload] = a["digests"]
        same = a["digests"] == b["digests"]
        ok &= same
        print(f"{workload}: two runs of seed {seed} {'agree' if same else 'DIFFER'}  {a['digests'][0]}")
    c = worker("sampled_pairs", seed, 1, 0, "digest", threads=2)
    same = c["digests"] == digests["sampled_pairs"]
    ok &= same
    print(f"sampled_pairs: PROXFRAME_THREADS=1 and =2 {'agree' if same else 'DIFFER'}  {c['digests'][0]}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "proxframe" / "__init__.py").is_file():
        sys.stderr.write(f"error: no proxframe sources under {ROOT / 'src'}; run from a repository checkout\n")
        return 2
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
