"""One workload in one fresh interpreter: set up, warm up, time, report.

Started by ``run.py``; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --passes P --trace 0|1
        --launched T [--probe setup|digest] [--part J --parts K]

``--launched`` is the parent's ``time.perf_counter()`` just before it started
this process (the monotonic clock is shared between processes on Linux), so
``setup_s`` covers interpreter start-up as well as imports, input drawing,
operator builds and the warm-up calls. ``--probe setup`` stops after set-up;
``--probe digest`` also runs pass 0 untimed. Otherwise the worker runs passes
J, J + K, J + 2K, ... below P and returns each call's latency, work units,
gate result and the reference-kernel time taken right after it, and each
pass's digest; with ``--trace 1`` it then replays the same passes with spans
on. ``setup_ref`` is the median reference-kernel time right after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

perf = time.perf_counter

# Reference-kernel timings taken right after set-up.
SETUP_REFS = 15


def environment() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "proxframe_threads": os.environ.get("PROXFRAME_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_passes(workload, tracer, indices):
    """Run the passes ``indices`` in order."""
    from workloads import Pass

    out = []
    for p in indices:
        q = Pass(tracer)
        t0 = perf()
        workload.run_pass(p, q)
        q.wall = perf() - t0
        out.append(q)
    return out


def raw(passes) -> dict:
    return {
        "calls": [[[c.seconds, c.units, c.ok, c.ref] for c in q.calls] for q in passes],
        "walls": [q.wall for q in passes],
        "digests": [q.digest.hexdigest() for q in passes],
        "failures": sorted({f for q in passes for f in q.failures}),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--probe", choices=("setup", "digest"), default=None)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    args = ap.parse_args()

    t0 = perf()
    import proxframe  # noqa: F401  (timed: the library's import cost)
    import proxframe.cli  # noqa: F401

    cli_import_s = perf() - t0

    from tracing import Tracer
    from workloads import WORKLOADS, reference

    traced = bool(args.trace) and args.probe is None
    tracer = Tracer()
    tracer.install(spans=traced)
    workload = WORKLOADS[args.workload]()
    tracer.active = traced
    workload.prepare(args.seed)
    workload.warm_up()
    setup_trace = tracer.raw()
    tracer.active = False
    setup_s = perf() - args.launched

    setup_ref = statistics.median(reference() for _ in range(SETUP_REFS))

    result = {"setup_s": setup_s, "setup_ref": setup_ref, "cli_import_s": cli_import_s}
    if args.probe == "digest":
        result["digests"] = raw(run_passes(workload, tracer, [0]))["digests"]
    if args.probe is None:
        indices = range(args.part, args.passes, args.parts)
        result.update(raw(run_passes(workload, tracer, indices)))
        if traced:
            # replay the same passes with spans on; the difference in wall
            # time is the tracing overhead
            tracer.reset()
            tracer.active = True
            replay = run_passes(workload, tracer, indices)
            tracer.active = False
            result["traced"] = raw(replay)
            result["trace"] = tracer.raw()
            result["setup_trace"] = setup_trace
        result["environment"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
