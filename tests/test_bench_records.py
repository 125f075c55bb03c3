"""The committed benchmark records, ``BENCH_*.json`` at the repository root.

Each records a change against its parent on ``BENCHMARK.json``'s workloads,
so a later speed claim can be diffed against it: for every workload and
end-to-end metric it must hold both sides' median and quartiles, and it must
name the environment the runs were made in.
"""

from __future__ import annotations

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_bench_record_holds_both_sides_of_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records, "no BENCH_*.json at the repository root"
    for path in records:
        doc = json.loads(path.read_text())
        assert doc["environment"], path.name
        for workload in spec["workloads"]:
            runs = doc["workloads"][workload["name"]]
            for side in ("parent", "change"):
                for metric in spec["end_to_end"]:
                    s = runs[side][metric["name"]]
                    assert s["q1"] <= s["median"] <= s["q3"], (path.name, workload["name"], side, metric["name"])
