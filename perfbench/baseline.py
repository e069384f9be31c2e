"""Run the benchmark on ten seeds, report its spread and record a baseline.

    python3 perfbench/baseline.py [--write perfbench/BASELINE.json]

Run from the root of a checkout. For each workload of ``BENCHMARK.json`` it
makes ten untraced runs, seeds 1 to 10, and one traced run of seed 1, and
prints for every end-to-end metric the median, the quartiles and the spread
(the distance between the quartiles as a share of the median, from
``statistics.quantiles(values, n=4)``) next to the metric's bound, marked
WIDE where the spread is not below a third of the bound. With ``--write`` it
also stores those figures and the traced run's per-layer metrics, the
tracing overhead among them, as a baseline.
"""
from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
LINE = re.compile(r"^(\S+)\s+= (\S+) (\S+)(?:  \(p(\d+) of (\d+) ops\))?")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m and m.group(2) != "None":
            printed[m.group(1)] = float(m.group(2))
            if m.group(4):
                printed[m.group(1) + "_percentile"] = int(m.group(4))
                printed[m.group(1) + "_samples"] = int(m.group(5))
    result["printed"] = printed
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    baseline = {
        "machine": (f"{platform.machine()}, 2 cores shared with other tenants, "
                    f"Python {platform.python_version()}; wall-clock timings, the gated "
                    "ones scaled by the gauge read during each step (gauge.py); "
                    "no system-wide tracing or profiling"),
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry = {"why": WORKLOADS[workload].why, "seeds": list(SEEDS),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "end_to_end": {}, "printed_only": {}}
        print(f"{workload}: attempted {entry['attempted']} failed {entry['failed']}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            stats["values"] = values
            entry["end_to_end"][name] = stats
            ok = "ok" if stats["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name:<14} median {stats['median']:.5g}  q1 {stats['q1']:.5g}  "
                  f"q3 {stats['q3']:.5g}  spread {stats['spread']:.3f}  "
                  f"bound {bounds[name]}  {ok}")
        for name in ("ops_per_s", "op_s_p50", "gauge_s"):
            stats = spread([r["printed"][name] for r in runs])
            stats["values"] = [r["printed"][name] for r in runs]
            entry["printed_only"][name] = stats
            print(f"  {name:<14} median {stats['median']:.5g}  spread {stats['spread']:.3f}"
                  "  (unscaled, not gated)")
        for name in ("error_rate", "op_s_tail", "op_s_tail_percentile", "op_s_tail_samples",
                     "refined_path_ratio", "plan_cost", "log_mb"):
            values = [r["printed"][name] for r in runs if name in r["printed"]]
            if values:
                entry["printed_only"][name] = {"median": statistics.median(values),
                                               "values": values}
        layer = {name: m["value"] for name, m in traced["metrics"].items()}
        entry["per_layer_traced_seed"] = SEEDS[0]
        entry["per_layer"] = layer
        print(f"  tracing overhead (traced / untraced twins, median): round "
              f"{layer['trace.wall_ratio']:.3f}x, op {layer['trace.op_ratio_p50']:.3f}x")
        baseline["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
