"""Benchmark of the layup pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload campaign|refine|record --seed N \
        --seconds S --trace 0|1

Each workload runs in its own worker process (closed loop, one client, one
thread for numpy's BLAS). With ``--trace 0`` the worker is set up three times,
twice in set-up-only processes, and ``setup_s`` is the median; the last line of
stdout is a JSON object with the end-to-end metrics, whose timings are scaled
to a nominal machine speed by the gauge of ``gauge.py``. With ``--trace 1`` a
single worker runs every round twice, traced and untraced, and reports the
per-layer metrics and the tracing overhead instead. Every other line
printed is a human-readable ``name = value unit`` line, including the
printed-only metrics that the JSON line leaves out.

The program is imported from ``src/`` of the current directory; without it
the benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
DEADLINE_S = 175.0
SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class WorkerError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="layup pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_worker(args, work: Path, tag: str, deadline: float, setup_only: bool) -> dict:
    result = work.parent / f"{work.name}.{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work / tag), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before the worker started")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {tag} did not finish in time") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {tag} exited with status {proc.returncode}")
    return json.loads(result.read_text())


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:<46} = {value!r} {unit}{'  ' + note if note else ''}")


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "layup" / "__init__.py").is_file():
        print(f"error: {root} holds no src/layup; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_REPEATS - 1):
                setups.append(run_worker(args, work, f"setup{i}", deadline, True)["setup_s"])
        result = run_worker(args, work, "main", deadline, False)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for leftover in work.parent.glob(f"{work.name}.*.json"):
            leftover.unlink()

    lat = result["latencies"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  rounds {result['rounds']}  ops {len(lat)}  "
          f"failed {result['failed']}")
    e2e = metrics.end_to_end(result, setups + [result["setup_s"]])
    units = {name: unit for name, unit, _ in metrics.END_TO_END}
    units.update(metrics.PRINTED_ONLY)
    t = metrics.tail(lat)
    for name, unit in units.items():
        if name == "setup_s" and args.trace:
            continue
        if name in e2e:
            note = f"(p{t[1]} of {t[2]} ops)" if name == "op_s_tail" else ""
            show(name, e2e[name], unit, note)
        elif name == "op_s_tail":
            show(name, None, unit, f"(omitted: {len(lat)} ops, fewer than 20)")
    if args.trace:
        for name in result.get("missing", []):
            print(f"note: layup defines no {name}; its metrics read 0", file=sys.stderr)
        chosen = {name: (result["per_layer"][name], unit)
                  for name, unit, _ in metrics.PER_LAYER}
        for name, (value, unit) in chosen.items():
            show(name, value, unit)
    else:
        chosen = {name: (e2e[name], unit) for name, unit, _ in metrics.END_TO_END}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": len(lat),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
