"""One workload process: set up, run whole rounds until time is up, check.

Started by ``run.py`` (and by ``selftest.py``):

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --work DIR --result FILE [--setup-only]

Set-up time runs from the first line of this file, so it covers the imports
of ``layup`` (numpy and scipy with it). The result is written as JSON to
``--result``; the CLI calls print nothing, because their stdout is captured.
"""
import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_layup(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    from layup import cli, effectiveness, geometry, plan, search, sheet_state, simulator
    return argparse.Namespace(cli=cli, effectiveness=effectiveness, geometry=geometry,
                              plan=plan, search=search, sheet_state=sheet_state,
                              simulator=simulator)


def run_step(step, prior):
    """Run one CLI call with stdout captured; an exception becomes the output."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return step.run(prior)
    except Exception as exc:  # the benchmark keeps going and counts the failure
        traceback.print_exc(file=sys.stderr)
        return exc


def run_round(workload, r: int, keep: bool, gauge):
    """Run and check round `r`; returns (op latencies, wall seconds, op checks,
    op reference latencies, reference seconds).

    The gauge reads the machine's speed while each step runs and takes its own
    time out of the step's (see `gauge.py`). The check and the clean-up are
    outside the timed window. `keep` has the workload record the round's
    outputs for the pass figures.
    """
    steps = workload.steps(r)
    outputs, latencies, ref_latencies = [], [], []
    wall = ref_wall = 0.0
    for step in steps:
        out, took, ref = gauge.run(lambda: run_step(step, outputs))
        outputs.append(out)
        wall += took
        ref_wall += ref
        if step.op:
            latencies.append(took)
            ref_latencies.append(ref)
    ok = check_round(workload, r, steps, outputs, keep)
    return latencies, wall, ok, ref_latencies, ref_wall


def run_twins(workload, r: int, tracer, keep: bool):
    """Run round `r` traced and, step by step beside it, its untraced twin.

    The twin has the same inputs and its own output directory. Each step runs
    in both, one right after the other, the first of the two alternating, so
    a swing in the machine's speed mostly cancels out of their ratio. Returns
    the traced round's (op latencies, wall seconds, op checks), the ratio of
    the two rounds' step time and the ratio of each op to its twin. An op
    passes its check when it and its twin both do.
    """
    clock = time.perf_counter
    legs = {True: workload.steps(r), False: workload.steps(twin_round(workload, r))}
    outputs = {True: [], False: []}
    times = {True: [], False: []}
    for i in range(len(legs[True])):
        for traced in ((True, False) if (r + i) % 2 == 0 else (False, True)):
            step = legs[traced][i]
            tracer.active = traced
            if traced and step.op:
                tracer.begin_op()
            start = clock()
            outputs[traced].append(run_step(step, outputs[traced]))
            times[traced].append(clock() - start)
            tracer.active = False
    ok = check_round(workload, r, legs[True], outputs[True], keep)
    plain_ok = check_round(workload, twin_round(workload, r), legs[False], outputs[False],
                           False)
    ops = [i for i, step in enumerate(legs[True]) if step.op]
    latencies = [times[True][i] for i in ops]
    wall_ratio = sum(times[True]) / sum(times[False])
    op_ratios = [times[True][i] / times[False][i] for i in ops]
    both_ok = [a and b for a, b in zip(ok, plain_ok)]
    return latencies, sum(times[True]), both_ok, wall_ratio, op_ratios


def twin_round(workload, r: int) -> int:
    """A round index past any a run reaches, with the inputs of round `r`."""
    return r + 1000 * workload.pass_rounds


def check_round(workload, r: int, steps, outputs, keep: bool) -> list[bool]:
    """The op checks of a finished round; `keep` records its pass figures."""
    try:
        ok = workload.check(steps, outputs, keep)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = [False] * sum(1 for step in steps if step.op)
    workload.finish_round(r)
    return ok


def timed_rounds(workload, seconds: float, tracer, gauge):
    """Run whole passes of rounds until they have taken `seconds`.

    Untraced rounds read the gauge during every step (`gauge`); traced ones
    have twins instead (`tracer`). Returns the run (latencies, failed ops, timed wall seconds, rounds and,
    when traced, the ratios to the untraced twins), the ops of the first pass
    and the tracer's counts after it. With a tracer every round has an
    untraced twin (see `run_twins`); both count toward `seconds`, and the
    timings and the op count are the traced round's.
    """
    run = {"latencies": [], "failed": 0, "wall_s": 0.0, "rounds": 0,
           "ref_latencies": [], "ref_wall_s": 0.0, "wall_ratios": [], "op_ratios": []}
    pass_ops, pass_counts = 0, {}
    measured = 0.0
    r = 0
    while True:
        keep = r < workload.pass_rounds
        if tracer is None:
            latencies, wall, ok, ref_latencies, ref_wall = run_round(workload, r, keep, gauge)
            run["ref_latencies"] += ref_latencies
            run["ref_wall_s"] += ref_wall
            measured += wall
        else:
            latencies, wall, ok, wall_ratio, op_ratios = run_twins(workload, r, tracer, keep)
            run["wall_ratios"].append(wall_ratio)
            run["op_ratios"] += op_ratios
            measured += wall + wall / wall_ratio
        run["latencies"] += latencies
        run["wall_s"] += wall
        run["failed"] += ok.count(False)
        r += 1
        if keep:
            pass_ops += len(ok)
            pass_counts = tracer.snapshot_counts() if tracer else {}
        if r % workload.pass_rounds == 0 and measured >= seconds:
            run["rounds"] = r
            return run, pass_ops, pass_counts


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    layup = import_layup(root)
    import workloads
    from gauge import Gauge
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](layup, root, args.work, args.seed)
    workload.setup()
    setup_s = time.perf_counter() - PROCESS_START
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = gauge = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        else:
            gauge = Gauge()
        run, pass_ops, pass_counts = timed_rounds(workload, args.seconds, tracer, gauge)
        result.update(run, quality=workload.quality, digests=workload.digests)
        if gauge:
            result["gauge_s"] = gauge.seconds()
        if tracer:
            tracer.uninstall()
            totals, own = tracer.span_times()
            result["per_layer"] = metrics.per_layer(pass_counts, pass_ops, totals, own, run)
            result["missing"] = tracer.missing
            tracer.write(root / ".perfbench_out" / f"{args.workload}.spans.json")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
