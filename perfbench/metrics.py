"""Metric names, units and how each is computed from a run.

``END_TO_END`` are the metrics the final JSON line carries with ``--trace 0``
and ``PER_LAYER`` those it carries with ``--trace 1``; ``BENCHMARK.json``
lists the same names. ``PRINTED_ONLY`` are end-to-end metrics that are
printed and kept in ``BASELINE.json`` but are not in the JSON line: the
unscaled wall-clock timings, which swing with the shared machine's speed
(see ``gauge.py``), and the metrics that exist on one workload only or are
zero at a correct commit, because the JSON line must hold the same non-zero
metrics for every workload.
"""
from __future__ import annotations

import math
import statistics

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ref_ops_per_s", "ops/s", "higher"),  # ops / the steps' reference times (gauge.py)
    ("ref_op_s_p50", "s", "lower"),        # median op reference time
    ("peak_rss_mb", "MB", "lower"),
)

PRINTED_ONLY = (
    ("ops_per_s", "ops/s"),          # wall clock, unscaled
    ("op_s_p50", "s"),
    ("gauge_s", "s"),                # the run's mean kernel time (gauge.py)
    ("op_s_tail", "s"),              # needs at least 10 samples beyond the percentile
    ("error_rate", "ratio"),
    ("refined_path_ratio", "ratio"),  # campaign
    ("plan_cost", "cost"),           # refine
    ("log_mb", "MB"),                # record
)

# Counts (calls and the values taken from arguments and results) are per op
# over the workload's pass, which every run completes and the seed fixes, so
# they repeat exactly. Seconds are per op over every traced op of the run.
PER_LAYER = (
    ("cli.cmd_simulate.s", "s/op", "lower"),
    ("cli.cmd_learn.s", "s/op", "lower"),
    ("cli.cmd_refine.s", "s/op", "lower"),
    ("cli.cmd_report.s", "s/op", "lower"),
    ("simulator.run_experiment.self_s", "s/op", "lower"),
    ("simulator.apply_action.s", "s/op", "lower"),
    ("simulator.render_capture.calls", "count/op", "lower"),
    ("simulator.render_capture.s", "s/op", "lower"),
    ("simulator.run_correction.calls", "count/op", "lower"),
    ("simulator.run_correction.s", "s/op", "lower"),
    ("simulator.run_correction.cycles", "count/op", "lower"),
    ("simulator.run_correction.paths", "count/op", "lower"),
    ("simulator.run_correction.nonconverged", "count/op", "lower"),
    ("simulator.write_log.s", "s/op", "lower"),
    ("simulator.write_log.bytes", "B/op", "lower"),
    ("simulator.read_log.s", "s/op", "lower"),
    ("simulator.read_log.bytes", "B/op", "lower"),
    ("sheet_state.build_state.calls", "count/op", "lower"),
    ("sheet_state.build_state.self_s", "s/op", "lower"),
    ("sheet_state.segment_regions.calls", "count/op", "lower"),
    ("sheet_state.segment_regions.s", "s/op", "lower"),
    ("sheet_state.segment_regions.points", "count/op", "lower"),
    ("sheet_state.fit_ellipse.calls", "count/op", "lower"),
    ("sheet_state.fit_ellipse.s", "s/op", "lower"),
    ("geometry.ellipse_hits_swept_rect.calls", "count/op", "lower"),
    ("geometry.ellipse_hits_swept_rect.s", "s/op", "lower"),
    ("geometry.ellipse_hits_swept_rect.hit_ratio", "ratio", "higher"),
    ("effectiveness.aggregate.s", "s/op", "lower"),
    ("effectiveness.aggregate.samples", "count/op", "higher"),
    ("effectiveness.propagate.calls", "count/op", "lower"),
    ("effectiveness.propagate.s", "s/op", "lower"),
    ("effectiveness.propagate.distinct_ratio", "ratio", "higher"),
    ("effectiveness.effectiveness_score.calls", "count/op", "lower"),
    ("effectiveness.effectiveness_score.self_s", "s/op", "lower"),
    ("search.state_utility.calls", "count/op", "lower"),
    ("search.state_utility.s", "s/op", "lower"),
    ("search.expand.calls", "count/op", "lower"),
    ("search.lookahead_value.calls", "count/op", "lower"),
    ("search.refine_plan_detailed.self_s", "s/op", "lower"),
    ("search.generate_refinement_paths.calls", "count/op", "lower"),
    ("search.generate_refinement_paths.s", "s/op", "lower"),
    ("plan.validate.calls", "count/op", "lower"),
    ("plan.validate.s", "s/op", "lower"),
    ("plan.prefix_feasible.calls", "count/op", "lower"),
    ("plan.prefix_feasible.s", "s/op", "lower"),
    # the tracing overhead: medians of traced over untraced times, from twin
    # rounds of the same inputs run one right after the other, per round and
    # per op
    ("trace.wall_ratio", "x", "lower"),
    ("trace.op_ratio_p50", "x", "lower"),
)

RATIOS = {"hit_ratio": "hits", "distinct_ratio": "distinct"}


def per_layer(counts: dict, pass_ops: int, totals: dict, own: dict, run: dict) -> dict:
    """Per-layer values from the tracer's counts (the pass), span times (all
    traced ops) and the twin rounds of the run."""
    ops = len(run["latencies"])
    out = {}
    for name, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if base == "trace":
            continue
        if field == "s":
            out[name] = totals.get(base, 0.0) / ops
        elif field == "self_s":
            out[name] = own.get(base, 0.0) / ops
        elif field in RATIOS:
            calls = counts.get(base + ".calls", 0)
            out[name] = counts.get(f"{base}.{RATIOS[field]}", 0) / calls if calls else 0.0
        else:
            out[name] = counts.get(name, 0) / pass_ops
    out["trace.wall_ratio"] = statistics.median(run["wall_ratios"])
    out["trace.op_ratio_p50"] = statistics.median(run["op_ratios"])
    return out


def tail(latencies: list[float]):
    """(value, percentile, samples) of the highest percentile with 10 samples beyond it.

    Nearest-rank: the value at rank n - 10 of n sorted samples. None below 20
    samples, where that percentile would be under the median.
    """
    n = len(latencies)
    if n < 20:
        return None
    return sorted(latencies)[n - 11], math.floor(100 * (n - 10) / n), n


def end_to_end(result: dict, setups: list[float]) -> dict:
    """Every end-to-end value of one run: the JSON ones and the workload-only ones."""
    lat = result["latencies"]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / result["wall_s"],
        "op_s_p50": statistics.median(lat),
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": result["failed"] / len(lat),
    }
    if "gauge_s" in result:
        values["gauge_s"] = result["gauge_s"]
        values["ref_ops_per_s"] = len(lat) / result["ref_wall_s"]
        values["ref_op_s_p50"] = statistics.median(result["ref_latencies"])
    t = tail(lat)
    if t is not None:
        values["op_s_tail"] = t[0]
    values.update(result["quality"])
    return values
