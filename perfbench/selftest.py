"""The benchmark's own tests. Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection: the
workers it starts refine, simulate and record for about seven minutes.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from workloads import WORKLOADS, GOLDEN_SEED  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SEED = 7


def run_worker(tmp_path: Path, workload: str, trace: int, tag: str) -> dict:
    """The first pass (seconds 0) of a workload; returns the worker's result."""
    result = tmp_path / f"{workload}-{tag}.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                    "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
                    "--work", str(tmp_path / f"{workload}-{tag}"), "--result", str(result)],
                   cwd=ROOT, check=True, timeout=300, stdout=subprocess.DEVNULL)
    return json.loads(result.read_text())


def exact_part(result: dict) -> dict:
    """Everything a deterministic program must repeat: counts, ratios, outputs."""
    counts = {name: value for name, value in result["per_layer"].items()
              if not name.endswith((".s", ".self_s")) and not name.startswith("trace.")}
    return {"counts": counts, "quality": result["quality"],
            "digests": result["digests"], "failed": result["failed"]}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    out = {}
    for workload in WORKLOADS:
        out[workload] = [run_worker(tmp, workload, 0, "plain"),
                         run_worker(tmp, workload, 1, "traced-a"),
                         run_worker(tmp, workload, 1, "traced-b")]
    shutil.rmtree(ROOT / ".perfbench_out", ignore_errors=True)
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counters_repeat_with_same_seed(runs, workload):
    _, first, second = runs[workload]
    assert exact_part(first) == exact_part(second)
    assert first["failed"] == 0
    expected_quality = {"campaign": "refined_path_ratio", "refine": "plan_cost",
                        "record": "log_mb"}[workload]
    assert first["quality"][expected_quality] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_leaves_outputs_byte_identical(runs, workload):
    plain, traced, _ = runs[workload]
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digests"] and plain["digests"] == traced["digests"]
    assert plain["quality"] == traced["quality"]


def test_per_layer_counts_reach_the_layers_each_workload_names(runs):
    campaign = runs["campaign"][1]["per_layer"]
    refine = runs["refine"][1]["per_layer"]
    record = runs["record"][1]["per_layer"]
    assert campaign["sheet_state.segment_regions.calls"] > 0
    assert campaign["search.state_utility.calls"] == 0
    assert refine["effectiveness.propagate.calls"] > refine["search.expand.calls"] > 0
    assert 0 < refine["effectiveness.propagate.distinct_ratio"] <= 1
    assert refine["simulator.render_capture.calls"] == 0
    assert record["simulator.write_log.bytes"] > 1e6
    assert record["effectiveness.aggregate.samples"] > 0
    assert record["effectiveness.propagate.calls"] == 0


def test_tracing_overhead_comes_from_twin_rounds(runs):
    for workload in WORKLOADS:
        plain, traced, _ = runs[workload]
        assert len(traced["wall_ratios"]) == traced["rounds"] == plain["rounds"]
        assert len(traced["op_ratios"]) == len(traced["latencies"])
        assert traced["per_layer"]["trace.wall_ratio"] > 0
        assert traced["per_layer"]["trace.op_ratio_p50"] > 0


def test_span_times_leave_the_wrapper_work_out():
    from tracer import Tracer

    t = Tracer()
    t.names = ["outer", "inner"]
    # (name id, start, end, parent, wrapper entry, wrapper exit)
    t.spans = [(0, 1.0, 2.0, -1, 0.9, 2.1),
               (1, 1.2, 1.5, 0, 1.1, 1.6),
               (1, 1.6, 1.7, 0, 1.55, 1.75)]
    total, own = t.span_times()
    assert total == pytest.approx({"outer": 0.7, "inner": 0.4})
    assert own == pytest.approx({"outer": 0.3, "inner": 0.4})


def test_gauge_takes_its_readings_out_of_the_step():
    from gauge import INTERVAL_S, NOMINAL_S, Gauge

    g = Gauge()

    def step():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        return "out"

    out, took, ref = g.run(step)
    assert out == "out"
    assert g.total_count >= 0.5 / INTERVAL_S / 2
    assert took == pytest.approx(0.5 - g.total_spent, abs=1e-3)
    assert ref == pytest.approx(took * NOMINAL_S / g.seconds())


def test_ref_metrics_come_from_the_reference_times():
    result = {"latencies": [2.0, 4.0, 6.0], "wall_s": 15.0, "failed": 0,
              "peak_rss_mb": 1.0, "quality": {}, "gauge_s": 0.001,
              "ref_latencies": [1.0, 2.0, 3.0], "ref_wall_s": 7.5}
    values = metrics.end_to_end(result, [1.0])
    assert values["ops_per_s"] == pytest.approx(0.2)
    assert values["ref_ops_per_s"] == pytest.approx(0.4)
    assert values["op_s_p50"] == pytest.approx(4.0)
    assert values["ref_op_s_p50"] == pytest.approx(2.0)


def test_golden_outputs_are_checked(runs):
    # a digest is kept only for an output that passed its checks, the golden
    # comparison included
    assert f"sheet1|{GOLDEN_SEED}" in runs["refine"][0]["digests"]
    assert f"sheet1|D1|{GOLDEN_SEED}" in runs["record"][0]["digests"]
    assert f"model|sheet1|{GOLDEN_SEED}" in runs["record"][0]["digests"]


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in metrics.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in metrics.PER_LAYER]
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and len(m["name"]) <= 64, m
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "campaign",
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [n for n, _, _ in metrics.END_TO_END]
    for name, entry in last["metrics"].items():
        assert entry["value"] > 0 and UNIT.match(entry["unit"]), name
    for name in ("ops_per_s", "op_s_p50", "gauge_s", "error_rate", "refined_path_ratio",
                 "op_s_tail"):
        assert re.search(rf"^{name}\s+= ", proc.stdout, re.M), name


def test_setup_capture_is_the_first_logged_capture(tmp_path):
    import worker
    from workloads import build_corpus

    layup = worker.import_layup(ROOT)
    plan, simulator, sheet_state = layup.plan, layup.simulator, layup.sheet_state
    params = simulator.GroundTruthParams()
    for variant in (1, 2):
        plan.emit_plan(plan.expert_plan(variant), tmp_path / f"D{variant}.plan")
    _, capture = build_corpus(layup, params, tmp_path, "sheet2", 3)
    log = simulator.run_experiment(plan.expert_plan(1), simulator.builtin_sheet("sheet2"),
                                   params, 3, keep_captures=True)
    logged = log.steps[0].capture_before
    for frame in sheet_state.read_capture_frames(capture):
        assert frame.t == logged.t
        assert (frame.points == logged.points).all()


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "refine",
                           "--seed", "1", "--seconds", "10", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
