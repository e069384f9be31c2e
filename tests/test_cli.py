import json

import pytest

from layup.cli import (RunConfig, build_report, cmd_learn, cmd_refine,
                       cmd_report, cmd_simulate, format_report, main)
from layup.plan import emit_plan, expert_plan
from layup.simulator import GroundTruthParams
from layup.sheet_state import write_capture_frames
from layup.simulator import builtin_sheet, init_sheet, render_capture


@pytest.fixture
def d1_file(tmp_path):
    target = tmp_path / "D1.plan"
    emit_plan(expert_plan(1), target)
    return target


def run_cfg(tmp_path, seeds=(0,), sheet="sheet1"):
    return RunConfig(sheet=sheet, seeds=tuple(seeds), out=tmp_path / "out")


class TestSimulate:
    def test_one_log_per_seed(self, tmp_path, d1_file, capsys):
        cfg = run_cfg(tmp_path, seeds=(1, 2, 3))
        written = cmd_simulate(d1_file, cfg, keep_captures=False)
        assert len(written) == 3
        assert all(p.exists() for p in written)
        out = capsys.readouterr().out
        assert out.count("total_paths=") == 3

    def test_rerun_byte_identical(self, tmp_path, d1_file):
        cfg = run_cfg(tmp_path, seeds=(5,))
        first = cmd_simulate(d1_file, cfg, keep_captures=False)[0].read_bytes()
        second = cmd_simulate(d1_file, cfg, keep_captures=False)[0].read_bytes()
        assert first == second

    def test_bad_plan_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.plan"
        bad.write_text("(path, 1)\n(giberish\n")
        code = main(["simulate", str(bad), "--out", str(tmp_path / "o"), "--seed", "1"])
        assert code == 2

    def test_invalid_plan_exit_2(self, tmp_path):
        bad = tmp_path / "bad.plan"
        bad.write_text("(end,)\n")
        code = main(["simulate", str(bad), "--out", str(tmp_path / "o"), "--seed", "1"])
        assert code == 2

    def test_evaluate_alias(self, tmp_path, d1_file):
        code = main(["evaluate", str(d1_file), "--out", str(tmp_path / "o"),
                     "--seed", "4", "--no-captures"])
        assert code == 0
        assert list((tmp_path / "o").glob("*.jsonl"))


class TestLearn:
    def test_learn_reports_experiments(self, tmp_path, d1_file, capsys):
        cfg = run_cfg(tmp_path, seeds=(1, 2))
        logs = cmd_simulate(d1_file, cfg, keep_captures=False)
        model_path = tmp_path / "model.json"
        cmd_learn([str(p) for p in logs], model_path)
        out = capsys.readouterr().out
        assert "experiments: 2" in out
        assert model_path.exists()

    def test_zero_logs_usage_error(self, tmp_path):
        code = main(["learn", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2


class TestRefine:
    def test_refine_emits_plan_and_audit(self, tmp_path, d1_file):
        cfg = run_cfg(tmp_path, seeds=(1, 2))
        logs = cmd_simulate(d1_file, cfg, keep_captures=False)
        model_path = tmp_path / "model.json"
        cmd_learn([str(p) for p in logs], model_path)
        params = GroundTruthParams()
        sim = init_sheet(builtin_sheet("sheet1"), params, seed=9)
        cap_path = tmp_path / "cap.jsonl"
        write_capture_frames(cap_path, [render_capture(sim)])
        plan_path = cmd_refine(model_path, cap_path, run_cfg(tmp_path))
        assert plan_path.exists()
        sidecar = plan_path.with_name(plan_path.stem + ".audit.json")
        assert sidecar.exists()
        audit = json.loads(sidecar.read_text())
        assert audit["steps"]
        counts = audit["search"]
        assert set(counts) == {"nodes_expanded", "children_priced", "batch_calls"}
        assert all(type(v) is int and v > 0 for v in counts.values())
        assert counts["children_priced"] >= counts["batch_calls"]

    def test_refine_deterministic(self, tmp_path, d1_file):
        cfg = run_cfg(tmp_path, seeds=(1, 2))
        logs = cmd_simulate(d1_file, cfg, keep_captures=False)
        model_path = tmp_path / "model.json"
        cmd_learn([str(p) for p in logs], model_path)
        sim = init_sheet(builtin_sheet("sheet1"), GroundTruthParams(), seed=9)
        cap_path = tmp_path / "cap.jsonl"
        write_capture_frames(cap_path, [render_capture(sim)])
        a = cmd_refine(model_path, cap_path, run_cfg(tmp_path)).read_bytes()
        b = cmd_refine(model_path, cap_path, run_cfg(tmp_path)).read_bytes()
        assert a == b

    def test_empty_model_exit_2(self, tmp_path):
        model_path = tmp_path / "empty.json"
        model_path.write_text(json.dumps({"version": 1, "sector_count": 8,
                                          "experiments": 0, "sheets": [],
                                          "buckets": {}}))
        cap_path = tmp_path / "cap.jsonl"
        sim = init_sheet(builtin_sheet("sheet1"), GroundTruthParams(), seed=9)
        write_capture_frames(cap_path, [render_capture(sim)])
        code = main(["refine", str(model_path), "--capture", str(cap_path),
                     "--out", str(tmp_path)])
        assert code == 2


def summary(sheet, plan, seed, cycles, corr, total):
    return {"type": "summary", "version": 1, "plan": plan, "sheet": sheet,
            "seed": seed, "correction_cycles": cycles, "correction_paths": corr,
            "in_plan_paths": total - corr, "total_paths": total,
            "correction_converged": True}


def published_style_summaries():
    """Fixture totals that reproduce the quoted averages and improvements."""
    rows = []
    data = {
        ("sheet1", "D1"): [(5, 17, 33), (7, 30, 46), (5, 16, 32)],
        ("sheet1", "D2"): [(7, 29, 45), (2, 12, 28), (4, 14, 30)],
        ("sheet1", "refined_sheet1"): [(2, 5, 19), (2, 5, 19), (3, 8, 22)],
        ("sheet2", "D1"): [(2, 8, 24), (2, 9, 25), (3, 11, 27)],
        ("sheet2", "D2"): [(2, 12, 28), (3, 9, 25), (3, 13, 29)],
        ("sheet2", "refined_sheet2"): [(1, 5, 17), (3, 5, 17), (2, 3, 15)],
    }
    for (sheet, plan), trials in data.items():
        for i, (cycles, corr, total) in enumerate(trials):
            rows.append(summary(sheet, plan, i, cycles, corr, total))
    return rows


class TestReport:
    def test_published_arithmetic(self):
        report = build_report(published_style_summaries())
        s1 = report["sheets"]["sheet1"]
        s2 = report["sheets"]["sheet2"]
        assert s1["by_plan"]["D1"]["average_paths_rounded"] == 37.0
        assert s1["by_plan"]["D2"]["average_paths_rounded"] == 34.3
        assert s1["by_plan"]["refined_sheet1"]["average_paths_rounded"] == 20.0
        assert s2["by_plan"]["D1"]["average_paths_rounded"] == 25.3
        assert s2["by_plan"]["D2"]["average_paths_rounded"] == 27.3
        assert s2["by_plan"]["refined_sheet2"]["average_paths_rounded"] == 16.3
        assert s1["by_plan"]["refined_sheet1"]["improvement_pct"] == 41.7
        assert s2["by_plan"]["refined_sheet2"]["improvement_pct"] == 40.3

    def test_baseline_override(self):
        report = build_report(published_style_summaries(), baseline="D1")
        s1 = report["sheets"]["sheet1"]
        imp = s1["by_plan"]["refined_sheet1"]["improvement_pct"]
        assert imp == round(100 * (37.0 - 20.0) / 37.0, 1)

    def test_zero_path_baseline_does_not_crash(self):
        rows = [summary("sheet1", "D0", 0, 0, 0, 0),
                summary("sheet1", "refined_x", 0, 0, 0, 0)]
        report = build_report(rows)
        assert report["sheets"]["sheet1"]["by_plan"]["refined_x"]["improvement_pct"] == 0.0

    def test_average_is_mean_of_totals(self):
        rows = [summary("sheet1", "D1", i, 1, 1, t) for i, t in enumerate([33, 46, 32])]
        report = build_report(rows)
        assert report["sheets"]["sheet1"]["by_plan"]["D1"]["average_paths"] == \
            pytest.approx((33 + 46 + 32) / 3)

    def test_text_table_renders(self):
        text = format_report(build_report(published_style_summaries()))
        assert "37.0" in text and "41.7" in text and "sheet2" in text

    def test_cmd_report_writes_files(self, tmp_path):
        logs = []
        for i, row in enumerate(published_style_summaries()):
            p = tmp_path / f"log{i}.jsonl"
            p.write_text(json.dumps(row) + "\n")
            logs.append(str(p))
        cmd_report(logs, out_dir=tmp_path / "rep")
        data = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert data["sheets"]["sheet1"]["by_plan"]["refined_sheet1"]["improvement_pct"] == 41.7
        assert (tmp_path / "rep" / "report.txt").exists()


class TestFullPipeline:
    def test_simulate_learn_refine_evaluate_report(self, tmp_path, capsys):
        # the whole CLI loop on a reduced corpus: 2 plans x 2 seeds
        plans = {}
        for variant in (1, 2):
            p = tmp_path / f"D{variant}.plan"
            emit_plan(expert_plan(variant), p)
            plans[variant] = p
        out = tmp_path / "runs"
        logs = []
        for variant in (1, 2):
            cfg = RunConfig(sheet="sheet1", seeds=(101, 102), out=out)
            logs += cmd_simulate(plans[variant], cfg, keep_captures=False)
        model_path = tmp_path / "model.json"
        cmd_learn([str(p) for p in logs], model_path)

        sim = init_sheet(builtin_sheet("sheet1"), GroundTruthParams(), seed=101)
        cap_path = tmp_path / "initial.jsonl"
        write_capture_frames(cap_path, [render_capture(sim)])
        plan_path = cmd_refine(model_path, cap_path, RunConfig(out=tmp_path))
        assert main(["evaluate", str(plan_path), "--sheet", "sheet1",
                     "--seed", "201", "--out", str(out), "--no-captures"]) == 0
        all_logs = sorted(out.glob("*.jsonl"))
        assert main(["report"] + [str(p) for p in all_logs]
                    + ["--out", str(tmp_path / "rep")]) == 0
        data = json.loads((tmp_path / "rep" / "report.json").read_text())
        sheet1 = data["sheets"]["sheet1"]
        assert "refined_sheet1" in sheet1["by_plan"]
        assert "improvement_pct" in sheet1["by_plan"]["refined_sheet1"]


class TestRunConfig:
    def test_config_file_loading(self, tmp_path):
        from layup.plan import initial_plan_constraints
        from layup.search import SearchConfig
        gt = tmp_path / "gt.json"
        GroundTruthParams(region_count=3).save(gt)
        cs_file = tmp_path / "cs.json"
        cs_file.write_text(json.dumps(initial_plan_constraints().to_json()))
        search_file = tmp_path / "search.json"
        search_file.write_text(json.dumps(SearchConfig(branching=2).to_json()))
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "sheet": "sheet2", "ground_truth": str(gt),
            "constraints": str(cs_file), "search": str(search_file),
            "seeds": [7, 8], "out": str(tmp_path / "runs")}))

        class Args:
            config = str(cfg_file)
            sheet = None
            seed = None
            out = None

        cfg = RunConfig.from_args(Args())
        assert cfg.sheet == "sheet2"
        assert cfg.params.region_count == 3
        assert cfg.constraints == initial_plan_constraints()
        assert cfg.search.branching == 2
        assert cfg.seeds == (7, 8)

    def test_flag_overrides(self, tmp_path):
        class Args:
            config = None
            sheet = "sheet2"
            seed = [9]
            out = str(tmp_path)

        cfg = RunConfig.from_args(Args())
        assert cfg.sheet == "sheet2"
        assert cfg.seeds == (9,)


class TestBadInput:
    """Malformed input files exit 2 with a message naming the file, no traceback."""

    def run_main(self, argv, capsys):
        code = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def run_config(self, tmp_path, **entries):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({k: str(v) for k, v in entries.items()}))
        return cfg_file

    def test_unknown_search_config_key(self, tmp_path, capsys):
        search_file = tmp_path / "search.json"
        search_file.write_text(json.dumps({"version": 1, "branching": 2, "brnaching": 3}))
        cfg_file = self.run_config(tmp_path, search=search_file)
        code, err = self.run_main(["refine", tmp_path / "model.json", "--capture",
                                   tmp_path / "cap.jsonl", "--config", cfg_file], capsys)
        assert code == 2
        assert "brnaching" in err and str(search_file) in err

    def test_unknown_ground_truth_key(self, tmp_path, d1_file, capsys):
        gt_file = tmp_path / "gt.json"
        gt_file.write_text(json.dumps({"version": 1, "region_cnt": 3}))
        cfg_file = self.run_config(tmp_path, ground_truth=gt_file)
        code, err = self.run_main(["simulate", d1_file, "--config", cfg_file,
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert "region_cnt" in err and str(gt_file) in err

    @pytest.mark.parametrize("record, missing", [
        ({"type": "step", "index": 1}, "action"),
        ({"type": "summary", "version": 1}, "plan"),
    ])
    def test_log_record_missing_key(self, tmp_path, capsys, record, missing):
        log_file = tmp_path / "bad.jsonl"
        log_file.write_text(json.dumps(record) + "\n")
        code, err = self.run_main(["learn", log_file, "--out", tmp_path / "m.json"], capsys)
        assert code == 2
        assert f"{log_file}:1:" in err and missing in err

    def test_log_line_not_an_object(self, tmp_path, capsys):
        log_file = tmp_path / "bad.jsonl"
        log_file.write_text("[1, 2]\n")
        code, err = self.run_main(["learn", log_file, "--out", tmp_path / "m.json"], capsys)
        assert code == 2
        assert f"{log_file}:1:" in err

    def model_file(self, tmp_path, **over):
        # a one-bucket model, with top-level keys replaced by `over`
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({
            "version": 1, "sector_count": 8, "experiments": 1, "sheets": ["sheet1"],
            "buckets": {"path|1|1": {"deltas": [[0, 0, -1.0, 0, 0, 0]],
                                     "u1": [[-1, -1, -1]], "u2": [[-1, -1, -1]],
                                     "sources": ["D1:1"]}}, **over}))
        return model_file

    def refine(self, tmp_path, capsys, model_file, capture_line, *more):
        cap_file = tmp_path / "cap.jsonl"
        cap_file.write_text(capture_line + "\n")
        code, err = self.run_main(["refine", model_file, "--capture", cap_file,
                                   "--out", tmp_path / "o", *more], capsys)
        return code, err, cap_file

    def test_nan_capture_height(self, tmp_path, capsys):
        code, err, cap_file = self.refine(
            tmp_path, capsys, self.model_file(tmp_path),
            json.dumps({"t": 0, "points": [[0.0, 0.0, float("nan")]]}))
        assert code == 2
        assert f"{cap_file}:1:" in err and "finite" in err

    @pytest.mark.parametrize("line", ['{"t": null, "points": [[0, 0, 1]]}', "[1, 2]"],
                             ids=["null-t", "not-object"])
    def test_capture_record_malformed(self, tmp_path, capsys, line):
        code, err, cap_file = self.refine(tmp_path, capsys, self.model_file(tmp_path), line)
        assert code == 2
        assert f"{cap_file}:1:" in err

    @pytest.mark.parametrize("content", [
        {"version": 1, "sector_count": 8},
        [1],
        {"buckets": {"path|1": {"deltas": [[0, 0, -1.0, 0, 0, 0]], "u1": [[-1, -1, -1]],
                                "u2": [[-1, -1, -1]], "sources": ["D1:1"]}}},
        {"buckets": {"path|1|1": {"deltas": [[0, -1.0]], "u1": [[-1, -1, -1]],
                                  "u2": [[-1, -1, -1]], "sources": ["D1:1"]}}},
    ], ids=["no-buckets", "not-object", "two-field-key", "two-number-delta"])
    def test_model_malformed(self, tmp_path, capsys, content):
        model_file = self.model_file(tmp_path)
        if not isinstance(content, dict) or "buckets" not in content:
            model_file.write_text(json.dumps(content))
        else:
            model_file = self.model_file(tmp_path, **content)
        code, err, _ = self.refine(tmp_path, capsys, model_file,
                                   json.dumps({"t": 0, "points": [[0, 0, 1.0]]}))
        assert code == 2
        assert str(model_file) in err

    @pytest.mark.parametrize("content", [{"seeds": 5}, {"seeds": ["x"]},
                                         {"sheet": ["sheet1"]}, {"search": 5}],
                             ids=["seeds-number", "seed-string", "sheet-list", "search-number"])
    def test_run_config_value_mistyped(self, tmp_path, d1_file, capsys, content):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(content))
        code, err = self.run_main(["simulate", d1_file, "--config", cfg_file,
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert str(cfg_file) in err and next(iter(content)) in err

    def test_run_config_seed_negative(self, tmp_path, d1_file, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"seeds": [3, -1]}))
        code, err = self.run_main(["simulate", d1_file, "--config", cfg_file,
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert str(cfg_file) in err and "seeds" in err
        assert not (tmp_path / "o").exists()

    def test_seed_flag_negative(self, tmp_path, d1_file, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["simulate", str(d1_file), "--seed", "-1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert "--seed" in err and "'-1'" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [
        {"grid_pitch": 0}, {"roller_half_width": -1.0}, {"h_min": 0}, {"link_radius": 0},
        {"region_count": -1}, {"noise_xy": -0.1}, {"extinction_height": -0.2},
        {"correction_max_cycles": 0}, {"region_major": [0, 10]},
        {"region_height": [5.0, 2.0]}, {"zone_jitter": -1}, {"theta_jitter": -1},
        {"alignment_floor": 5.0}, {"peel_pulse": -3.0}, {"correction_threshold": -1.0}],
        ids=lambda content: next(iter(content)))
    def test_ground_truth_value_out_of_range(self, tmp_path, d1_file, capsys, content):
        gt_file = tmp_path / "gt.json"
        gt_file.write_text(json.dumps(content))
        cfg_file = self.run_config(tmp_path, ground_truth=gt_file)
        code, err = self.run_main(["simulate", d1_file, "--config", cfg_file,
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert str(gt_file) in err and next(iter(content)) in err

    def test_config_is_a_directory(self, tmp_path, d1_file, capsys):
        code, err = self.run_main(["simulate", d1_file, "--config", tmp_path,
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert err.startswith(f"error: {tmp_path}: ")

    def test_plan_error_names_the_file(self, tmp_path, capsys):
        plan_file = tmp_path / "p.plan"
        plan_file.write_text("(path, 1)\n(path, 17)\n")
        code, err = self.run_main(["simulate", plan_file, "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert err.startswith(f"error: {plan_file}:2: path actions need a path index in 1..16")

    def test_ground_truth_value_mistyped(self, tmp_path, d1_file, capsys):
        gt_file = tmp_path / "gt.json"
        gt_file.write_text(json.dumps({"version": 1, "noise_height": "x"}))
        cfg_file = self.run_config(tmp_path, ground_truth=gt_file)
        code, err = self.run_main(["simulate", d1_file, "--config", cfg_file,
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert str(gt_file) in err and "noise_height" in err

    @pytest.mark.parametrize("text", ['{"edge_drift": NaN}', '{"edge_drift": 1e400}',
                                      '{"region_height": [2.0, Infinity]}'],
                             ids=["nan", "overflow", "infinity-in-list"])
    def test_ground_truth_value_not_finite(self, tmp_path, d1_file, capsys, text):
        gt_file = tmp_path / "gt.json"
        gt_file.write_text(text)
        cfg_file = self.run_config(tmp_path, ground_truth=gt_file)
        code, err = self.run_main(["simulate", d1_file, "--config", cfg_file,
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert str(gt_file) in err and "finite" in err

    @pytest.mark.parametrize("text", [
        '{"w_h": NaN}', '{"w_h": 1e400}',
        '{"action_costs": {"path": 1e400, "peel": 0.2, "capture": 0.2, "end": 0.0, '
        '"refinement": 1.0}}'], ids=["nan", "overflow", "cost-overflow"])
    def test_search_config_value_not_finite(self, tmp_path, capsys, text):
        search_file = tmp_path / "search.json"
        search_file.write_text(text)
        code, err, _ = self.refine(tmp_path, capsys, self.model_file(tmp_path),
                                   json.dumps({"t": 0, "points": [[0, 0, 1.0]]}),
                                   "--config", self.run_config(tmp_path, search=search_file))
        assert code == 2
        assert str(search_file) in err and "finite" in err

    def test_search_config_cost_not_a_number(self, tmp_path, capsys):
        search_file = tmp_path / "search.json"
        search_file.write_text(json.dumps({"version": 1, "action_costs": {"path": "x"}}))
        code, err, _ = self.refine(tmp_path, capsys, self.model_file(tmp_path),
                                   json.dumps({"t": 0, "points": [[0, 0, 1.0]]}),
                                   "--config", self.run_config(tmp_path, search=search_file))
        assert code == 2
        assert str(search_file) in err and "action_costs" in err

    @pytest.mark.parametrize("field, value", [("seed", "3"), ("correction_converged", "no")])
    def test_log_summary_mistyped(self, tmp_path, capsys, field, value):
        log_file = tmp_path / "bad.jsonl"
        log_file.write_text(json.dumps({**summary("sheet1", "D1", 3, 1, 2, 18), field: value})
                            + "\n")
        for argv in (["learn", log_file, "--out", tmp_path / "m.json"], ["report", log_file]):
            code, err = self.run_main(argv, capsys)
            assert code == 2
            assert f"{log_file}:1:" in err and field in err

    def test_log_step_index_mistyped(self, tmp_path, d1_file, capsys):
        log_file = cmd_simulate(d1_file, run_cfg(tmp_path, seeds=(3,)), keep_captures=False)[0]
        lines = log_file.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "index": "1"})
        log_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code, err = self.run_main(["learn", log_file, "--out", tmp_path / "m.json"], capsys)
        assert code == 2
        assert f"{log_file}:1:" in err and "index" in err

    @pytest.mark.parametrize("last_line, named", [
        (json.dumps({"type": "summary", "version": 1}), "sheet"),
        (json.dumps({"type": "summary", "version": 1, "plan": "D1", "sheet": "sheet1",
                     "seed": 0, "correction_cycles": 1, "correction_paths": 2,
                     "in_plan_paths": 16}), "total_paths"),
        ('{"type": "summary", "plan": ', "Expecting value"),
    ], ids=["no-fields", "no-total-paths", "not-json"])
    def test_report_bad_summary(self, tmp_path, capsys, last_line, named):
        log_file = tmp_path / "bad.jsonl"
        log_file.write_text(json.dumps({"type": "step", "index": 1}) + "\n" + last_line + "\n")
        code, err = self.run_main(["report", log_file], capsys)
        assert code == 2
        assert f"{log_file}:2:" in err and named in err

    def test_constraint_record_too_short(self, tmp_path, capsys):
        cs_file = tmp_path / "cs.json"
        cs_file.write_text(json.dumps({"rel": [["end", "path", ">"]]}))
        cfg_file = self.run_config(tmp_path, constraints=cs_file)
        code, err = self.run_main(["refine", tmp_path / "model.json", "--capture",
                                   tmp_path / "cap.jsonl", "--config", cfg_file], capsys)
        assert code == 2
        assert str(cs_file) in err and "rel record 0" in err

    @pytest.mark.parametrize("which, field, value", [
        ("state_before", "mu1", [1.0, 2.0]),
        ("state_after", "sigma1", [[0.5]]),
    ], ids=["short-mu1", "1x1-sigma1"])
    def test_log_state_malformed_moments(self, tmp_path, d1_file, capsys, which, field, value):
        log_file = cmd_simulate(d1_file, run_cfg(tmp_path, seeds=(3,)), keep_captures=False)[0]
        lines = log_file.read_text().splitlines()
        step = json.loads(lines[2])
        step[which]["sectors"][1][field] = value
        lines[2] = json.dumps(step)
        log_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code, err = self.run_main(["learn", log_file, "--out", tmp_path / "m.json"], capsys)
        assert code == 2
        assert f"{log_file}:3:" in err and field in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("content", ["[1, 2]", '{"sheet": '], ids=["not-object", "truncated"])
    def test_run_config_malformed(self, tmp_path, d1_file, capsys, content):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(content)
        code, err = self.run_main(["simulate", d1_file, "--config", cfg_file,
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert str(cfg_file) in err
