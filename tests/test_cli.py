import hashlib
import io
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from layup.cli import (RunConfig, build_report, cmd_learn, cmd_refine,
                       cmd_report, cmd_simulate, format_report, main)
from layup.plan import emit_plan, expert_plan, peel
from layup.simulator import GroundTruthParams
from layup.sheet_state import read_capture_frames, write_capture_frames
from layup.simulator import (ExperimentLog, builtin_sheet, init_sheet, read_log, render_capture,
                             write_log)

from conftest import make_state, published_style_summaries, summary_record

GOLDEN_DIR = Path(__file__).parent / "golden"


def npy_records(*arrays) -> bytes:
    """The arrays as consecutive `.npy` records; an object array is pickled."""
    buf = io.BytesIO()
    for arr in arrays:
        np.save(buf, arr, allow_pickle=True)
    return buf.getvalue()


def npy_header(shape) -> bytes:
    """A float64 `.npy` header claiming `shape`, with no data after it."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False,
                                               "shape": shape})
    return buf.getvalue()


T0 = np.array([0])
ONE_FRAME = npy_records(T0, np.array([[0.0, 0.0, 1.0]]))  # one t = 0 frame of one point


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

    def test_captures_go_to_a_sidecar_per_log(self, tmp_path, d1_file):
        out = tmp_path / "out"
        written = cmd_simulate(d1_file, run_cfg(tmp_path, seeds=(0, 7)))
        assert sorted(out.glob("*.jsonl")) == sorted(written)
        for log_path in written:
            sidecar = out / "captures" / f"{log_path.stem}.npy"
            frames = read_capture_frames(sidecar)
            assert [fr.t for fr in frames] == list(range(len(read_log(log_path).states)))
        # seed 0 is the golden run: its log and its captures are both pinned
        golden = {name: (GOLDEN_DIR / name).read_text().strip()
                  for name in ("d1_log.sha256", "d1_captures.sha256")}
        assert hashlib.sha256(written[0].read_bytes()).hexdigest() == golden["d1_log.sha256"]
        sidecar = out / "captures" / f"{written[0].stem}.npy"
        assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == golden["d1_captures.sha256"]

    def test_no_captures_writes_no_sidecar(self, tmp_path, d1_file):
        out = tmp_path / "o"
        code = main(["simulate", str(d1_file), "--out", str(out), "--seed", "4",
                     "--no-captures"])
        assert code == 0
        assert [p.name for p in out.iterdir()] == ["D1_sheet1_seed4.jsonl"]

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

    def test_learn_names_kinds_without_samples(self, tmp_path, d1_file, capsys):
        # the expert plans never refine, so the search prices refinement unseen
        d2_file = tmp_path / "D2.plan"
        emit_plan(expert_plan(2), d2_file)
        cfg = run_cfg(tmp_path, seeds=(1,))
        logs = [log for plan in (d1_file, d2_file)
                for log in cmd_simulate(plan, cfg, keep_captures=False)]
        capsys.readouterr()
        model_path = tmp_path / "model.json"
        cmd_learn([str(p) for p in logs], model_path)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "  no samples: refinement"
        assert lines[-2].startswith("  peel|0: ")
        assert "no samples" not in model_path.read_text()
        # one line per bucket, kinds in name order and paths in index order
        buckets = [line.split(":")[0].strip() for line in lines if line.startswith("  ")]
        assert buckets == (["capture|0", "end|0"] + [f"path|{i}" for i in range(1, 17)]
                           + ["peel|0", "no samples"])

    def test_learn_prints_every_count(self, tmp_path, d1_file, capsys):
        # D1 whole and D2's first four steps, seed 1: D2's four paths hold two
        # samples a sector, every other bucket one
        d2_file = tmp_path / "D2.plan"
        emit_plan(expert_plan(2), d2_file)
        cfg = run_cfg(tmp_path, seeds=(1,))
        d1_log, d2_log = (cmd_simulate(plan, cfg, keep_captures=False)[0]
                          for plan in (d1_file, d2_file))
        log = read_log(d2_log)
        write_log(replace(log, actions=log.actions[:4], states=log.states[:5]), d2_log)
        twice = [action.arg for action in log.actions[:4]]
        assert twice == [13, 5, 11, 15]
        capsys.readouterr()
        cmd_learn([str(d1_log), str(d2_log)], tmp_path / "model.json")
        want = (["experiments: 2", "sheets: sheet1", "  capture|0: 8 samples across 8 sectors",
                 "  end|0: 8 samples across 8 sectors"]
                + [f"  path|{i}: {16 if i in twice else 8} samples across 8 sectors"
                   for i in range(1, 17)]
                + ["  peel|0: 8 samples across 8 sectors", "  no samples: refinement",
                   "  note: 120 singleton buckets (sample variance treated as zero)"])
        assert capsys.readouterr().out == "".join(line + "\n" for line in want)

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
        cap_path = tmp_path / "cap.npy"
        write_capture_frames(cap_path, [render_capture(sim)])
        plan_path = cmd_refine(model_path, cap_path, run_cfg(tmp_path))
        assert plan_path.exists()
        sidecar = plan_path.with_name(plan_path.stem + ".audit.json")
        assert sidecar.exists()
        audit = json.loads(sidecar.read_text())
        assert audit["steps"]
        counts = audit["search"]
        assert set(counts) == {"nodes_expanded", "children_priced", "batch_calls",
                               "nodes_reused"}
        assert all(type(v) is int and v > 0 for v in counts.values())
        assert counts["children_priced"] >= counts["batch_calls"]

    def test_refine_deterministic(self, tmp_path, d1_file):
        cfg = run_cfg(tmp_path, seeds=(1, 2))
        logs = cmd_simulate(d1_file, cfg, keep_captures=False)
        model_path = tmp_path / "model.json"
        cmd_learn([str(p) for p in logs], model_path)
        sim = init_sheet(builtin_sheet("sheet1"), GroundTruthParams(), seed=9)
        cap_path = tmp_path / "cap.npy"
        write_capture_frames(cap_path, [render_capture(sim)])
        a = cmd_refine(model_path, cap_path, run_cfg(tmp_path)).read_bytes()
        b = cmd_refine(model_path, cap_path, run_cfg(tmp_path)).read_bytes()
        assert a == b

    def test_empty_model_exit_2(self, tmp_path):
        model_path = tmp_path / "empty.json"
        model_path.write_text(json.dumps({"version": 1, "sector_count": 8,
                                          "experiments": 0, "sheets": [],
                                          "buckets": {}}))
        cap_path = tmp_path / "cap.npy"
        sim = init_sheet(builtin_sheet("sheet1"), GroundTruthParams(), seed=9)
        write_capture_frames(cap_path, [render_capture(sim)])
        code = main(["refine", str(model_path), "--capture", str(cap_path),
                     "--out", str(tmp_path)])
        assert code == 2


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
        rows = [summary_record("sheet1", "D0", 0, 0, 0, 0),
                summary_record("sheet1", "refined_x", 0, 0, 0, 0)]
        report = build_report(rows)
        assert report["sheets"]["sheet1"]["by_plan"]["refined_x"]["improvement_pct"] == 0.0

    def test_average_is_mean_of_totals(self):
        rows = [summary_record("sheet1", "D1", i, 1, 1, t) for i, t in enumerate([33, 46, 32])]
        report = build_report(rows)
        assert report["sheets"]["sheet1"]["by_plan"]["D1"]["average_paths"] == \
            pytest.approx((33 + 46 + 32) / 3)

    def test_repeated_trial_is_refused(self):
        rows = published_style_summaries()
        with pytest.raises(ValueError, match="plan D2 on sheet2 at seed 1 is given more"):
            build_report(rows + [rows[-5]])

    def test_same_seed_of_other_plans_or_sheets_is_kept(self):
        rows = [summary_record(sheet, plan, 0, 1, 1, 20)
                for sheet in ("sheet1", "sheet2") for plan in ("D1", "refined_x")]
        report = build_report(rows)
        assert [len(report["sheets"][sheet]["by_plan"][plan]["trials"])
                for sheet in ("sheet1", "sheet2") for plan in ("D1", "refined_x")] == [1] * 4

    def test_text_table_renders(self):
        text = format_report(build_report(published_style_summaries()))
        assert "37.0" in text and "41.7" in text and "sheet2" in text

    @pytest.mark.parametrize("baseline", ["D3", "refined_sheet1", ""])
    def test_baseline_must_name_an_initial_plan(self, baseline):
        with pytest.raises(ValueError, match=re.escape(f"baseline {baseline!r} is not")):
            build_report(published_style_summaries(), baseline=baseline)

    def test_baseline_missing_from_one_sheet_is_refused(self):
        rows = [r for r in published_style_summaries()
                if (r["sheet"], r["plan"]) != ("sheet2", "D1")]
        with pytest.raises(ValueError, match="'D1' is not an initial plan of sheet2"):
            build_report(rows, baseline="D1")

    @staticmethod
    def summary_logs(tmp_path) -> list[str]:
        logs = []
        for i, row in enumerate(published_style_summaries()):
            p = tmp_path / f"log{i}.jsonl"
            p.write_text(json.dumps(row) + "\n")
            logs.append(str(p))
        return logs

    def test_unusable_baseline_exits_2(self, tmp_path, capsys):
        code = main(["report", *self.summary_logs(tmp_path), "--baseline", "D3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "baseline 'D3' is not an initial plan" in err and "Traceback" not in err

    def test_cmd_report_writes_files(self, tmp_path):
        cmd_report(self.summary_logs(tmp_path), out_dir=tmp_path / "rep")
        data = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert data["sheets"]["sheet1"]["by_plan"]["refined_sheet1"]["improvement_pct"] == 41.7
        assert (tmp_path / "rep" / "report.txt").exists()


@pytest.fixture(scope="class")
def sidecar_corpus(tmp_path_factory):
    """D1 and D2 on sheet1 at seeds 101 and 102 with capture sidecars kept.

    Returns the model learned from the four logs and the sidecar of each D1
    run, in seed order.
    """
    root = tmp_path_factory.mktemp("corpus")
    out = root / "runs"
    logs = []
    for variant in (1, 2):
        plan_path = root / f"D{variant}.plan"
        emit_plan(expert_plan(variant), plan_path)
        logs += cmd_simulate(plan_path, RunConfig(sheet="sheet1", seeds=(101, 102), out=out))
    model_path = root / "model.json"
    cmd_learn([str(p) for p in logs], model_path)
    return model_path, [out / "captures" / f"D1_sheet1_seed{seed}.npy" for seed in (101, 102)]


def rendered_initial(target, seeds):
    """A capture file holding the initial sheet1 capture of each seed."""
    write_capture_frames(target, [render_capture(init_sheet(builtin_sheet("sheet1"),
                                                            GroundTruthParams(), seed))
                                  for seed in seeds])
    return target


def refined_bytes(out_dir):
    return [(out_dir / f"refined_sheet1{ext}").read_bytes() for ext in (".plan", ".audit.json")]


class TestFullPipeline:
    def test_refine_from_simulate_sidecars(self, tmp_path, sidecar_corpus):
        # the sidecars' t = 0 frames are the runs' initial captures, so the
        # plan and audit match those refined from the same captures rendered
        model_path, sidecars = sidecar_corpus
        assert main(["refine", str(model_path), "--capture", *map(str, sidecars),
                     "--out", str(tmp_path / "a")]) == 0
        cmd_refine(model_path, rendered_initial(tmp_path / "initial.npy", (101, 102)),
                   RunConfig(out=tmp_path / "b"))
        assert refined_bytes(tmp_path / "a") == refined_bytes(tmp_path / "b")

    def test_refine_from_one_sidecar(self, tmp_path, sidecar_corpus):
        model_path, sidecars = sidecar_corpus
        cmd_refine(model_path, str(sidecars[0]), RunConfig(out=tmp_path / "a"))
        cmd_refine(model_path, rendered_initial(tmp_path / "initial.npy", (101,)),
                   RunConfig(out=tmp_path / "b"))
        assert refined_bytes(tmp_path / "a") == refined_bytes(tmp_path / "b")

    def test_refine_rejects_a_file_without_initial_capture(self, tmp_path, capsys,
                                                            sidecar_corpus):
        model_path, sidecars = sidecar_corpus
        later = tmp_path / "later.npy"
        write_capture_frames(later, read_capture_frames(sidecars[0])[1:])
        assert all(fr.t > 0 for fr in read_capture_frames(later))
        capsys.readouterr()
        code = main(["refine", str(model_path), "--capture", str(later),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(later) in err and "Traceback" not in err

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
        cap_path = tmp_path / "initial.npy"
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

    @pytest.mark.parametrize("entries, named", [({"branching": 2, "brnaching": 3}, "brnaching"),
                                                ({"mode": "montecarlo"}, "montecarlo")],
                             ids=["misspelt-key", "unknown-mode"])
    def test_unknown_search_config_key(self, tmp_path, capsys, entries, named):
        search_file = tmp_path / "search.json"
        search_file.write_text(json.dumps({"version": 1, **entries}))
        cfg_file = self.run_config(tmp_path, search=search_file)
        code, err = self.run_main(["refine", tmp_path / "model.json", "--capture",
                                   tmp_path / "cap.npy", "--config", cfg_file], capsys)
        assert code == 2
        assert named in err and str(search_file) in err

    def test_unknown_ground_truth_key(self, tmp_path, d1_file, capsys):
        gt_file = tmp_path / "gt.json"
        gt_file.write_text(json.dumps({"version": 1, "region_cnt": 3}))
        cfg_file = self.run_config(tmp_path, ground_truth=gt_file)
        code, err = self.run_main(["simulate", d1_file, "--config", cfg_file,
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert "region_cnt" in err and str(gt_file) in err

    def simulated_log_lines(self, tmp_path, d1_file, capsys) -> tuple[Path, list[str]]:
        log_file = cmd_simulate(d1_file, run_cfg(tmp_path, seeds=(3,)), keep_captures=False)[0]
        capsys.readouterr()
        return log_file, log_file.read_text().splitlines()

    @pytest.mark.parametrize("record, missing", [
        ({"type": "step", "state": {"t": 1}}, "action"),
        ({"type": "summary", "version": 1}, "plan"),
    ])
    def test_log_record_missing_key(self, tmp_path, d1_file, capsys, record, missing):
        log_file, lines = self.simulated_log_lines(tmp_path, d1_file, capsys)
        log_file.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
        code, err = self.run_main(["learn", log_file, "--out", tmp_path / "m.json"], capsys)
        assert code == 2
        assert f"{log_file}:2:" in err and missing in err

    def test_version_2_log_names_its_first_line(self, tmp_path, d1_file, capsys):
        # a version 2 log starts with a step record that holds its index and
        # both states, each with its geometry
        log_file, lines = self.simulated_log_lines(tmp_path, d1_file, capsys)
        start, *steps, summary = map(json.loads, lines)
        states = [start["state"]] + [step["state"] for step in steps]
        old = [{"type": "step", "index": i, "action": step["action"],
                "state_before": {"geometry": start["geometry"], **states[i - 1]},
                "state_after": {"geometry": start["geometry"], **states[i]}}
               for i, step in enumerate(steps, start=1)]
        log_file.write_text("".join(json.dumps(rec) + "\n" for rec in old + [summary]))
        code, err = self.run_main(["learn", log_file, "--out", tmp_path / "m.json"], capsys)
        assert code == 2
        assert err.startswith(f"error: {log_file}:1: bad step record")
        assert "before any start record" in err
        assert not (tmp_path / "m.json").exists()

    def test_version_3_log_names_its_first_line(self, tmp_path, d1_file, capsys):
        # a version 3 log holds each state's two 3x3 covariances per sector as
        # `sigma`, the variances on their diagonals
        log_file, lines = self.simulated_log_lines(tmp_path, d1_file, capsys)
        start, *steps, summary = map(json.loads, lines)
        start["version"] = 3
        for record in [start] + steps:
            var = np.array(record["state"].pop("var"))
            record["state"]["sigma"] = (var[..., None] * np.eye(3)).tolist()
        log_file.write_text("".join(json.dumps(rec) + "\n" for rec in [start] + steps + [summary]))
        code, err = self.run_main(["learn", log_file, "--out", tmp_path / "m.json"], capsys)
        assert code == 2
        assert err.startswith(f"error: {log_file}:1: bad start record")
        assert "log version must be 4" in err
        assert not (tmp_path / "m.json").exists()

    def test_log_summary_does_not_add_up(self, tmp_path, d1_file, capsys):
        log_file, lines = self.simulated_log_lines(tmp_path, d1_file, capsys)
        summary = {**json.loads(lines[-1]), "total_paths": 5, "in_plan_paths": 2}
        log_file.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
        for argv in (["learn", log_file, "--out", tmp_path / "m.json"], ["report", log_file]):
            code, err = self.run_main(argv, capsys)
            assert code == 2
            assert f"{log_file}:{len(lines)}: bad summary record" in err
            assert "total_paths 5 is not in_plan_paths 2" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("cut", ["step", "start"])
    def test_log_summary_in_plan_paths_not_the_steps(self, tmp_path, d1_file, capsys, cut):
        # the summary adds up, but the step records before it hold other paths:
        # all but one path step's, or the start record alone
        log_file, lines = self.simulated_log_lines(tmp_path, d1_file, capsys)
        first_path = next(i for i, line in enumerate(lines)
                          if json.loads(line).get("action", [""])[0] == "path")
        kept = lines[:first_path] + lines[first_path + 1:-1] if cut == "step" else lines[:1]
        log_file.write_text("\n".join(kept + lines[-1:]) + "\n")
        code, err = self.run_main(["learn", log_file, "--out", tmp_path / "m.json"], capsys)
        assert code == 2
        assert f"{log_file}:{len(kept) + 1}: bad summary record" in err
        assert ("in_plan_paths 16, but the step records hold 15 path equivalents" in err
                if cut == "step" else "start record without a step record" in err)

    def test_log_step_after_the_summary(self, tmp_path, d1_file, capsys):
        # the end step, which adds no path, moved after the summary
        log_file, lines = self.simulated_log_lines(tmp_path, d1_file, capsys)
        assert json.loads(lines[-2])["action"] == ["end", None]
        lines[-2], lines[-1] = lines[-1], lines[-2]
        log_file.write_text("\n".join(lines) + "\n")
        code, err = self.run_main(["learn", log_file, "--out", tmp_path / "m.json"], capsys)
        assert code == 2
        assert f"{log_file}:{len(lines)}: bad step record" in err
        assert "step record after the summary record" in err

    def test_log_line_not_an_object(self, tmp_path, capsys):
        log_file = tmp_path / "bad.jsonl"
        log_file.write_text("[1, 2]\n")
        code, err = self.run_main(["learn", log_file, "--out", tmp_path / "m.json"], capsys)
        assert code == 2
        assert f"{log_file}:1:" in err

    def test_logs_of_different_sector_counts_name_both_files(self, tmp_path, d1_file, capsys,
                                                            two_sector_geom):
        # a sheet1 log has 8 sectors; the hand-written log after it has 2
        log_file, _ = self.simulated_log_lines(tmp_path, d1_file, capsys)
        small = make_state(two_sector_geom)
        other = tmp_path / "small.jsonl"
        write_log(ExperimentLog(plan_name="p", sheet="tiny", seed=0, actions=[peel()],
                                states=[small, small], correction_cycles=0, correction_paths=0,
                                correction_converged=True), other)
        code, err = self.run_main(["learn", log_file, log_file, other, "--out",
                                   tmp_path / "m.json"], capsys)
        assert code == 2
        assert err == f"error: {other}: the log has 2 sectors, the first log {log_file} 8\n"
        assert not (tmp_path / "m.json").exists()

    def model_file(self, tmp_path, **over):
        # a one-bucket model, with top-level keys replaced by `over`
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({
            "version": 1, "sector_count": 8, "experiments": 1, "sheets": ["sheet1"],
            "buckets": {"path|1|1": {"deltas": [[0, 0, -1.0, 0, 0, 0]],
                                     "u1": [[-1, -1, -1]], "u2": [[-1, -1, -1]],
                                     "sources": ["D1:1"]}}, **over}))
        return model_file

    def refine(self, tmp_path, capsys, model_file, capture: bytes, *more):
        cap_file = tmp_path / "cap.npy"
        cap_file.write_bytes(capture)
        code, err = self.run_main(["refine", model_file, "--capture", cap_file,
                                   "--out", tmp_path / "o", *more], capsys)
        return code, err, cap_file

    def test_nan_capture_height(self, tmp_path, capsys):
        code, err, cap_file = self.refine(
            tmp_path, capsys, self.model_file(tmp_path),
            npy_records(T0, np.array([[0.0, 0.0, np.nan]])))
        assert code == 2
        assert f"{cap_file}: frame 1: " in err and "finite" in err

    @pytest.mark.parametrize("capture, where", [
        (b'{"t": 0, "points": [[0, 0, 1.0]]}\n', "not a capture file"),
        (b"[1, 2]\n", "not a capture file"),
        (ONE_FRAME[:-4], "frame 1"),
        (npy_records(T0, np.array([[0.0, 0.0, 1.0]], dtype="<f4")), "frame 1"),
        (npy_records(T0, np.array([[0.0, 0.0, 1.0]], dtype=object)), "frame 1"),
        (ONE_FRAME + b"\0", "bytes after frame 1"),
        (npy_records(T0, np.array([[0.0, 0.0, -1.0]])), "frame 1"),
        (npy_records(np.array([0.0]), np.array([[0.0, 0.0, 1.0]])), "t record"),
        (npy_records(np.array([None]), np.array([[0.0, 0.0, 1.0]])), "t record"),
        (npy_records(np.array([0, 1]), np.array([[0.0, 0.0, 1.0]])), "frame 2"),
        (npy_records(T0) + npy_header((10**12, 3)), "frame 1"),
    ], ids=["json-lines", "not-object", "truncated", "float32", "pickled-object",
            "trailing-bytes", "negative-height", "float-t", "null-t", "missing-frame",
            "oversized-header"])
    def test_capture_record_malformed(self, tmp_path, capsys, capture, where):
        code, err, cap_file = self.refine(tmp_path, capsys, self.model_file(tmp_path), capture)
        assert code == 2
        assert err.startswith(f"error: {cap_file}: {where}")

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
                                   ONE_FRAME)
        assert code == 2
        assert str(model_file) in err

    @pytest.mark.parametrize("key", ["bogus|0|1", "path|99|1", "peel|3|1"])
    def test_model_bucket_key_no_action_has(self, tmp_path, capsys, key):
        model_file = self.model_file(tmp_path)
        content = json.loads(model_file.read_text())
        content["buckets"] = {key: content["buckets"]["path|1|1"]}
        model_file.write_text(json.dumps(content))
        code, err, _ = self.refine(tmp_path, capsys, model_file,
                                   ONE_FRAME)
        assert code == 2
        assert str(model_file) in err and key in err

    @pytest.mark.parametrize("keys", [["path|01|1"], ["path| 1|1"], ["path|1_0|1"],
                                      ["path|1|1", "path|01|1"]],
                             ids=["leading-zero", "space", "underscore", "two-spellings"])
    def test_model_bucket_key_not_canonical(self, tmp_path, capsys, keys):
        # int() reads each of these; two spellings of one bucket would keep only the later
        model_file = self.model_file(tmp_path)
        content = json.loads(model_file.read_text())
        content["buckets"] = {key: content["buckets"]["path|1|1"] for key in keys}
        model_file.write_text(json.dumps(content))
        code, err, _ = self.refine(tmp_path, capsys, model_file,
                                   ONE_FRAME)
        assert code == 2
        assert str(model_file) in err and keys[-1] in err

    @pytest.mark.parametrize("track, votes", [("u1", [5, 5, 5]), ("u2", [-1, 0, 1]),
                                              ("u1", [1, 1, 1.5])],
                             ids=["five", "zero", "one-and-a-half"])
    def test_model_vote_not_plus_or_minus_one(self, tmp_path, capsys, track, votes):
        model_file = self.model_file(tmp_path)
        content = json.loads(model_file.read_text())
        content["buckets"]["path|1|1"][track] = [votes]
        model_file.write_text(json.dumps(content))
        code, err, _ = self.refine(tmp_path, capsys, model_file,
                                   ONE_FRAME)
        assert code == 2
        assert str(model_file) in err and "path|1|1" in err and "-1 or 1" in err

    @pytest.mark.parametrize("field, value", [
        ("u1", [[-1, -1, -1]]),
        ("sources", ["D1:1"]),
        ("deltas", [[0, 0, -1.0, 0, 0, 0], [0, 0, True, 0, 0, 0]]),
        ("u2", [[-1, -1, -1], [-1, -1, "TOO-LARGE"]]),
        ("deltas", [[0, 0, -1.0, 0, 0, 0], [0, 0, -1.0, 0, 0]]),
        ("u1", [[-1, -1, -1], [5, 5, 5]]),
        ("u2", None),
        ("sources", "D1:1"),
        ("deltas", 5),
    ], ids=["u1-row-short", "source-short", "true-in-deltas", "1e400-in-u2",
            "five-number-row", "vote-five", "u2-missing", "sources-string", "deltas-number"])
    def test_model_bucket_fault_names_its_bucket(self, tmp_path, capsys, field, value):
        # two buckets of two samples each, the fault in the second: the rows of
        # all buckets are checked at once, and the error still names that bucket;
        # a value None leaves the field out
        good = {"deltas": [[0, 0, -1.0, 0, 0, 0]] * 2, "u1": [[-1, -1, -1]] * 2,
                "u2": [[1, -1, -1]] * 2, "sources": ["D1:1", "D2:1"]}
        bad = {name: v for name, v in {**good, field: value}.items() if v is not None}
        model_file = self.model_file(tmp_path, buckets={"path|1|1": good, "path|1|2": bad})
        # json writes no number too large for a float; json reads 1e400 as infinity
        model_file.write_text(model_file.read_text().replace('"TOO-LARGE"', "1e400"))
        code, err, _ = self.refine(tmp_path, capsys, model_file, ONE_FRAME)
        assert code == 2
        assert str(model_file) in err and "path|1|2" in err and "path|1|1" not in err

    def test_model_bucket_overflow_names_its_bucket(self, tmp_path, capsys):
        # finite heights whose sum overflows: refused when loaded, before the
        # search would price with an infinite mean
        drop = [0, 0, -1.7e308, 0, 0, 0]
        good = {"deltas": [[0, 0, -1.0, 0, 0, 0]] * 2, "u1": [[-1, -1, -1]] * 2,
                "u2": [[1, -1, -1]] * 2, "sources": ["D1:1", "D2:1"]}
        model_file = self.model_file(tmp_path, buckets={
            "path|1|1": good, "path|1|2": {**good, "deltas": [drop, drop]},
            "path|2|1": {**good, "deltas": [drop, [0] * 6]}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err, _ = self.refine(tmp_path, capsys, model_file, ONE_FRAME)
        assert code == 2
        assert err.startswith(f"error: {model_file}: ")
        assert "bucket path|1|2: mean or deviation overflows" in err
        assert not (tmp_path / "o").exists()

    def test_model_sector_count_not_the_sheets(self, tmp_path, capsys):
        # sheet1 has 8 sectors; the mismatch is named before the search starts
        model_file = self.model_file(tmp_path, sector_count=1000000000)
        code, err, _ = self.refine(tmp_path, capsys, model_file,
                                   ONE_FRAME)
        assert code == 2
        assert err.startswith(f"error: {model_file}: ") and "1000000000 sectors" in err
        assert not (tmp_path / "o").exists()

    def test_ground_truth_seed_is_no_key(self, tmp_path, d1_file, capsys):
        # a run's seeds come from --seed or the run config's "seeds"
        gt_file = tmp_path / "gt.json"
        gt_file.write_text(json.dumps({"seed": 7}))
        cfg_file = self.run_config(tmp_path, ground_truth=gt_file)
        code, err = self.run_main(["simulate", d1_file, "--config", cfg_file,
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert str(gt_file) in err and "unknown key(s): seed" in err

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

    def test_seed_flag_repeated(self, tmp_path, d1_file, capsys):
        code, err = self.run_main(["simulate", d1_file, "--seed", "3", "4", "3",
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert "--seed: seed 3 is given more than once" in err
        assert not (tmp_path / "o").exists()

    def test_run_config_seed_repeated(self, tmp_path, d1_file, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"seeds": [5, 5]}))
        code, err = self.run_main(["simulate", d1_file, "--config", cfg_file,
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert str(cfg_file) in err and "seeds: seed 5 is given more than once" in err
        assert not (tmp_path / "o").exists()

    def test_report_log_named_twice(self, tmp_path, capsys):
        log = tmp_path / "a.jsonl"
        log.write_text(json.dumps(summary_record("sheet1", "D1", 3, 1, 5, 21)) + "\n")
        code, err = self.run_main(["report", log, log], capsys)
        assert code == 2
        assert "plan D1 on sheet1 at seed 3 is given more than once" in err

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
                                   ONE_FRAME,
                                   "--config", self.run_config(tmp_path, search=search_file))
        assert code == 2
        assert str(search_file) in err and "finite" in err

    def test_search_config_cost_not_a_number(self, tmp_path, capsys):
        search_file = tmp_path / "search.json"
        search_file.write_text(json.dumps({"version": 1, "action_costs": {"path": "x"}}))
        code, err, _ = self.refine(tmp_path, capsys, self.model_file(tmp_path),
                                   ONE_FRAME,
                                   "--config", self.run_config(tmp_path, search=search_file))
        assert code == 2
        assert str(search_file) in err and "action_costs" in err

    @pytest.mark.parametrize("field, value", [("seed", "3"), ("correction_converged", "no")])
    def test_log_summary_mistyped(self, tmp_path, capsys, field, value):
        log_file = tmp_path / "bad.jsonl"
        record = {**summary_record("sheet1", "D1", 3, 1, 2, 18), field: value}
        log_file.write_text(json.dumps(record) + "\n")
        for argv in (["learn", log_file, "--out", tmp_path / "m.json"], ["report", log_file]):
            code, err = self.run_main(argv, capsys)
            assert code == 2
            assert f"{log_file}:1:" in err and field in err

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
                                   tmp_path / "cap.npy", "--config", cfg_file], capsys)
        assert code == 2
        assert str(cs_file) in err and "rel record 0" in err

    @pytest.mark.parametrize("line, field, value", [
        (1, "mu", [1.0, 2.0]),
        (3, "var", [[0.5]]),
        (2, "var", [[0.5, -0.25, 0.5], [0.5, 0.5, 0.5]]),
        (2, "count", -1),
    ], ids=["short-mu1", "1x1-var1", "negative-var1", "negative-count1"])
    def test_log_state_malformed_moments(self, tmp_path, d1_file, capsys, line, field, value):
        # sector 1's row of the start state's means, of step 2's variances,
        # or its variances or region count after step 1
        log_file, lines = self.simulated_log_lines(tmp_path, d1_file, capsys)
        record = json.loads(lines[line - 1])
        record["state"][field][0] = value
        lines[line - 1] = json.dumps(record)
        log_file.write_text("\n".join(lines) + "\n")
        code, err = self.run_main(["learn", log_file, "--out", tmp_path / "m.json"], capsys)
        assert code == 2
        assert f"{log_file}:{line}:" in err and field in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("content", ["[1, 2]", '{"sheet": '], ids=["not-object", "truncated"])
    def test_run_config_malformed(self, tmp_path, d1_file, capsys, content):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(content)
        code, err = self.run_main(["simulate", d1_file, "--config", cfg_file,
                                   "--out", tmp_path / "o"], capsys)
        assert code == 2
        assert str(cfg_file) in err
