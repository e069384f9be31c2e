"""The three workloads: campaign, refine and record.

Every workload drives the library through the ``layup.cli`` entry points a
user runs (``cmd_simulate``, ``cmd_learn``, ``cmd_refine``, ``cmd_report``)
with their stdout captured. Work comes in rounds: a round is a fixed list of
steps that the workload seed determines. The first ``pass_rounds`` rounds form
the pass, and every later round repeats the inputs of a pass round, so a run
is whole passes of the same inputs, however fast the program is. The
deterministic figures (output digests, the workload-only quality metric, the
per-layer counts) are taken over the first pass, so they repeat exactly.
Steps marked ``op`` are the timed operations; the others (``cmd_learn`` after
a recorded corpus, ``cmd_report`` after an evaluation round) count toward
wall time only.

Outputs are checked after each round against ``data/reference.json``, which
``reference.py`` records from this same code, and against the golden files in
``tests/golden`` where the repository pins them.
"""
from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DATA = Path(__file__).resolve().parent / "data"
SHEETS = ("sheet1", "sheet2")
SIM_POOL = tuple(range(1, 65))  # simulation seeds with recorded reference summaries
GOLDEN_SEED = 0                 # the seed of the pinned sheet1 pipeline
REFINE_SEEDS = (GOLDEN_SEED, 1, 2)  # sheet1 training corpora of the refine workload
CAMPAIGN_SEEDS = 24             # simulation seeds per campaign round
RECORD_DRAWN = 2                # drawn corpora per sheet in a record round


@dataclass
class Step:
    """One CLI call of a round; `run` gets the outputs of the earlier steps."""

    key: str
    run: Callable[[list], object]
    op: bool = True


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def last_json_line(path) -> dict:
    """The trailing record of a JSON-lines file, read from the end."""
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        size = fh.tell()
        block = b""
        pos = size
        while pos > 0:
            step = min(65536, pos)
            pos -= step
            fh.seek(pos)
            block = fh.read(step) + block
            lines = block.rstrip(b"\n").split(b"\n")
            if len(lines) > 1 or pos == 0:
                return json.loads(lines[-1])
    raise ValueError(f"{path}: empty file")


def golden_path(root: Path, name: str) -> Path:
    return root / "tests" / "golden" / name


def golden(root: Path, name: str) -> str:
    return golden_path(root, name).read_text()


def load_reference() -> dict:
    with open(DATA / "reference.json") as fh:
        return json.load(fh)


class Workload:
    name = ""
    pass_rounds = 1

    def __init__(self, layup, root: Path, work: Path, seed: int):
        self.layup = layup
        self.root = root
        self.work = work
        self.rng = random.Random(f"{self.name}/{seed}")
        self.params = layup.simulator.GroundTruthParams()
        self.ref = load_reference()
        self.quality: dict[str, float] = {}   # deterministic metrics of the pass
        self.digests: dict[str, str] = {}     # output hashes of the pass

    def _write_expert_plans(self) -> None:
        plan = self.layup.plan
        for variant in (1, 2):
            plan.emit_plan(plan.expert_plan(variant), self.work / f"D{variant}.plan")

    def _warm_grid(self) -> None:
        # the first capture of a sheet fills the simulator's polygon grid cache
        sim = self.layup.simulator
        for sheet in SHEETS:
            sim.render_capture(sim.init_sheet(sim.builtin_sheet(sheet), self.params, 0))

    def _summary_ok(self, log_path, sheet: str, plan_name: str, seed: int) -> bool:
        want = self.ref["summaries"].get(f"{sheet}|{plan_name}|{seed}")
        return want is not None and last_json_line(log_path) == want

    def round_dir(self, r: int) -> Path:
        return self.work / f"round{r}"

    def finish_round(self, r: int) -> None:
        shutil.rmtree(self.round_dir(r), ignore_errors=True)


class Campaign(Workload):
    """Paired-seed evaluation of D1, D2 and a fixed refined plan on both sheets."""

    name = "campaign"
    why = ("paired-seed evaluation of D1, D2 and fixed refined plans on both "
           "sheets: simulator and segmentation work, the bypass case for search "
           "and log-format changes")

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self._write_expert_plans()
        self.plans = [(self.work / "D1.plan", "D1"), (self.work / "D2.plan", "D2")]
        self._warm_grid()
        self.seeds = self.rng.sample(SIM_POOL, CAMPAIGN_SEEDS)

    def _plans_for(self, sheet: str):
        # the sheet1 plan is the repository's pinned golden plan
        refined = (golden_path(self.root, "refined_sheet1.plan") if sheet == "sheet1"
                   else DATA / f"refined_{sheet}.plan")
        return self.plans + [(refined, f"refined_{sheet}")]

    def steps(self, r: int) -> list[Step]:
        cli = self.layup.cli
        out = self.round_dir(r)
        steps = []
        for seed in self.seeds:
            for sheet in SHEETS:
                for plan_path, plan_name in self._plans_for(sheet):
                    cfg = cli.RunConfig(sheet=sheet, seeds=(seed,), out=out)
                    steps.append(Step(
                        f"{sheet}|{plan_name}|{seed}",
                        lambda prior, p=plan_path, c=cfg: cli.cmd_simulate(
                            p, c, keep_captures=False)))
        steps.append(Step("report", lambda prior: cli.cmd_report(
            [path for paths in prior for path in paths], out_dir=out), op=False))
        return steps

    def check(self, steps: list[Step], outputs: list, keep: bool) -> list[bool]:
        ok = []
        for step, out in zip(steps[:-1], outputs[:-1]):
            sheet, plan_name, seed = step.key.split("|")
            good = (not isinstance(out, BaseException) and len(out) == 1
                    and self._summary_ok(out[0], sheet, plan_name, int(seed)))
            ok.append(good)
            if good and keep:
                self.digests[step.key] = sha256(out[0])
        report = outputs[-1]
        if isinstance(report, BaseException) or not self._report_ok(report, steps[:-1]):
            return [False] * len(ok)
        if keep:
            self.quality["refined_path_ratio"] = refined_path_ratio(report)
        return ok

    def _report_ok(self, report: dict, steps: list[Step]) -> bool:
        for step in steps:
            sheet, plan_name, seed = step.key.split("|")
            trials = report["sheets"][sheet]["by_plan"][plan_name]["trials"]
            want = self.ref["summaries"].get(step.key, {}).get("total_paths")
            if [t["total_paths"] for t in trials if t["seed"] == int(seed)] != [want]:
                return False
        return True


def refined_path_ratio(report: dict) -> float:
    """Refined mean total paths over the better expert plan's, worst sheet."""
    ratios = []
    for sheet, entry in report["sheets"].items():
        means = {name: info["average_paths"] for name, info in entry["by_plan"].items()}
        best = min(means["D1"], means["D2"])
        ratios.append(means[f"refined_{sheet}"] / best)
    return max(ratios)


class Refine(Workload):
    """Repeated `cmd_refine` on training corpora that set-up builds.

    A round is one refine; rounds cycle through the corpora in an order the
    seed picks, and the pass is one refine of each.
    """

    name = "refine"
    why = ("repeated cmd_refine on set-up-built sheet1 corpora, one the golden "
           "corpus: search and propagate work, no simulator in the timed part")
    pass_rounds = len(REFINE_SEEDS)

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self._write_expert_plans()
        # the same sheet1 corpora for every seed, so set-up does the same work
        # and every run refines the same inputs; a sheet2 refine takes 2.6 to
        # 6 s depending on the corpus
        self.corpora = [("sheet1", seed)
                        for seed in self.rng.sample(REFINE_SEEDS, len(REFINE_SEEDS))]
        self.inputs = {c: build_corpus(self.layup, self.params, self.work, *c)
                       for c in self.corpora}
        self.plan_costs: list[float] = []

    def steps(self, r: int) -> list[Step]:
        cli = self.layup.cli
        sheet, seed = self.corpora[r % len(self.corpora)]
        model, capture = self.inputs[(sheet, seed)]
        cfg = cli.RunConfig(sheet=sheet, out=self.round_dir(r))
        return [Step(f"{sheet}|{seed}", lambda prior: cli.cmd_refine(model, capture, cfg))]

    def check(self, steps: list[Step], outputs: list, keep: bool) -> list[bool]:
        (step,), (out,) = steps, outputs
        if isinstance(out, BaseException):
            return [False]
        text = Path(out).read_text()
        good = text == self.ref["plans"].get(step.key)
        if step.key == f"sheet1|{GOLDEN_SEED}":
            good = good and text == golden(self.root, "refined_sheet1.plan")
        if good and keep:
            self.digests[step.key] = sha256(out)
            sheet, seed = step.key.split("|")
            self.plan_costs.append(self._plan_cost(out, sheet, int(seed)))
            if len(self.plan_costs) == self.pass_rounds:
                self.quality["plan_cost"] = sum(self.plan_costs) / len(self.plan_costs)
        return [good]

    def _plan_cost(self, plan_path, sheet: str, seed: int) -> float:
        """`search.replay_cost` of a plan from the initial state `cmd_refine` used."""
        lp = self.layup
        model_path, capture_path = self.inputs[(sheet, seed)]
        model = lp.effectiveness.EffectivenessModel.load(model_path)
        geometry = lp.simulator.builtin_sheet(sheet).geometry
        frames = lp.sheet_state.read_capture_frames(capture_path)
        state = lp.sheet_state.average_states(
            [lp.sheet_state.build_state(fr, geometry, self.params.h_min,
                                        self.params.link_radius) for fr in frames])
        plan = lp.plan.parse_plan(plan_path)
        cost, _ = lp.search.replay_cost(plan.actions, state, model, lp.search.SearchConfig())
        return float(cost)


def build_corpus(layup, params, work: Path, sheet: str, seed: int) -> tuple[Path, Path]:
    """Training logs for D1 and D2 at one seed, their model and initial captures.

    The logs are simulated without captures; the initial capture of each
    training run is rendered again from the same seed, which is the frame
    `run_experiment` takes before the first action.
    """
    cli, sim = layup.cli, layup.simulator
    out = work / "corpus" / f"{sheet}_seed{seed}"
    cfg = cli.RunConfig(sheet=sheet, seeds=(seed,), out=out)
    logs = [path for variant in (1, 2)
            for path in cli.cmd_simulate(work / f"D{variant}.plan", cfg, keep_captures=False)]
    model = cli.cmd_learn(logs, out / "model.json")
    spec = sim.builtin_sheet(sheet)
    frames = [sim.render_capture(sim.init_sheet(spec, params, seed)) for _ in logs]
    capture = out / "initial.jsonl"
    layup.sheet_state.write_capture_frames(capture, frames)
    return model, capture


class Record(Workload):
    """`cmd_simulate` with captures kept, then `cmd_learn` over each corpus."""

    name = "record"
    why = ("cmd_simulate with captures kept plus cmd_learn per corpus: same "
           "simulator as campaign plus write_log, read_log and aggregate, so "
           "log-format changes show")

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self._write_expert_plans()
        self._warm_grid()
        self.corpora = [("sheet1", GOLDEN_SEED)] + [
            (sheet, seed) for sheet in SHEETS
            for seed in self.rng.sample(SIM_POOL, RECORD_DRAWN)]
        self.log_bytes: list[int] = []

    def steps(self, r: int) -> list[Step]:
        cli = self.layup.cli
        steps = []
        for sheet, seed in self.corpora:
            out = self.round_dir(r) / f"{sheet}_seed{seed}"
            cfg = cli.RunConfig(sheet=sheet, seeds=(seed,), out=out)
            for variant in (1, 2):
                steps.append(Step(f"{sheet}|D{variant}|{seed}",
                                  lambda prior, v=variant, c=cfg: cli.cmd_simulate(
                                      self.work / f"D{v}.plan", c)))
            steps.append(Step(f"{sheet}|{seed}",
                              lambda prior, o=out: cli.cmd_learn(
                                  [p for paths in prior[-2:] for p in paths], o / "model.json"),
                              op=False))
        return steps

    def check(self, steps: list[Step], outputs: list, keep: bool) -> list[bool]:
        ok = []
        for i in range(0, len(steps), 3):
            corpus_ok = self._model_ok(steps[i + 2].key, outputs[i + 2], keep)
            for step, out in zip(steps[i:i + 2], outputs[i:i + 2]):
                ok.append(corpus_ok and self._log_ok(step.key, out, keep))
        if keep and self.log_bytes:
            self.quality["log_mb"] = sum(self.log_bytes) / len(self.log_bytes) / 1e6
        return ok

    def _log_ok(self, key: str, out, keep: bool) -> bool:
        if isinstance(out, BaseException) or len(out) != 1:
            return False
        sheet, plan_name, seed = key.split("|")
        good = self._summary_ok(out[0], sheet, plan_name, int(seed))
        digest = sha256(out[0])
        if key == f"sheet1|D1|{GOLDEN_SEED}":
            good = good and digest == golden(self.root, "d1_log.sha256").strip()
        if good and keep:
            self.digests[key] = digest
            self.log_bytes.append(Path(out[0]).stat().st_size)
        return good

    def _model_ok(self, key: str, out, keep: bool) -> bool:
        if isinstance(out, BaseException):
            return False
        digest = sha256(out)
        good = digest == self.ref["models"].get(key)
        if key == f"sheet1|{GOLDEN_SEED}":
            good = good and digest == golden(self.root, "model.sha256").strip()
        if good and keep:
            self.digests["model|" + key] = digest
        return good


WORKLOADS = {cls.name: cls for cls in (Campaign, Refine, Record)}
