"""Recompute every output the benchmark pins and compare it with the record.

Run from the repository root:

    python3 tests/check_reference.py

`perfbench/data/reference.json` pins the trailing summary record of every
log the benchmark workloads can write (each sheet, the plans D1, D2 and the
sheet's refined plan, seed 0 and seeds 1-64), the model hash of each sheet's
D1+D2 corpus at each of those seeds, and the refined plan of the seed-0
corpus of each sheet and of the sheet1 corpora at seeds 1 and 2. This script
recomputes all of them from `src/` through the CLI calls the benchmark
makes, lists each one that differs or that the record lacks, and exits 1 if
there is one. It reads the reference file and writes only to a temporary
directory. Takes about a minute.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layup import cli, sheet_state, simulator  # noqa: E402
from layup.plan import emit_plan, expert_plan  # noqa: E402

REFERENCE = ROOT / "perfbench" / "data" / "reference.json"
SHEETS = ("sheet1", "sheet2")
SEEDS = tuple(range(65))  # seed 0 and the 64 simulation seeds
CORPORA = (("sheet1", 0), ("sheet1", 1), ("sheet1", 2), ("sheet2", 0))


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def last_record(path) -> dict:
    return json.loads(Path(path).read_text().splitlines()[-1])


def refined_plan_text(work: Path, sheet: str, seed: int) -> str:
    """`cmd_refine` of the D1+D2 corpus at `seed`, from the initial captures of its runs."""
    out = work / "corpus" / f"{sheet}_seed{seed}"
    cfg = cli.RunConfig(sheet=sheet, seeds=(seed,), out=out)
    logs = [path for variant in (1, 2)
            for path in cli.cmd_simulate(work / f"D{variant}.plan", cfg, keep_captures=False)]
    model = cli.cmd_learn(logs, out / "model.json")
    spec = simulator.builtin_sheet(sheet)
    params = simulator.GroundTruthParams()
    frames = [simulator.render_capture(simulator.init_sheet(spec, params, seed)) for _ in logs]
    capture = out / "initial.npy"
    sheet_state.write_capture_frames(capture, frames)
    return cli.cmd_refine(model, capture, cli.RunConfig(sheet=sheet, out=out)).read_text()


def evaluation_plans(work: Path, pinned_plans: dict) -> dict:
    """The plan files the benchmark evaluates on each sheet: D1, D2 and the sheet's refined plan.

    The refined plans are the golden sheet1 plan and the pinned sheet2 plan.
    """
    for variant in (1, 2):
        emit_plan(expert_plan(variant), work / f"D{variant}.plan")
    (work / "refined_sheet2.plan").write_text(pinned_plans["sheet2|0"])
    refined = {"sheet1": ROOT / "tests" / "golden" / "refined_sheet1.plan",
               "sheet2": work / "refined_sheet2.plan"}
    return {sheet: [work / "D1.plan", work / "D2.plan", refined[sheet]] for sheet in SHEETS}


def seed_summaries(work: Path, sheet: str, seed: int, plan_files) -> tuple[dict, list]:
    """Each plan's log at `seed`: the summary records keyed as the reference keys them, and the logs."""
    cfg = cli.RunConfig(sheet=sheet, seeds=(seed,), out=work / "logs")
    logs = [cli.cmd_simulate(p, cfg, keep_captures=False)[0] for p in plan_files]
    summaries = [last_record(log) for log in logs]
    return {f"{sheet}|{s['plan']}|{seed}": s for s in summaries}, logs


def recompute(work: Path, pinned_plans: dict) -> dict:
    plan_files = evaluation_plans(work, pinned_plans)
    plans = {f"{sheet}|{seed}": refined_plan_text(work, sheet, seed) for sheet, seed in CORPORA}
    summaries, models = {}, {}
    for sheet in SHEETS:
        for seed in SEEDS:
            got, logs = seed_summaries(work, sheet, seed, plan_files[sheet])
            summaries.update(got)
            models[f"{sheet}|{seed}"] = sha256(cli.cmd_learn(logs[:2], work / "model.json"))
    return {"summaries": summaries, "models": models, "plans": plans}


def main() -> int:
    with open(REFERENCE) as fh:
        pinned = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        got = recompute(Path(tmp), pinned["plans"])
    mismatched = 0
    for part in ("summaries", "models", "plans"):
        keys = sorted(set(pinned[part]) | set(got[part]))
        bad = [key for key in keys if pinned[part].get(key) != got[part].get(key)]
        for key in bad:
            why = ("not pinned" if key not in pinned[part]
                   else "not recomputed" if key not in got[part] else "differs")
            print(f"mismatch: {part} {key}: {why}")
        print(f"{part}: {len(keys) - len(bad)} of {len(keys)} match")
        mismatched += len(bad)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
