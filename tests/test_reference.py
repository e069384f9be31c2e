"""The Tier-1 subset of the benchmark record, `perfbench/data/reference.json`.

`tests/make_golden.py` re-records the whole record through
`perfbench/reference.py` in about 13 seconds. These tests recompute part of
it with the recorder's own corpus builder, `perfbench/workloads.build_corpus`:
the four refined plans, which a search change can move, and at seeds 0 and
64 on both sheets the summaries of D1, D2 and the sheet's refined plan and
the D1+D2 model hash. Seed 64 is a sheet2 run where the sampled hit test and
an exact one disagree.
"""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))

import layup  # noqa: E402
from layup import cli  # noqa: E402
from layup.plan import emit_plan, expert_plan  # noqa: E402
from layup.simulator import GroundTruthParams  # noqa: E402
from workloads import (DATA, GOLDEN_SEED, REFINE_SEEDS, SHEETS, build_corpus,  # noqa: E402
                       golden_path, last_json_line, load_reference, sha256)

CORPORA = [("sheet1", seed) for seed in REFINE_SEEDS] + [("sheet2", GOLDEN_SEED)]
REFINED = {"sheet1": golden_path(ROOT, "refined_sheet1.plan"),
           "sheet2": DATA / "refined_sheet2.plan"}


def expert_plans(work: Path) -> list[Path]:
    for variant in (1, 2):
        emit_plan(expert_plan(variant), work / f"D{variant}.plan")
    return [work / "D1.plan", work / "D2.plan"]


@pytest.mark.parametrize("sheet, seed", CORPORA, ids=[f"{s}-seed{n}" for s, n in CORPORA])
def test_refined_plan_matches_reference(sheet, seed, tmp_path):
    expert_plans(tmp_path)
    model, capture = build_corpus(layup, GroundTruthParams(), tmp_path, sheet, seed)
    refined = cli.cmd_refine(model, capture, cli.RunConfig(sheet=sheet, out=tmp_path / "refined"))
    assert refined.read_text() == load_reference()["plans"][f"{sheet}|{seed}"]


@pytest.mark.parametrize("seed", (0, 64))
@pytest.mark.parametrize("sheet", SHEETS)
def test_summaries_match_reference(sheet, seed, tmp_path):
    pinned = load_reference()
    cfg = cli.RunConfig(sheet=sheet, seeds=(seed,), out=tmp_path / "logs")
    logs = [cli.cmd_simulate(plan, cfg, keep_captures=False)[0]
            for plan in expert_plans(tmp_path) + [REFINED[sheet]]]
    got = {f"{sheet}|{s['plan']}|{seed}": s for s in map(last_json_line, logs)}
    assert len(got) == 3  # D1, D2 and the refined plan
    assert got == {key: pinned["summaries"][key] for key in got}
    model = cli.cmd_learn(logs[:2], tmp_path / "model.json")
    assert sha256(model) == pinned["models"][f"{sheet}|{seed}"]
