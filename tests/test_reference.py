"""Pinned benchmark outputs, recomputed from `src/`.

`tests/check_reference.py` checks every pinned output and takes about a
minute. The four refined plans are the ones a search change can move, and
take a few seconds; the summaries at seeds 0 and 64 hold the simulator to
its pinned outcomes, seed 64 among them a sheet2 run where the sampled hit
test and an exact one disagree.
"""
import json

import pytest

from check_reference import (CORPORA, REFERENCE, SHEETS, evaluation_plans, refined_plan_text,
                             seed_summaries)
from layup.plan import emit_plan, expert_plan


@pytest.mark.parametrize("sheet, seed", CORPORA, ids=[f"{s}-seed{n}" for s, n in CORPORA])
def test_refined_plan_matches_reference(sheet, seed, tmp_path):
    for variant in (1, 2):
        emit_plan(expert_plan(variant), tmp_path / f"D{variant}.plan")
    pinned = json.loads(REFERENCE.read_text())["plans"]
    assert refined_plan_text(tmp_path, sheet, seed) == pinned[f"{sheet}|{seed}"]


@pytest.mark.parametrize("seed", (0, 64))
@pytest.mark.parametrize("sheet", SHEETS)
def test_summaries_match_reference(sheet, seed, tmp_path):
    pinned = json.loads(REFERENCE.read_text())
    plan_files = evaluation_plans(tmp_path, pinned["plans"])[sheet]
    got, _ = seed_summaries(tmp_path, sheet, seed, plan_files)
    assert len(got) == 3  # D1, D2 and the refined plan
    assert got == {key: pinned["summaries"][key] for key in got}
