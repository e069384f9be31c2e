"""The refined plans the benchmark pins, recomputed from `src/`.

`tests/check_reference.py` checks every pinned output and takes about a
minute; the four refined plans are the ones a search change can move, and
take a few seconds.
"""
import json

import pytest

from check_reference import CORPORA, REFERENCE, refined_plan_text
from layup.plan import emit_plan, expert_plan


@pytest.mark.parametrize("sheet, seed", CORPORA, ids=[f"{s}-seed{n}" for s, n in CORPORA])
def test_refined_plan_matches_reference(sheet, seed, tmp_path):
    for variant in (1, 2):
        emit_plan(expert_plan(variant), tmp_path / f"D{variant}.plan")
    pinned = json.loads(REFERENCE.read_text())["plans"]
    assert refined_plan_text(tmp_path, sheet, seed) == pinned[f"{sheet}|{seed}"]
