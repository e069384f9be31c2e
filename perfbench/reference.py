"""Record the reference outputs the benchmark checks its runs against.

    python3 perfbench/reference.py

Run from the root of a checkout. It writes ``perfbench/data/``:

* ``refined_sheet2.plan``: the fixed refined plan the campaign evaluates on
  sheet2, refined from the D1+D2 seed-0 corpus of sheet2 (on sheet1 the
  campaign evaluates ``tests/golden/refined_sheet1.plan``, which the seed-0
  sheet1 corpus must reproduce);
* ``reference.json``: the trailing summary record of every log the workloads
  can write (each sheet, each plan, seed 0 and every seed of ``SIM_POOL``),
  the model hash of every D1+D2 corpus, and the refined plan text of the
  seed-0 corpus of each sheet and of every sheet1 corpus of ``refine``
  (``REFINE_SEEDS``).

Everything goes through the same CLI calls as the benchmark, so a run at the
commit that recorded these files has no failed checks. Takes a few minutes.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from worker import import_layup
from workloads import (DATA, GOLDEN_SEED, REFINE_SEEDS, SHEETS, SIM_POOL, build_corpus,
                       golden_path, last_json_line, sha256)


def main() -> int:
    root = Path.cwd()
    layup = import_layup(root)
    cli = layup.cli
    params = layup.simulator.GroundTruthParams()
    plans, summaries, models = {}, {}, {}
    DATA.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root) as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        work = Path(tmp)
        for variant in (1, 2):
            layup.plan.emit_plan(layup.plan.expert_plan(variant), work / f"D{variant}.plan")
        corpora = [("sheet1", seed) for seed in REFINE_SEEDS] + [("sheet2", GOLDEN_SEED)]
        for sheet, seed in corpora:
            model, capture = build_corpus(layup, params, work, sheet, seed)
            out = work / "refined" / f"{sheet}_seed{seed}"
            plan_path = cli.cmd_refine(model, capture, cli.RunConfig(sheet=sheet, out=out))
            plans[f"{sheet}|{seed}"] = plan_path.read_text()
        (DATA / "refined_sheet2.plan").write_text(plans[f"sheet2|{GOLDEN_SEED}"])
        refined = {"sheet1": golden_path(root, "refined_sheet1.plan"),
                   "sheet2": DATA / "refined_sheet2.plan"}
        for sheet in SHEETS:
            plan_files = [work / "D1.plan", work / "D2.plan", refined[sheet]]
            for seed in (GOLDEN_SEED,) + SIM_POOL:
                cfg = cli.RunConfig(sheet=sheet, seeds=(seed,), out=work / "logs")
                logs = [cli.cmd_simulate(p, cfg, keep_captures=False)[0] for p in plan_files]
                for log in logs:
                    summary = last_json_line(log)
                    summaries[f"{sheet}|{summary['plan']}|{seed}"] = summary
                model = cli.cmd_learn(logs[:2], work / "model.json")
                models[f"{sheet}|{seed}"] = sha256(model)
                shutil.rmtree(work / "logs")
    if plans[f"sheet1|{GOLDEN_SEED}"] != golden_path(root, "refined_sheet1.plan").read_text():
        print("error: the seed-0 sheet1 plan differs from tests/golden", file=sys.stderr)
        return 1
    with open(DATA / "reference.json", "w") as fh:
        json.dump({"summaries": summaries, "models": models, "plans": plans},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DATA}: {len(summaries)} summaries, {len(models)} models, "
          f"{len(plans)} plans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
