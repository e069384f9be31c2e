"""The whole loop: experiment, learn, search for a refined plan, evaluate.

Builds the effectiveness model from six sheet1 experiments, searches for a
refined plan under the standard constraints, then compares total paths
(in-plan plus corrective) against the expert plans on ten fresh seeds.
"""
import numpy as np

from layup.cli import build_report, format_report
from layup.effectiveness import aggregate
from layup.plan import emit_plan_text, expert_plan, standard_constraints
from layup.search import SearchConfig, refine_plan_detailed
from layup.sheet_state import average_states
from layup.simulator import GroundTruthParams, builtin_sheet, run_experiment

params = GroundTruthParams()
sheet = builtin_sheet("sheet1")

print("running the six training experiments...")
logs = []
for variant in (1, 2):
    for seed in (101, 102, 103):
        logs.append(run_experiment(expert_plan(variant), sheet, params, seed, keep_captures=False))

model = aggregate(logs)
state0 = average_states([log.steps[0].state_before for log in logs])

print("searching for a refined plan (branching 4, lookahead depth 3)...")
refined, audit = refine_plan_detailed(state0, model, standard_constraints(),
                                      SearchConfig(), name="refined_sheet1")
print(emit_plan_text(refined))
print(f"in-plan path equivalents: {refined.path_equivalents} (expert plans use 16)")
for step in audit:
    extra = f" score={step['score']:.2f}" if "score" in step else ""
    print(f"  step {step['step']:2d}: {step['action']:18s} [{step['mode']}]{extra}")

print("\nevaluating on ten fresh seeds...")
summaries = []
for seed in range(500, 510):
    for plan in (expert_plan(1), expert_plan(2), refined):
        cs = standard_constraints() if plan is refined else None
        log = run_experiment(plan, sheet, params, seed, constraints=cs, keep_captures=False)
        summaries.append({"type": "summary", "plan": log.plan_name,
                          "sheet": log.sheet, "seed": seed,
                          "correction_cycles": log.correction_cycles,
                          "correction_paths": log.correction_paths,
                          "in_plan_paths": log.in_plan_paths,
                          "total_paths": log.total_paths,
                          "correction_converged": log.correction_converged})

print(format_report(build_report(summaries)))
