"""Learning per-action effect distributions from simulated experiments.

Runs the two expert plans three times each on sheet1, pools the before/after
state changes into the effectiveness model, and shows the height-reduction
signal the planner later exploits: strong early passes, weak late ones, and
per-path-index sector signatures.
"""
import numpy as np

from layup.effectiveness import aggregate
from layup.plan import expert_plan, path
from layup.simulator import GroundTruthParams, builtin_sheet, run_experiment

params = GroundTruthParams()
sheet = builtin_sheet("sheet1")

logs = []
for variant in (1, 2):
    plan = expert_plan(variant)
    for seed in (101, 102, 103):
        log = run_experiment(plan, sheet, params, seed, keep_captures=False)
        logs.append(log)
        print(f"{plan.name} seed {seed}: total {log.total_paths} paths "
              f"({log.correction_paths} corrective over "
              f"{log.correction_cycles} cycles)")

model = aggregate(logs)
print(f"\nmodel: {len(model.bucket_counts())} buckets from {model.experiments} experiments")

print("\nmean height change per (path index, sector), mm "
      "(negative = compaction):")
header = "        " + "".join(f"  s{s}   " for s in range(1, 9))
print(header)
for i in range(1, 17):
    cells = []
    for s in range(1, 9):
        rows = model.bucket(path(i), s)  # the bucket's rows of the sample columns
        cells.append(f"{model.deltas[rows, 2].mean():6.2f} " if rows is not None else "   --  ")
    print(f"path {i:2d} " + "".join(cells))

print("\neffect decay along each plan (mean |height change| per action):")
for variant in (1, 2):
    plan = expert_plan(variant)
    row = []
    for pos in (0, 1, 3, 7):
        act = plan.actions[pos]
        vals = []
        for s in range(1, 9):
            rows = model.bucket(act, s)
            if rows is not None:
                vals.extend(abs(d[2]) for d, src in zip(model.deltas[rows], model.sources[rows])
                            if src.startswith(plan.name + ":"))
        row.append(f"step {pos + 1} ({act}): {np.mean(vals):.3f}")
    print(f"  {plan.name}: " + "   ".join(row))
