"""Command-line surface tying the pipeline together.

Subcommands
-----------
simulate   execute a plan file against the simulator, one log and one
           capture sidecar per seed
learn      aggregate experiment logs into an effectiveness model file
refine     search for a refined plan given a model and initial captures
evaluate   alias of simulate, for running refined plans on fresh seeds
report     tabulate correction statistics and refined-vs-initial improvement

Exit codes: 0 ok, 1 runtime failure, 2 input validation failure. All
randomness comes from explicit seeds; repeated invocations write
byte-identical outputs.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .effectiveness import BUCKET_KEYS, EffectivenessModel, aggregate
from .jsonio import config_from_json, read_json, read_last_json_line
from .plan import (ACTION_KINDS, ConstraintSet, DrapingPlan, emit_plan, parse_plan,
                   standard_constraints)
from .search import SearchConfig, SearchError, SearchStats, refine_plan_detailed
from .sheet_state import (average_states, build_state, read_capture_frames,
                          write_capture_frames)
from .simulator import (GroundTruthParams, SimulationError, builtin_sheet, read_log,
                        run_experiment, summary_from_json, write_log)

REFINED_PREFIX = "refined"


@dataclass(frozen=True)
class _RunConfigFile:
    """A run-config file's settings; each named file is read by `RunConfig.from_json`."""

    sheet: str = "sheet1"
    ground_truth: str = ""
    constraints: str = ""
    search: str = ""
    seeds: tuple[int, ...] = (0,)
    out: str = "."


@dataclass
class RunConfig:
    """Bundle of everything a pipeline invocation needs."""

    sheet: str = "sheet1"
    params: GroundTruthParams = field(default_factory=GroundTruthParams)
    constraints: ConstraintSet | None = None  # None: pick per command
    search: SearchConfig = field(default_factory=SearchConfig)
    seeds: tuple[int, ...] = (0,)
    out: Path = Path(".")

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        """The run config a JSON object sets; an empty file name keeps the default."""
        raw = config_from_json(_RunConfigFile, obj)
        if not raw.seeds:
            raise ValueError("at least one seed is required")
        if min(raw.seeds) < 0:
            raise ValueError("seeds must be non-negative integers")
        _refuse_repeated_seeds(raw.seeds, "seeds")
        return cls(sheet=raw.sheet,
                   params=GroundTruthParams.load(raw.ground_truth) if raw.ground_truth
                   else GroundTruthParams(),
                   constraints=ConstraintSet.load(raw.constraints) if raw.constraints else None,
                   search=SearchConfig.load(raw.search) if raw.search else SearchConfig(),
                   seeds=raw.seeds, out=Path(raw.out))

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        cfg = read_json(args.config, cls.from_json) if getattr(args, "config", None) else cls()
        if getattr(args, "sheet", None):
            cfg.sheet = args.sheet
        if getattr(args, "seed", None):
            _refuse_repeated_seeds(args.seed, "--seed")
            cfg.seeds = tuple(args.seed)
        if getattr(args, "out", None):
            cfg.out = Path(args.out)
        return cfg


def _refuse_repeated_seeds(seeds, where: str) -> None:
    # a seed given twice would run, print and write its log twice
    repeated = next((seed for i, seed in enumerate(seeds) if seed in seeds[:i]), None)
    if repeated is not None:
        raise ValueError(f"{where}: seed {repeated} is given more than once")


def _log_name(plan: DrapingPlan, sheet: str, seed: int) -> str:
    return f"{plan.name}_{sheet}_seed{seed}.jsonl"


def cmd_simulate(plan_path, cfg: RunConfig, keep_captures: bool = True) -> list[Path]:
    """Run the plan once per seed and write one log per seed; returns the log paths.

    With `keep_captures`, each run's captures also go, each once and in
    order, to `<out>/captures/<log stem>.npy`, the capture file
    `write_capture_frames` writes and `refine --capture` reads.
    """
    plan = parse_plan(plan_path)
    sheet = builtin_sheet(cfg.sheet)
    written = []
    for seed in cfg.seeds:  # run_experiment validates the plan before it runs
        log = run_experiment(plan, sheet, cfg.params, seed,
                             constraints=cfg.constraints, keep_captures=keep_captures)
        cfg.out.mkdir(parents=True, exist_ok=True)
        target = cfg.out / _log_name(plan, sheet.name, seed)
        write_log(log, target)
        if keep_captures:
            sidecar = cfg.out / "captures" / f"{target.stem}.npy"
            sidecar.parent.mkdir(exist_ok=True)
            write_capture_frames(sidecar, log.captures)
        print(f"{target}  total_paths={log.total_paths} "
              f"correction={log.correction_paths} cycles={log.correction_cycles}")
        written.append(target)
    return written


def cmd_learn(log_paths, out_path) -> Path:
    if not log_paths:
        raise ValueError("learn needs at least one log file")
    logs = [read_log(p) for p in log_paths]
    model = aggregate(logs)
    model.save(out_path)
    print(f"experiments: {model.experiments}")
    print(f"sheets: {', '.join(model.sheets)}")
    keys, _, sizes = model.runs()
    per_action: dict[tuple[str, int], list[int]] = {}  # in (kind, argument) order
    for key, count in zip(keys.tolist(), sizes.tolist()):
        per_action.setdefault(BUCKET_KEYS[key // model.sector_count], []).append(count)
    for (kind, arg), counts in per_action.items():
        print(f"  {kind}|{arg}: {sum(counts)} samples across {len(counts)} sectors")
    learned = {kind for kind, _ in per_action}
    unlearned = [kind for kind in ACTION_KINDS if kind not in learned]
    if unlearned:
        print(f"  no samples: {', '.join(unlearned)}")
    singletons = sum(1 for counts in per_action.values() for c in counts if c == 1)
    if singletons:
        print(f"  note: {singletons} singleton buckets (sample variance treated as zero)")
    return Path(out_path)


def cmd_refine(model_path, capture_paths, cfg: RunConfig, name: str | None = None) -> Path:
    """Search for a refined plan from the averaged initial captures; returns the plan path.

    `capture_paths` is one capture file or a list of them, such as the
    sidecars `cmd_simulate` writes. Only their `t = 0` frames, the captures
    taken before a run's first action, count; each file must hold one.
    """
    model = EffectivenessModel.load(model_path)
    if model.is_empty:
        raise ValueError("no data: the effectiveness model holds no samples")
    sheet = builtin_sheet(cfg.sheet)
    if model.sector_count != sheet.geometry.sector_count:
        raise ValueError(f"{model_path}: the model has {model.sector_count} sectors, "
                         f"sheet {sheet.name} {sheet.geometry.sector_count}")
    if isinstance(capture_paths, (str, Path)):
        capture_paths = [capture_paths]
    frames = []
    for capture_path in capture_paths:
        initial = [fr for fr in read_capture_frames(capture_path) if fr.t == 0]
        if not initial:
            raise ValueError(f"{capture_path}: no t = 0 capture record")
        frames += initial
    state = average_states([build_state(fr, sheet.geometry, cfg.params.h_min,
                                        cfg.params.link_radius) for fr in frames])
    cs = cfg.constraints if cfg.constraints is not None else standard_constraints()
    plan_name = name or f"{REFINED_PREFIX}_{sheet.name}"
    stats = SearchStats()
    plan, audit = refine_plan_detailed(state, model, cs, cfg.search, name=plan_name,
                                       stats=stats)
    cfg.out.mkdir(parents=True, exist_ok=True)
    plan_path = cfg.out / f"{plan_name}.plan"
    emit_plan(plan, plan_path)
    (cfg.out / f"{plan_name}.audit.json").write_text(audit_json(plan_name, stats, audit))
    print(f"{plan_path}  actions={len(plan)} in_plan_paths={plan.path_equivalents}")
    return plan_path


def audit_json(plan_name: str, stats: SearchStats, steps: list[dict]) -> str:
    """The audit sidecar `cmd_refine` writes: the search's work counts and its steps."""
    return json.dumps({"plan": plan_name, "search": asdict(stats), "steps": steps}, indent=2)


def build_report(summaries: list[dict], baseline: str | None = None) -> dict:
    """Per-trial statistics rows plus per-plan averages and improvement.

    Plans whose name starts with 'refined' compare against the baseline
    initial plan: by default the initial plan appearing last in the input
    (the experts' latest draft), overridable by name. A `baseline` that is
    not an initial plan of every sheet raises ValueError naming it, and so
    does a (sheet, plan, seed) trial given twice. Averages
    are shown to one decimal and the improvement is computed from those
    rounded averages, matching how the headline percentages are quoted.
    """
    groups: dict[tuple[str, str], list[dict]] = {}  # in order of first appearance
    for s in summaries:
        trials = groups.setdefault((s["sheet"], s["plan"]), [])
        if any(t["seed"] == s["seed"] for t in trials):
            raise ValueError(f"the trial of plan {s['plan']} on {s['sheet']} at seed "
                             f"{s['seed']} is given more than once")
        trials.append(s)

    sheets: dict[str, dict] = {}
    for (sheet, plan_name), trials in groups.items():
        entry = sheets.setdefault(sheet, {"plans": [], "by_plan": {}})
        totals = [t["total_paths"] for t in trials]
        avg = sum(totals) / len(totals)
        refined = plan_name.lower().startswith(REFINED_PREFIX)
        entry["plans"].append(plan_name)
        entry["by_plan"][plan_name] = {
            "plan": plan_name, "refined": refined,
            "trials": [{"trial": i + 1,
                        "seed": t["seed"],
                        "correction_cycles": t["correction_cycles"],
                        "correction_paths": t["correction_paths"],
                        "total_paths": t["total_paths"],
                        "in_plan_paths": t["in_plan_paths"]}
                       for i, t in enumerate(trials)],
            "average_paths": avg,
            "average_paths_rounded": round(avg, 1),
        }

    for sheet, entry in sheets.items():
        initials = [p for p in entry["plans"] if not entry["by_plan"][p]["refined"]]
        refined_plans = [p for p in entry["plans"] if entry["by_plan"][p]["refined"]]
        if baseline is None:
            base_name = initials[-1] if initials else None
        elif baseline in initials:
            base_name = baseline
        else:
            raise ValueError(f"baseline {baseline!r} is not an initial plan of {sheet} "
                             f"in the input (initial plans: {', '.join(initials) or 'none'})")
        entry["baseline"] = base_name
        for p in refined_plans:
            if base_name is None:
                continue
            base_avg = entry["by_plan"][base_name]["average_paths_rounded"]
            ref_avg = entry["by_plan"][p]["average_paths_rounded"]
            base_raw = entry["by_plan"][base_name]["average_paths"]
            raw = (base_raw - entry["by_plan"][p]["average_paths"]) / base_raw \
                if base_raw else 0.0
            imp = (base_avg - ref_avg) / base_avg if base_avg else 0.0
            entry["by_plan"][p]["improvement_pct"] = round(100.0 * imp, 1)
            entry["by_plan"][p]["improvement_raw"] = raw
    return {"version": 1, "sheets": sheets}


def format_report(report: dict) -> str:
    lines = []
    header = (f"{'sheet':<8} {'plan':<16} {'trial':>5} {'cycles':>6} "
              f"{'corr':>5} {'total':>5} {'average':>8} {'improv%':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for sheet, entry in report["sheets"].items():
        for plan_name in entry["plans"]:
            info = entry["by_plan"][plan_name]
            for i, trial in enumerate(info["trials"]):
                avg = f"{info['average_paths_rounded']:.1f}" if i == 0 else ""
                imp = ""
                if i == 0 and "improvement_pct" in info:
                    imp = f"{info['improvement_pct']:.1f}"
                lines.append(f"{sheet:<8} {plan_name:<16} {trial['trial']:>5} "
                             f"{trial['correction_cycles']:>6} "
                             f"{trial['correction_paths']:>5} "
                             f"{trial['total_paths']:>5} {avg:>8} {imp:>8}")
    return "\n".join(lines)


def cmd_report(log_paths, out_dir=None, baseline: str | None = None) -> dict:
    if not log_paths:
        raise ValueError("report needs at least one log file")
    summaries = [read_last_json_line(p, summary_from_json) for p in log_paths]
    report = build_report(summaries, baseline=baseline)
    text = format_report(report)
    print(text)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        with open(out / "report.txt", "w") as fh:
            fh.write(text + "\n")
    return report


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seeds must be non-negative integers, not {text!r}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="layup",
                                     description="Draping-plan refinement pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="run-config JSON path")
        p.add_argument("--sheet", help="built-in sheet spec name (sheet1, sheet2)")
        p.add_argument("--seed", type=_seed, nargs="+", help="non-negative integer seeds")
        p.add_argument("--out", help="output directory")

    for cmd in ("simulate", "evaluate"):
        p = sub.add_parser(cmd, help="execute a plan file, one log per seed")
        p.add_argument("plan", help="plan file")
        add_common(p)
        p.add_argument("--no-captures", action="store_true",
                       help="do not write the capture sidecar")

    p = sub.add_parser("learn", help="aggregate logs into a model file")
    p.add_argument("logs", nargs="+", help="experiment log files")
    p.add_argument("--out", required=True, help="model file to write")

    p = sub.add_parser("refine", help="search for a refined plan")
    p.add_argument("model", help="effectiveness model file")
    p.add_argument("--capture", required=True, nargs="+",
                   help="capture files (.npy records, as simulate writes them); "
                        "their t = 0 frames are averaged")
    p.add_argument("--name", help="name for the refined plan")
    add_common(p)

    p = sub.add_parser("report", help="tabulate experiment statistics")
    p.add_argument("logs", nargs="+", help="experiment log files")
    p.add_argument("--out", help="directory for report.json / report.txt")
    p.add_argument("--baseline", help="initial plan name to compare refined plans against")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("simulate", "evaluate"):
            cfg = RunConfig.from_args(args)
            cmd_simulate(args.plan, cfg, keep_captures=not args.no_captures)
        elif args.command == "learn":
            cmd_learn(args.logs, args.out)
        elif args.command == "refine":
            cfg = RunConfig.from_args(args)
            cmd_refine(args.model, args.capture, cfg, name=args.name)
        elif args.command == "report":
            cmd_report(args.logs, out_dir=args.out, baseline=args.baseline)
    except OSError as exc:  # a missing or unreadable file, or a directory in its place
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:  # LogFormatError, PlanParseError and PlanInvalidError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SearchError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
