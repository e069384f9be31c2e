"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy artifacts (the 12-experiment corpus, learned models, refined plans)
are built once per session and shared. Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""
import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from layup.cli import audit_json, build_report
from layup.effectiveness import aggregate, compute_delta, compute_signs
from layup.plan import (AbsConstraint, Action, ConstraintSet, DrapingPlan,
                        RelConstraint, capture, end, expert_plan,
                        initial_plan_constraints, path, peel, refinement,
                        standard_constraints, validate)
from layup.search import SearchConfig, SearchStats, refine_plan_detailed, replay_cost
from layup.sheet_state import average_states, fit_ellipse, write_capture_frames
from layup.simulator import (GroundTruthParams, builtin_sheet, run_experiment,
                             write_log)

from conftest import make_state, meets, model_of, published_style_summaries, utility_of

GOLDEN_DIR = Path(__file__).parent / "golden"
TRAIN_SEEDS = (101, 102, 103)
EVAL_SEEDS = tuple(range(1000, 1030))


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# shared corpus: 12 experiments (2 sheets x 2 plans x 3 seeds), models,
# averaged initial states and refined plans per sheet
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def corpus():
    params = GroundTruthParams()
    data = {"params": params, "sheets": {}}
    all_logs = []
    for sheet_name in ("sheet1", "sheet2"):
        sheet = builtin_sheet(sheet_name)
        logs = []
        for variant in (1, 2):
            plan = expert_plan(variant)
            for seed in TRAIN_SEEDS:
                logs.append(run_experiment(plan, sheet, params, seed, keep_captures=False))
        all_logs.extend(logs)
        model = aggregate(logs)
        state0 = average_states([lg.states[0] for lg in logs])
        refined, _ = refine_plan_detailed(state0, model, standard_constraints(),
                                          SearchConfig(), name=f"refined_{sheet_name}")
        data["sheets"][sheet_name] = {"sheet": sheet, "logs": logs, "model": model,
                                      "state0": state0, "refined": refined}
    data["pooled_model"] = aggregate(all_logs)
    return data


# ---------------------------------------------------------------------------
# criterion 1: constraint semantics against the brute-force oracle
# (`conftest.meets`)
# ---------------------------------------------------------------------------

def published_refined_plans():
    """The two refined-plan action sequences quoted for the two sheets."""
    sheet1 = DrapingPlan(tuple(
        [path(i) for i in (3, 11, 7, 15, 1, 9)] + [peel()] +
        [path(5), path(13), refinement(6), capture(), end()]), name="refined_sheet1_published")
    sheet2 = DrapingPlan(tuple(
        [path(i) for i in (7, 15, 5, 1, 13, 9)] + [peel()] +
        [path(3), path(11), refinement(4), capture(), end()]), name="refined_sheet2_published")
    return sheet1, sheet2


def test_criterion_1_constraint_semantics_oracle():
    t0 = time.time()
    cs = standard_constraints()
    alphabet = (path(1), path(2), peel(), capture(), end(), refinement(1))
    checked = 0
    for n in range(1, 7):
        for combo in itertools.product(alphabet, repeat=n):
            p = DrapingPlan(combo, "x")
            kinds = p.kinds()
            assert (validate(p, cs) == []) == meets(kinds, cs)
            checked += 1
    # the four quoted plans: the two expert plans validate against the rules
    # applicable to them (they predate the refinement action); the two
    # refined plans satisfy the full search constraint set
    init_cs = initial_plan_constraints()
    assert validate(expert_plan(1), init_cs) == []
    assert validate(expert_plan(2), init_cs) == []
    for refined in published_refined_plans():
        assert validate(refined, cs) == []
    # documented conflict: under the full set the expert plans fail exactly
    # the two refinement rules and nothing else
    for variant in (1, 2):
        broken = {str(v.constraint) for v in validate(expert_plan(variant), cs)}
        assert broken == {"(refinement, =, 1)", "(end, refinement, >, 0)"}
    elapsed = time.time() - t0
    assert checked >= 15_625
    assert elapsed < 10.0
    report(1, f"{checked} plans agree with the oracle in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: delta / sign computation against a straight-line evaluator
# ---------------------------------------------------------------------------

def _straight_line(before, after):
    # before, after: one sector's (mu, sigma) rows
    (mu_b, sigma_b), (mu_a, sigma_a) = before, after
    d = np.empty(6)
    d[0] = mu_a[0] - mu_b[0]
    d[1] = mu_a[1] - mu_b[1]
    d[2] = mu_a[2] - mu_b[2]
    d[3] = mu_a[3] - mu_b[3]
    d[4] = mu_a[4] - mu_b[4]
    raw = (mu_a[5] - mu_b[5]) % math.pi
    d[5] = raw - math.pi if raw > math.pi / 2 else raw
    u1 = np.zeros((3, 3))
    u2 = np.zeros((3, 3))
    for l in range(3):
        u1[l, l] = 1.0 if sigma_a[0][l, l] - sigma_b[0][l, l] > 0 else -1.0
        u2[l, l] = 1.0 if sigma_a[1][l, l] - sigma_b[1][l, l] > 0 else -1.0
    return d, u1, u2


def _random_gaussians(rng):
    def spd():
        m = rng.normal(size=(3, 3))
        return m @ m.T
    mu1, sigma1 = rng.normal(size=3) * 10, spd()
    mu2, sigma2 = np.abs(rng.normal(size=3)) * 5, spd()
    return np.concatenate([mu1, mu2]), np.array([sigma1, sigma2])


def test_criterion_2_delta_sign_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        a, b = _random_gaussians(rng), _random_gaussians(rng)
        want_d, want_u1, want_u2 = _straight_line(a, b)
        got_d = compute_delta(a[0], b[0])
        got_s = compute_signs(a[1], b[1])
        assert np.array_equal(got_d, want_d)
        assert np.array_equal(np.diag(got_s[0]), want_u1)
        assert np.array_equal(np.diag(got_s[1]), want_u2)
    # the tie branch of the step function: zero difference counts as shrink
    s = _random_gaussians(rng)
    tie = compute_signs(s[1], s[1])
    assert np.array_equal(tie[0], [-1.0, -1.0, -1.0])
    report(2, "1000 randomized pairs bitwise-identical; zero maps to -1")


# ---------------------------------------------------------------------------
# criterion 3: ellipse fitting recovers known ground truths
# ---------------------------------------------------------------------------

def test_criterion_3_fitting_recovery():
    rng = np.random.default_rng(7)
    for trial in range(50):
        sig_a = rng.uniform(8.0, 30.0)
        sig_b = sig_a * rng.uniform(0.2, 0.7)
        theta = rng.uniform(0.0, math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        xy = rng.normal(size=(10_000, 2)) * [sig_a, sig_b] @ rot.T
        _, _, _, a, b, fitted = fit_ellipse(np.column_stack([xy, np.ones(len(xy))]))
        assert abs(a - 2 * sig_a) / (2 * sig_a) < 0.05, trial
        assert abs(b - 2 * sig_b) / (2 * sig_b) < 0.05, trial
        d = abs(fitted - theta) % math.pi
        assert min(d, math.pi - d) < math.radians(2.0), trial
    report(3, "50 random ground truths recovered within 5% / 2 degrees")


# ---------------------------------------------------------------------------
# criterion 4: small-instance search optimality
# ---------------------------------------------------------------------------

SMALL_CS = ConstraintSet(
    rel=(RelConstraint("end", "path", ">", 0),),
    abs=(AbsConstraint("end", ">", 0),
         AbsConstraint("peel", "<", 1),
         AbsConstraint("capture", "<", 1),
         AbsConstraint("refinement", "<", 1)),
)


def _small_model(rng):
    blank = compute_signs(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)))
    samples = []
    for i in range(1, 5):
        for s in (1, 2):
            d = np.zeros(6)
            d[2] = -abs(rng.normal(0.7, 0.6))
            d[3] = -abs(rng.normal(0.4, 0.4))
            d[4] = -abs(rng.normal(0.2, 0.2))
            samples.append((path(i), s, d, blank))
    model = model_of(2, samples + [(end(), s, np.zeros(6), blank) for s in (1, 2)])
    model.experiments = 1
    return model


def test_criterion_4_small_instance_optimality(two_sector_geom):
    t0 = time.time()
    rng = np.random.default_rng(99)
    state = make_state(two_sector_geom, {1: ([30.0, 20.0, 3.0, 20.0, 10.0, 0.4], np.eye(3), 1),
                                         2: ([-40.0, 10.0, 2.0, 15.0, 8.0, 2.0], np.eye(3), 1)})
    cfg = SearchConfig(branching=10**6, depth=5, horizon=5, path_count=4,
                       w_h=500.0, w_area=2.0, w_sigma=0.0,
                       epsilon_conv=-math.inf)
    for trial in range(20):
        model = _small_model(rng)
        plan, _ = refine_plan_detailed(state, model, SMALL_CS, cfg)
        cost, final = replay_cost(plan.actions, state, model, cfg)
        got = cost + utility_of(final, cfg)
        best = math.inf
        for n_paths in range(0, 5):
            for combo in itertools.product([path(i) for i in range(1, 5)],
                                           repeat=n_paths):
                actions = list(combo) + [end()]
                if validate(DrapingPlan(tuple(actions), "c"), SMALL_CS):
                    continue
                c, f = replay_cost(actions, state, model, cfg)
                best = min(best, c + utility_of(f, cfg))
        assert got == pytest.approx(best, abs=1e-9), trial
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(4, f"20 random models match the exhaustive minimum in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: the learner recovers the early/late effect decay
# ---------------------------------------------------------------------------

def test_criterion_5_effect_decay_recovery(corpus):
    t0 = time.time()
    model = corpus["pooled_model"]
    assert model.experiments == 12
    # every path-action bucket pooled at least 3 samples per sector
    for name, count in model.bucket_counts().items():
        if name.startswith("path|"):
            assert count >= 3, name
    for variant in (1, 2):
        plan = expert_plan(variant)
        means = {}
        for which, act in (("first", plan.actions[0]), ("eighth", plan.actions[7])):
            samples = []
            for sector in range(1, 9):
                rows = model.bucket(act, sector)
                if rows is None:
                    continue
                for delta, source in zip(model.deltas[rows], model.sources[rows]):
                    if source.startswith(plan.name + ":"):
                        samples.append(abs(delta[2]))
            means[which] = float(np.mean(samples))
        factor = means["first"] / means["eighth"]
        assert factor >= 2.0, (plan.name, means)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(5, f"first/eighth |d_h| factor >= 2 for both plans ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 6: end-to-end path-count reduction over 30 paired seeds
# ---------------------------------------------------------------------------

def test_criterion_6_end_to_end_reduction(corpus):
    t0 = time.time()
    params = corpus["params"]
    ratios = {}
    for sheet_name, bundle in corpus["sheets"].items():
        sheet = bundle["sheet"]
        totals = {"D1": [], "D2": [], "refined": []}
        for seed in EVAL_SEEDS:
            for variant in (1, 2):
                log = run_experiment(expert_plan(variant), sheet, params, seed,
                                     keep_captures=False)
                totals[f"D{variant}"].append(log.total_paths)
            log = run_experiment(bundle["refined"], sheet, params, seed,
                                 constraints=standard_constraints(),
                                 keep_captures=False)
            totals["refined"].append(log.total_paths)
        means = {k: float(np.mean(v)) for k, v in totals.items()}
        best_initial = min(means["D1"], means["D2"])
        ratio = means["refined"] / best_initial
        ratios[sheet_name] = ratio
        assert ratio <= 0.75, (sheet_name, means)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(6, "refined/best-initial mean total paths: "
              + ", ".join(f"{k}={v:.3f}" for k, v in ratios.items())
              + f" ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 7: report arithmetic reproduces the quoted numbers exactly
# ---------------------------------------------------------------------------

def test_criterion_7_report_arithmetic():
    rep = build_report(published_style_summaries())
    s1 = rep["sheets"]["sheet1"]["by_plan"]
    s2 = rep["sheets"]["sheet2"]["by_plan"]
    assert s1["D1"]["average_paths_rounded"] == 37.0
    assert s1["D2"]["average_paths_rounded"] == 34.3
    assert s1["refined_sheet1"]["average_paths_rounded"] == 20.0
    assert s2["D1"]["average_paths_rounded"] == 25.3
    assert s2["D2"]["average_paths_rounded"] == 27.3
    assert s2["refined_sheet2"]["average_paths_rounded"] == 16.3
    assert s1["refined_sheet1"]["improvement_pct"] == 41.7
    assert s2["refined_sheet2"]["improvement_pct"] == 40.3
    report(7, "averages 37.0/34.3/20.0/25.3/27.3/16.3, improvements 41.7%/40.3%")


# ---------------------------------------------------------------------------
# criterion 8: determinism and golden files for one full sheet1 run
# ---------------------------------------------------------------------------

def _golden_artifacts(tmp_dir: Path):
    """One complete sheet1 pipeline at fixed seeds; returns artifact bytes."""
    tmp_dir.mkdir(parents=True, exist_ok=True)
    params = GroundTruthParams()
    sheet = builtin_sheet("sheet1")
    logs = []
    for variant in (1, 2):
        logs.append(run_experiment(expert_plan(variant), sheet, params, seed=0))
    log_path = tmp_dir / "d1.jsonl"
    write_log(logs[0], log_path)
    captures_path = tmp_dir / "d1_captures.npy"
    write_capture_frames(captures_path, logs[0].captures)
    model = aggregate(logs)
    model_path = tmp_dir / "model.json"
    model.save(model_path)
    state0 = average_states([lg.states[0] for lg in logs])
    stats = SearchStats()
    refined, audit = refine_plan_detailed(state0, model, standard_constraints(), SearchConfig(),
                                          name="refined_sheet1", stats=stats)
    from layup.plan import emit_plan_text
    plan_text = emit_plan_text(refined)
    # the same refine in sampled mode, its plan and audit in one digest
    sampled_stats = SearchStats()
    sampled, sampled_audit = refine_plan_detailed(
        state0, model, standard_constraints(), SearchConfig(mode="sampled", seed=3),
        name="refined_sheet1", stats=sampled_stats)
    sampled_digest = hashlib.sha256((emit_plan_text(sampled) + audit_json(
        sampled.name, sampled_stats, sampled_audit)).encode()).hexdigest()
    eval_log = run_experiment(refined, sheet, params, seed=1,
                              constraints=standard_constraints(),
                              keep_captures=False)
    summaries = [lg.summary() for lg in logs + [eval_log]]
    report_json = json.dumps(build_report(summaries), indent=2, sort_keys=True)
    return {
        "d1_log.sha256": hashlib.sha256(log_path.read_bytes()).hexdigest() + "\n",
        "d1_captures.sha256": hashlib.sha256(captures_path.read_bytes()).hexdigest() + "\n",
        "model.sha256": hashlib.sha256(model_path.read_bytes()).hexdigest() + "\n",
        "refined_sheet1.plan": plan_text,
        "refined_sheet1.audit.sha256": hashlib.sha256(
            audit_json(refined.name, stats, audit).encode()).hexdigest() + "\n",
        "refined_sheet1.sampled.sha256": sampled_digest + "\n",
        "report.json": report_json + "\n",
    }


def test_criterion_8_determinism_and_golden(tmp_path):
    first = _golden_artifacts(tmp_path / "a")
    second = _golden_artifacts(tmp_path / "b")
    assert first == second  # bitwise stage-by-stage reproducibility
    assert GOLDEN_DIR.exists(), "golden files missing; run tests/make_golden.py"
    for name, content in first.items():
        want = (GOLDEN_DIR / name).read_text()
        assert content == want, f"golden mismatch for {name}"
    report(8, "pipeline bitwise-reproducible; golden artifacts match")


# ---------------------------------------------------------------------------
# criterion 9: refined-plan shape
# ---------------------------------------------------------------------------

def test_criterion_9_refined_plan_shape(corpus):
    refined = corpus["sheets"]["sheet1"]["refined"]
    assert refined.path_equivalents < 16
    kinds = [a.kind for a in refined.actions]
    tail3 = kinds[-3:]
    tail2 = kinds[-2:]
    assert tail3 == ["refinement", "capture", "end"] or tail2 == ["capture", "end"]
    assert validate(refined, standard_constraints()) == []
    report(9, f"{refined.path_equivalents} in-plan path-equivalents, "
              f"tail {tail3}")
