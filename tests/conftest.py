import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from layup.effectiveness import EffectivenessModel, EffectTable, bucket_row, propagate_rows
from layup.search import SearchStats, _Search, _level, _live, _lookahead, _named, price_batch
from layup.sheet_state import SheetGeometry, SheetState
from layup.simulator import SUMMARY_FIELDS


def src_env() -> dict:
    """This process's environment with the checkout's `src/` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


# an independent straight-line evaluator of the constraint semantics, written
# from the relations' definitions and sharing no code with `layup.plan`
def oracle_abs(kinds, c) -> bool:
    n = sum(1 for k in kinds if k == c.alpha)
    if c.gamma == ">":
        return n > c.lam
    if c.gamma == "=":
        return n == c.lam
    return n < c.lam


def oracle_rel(kinds, c) -> bool:
    for p_pos, k in enumerate(kinds):
        if k != c.alpha:
            continue
        ok = False
        for q_pos in range(p_pos):
            if kinds[q_pos] != c.beta:
                continue
            gap = p_pos - q_pos  # 0-based positions: the offset cancels out
            if ((c.gamma == ">" and gap > c.lam)
                    or (c.gamma == "=" and gap == c.lam)
                    or (c.gamma == "<" and gap <= c.lam)):
                ok = True
                break
        if not ok:
            return False
    return True


def meets(kinds, cs) -> bool:
    """Whether a sequence of action kinds (possibly empty) satisfies every constraint of `cs`."""
    return (all(oracle_abs(kinds, c) for c in cs.abs)
            and all(oracle_rel(kinds, c) for c in cs.rel))


def utility_of(state: SheetState, cfg) -> float:
    """A state's utility, priced on the whole state as the search prices its root."""
    return float(price_batch(*rows_of(state), state.geometry.area, cfg)[0][0])


def sample_key(action, sector: int, k: int) -> int:
    """The bucket key column's value for a sample of `action` in `sector` of k."""
    assert 1 <= sector <= k
    return bucket_row(action) * k + sector - 1


def model_of(k: int, samples) -> EffectivenessModel:
    """A k-sector model of hand-made samples, through the model's table constructor.

    Each sample is (action, sector, delta, signs), the (2, 3) growth signs
    of the G1 and G2 variances, with an optional fifth "plan:step"
    source (":0" when left out). A bucket keeps its samples in the order given.
    """
    samples = list(samples)
    signs = np.array([s[3] for s in samples], dtype=float).reshape(-1, 2, 3)
    return EffectivenessModel(k, (
        np.array([sample_key(action, sector, k) for action, sector, *_ in samples], dtype=int),
        np.array([s[2] for s in samples], dtype=float).reshape(-1, 6),
        signs[:, 0], signs[:, 1],
        np.array([s[4] if len(s) > 4 else ":0" for s in samples], dtype=object)))


def rows_of(state: SheetState) -> tuple:
    """One state as a batch of one row, (mu, var, count): the form `propagate_rows`
    and `price_batch` take."""
    return state.mu[None], state.var[None], state.count[None]


def whole_table(model: EffectivenessModel, state: SheetState | None = None) -> EffectTable:
    """`model.table` over every sector: the model's, or the state's, which must match."""
    return model.table(np.ones(model.sector_count if state is None else state.count.shape[-1],
                               dtype=bool))


def propagate_one(state: SheetState, action, model, seed=None) -> SheetState:
    """`propagate_rows` of one action, as one state at t + 1; with a seed, in
    sampled mode."""
    mu, var, count = propagate_rows(*rows_of(state), np.zeros(1, int), [bucket_row(action)],
                                    whole_table(model, state), None if seed is None else [seed])
    return SheetState(state.geometry, mu[0], var[0], count[0], state.t + 1)


def root_row(search, prefix=(), cost: float = 0.0):
    """The root row of a `_Search`, taken as reached by `prefix` at `cost`."""
    return replace(search.root, kinds=[tuple(a.kind for a in prefix)], cost=np.array([cost]))


def children(state: SheetState, model, cs, cfg, prefix=()) -> list:
    """Every feasible child of the root row, best one-step score first, as `_level` ranks them.

    Each child has its `action`, its `state` scattered back into all k
    sectors, and its one-step `score`.
    """
    search = _Search(state, model, cs, cfg, SearchStats())
    root = root_row(search, prefix)
    level = _named(search, root, _level(search, root, keep=len(search.actions)))
    live = int(_live(state.count))
    return [SimpleNamespace(action=search.action(c, live), state=search.state(level.rows, i),
                            score=float(level.rows.score[i]))
            for i, c in enumerate(level.which.tolist())]


def lookahead(state: SheetState, model, cs, cfg, depth=None, prefix=(), cost: float = 0.0,
              stats=None) -> float:
    """`_lookahead` from the root row of `state` (see `root_row`), cfg.depth levels by
    default: the one row's value, as a float."""
    cfg = cfg if depth is None else replace(cfg, depth=depth)
    search = _Search(state, model, cs, cfg, stats if stats is not None else SearchStats())
    return float(_lookahead(search, root_row(search, prefix, cost))[0][0])


def summary_record(sheet, plan, seed, cycles, corr, total) -> dict:
    """The summary record of a made-up converged run, written from `SUMMARY_FIELDS`.

    The run took `cycles` correction cycles and `corr` correction paths out
    of `total` paths.
    """
    run = SimpleNamespace(plan_name=plan, sheet=sheet, seed=seed, correction_cycles=cycles,
                          correction_paths=corr, correction_converged=True,
                          in_plan_paths=total - corr, total_paths=total)
    return {key: value_of(run) for key, _, value_of in SUMMARY_FIELDS}


# (cycles, correction paths, total paths) of three trials per sheet and plan,
# chosen so the report reproduces the paper's quoted averages and improvements
PUBLISHED_STYLE_TRIALS = {
    ("sheet1", "D1"): [(5, 17, 33), (7, 30, 46), (5, 16, 32)],
    ("sheet1", "D2"): [(7, 29, 45), (2, 12, 28), (4, 14, 30)],
    ("sheet1", "refined_sheet1"): [(2, 5, 19), (2, 5, 19), (3, 8, 22)],
    ("sheet2", "D1"): [(2, 8, 24), (2, 9, 25), (3, 11, 27)],
    ("sheet2", "D2"): [(2, 12, 28), (3, 9, 25), (3, 13, 29)],
    ("sheet2", "refined_sheet2"): [(1, 5, 17), (3, 5, 17), (2, 3, 15)],
}


def published_style_summaries() -> list[dict]:
    """The summary records of `PUBLISHED_STYLE_TRIALS`, seeds 0-2 per group."""
    return [summary_record(sheet, plan, seed, *trial)
            for (sheet, plan), trials in PUBLISHED_STYLE_TRIALS.items()
            for seed, trial in enumerate(trials)]


def make_state(geom, sectors=None, t=0) -> SheetState:
    """A state of `geom` from {sector id: (mu, var, n)}; other sectors are sentinels.

    `mu` holds the six means (mu1 then mu2); `var` both tracks' three
    variances, or one triple that both take.
    """
    k = geom.sector_count
    mu, var, count = np.zeros((k, 6)), np.zeros((k, 2, 3)), np.zeros(k, dtype=int)
    for sector, (m, v, n) in (sectors or {}).items():
        mu[sector - 1], var[sector - 1], count[sector - 1] = m, v, n
    return SheetState(geom, mu, var, count, t)


@pytest.fixture
def square_geom():
    half = 150.0
    poly = np.array([[half, half], [-half, half], [-half, -half], [half, -half]])
    return SheetGeometry(center=np.zeros(2), polygon=poly, sector_count=8)


@pytest.fixture
def two_sector_geom():
    half = 100.0
    poly = np.array([[half, half], [-half, half], [-half, -half], [half, -half]])
    return SheetGeometry(center=np.zeros(2), polygon=poly, sector_count=2)
