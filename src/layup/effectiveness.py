"""Action-effect learning from before/after sheet states.

Every executed action is bracketed by two derived sheet states. Per sector
the change is summarized from the two states' rows as a six-component delta
(centroid x/y, mean height, major, minor, and axially differenced
orientation) plus a (2, 3) sign array recording whether each diagonal of
the two covariances grew (+1) or shrank/held (-1). Samples pool across
experiments into buckets keyed by (action kind, argument bucket, sector):
path actions bucket per path index because path geometry fixes which
sectors a pass can touch, while peel, capture, end and refinement each share
a single bucket.

The learned table drives state propagation inside the plan search: bucket
mean deltas move the Gaussian means (optionally with sampled noise), and the
bucket's majority sign vote shrinks or grows the covariance diagonals. Both
propagations take and return a `SheetState`: the search propagates through
`propagate_batch`, which reads the table compiled into dense arrays
(`EffectTable`) and returns a batch of states; the per-sector `propagate`
is the scalar reference the batched path is tested against, bit for bit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import axial_difference, fold_axial
from .jsonio import LogFormatError, numbers, read_json, required
from .plan import Action
from .sheet_state import SheetState

COV_SHRINK = 0.9  # diagonal scale when the majority vote says uncertainty fell
COV_GROW = 1.1    # ... and when it says uncertainty rose

DELTA_FIELDS = ("d_x", "d_y", "d_h", "d_a", "d_b", "d_theta")


def _step(x: np.ndarray) -> np.ndarray:
    # +1 strictly above zero, -1 at and below zero
    return np.where(x > 0.0, 1.0, -1.0)


def compute_delta(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Change between two (6,) mean rows; orientation wrapped to the axial half-turn.

    The components follow DELTA_FIELDS; d_theta lies in (-pi/2, pi/2].
    """
    delta = after - before
    delta[5] = axial_difference(after[5], before[5])
    return delta


def compute_signs(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Growth signs (2, 3) of the diagonals of two (2, 3, 3) covariance rows.

    Row 0 is sigma1, row 1 sigma2; zero change counts as shrink.
    """
    return _step(np.diagonal(after, axis1=-2, axis2=-1)
                 - np.diagonal(before, axis1=-2, axis2=-1))


@dataclass(frozen=True)
class TransitionSample:
    action: Action
    sector: int
    delta: np.ndarray  # (6,), as compute_delta returns it
    signs: np.ndarray  # (2, 3) of +-1, as compute_signs returns it
    plan_name: str = ""
    step: int = 0


def extract_transitions(log) -> list[TransitionSample]:
    """One sample per (action, sector) pair of an experiment log.

    Steps missing either bracketing state are skipped; malformed records
    raise LogFormatError naming the step index.
    """
    samples = []
    for rec in log.steps:
        if rec.state_before is None or rec.state_after is None:
            continue
        before, after = rec.state_before, rec.state_after
        if len(before.count) != len(after.count):
            raise LogFormatError(f"step {rec.index}: sector counts disagree")
        for row in range(len(before.count)):
            samples.append(TransitionSample(
                action=rec.action, sector=row + 1,
                delta=compute_delta(before.mu[row], after.mu[row]),
                signs=compute_signs(before.sigma[row], after.sigma[row]),
                plan_name=log.plan_name, step=rec.index))
    return samples


def bucket_key(action: Action) -> tuple[str, int]:
    """Path actions bucket by index; every other kind shares one bucket."""
    return (action.kind, action.arg if action.kind == "path" else 0)


@dataclass
class _Bucket:
    deltas: list = field(default_factory=list)   # (6,) arrays
    u1: list = field(default_factory=list)       # (3,) signs of sigma1's diagonal
    u2: list = field(default_factory=list)       # ... and of sigma2's
    sources: list = field(default_factory=list)  # "plan:step" provenance strings

    def add(self, sample: TransitionSample):
        self.deltas.append(sample.delta)
        self.u1.append(sample.signs[0])
        self.u2.append(sample.signs[1])
        self.sources.append(f"{sample.plan_name}:{sample.step}")

    @property
    def count(self) -> int:
        return len(self.deltas)

    @property
    def mean(self) -> np.ndarray:
        return np.mean(self.deltas, axis=0)

    @property
    def variance(self) -> np.ndarray:
        """Per-component sample variance; zero when only one sample exists."""
        return np.var(self.deltas, axis=0, ddof=1) if self.count > 1 else np.zeros(6)

    def majority_signs(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-diagonal majority of the +-1 votes; ties land on -1."""
        return _step(np.sum(self.u1, axis=0)), _step(np.sum(self.u2, axis=0))


@dataclass(frozen=True)
class EffectTable:
    """A model's buckets compiled into dense arrays, one row per bucket key.

    Per row and sector: the mean delta, the sample standard deviation, the
    covariance scale np.outer(s, s) of each track (s is sqrt(1.1) on the
    diagonals whose majority vote says grew, sqrt(0.9) elsewhere) and whether
    the sector has data. The last row stands for every bucket key the model
    never saw: no sector has data there.
    """

    rows: dict[tuple[str, int], int]  # bucket key -> row
    mean: np.ndarray    # (n + 1, k, 6)
    std: np.ndarray     # (n + 1, k, 6)
    scale: np.ndarray   # (n + 1, k, 2, 3, 3)
    has: np.ndarray     # (n + 1, k) bool
    covers: np.ndarray  # (n + 1,) bool: some sector has data

    def row(self, action: Action) -> int:
        return self.rows.get(bucket_key(action), len(self.rows))


def _compile(model: "EffectivenessModel") -> EffectTable:
    keys = sorted({(kind, arg) for kind, arg, _ in model.table})
    rows = {key: i for i, key in enumerate(keys)}
    shape = (len(keys) + 1, model.sector_count)
    mean, std = np.zeros(shape + (6,)), np.zeros(shape + (6,))
    scale = np.ones(shape + (2, 3, 3))
    has = np.zeros(shape, dtype=bool)
    for (kind, arg, sector), b in model.table.items():
        if b.count == 0:
            continue
        at = (rows[(kind, arg)], sector - 1)
        mean[at] = b.mean
        std[at] = np.sqrt(b.variance)
        for track, majority in enumerate(b.majority_signs()):
            s = np.sqrt(np.where(majority > 0, COV_GROW, COV_SHRINK))
            scale[at + (track,)] = np.outer(s, s)
        has[at] = True
    return EffectTable(rows=rows, mean=mean, std=std, scale=scale, has=has,
                       covers=has.any(axis=1))


class EffectivenessModel:
    """Empirical per-(action bucket, sector) delta table, compiled on use."""

    def __init__(self, sector_count: int):
        if sector_count < 2:
            raise ValueError("sector_count must be at least 2")
        self.sector_count = sector_count
        self.table: dict[tuple[str, int, int], _Bucket] = {}
        self.experiments = 0
        self.sheets: list[str] = []
        self._compiled: EffectTable | None = None

    def add_sample(self, sample: TransitionSample):
        if not (1 <= sample.sector <= self.sector_count):
            raise ValueError(f"sector {sample.sector} out of range")
        kind, arg = bucket_key(sample.action)
        self.table.setdefault((kind, arg, sample.sector), _Bucket()).add(sample)
        self._compiled = None

    def compiled(self) -> EffectTable:
        """The dense tables, compiled on first use after the last added sample."""
        if self._compiled is None:
            self._compiled = _compile(self)
        return self._compiled

    def bucket(self, action: Action, sector: int) -> _Bucket | None:
        kind, arg = bucket_key(action)
        b = self.table.get((kind, arg, sector))
        return b if b is not None and b.count > 0 else None

    def covers(self, action: Action) -> bool:
        """True when at least one sector has data for this action's bucket."""
        table = self.compiled()
        return bool(table.covers[table.row(action)])

    @property
    def is_empty(self) -> bool:
        return not self.table

    def bucket_counts(self) -> dict[str, int]:
        """Sample counts keyed 'kind|arg|sector', for reporting."""
        return {f"{k}|{a}|{s}": b.count for (k, a, s), b in sorted(self.table.items())}

    def to_json(self) -> dict:
        buckets = {}
        for (kind, arg, sector), b in sorted(self.table.items()):
            buckets[f"{kind}|{arg}|{sector}"] = {
                "deltas": [[float(v) for v in d] for d in b.deltas],
                "u1": [[float(v) for v in d] for d in b.u1],
                "u2": [[float(v) for v in d] for d in b.u2],
                "sources": list(b.sources),
            }
        return {"version": 1, "sector_count": self.sector_count,
                "experiments": self.experiments, "sheets": self.sheets,
                "buckets": buckets}

    @classmethod
    def from_json(cls, obj: dict) -> "EffectivenessModel":
        raw = required(obj, {"version": 1, "sector_count": 0, "experiments": 0,
                           "sheets": [""], "buckets": {}})
        if raw["version"] != 1:
            raise ValueError(f"unsupported model version {raw['version']}")
        model = cls(sector_count=raw["sector_count"])
        model.experiments = raw["experiments"]
        model.sheets = raw["sheets"]
        for key, rec in raw["buckets"].items():
            kind, arg, sector = key.split("|")
            if not 1 <= int(sector) <= model.sector_count:
                raise ValueError(f"bucket {key}: sector out of range")
            rec = required(rec, {"deltas": [], "u1": [], "u2": [], "sources": [""]})
            bucket = _Bucket()
            bucket.deltas = list(numbers(rec["deltas"], (None, 6), f"bucket {key} deltas"))
            bucket.u1 = list(numbers(rec["u1"], (len(bucket.deltas), 3), f"bucket {key} u1"))
            bucket.u2 = list(numbers(rec["u2"], (len(bucket.deltas), 3), f"bucket {key} u2"))
            bucket.sources = rec["sources"]
            if len(bucket.sources) != bucket.count:
                raise ValueError(f"bucket {key}: one source per delta needed")
            model.table[(kind, int(arg), int(sector))] = bucket
        return model

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path) -> "EffectivenessModel":
        return read_json(path, cls.from_json)


def aggregate(logs) -> EffectivenessModel:
    """Pool the per-sector transition samples of many experiment logs.

    Logs must agree on sector count; aggregation is a pure fold, so log
    order never changes the resulting table.
    """
    logs = list(logs)
    if not logs:
        return EffectivenessModel(sector_count=2)
    ks = {len(log.steps[0].state_before.count) if log.steps else None for log in logs}
    ks.discard(None)
    if len(ks) > 1:
        raise ValueError(f"logs mix sector counts {sorted(ks)}")
    model = EffectivenessModel(sector_count=ks.pop() if ks else 2)
    for log in logs:
        for sample in extract_transitions(log):
            model.add_sample(sample)
        model.experiments += 1
        if log.sheet not in model.sheets:
            model.sheets.append(log.sheet)
    model.sheets.sort()
    return model


def propagate(state: SheetState, action: Action, model: EffectivenessModel,
              mode: str = "expectation", seed: int | None = None) -> SheetState:
    """Advance the internal state by the learned effect of one action.

    This per-sector version is the scalar reference that `propagate_batch`,
    which the search uses, is tested against bit for bit. Non-sentinel
    sectors move by the bucket mean delta ("expectation") or by
    mean plus zero-mean Gaussian noise with the bucket's sample variance
    ("sampled", reproducible under the seed). Heights and axes clamp at
    zero; orientations fold into [0, pi); a sector whose height and both
    axes hit zero collapses to the sentinel. Covariance diagonals scale by
    0.9/1.1 according to the majority sign vote (applied as a symmetric
    congruence, preserving positive semidefiniteness). Sectors or actions
    without data are left untouched.
    """
    if mode not in ("expectation", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed) if mode == "sampled" else None

    mu, sigma, count = state.mu.copy(), state.sigma.copy(), state.count.copy()
    for row in range(len(count)):
        if count[row] == 0:
            mu[row], sigma[row] = 0.0, 0.0
            continue
        bucket = model.bucket(action, row + 1)
        if bucket is None:
            continue
        delta = bucket.mean.copy()
        if rng is not None:
            delta = delta + rng.standard_normal(6) * np.sqrt(bucket.variance)
        m = mu[row] + delta
        m[2] = max(0.0, m[2])
        m[3] = max(0.0, m[3])
        m[4] = max(0.0, m[4])
        m[5] = fold_axial(m[5])
        if m[2] == 0.0 and m[3] == 0.0 and m[4] == 0.0:
            mu[row], sigma[row], count[row] = 0.0, 0.0, 0
            continue
        mu[row] = m
        for track, majority in enumerate(bucket.majority_signs()):
            scale = np.sqrt(np.where(majority > 0, COV_GROW, COV_SHRINK))
            sigma[row, track] = sigma[row, track] * np.outer(scale, scale)
    return SheetState(state.geometry, mu, sigma, count, state.t + 1)


def propagate_batch(state: SheetState, actions, model: EffectivenessModel,
                    seeds=None) -> SheetState:
    """`propagate` of one state by each of A actions, as one batch of A states.

    Expectation mode when `seeds` is None; otherwise sampled mode, action i
    drawing its noise from `np.random.default_rng(seeds[i])`, one (6,) draw
    per moved sector in sector order, as `propagate` draws them. Every
    result equals `propagate`'s bit for bit.
    """
    if len(state.count) != model.sector_count:
        raise ValueError(f"state has {len(state.count)} sectors, "
                         f"the model {model.sector_count}")
    table = model.compiled()
    rows = [table.row(action) for action in actions]
    live = state.count != 0
    moved = table.has[rows] & live                  # (A, k)
    delta = table.mean[rows]                        # (A, k, 6), a copy
    if seeds is not None:
        std = table.std[rows]
        for i, seed in enumerate(seeds):
            m = moved[i]
            noise = np.random.default_rng(seed).standard_normal((int(m.sum()), 6))
            delta[i, m] = delta[i, m] + noise * std[i, m]
    mu = state.mu + delta
    mu[..., 2:5] = np.where(mu[..., 2:5] > 0.0, mu[..., 2:5], 0.0)  # height, major, minor
    mu[..., 5] = fold_axial(mu[..., 5])
    collapsed = moved & (mu[..., 2] == 0.0) & (mu[..., 3] == 0.0) & (mu[..., 4] == 0.0)
    mu = np.where(moved[..., None], mu, state.mu)
    sigma = np.where(moved[..., None, None, None], state.sigma * table.scale[rows],
                     state.sigma)
    dead = collapsed | ~live
    mu[dead] = 0.0
    sigma[dead] = 0.0
    return SheetState(state.geometry, mu, sigma, np.where(dead, 0, state.count), state.t + 1)
