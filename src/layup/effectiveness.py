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
bucket's majority sign vote shrinks or grows the covariance diagonals. The
search reads nothing of a covariance but its diagonal, so it carries each
sector's (2, 3) variances in place of its two 3x3 covariances.
`propagate_rows` advances many rows of means, variances and counts at once,
each action the row its parent index picks from a batch, reading the
model's dense table (`EffectTable`, built by `EffectivenessModel.table` over
the sectors the rows hold) and returning the new rows.

A bucket has one number: its (kind, argument) key's index in `BUCKET_KEYS`
(`bucket_row`). It is the bucket's row of every effect table, whatever the
model saw, and with the sector it makes a sample's key column value.

A model is its samples: read-only columns (see `extract_transitions`)
sorted by key, a bucket the run of rows that share a key
(`EffectivenessModel.runs`). One stable sort keeps a bucket's rows in the
order given: log order, then step order, for `aggregate`; file order for
`EffectivenessModel.from_json`, which checks all rows at once, naming the
first bucket at fault. The model reduces the buckets of each sample count as
one stacked array, adding the rows in the order a per-bucket `np.mean`,
`np.var` and `np.sum` add them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import axial_difference, fold_axial
from .jsonio import numbers, read_json, required, typed
from .plan import ACTION_KINDS, PATH_COUNT_DEFAULT, Action

COV_SHRINK = 0.9  # diagonal scale when the majority vote says uncertainty fell
COV_GROW = 1.1    # ... and when it says uncertainty rose

DELTA_FIELDS = ("d_x", "d_y", "d_h", "d_a", "d_b", "d_theta")


def _step(x: np.ndarray) -> np.ndarray:
    # +1 strictly above zero, -1 at and below zero
    return np.where(x > 0.0, 1.0, -1.0)


def compute_delta(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Change between mean rows (..., 6): one (6,) row or a batch of them.

    The components follow DELTA_FIELDS; d_theta, the orientation change
    wrapped to the axial half-turn, lies in (-pi/2, pi/2].
    """
    delta = after - before
    delta[..., 5] = axial_difference(after[..., 5], before[..., 5])
    return delta


def compute_signs(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Growth signs (2, 3) of the diagonals of two (2, 3, 3) covariance rows.

    Row 0 is sigma1, row 1 sigma2; zero change counts as shrink.
    """
    return _step(np.diagonal(after, axis1=-2, axis2=-1)
                 - np.diagonal(before, axis1=-2, axis2=-1))


# every bucket key an action can have, sorted as the model file lists them
BUCKET_KEYS = sorted([(kind, 0) for kind in ACTION_KINDS if kind != "path"]
                     + [("path", i) for i in range(1, PATH_COUNT_DEFAULT + 1)])
_ROWS = {key: row for row, key in enumerate(BUCKET_KEYS)}


def bucket_row(action: Action) -> int:
    """The action's bucket number, its effect table row: the index in BUCKET_KEYS of
    its (kind, argument) key. Path actions bucket by index; every other kind shares one."""
    return _ROWS[(action.kind, action.arg if action.kind == "path" else 0)]


def _no_samples() -> tuple:
    return (np.zeros(0, int), np.zeros((0, 6)), np.zeros((0, 3)), np.zeros((0, 3)),
            np.zeros(0, object))


def extract_transitions(log) -> tuple:
    """One log's samples as columns (keys, deltas, u1, u2, sources), a row per
    (step, sector) pair, step by step.

    A key is the bucket's `bucket_row` times k plus the sector index;
    u1 and u2 (N, 3) are the signs of sigma1's and sigma2's diagonals;
    sources are "plan:step" strings. One `compute_delta` and one
    `compute_signs` take every step's rows from the log's stacked states.
    """
    n = len(log.actions)
    if not n:
        return _no_samples()
    mu = np.stack([state.mu for state in log.states])
    sigma = np.stack([state.sigma for state in log.states])
    k = mu.shape[1]
    steps = np.array([bucket_row(action) for action in log.actions])
    signs = compute_signs(sigma[:-1], sigma[1:])  # (n, k, 2, 3)
    sources = np.array([f"{log.plan_name}:{i}" for i in range(1, n + 1)], dtype=object)
    return ((steps[:, None] * k + np.arange(k)).ravel(),
            compute_delta(mu[:-1], mu[1:]).reshape(-1, 6),
            signs[:, :, 0].reshape(-1, 3), signs[:, :, 1].reshape(-1, 3), sources.repeat(k))


@dataclass(frozen=True)
class EffectTable:
    """A model's buckets as dense arrays over some of its sectors, row `bucket_row`
    for each bucket key, built by `EffectivenessModel.table`.

    Per row and sector: the mean delta, the sample standard deviation, the
    variance scale s * s of each track (s is sqrt(1.1) on the diagonals whose
    majority vote says grew, sqrt(0.9) elsewhere; bit for bit the diagonal of
    np.outer(s, s)) and whether the sector has data. A sector without data,
    in a bucket the model never saw too, has zero mean and deviation and unit
    scale.
    """

    mean: np.ndarray    # (R, n, 6), R = len(BUCKET_KEYS), n the sectors it holds
    std: np.ndarray     # (R, n, 6)
    scale: np.ndarray   # (R, n, 2, 3): per track, the factor of each variance
    has: np.ndarray     # (R, n) bool
    covers: np.ndarray  # (R,) bool: some sector of the model's k, held or not, has data


def _stacked(names: list[str], recs: list[dict], name: str, check, like):
    # every bucket's `name` rows, in bucket order, checked by one `check` call
    # (`numbers` with a shape or `typed` with a like); a fault is then looked
    # for bucket by bucket, so that the error names the first bucket at fault
    try:
        return check([row for rec in recs for row in rec[name]], like, name)
    except (TypeError, ValueError):
        for key, rec in zip(names, recs):
            check(rec[name], like, f"bucket {key} {name}")
        raise


class EffectivenessModel:
    """Empirical per-(action bucket, sector) delta table, built whole, laid out by `table`.

    The model is its samples: the `extract_transitions` columns `keys`,
    `deltas`, `u1`, `u2` and `sources`, stably sorted by key, so that a bucket
    is the run of rows that share a key, its rows in the order given. A model
    never changes once built, so the sorted columns are read-only.
    """

    def __init__(self, sector_count: int, samples=None, experiments: int = 0, sheets=()):
        if sector_count < 2:
            raise ValueError("sector_count must be at least 2")
        self.sector_count = sector_count
        self.experiments = experiments
        self.sheets = list(sheets)
        keys, *columns = samples if samples else _no_samples()
        order = np.argsort(keys, kind="stable")
        self.keys, self.deltas, self.u1, self.u2, self.sources = \
            (column[order] for column in (keys, *columns))
        for column in (self.keys, self.deltas, self.u1, self.u2, self.sources):
            column.flags.writeable = False

    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each bucket's key, first row and row count, in key order."""
        starts = np.flatnonzero(np.diff(self.keys, prepend=-1))
        return self.keys[starts], starts, np.diff(starts, append=len(self.keys))

    def _name(self, key: int) -> str:  # as the model file writes it
        kind, arg = BUCKET_KEYS[key // self.sector_count]
        return f"{kind}|{arg}|{key % self.sector_count + 1}"

    @cached_property
    def _stats(self) -> tuple:
        # each bucket's mean delta (B, 6), deviation (B, 6) and variance scale
        # (B, 2, 3), in key order. Buckets of one sample count n stack into
        # (B, n, ...) arrays, reduced over axis 1: np.add.reduce adds an outer
        # axis one row at a time, in row order, so each bucket's mean, variance
        # and vote sums are np.mean's, np.var's (ddof=1) and np.sum's over its
        # own rows, bit for bit
        _, starts, counts = self.runs()
        mean, std = np.zeros((len(starts), 6)), np.zeros((len(starts), 6))
        scale = np.empty((len(starts), 2, 3))
        for n in set(counts.tolist()):
            pick = counts == n
            rows = starts[pick, None] + np.arange(n)                    # (B, n) sample rows
            deltas = self.deltas[rows]                                  # (B, n, 6)
            votes = np.stack((self.u1[rows], self.u2[rows]), axis=1)    # (B, 2, n, 3)
            m = np.add.reduce(deltas, axis=1) / n
            mean[pick] = m
            if n > 1:  # one sample: variance zero
                x = deltas - m[:, None]
                std[pick] = np.sqrt(np.add.reduce(np.multiply(x, x, out=x), axis=1) / (n - 1))
            # a diagonal grew when its vote sum is above zero; a tie says it shrank
            s = np.sqrt(np.where(np.add.reduce(votes, axis=2) > 0, COV_GROW, COV_SHRINK))
            scale[pick] = s * s                                         # np.outer(s, s)'s diagonal
        return mean, std, scale

    def table(self, sectors: np.ndarray) -> EffectTable:
        """The dense table over the sectors a (k,) bool mask marks, for states that
        hold only them: each bucket's stats at row and sector divmod(key, k), the
        sector's column its place among the marked ones. `covers` tells whether
        any of the k sectors has data. ValueError when the mask is not k long.
        """
        k = self.sector_count
        if len(sectors) != k:
            raise ValueError(f"state has {len(sectors)} sectors, the model {k}")
        row, sector = divmod(self.runs()[0], k)
        held = sectors[sector]
        shape = (len(BUCKET_KEYS), int(np.count_nonzero(sectors)))
        mean, std = np.zeros(shape + (6,)), np.zeros(shape + (6,))
        scale = np.ones(shape + (2, 3))
        has = np.zeros(shape, dtype=bool)
        at = row[held], (np.cumsum(sectors) - 1)[sector[held]]
        mean[at], std[at], scale[at] = (stat[held] for stat in self._stats)
        has[at] = True
        covers = np.zeros(len(BUCKET_KEYS), dtype=bool)
        covers[row] = True
        return EffectTable(mean, std, scale, has, covers)

    def bucket(self, action: Action, sector: int) -> slice | None:
        """The rows of `action`'s bucket in `sector` (1-based), or None if it holds none."""
        if not 1 <= sector <= self.sector_count:
            return None
        key = bucket_row(action) * self.sector_count + sector - 1
        start, stop = np.searchsorted(self.keys, (key, key + 1)).tolist()
        return slice(start, stop) if stop > start else None

    @property
    def is_empty(self) -> bool:
        return not len(self.keys)

    def bucket_counts(self) -> dict[str, int]:
        """Sample counts keyed 'kind|arg|sector', in key order, for reporting."""
        keys, _, counts = self.runs()
        return dict(zip(map(self._name, keys.tolist()), counts.tolist()))

    def to_json(self) -> dict:
        keys, starts, counts = self.runs()
        rows = {name: getattr(self, name).tolist() for name in ("deltas", "u1", "u2", "sources")}
        buckets = {self._name(key): {name: v[start:start + n] for name, v in rows.items()}
                   for key, start, n in zip(keys.tolist(), starts.tolist(), counts.tolist())}
        return {"version": 1, "sector_count": self.sector_count,
                "experiments": self.experiments, "sheets": self.sheets,
                "buckets": buckets}

    @classmethod
    def from_json(cls, obj: dict) -> "EffectivenessModel":
        """A model as `to_json` wrote it; ValueError naming the first bucket at fault,
        also when a bucket's mean or deviation overflows."""
        raw = required(obj, {"version": 1, "sector_count": 0, "experiments": 0,
                           "sheets": [""], "buckets": {}})
        if raw["version"] != 1:
            raise ValueError(f"unsupported model version {raw['version']}")
        k = raw["sector_count"]
        names, keys, recs = [], [], []
        for key, rec in raw["buckets"].items():
            kind, arg, sector = key.split("|")
            arg, sector = int(arg), int(sector)
            if key != f"{kind}|{arg}|{sector}":
                raise ValueError(f"bucket {key}: not written as {kind}|{arg}|{sector}")
            if (kind, arg) not in _ROWS:
                raise ValueError(f"bucket {key}: no action has this kind and argument")
            if not 1 <= sector <= k:
                raise ValueError(f"bucket {key}: sector out of range")
            if not (isinstance(rec, dict) and all(isinstance(rec.get(name), list)
                                                  for name in ("deltas", "u1", "u2", "sources"))):
                raise ValueError(f"bucket {key}: must be an object whose deltas, u1, u2 "
                                 f"and sources are lists")
            n = len(rec["deltas"])
            if not n:
                raise ValueError(f"bucket {key}: no deltas")
            for name, what in (("u1", "u1 row"), ("u2", "u2 row"), ("sources", "source")):
                if len(rec[name]) != n:
                    raise ValueError(f"bucket {key}: one {what} per delta needed")
            names.append(key)
            keys.append(_ROWS[(kind, arg)] * k + sector - 1)
            recs.append(rec)
        samples = None
        if recs:
            # the rows of every bucket checked at once, in file order
            sources, deltas, u1, u2 = (_stacked(names, recs, name, check, like)
                                       for name, check, like in (("sources", typed, [""]),
                                                                 ("deltas", numbers, (None, 6)),
                                                                 ("u1", numbers, (None, 3)),
                                                                 ("u2", numbers, (None, 3))))
            counts = [len(rec["deltas"]) for rec in recs]
            bad = np.flatnonzero((np.abs(u1) != 1.0).any(axis=1) | (np.abs(u2) != 1.0).any(axis=1))
            if len(bad):
                key = names[np.searchsorted(np.cumsum(counts), bad[0], side="right")]
                raise ValueError(f"bucket {key}: each u1 and u2 vote must be -1 or 1")
            samples = (np.repeat(keys, counts), deltas, u1, u2, np.array(sources, dtype=object))
        model = cls(k, samples, raw["experiments"], raw["sheets"])
        with np.errstate(over="ignore", invalid="ignore"):  # finite samples can overflow
            mean, std, _ = model._stats  # not the table, which the file's sector count sizes
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)).all(axis=1))
        if len(bad):
            key = model._name(int(model.runs()[0][bad[0]]))
            raise ValueError(f"bucket {key}: mean or deviation overflows")
        return model

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json()))  # one-shot dumps runs the C encoder

    @classmethod
    def load(cls, path) -> "EffectivenessModel":
        return read_json(path, cls.from_json)


def aggregate(logs) -> EffectivenessModel:
    """Pool the per-sector transition samples of many experiment logs.

    Logs must agree on sector count. Buckets hold the same samples whatever
    the log order, but log order sets their order within a bucket, and so the
    model file's rows and the last bits of the table's means and deviations.
    """
    logs = list(logs)
    ks = {len(log.states[0].count) for log in logs if log.states}
    if len(ks) > 1:
        raise ValueError(f"logs mix sector counts {sorted(ks)}")
    return EffectivenessModel(ks.pop() if ks else 2, [
        np.concatenate(column) for column in zip(*map(extract_transitions, logs))],
        len(logs), sorted({log.sheet for log in logs}))


def propagate_rows(mu: np.ndarray, var: np.ndarray, count: np.ndarray, parents, rows,
                   table: EffectTable, seeds=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance rows by the learned effect of each of A actions: A new rows.

    A row is one state's means `mu` (N, n, 6), covariance diagonals `var`
    (N, n, 2, 3) and sample counts `count` (N, n) over the n sectors the
    table holds. Action i advances row `parents[i]`, gathered here and not
    kept. `rows` are the actions' `bucket_row`s and `table` the model's
    table over those sectors (`EffectivenessModel.table`). Live sectors with
    data move by the bucket mean delta. With `seeds` (sampled mode) they
    move by the mean plus zero-mean Gaussian noise with the bucket's sample
    variance, action i drawing one (6,) row per moved sector, in sector
    order, from `np.random.default_rng(seeds[i])`; `seeds` None is
    expectation mode. Heights and axes clamp at zero; orientations fold into
    [0, pi); a sector whose height and both axes hit zero collapses to the
    sentinel. Variances scale by 0.9/1.1 according to the majority sign
    vote. Sectors or actions without data are left untouched, and sentinels
    stay zero. Returns the new rows' (mu, var, count).
    """
    count = np.take(count, parents, axis=0)
    live = count != 0
    moved = table.has[rows] & live                  # (A, n)
    # variances first, then means, each into one new array, so that no more
    # than two (A, n, 2, 3) arrays, or three (A, n, 6) ones, are held at once
    scale = np.take(table.scale, rows, axis=0)      # (A, n, 2, 3), a copy
    scale[~moved] = 1.0                             # x * 1.0 is x, bit for bit
    var = np.multiply(np.take(var, parents, axis=0), scale, out=scale)
    mu0 = np.take(mu, parents, axis=0)
    mu = np.take(table.mean, rows, axis=0)          # (A, n, 6), a copy: the deltas
    if seeds is not None:
        std = table.std[rows]
        for i, seed in enumerate(seeds):
            m = moved[i]
            noise = np.random.default_rng(seed).standard_normal((int(m.sum()), 6))
            mu[i, m] = mu[i, m] + noise * std[i, m]
    mu += mu0                                       # delta + mean is mean + delta, bit for bit
    mu[..., 2:5] = np.where(mu[..., 2:5] > 0.0, mu[..., 2:5], 0.0)  # height, major, minor
    mu[..., 5] = fold_axial(mu[..., 5])
    collapsed = moved & (mu[..., 2] == 0.0) & (mu[..., 3] == 0.0) & (mu[..., 4] == 0.0)
    np.copyto(mu, mu0, where=~moved[..., None])     # unmoved sectors keep their means
    dead = collapsed | ~live
    mu[dead] = 0.0
    var[dead] = 0.0
    return mu, var, np.where(dead, 0, count)
