"""Refined-plan generation: constrained tree search over the action space.

The planner commits one action at a time. At each stage it enumerates every
action the constraints still permit, ranks them by their expected one-step
merit under the learned effect model, explores the best `branching`
candidates `depth` levels deep (propagated in cfg.mode), and commits the
candidate whose subtree reaches the cheapest leaf. Accumulated cost is the
running sum of action cost plus propagated-state utility (plus a small
penalty per action the model has never seen). The loop stops when an end
action is committed, the horizon is hit, or no single action can improve
the state utility by at least the convergence threshold; the two latter
cases append the shortest constraint-satisfying suffix that
`plan.completion` names.

The lookahead goes level by level, not node by node. One depth level of the
subtrees below a stage's candidates is a frontier of array rows: each row's
sector means, variances and counts (a `SheetState`'s arrays, cut to the
sectors live at the root), with its cost, utility, summed variances and
prefix kinds. All (row, feasible candidate) pairs of a level are propagated
in one call and priced in one `price_batch` call; action costs, the
unmodeled penalty and the one-step scores are array expressions, and a
stable `np.lexsort` on (row, score, candidate index) ranks each row's
children, of which the first `branching` form the next level. A row
without a feasible child, and every row of the last level, is a leaf; a
candidate's lookahead value is the least cost plus utility of the leaves
below it. The rows of a level share their prefix length, so a sampled-mode
draw is seeded by (position, action) for every row alike.

A step keeps the tree it priced. Committing a candidate cuts every level
to the rows that descend from it, and the cut levels are the next step's
candidates and all but the deepest of its lookahead levels, so each step
after the first prices one new level. A row's propagation, price, score and
ranking depend only on its prefix, so a kept row is the row a fresh
lookahead would price, bit for bit.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import plan as plan_mod
from .effectiveness import EffectivenessModel, bucket_row, propagate_rows
from .jsonio import config_from_json, read_json
from .plan import (ACTION_KINDS, Action, ConstraintSet, DrapingPlan, PATH_COUNT_DEFAULT,
                   next_kinds, prefix_feasible, standard_constraints, validate)
from .sheet_state import SheetState

class SearchError(RuntimeError):
    pass


def _default_costs() -> dict:
    # refinement is priced per generated pass; end's consequence is priced by
    # the utility of the state handed to the correction controller
    return {"path": 1.0, "peel": 0.2, "capture": 0.2, "end": 0.0, "refinement": 1.0}


@dataclass(frozen=True)
class SearchConfig:
    branching: int = 4        # candidates explored per stage
    depth: int = 3            # lookahead depth below each candidate
    horizon: int = 20         # maximum plan length
    path_count: int = PATH_COUNT_DEFAULT
    w_h: float = 2.4e5        # utility weight on sector mean height
    w_area: float = 25.0      # ... on ellipse area (major * minor)
    w_sigma: float = 0.002    # ... on variance traces (a gentle tiebreaker)
    w_unk: float = 0.5        # penalty per action bucket the model never saw
    action_costs: dict = field(default_factory=_default_costs)
    epsilon_conv: float = 1.3
    mode: str = "expectation"  # or "sampled"
    seed: int = 0

    def __post_init__(self):
        if self.branching < 1 or self.depth < 0 or self.horizon < 1:
            raise ValueError("branching and horizon must be positive, depth nonnegative")
        if min(self.w_h, self.w_area, self.w_sigma, self.w_unk) < 0:
            raise ValueError("weights must be nonnegative")
        if self.mode not in ("expectation", "sampled"):
            raise ValueError(f"unknown propagation mode {self.mode!r}")
        if not 1 <= self.path_count <= PATH_COUNT_DEFAULT:
            raise ValueError(f"path_count must lie in 1..{PATH_COUNT_DEFAULT}")
        if sorted(self.action_costs) != sorted(ACTION_KINDS) or not all(
                isinstance(c, (int, float)) and not isinstance(c, bool) and math.isfinite(c)
                for c in self.action_costs.values()):
            raise ValueError(f"action_costs must give a finite number for each of "
                             f"{', '.join(ACTION_KINDS)}")

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["version"] = 1
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SearchConfig":
        return config_from_json(cls, obj)

    @classmethod
    def load(cls, path) -> "SearchConfig":
        return read_json(path, cls.from_json)


def _running_sum(terms: np.ndarray) -> np.ndarray:
    # row sums added left to right from 0.0, one term at a time; np.sum
    # adds pairwise for eight or more terms, which can change the last bit
    total = np.zeros(terms.shape[0])
    for column in terms.T:
        total += column
    return total


def price_batch(mu: np.ndarray, var: np.ndarray, count: np.ndarray, area: float,
                cfg: SearchConfig) -> tuple[np.ndarray, np.ndarray]:
    """Utility and summed variances of each row of a batch.

    A row is one state's sector means `mu` (N, n, 6), variances `var`
    (N, n, 2, 3) and counts `count` (N, n) on a sheet of this `area`. Its
    utility is its residual-uncompaction price normalized by sheet area
    (lower is better): per live sector, w_h times the clamped mean height,
    w_area times the ellipse area (major * minor) and w_sigma times the
    traces (a track's trace is its three variances added in np.trace's
    order), added sector by sector in that order. The trace total sums both
    traces of every sector, sentinels included.
    """
    traces = (var[..., 0] + var[..., 1]) + var[..., 2]  # (N, n, 2)
    sector_trace = traces[..., 0] + traces[..., 1]
    h = mu[..., 2]
    terms = np.stack([cfg.w_h * np.where(h > 0.0, h, 0.0),
                      cfg.w_area * mu[..., 3] * mu[..., 4],
                      cfg.w_sigma * sector_trace], axis=-1)
    terms = np.where((count != 0)[..., None], terms, 0.0)  # sentinels add nothing
    utility = _running_sum(terms.reshape(len(terms), -1)) / area
    return utility, _running_sum(sector_trace)


@dataclass
class SearchStats:
    """Work counts of one search; deterministic for given inputs.

    A node is expanded at most once per search: a step takes the children
    of the nodes the previous step's tree already holds (`nodes_reused`)
    rather than pricing them again.
    """

    nodes_expanded: int = 0   # non-terminal nodes below the horizon whose children were listed
    children_priced: int = 0  # child states propagated and priced
    batch_calls: int = 0      # one per propagated level or single step
    nodes_reused: int = 0     # non-terminal nodes whose children the previous step's tree held


@dataclass(frozen=True)
class _Frontier:
    """Search nodes as array rows: a level of a subtree, or the committed path's row.

    Row i holds one node's state as sector means, variances and
    counts, its accumulated cost (action costs plus utilities, plus the
    unmodeled penalty), its utility, its summed variances, the one-step
    score of its last action and its prefix as kinds. The rows of a level
    share the prefix length, and with it the position that seeds a
    sampled-mode draw. The rows hold only the n sectors live in the search's
    root state (`_Search.live`).
    """

    mu: np.ndarray             # (N, n, 6) sector means
    var: np.ndarray            # (N, n, 2, 3) variances of both tracks
    count: np.ndarray          # (N, n) sample counts, 0 for a sentinel
    kinds: list | None         # N tuples of prefix kinds; None until the rows are expanded
    cost: np.ndarray           # (N,)
    utility: np.ndarray        # (N,)
    trace: np.ndarray          # (N,)
    score: np.ndarray          # (N,)

    def take(self, rows) -> "_Frontier":
        kinds = None if self.kinds is None else [self.kinds[r] for r in rows]
        return _Frontier(self.mu[rows], self.var[rows], self.count[rows], kinds,
                         self.cost[rows], self.utility[rows], self.trace[rows],
                         self.score[rows])

    def row(self, i: int) -> "_Frontier":
        return self.take([i])


@dataclass(frozen=True)
class _Level:
    """The kept children of a frontier's rows: one level of a step's tree.

    The rows come grouped by parent, in frontier order, each group best
    one-step score first. `least` is over all of a parent's feasible
    children, kept or not, so the stop test of the step that commits the
    parent can read it. A level with no rows is a frontier none of whose
    rows had a feasible child.
    """

    rows: _Frontier            # kinds None until the rows are expanded (`_named`)
    parents: np.ndarray        # (N,) each row's parent row in the frontier above
    which: np.ndarray          # (N,) each row's candidate index
    least: np.ndarray          # (P,) each parent's least child utility, inf for none


def _sample_seed(seed: int, position: int, action: Action) -> int:
    return zlib.crc32(f"{seed}|{position}|{action}".encode())


def _live(count: np.ndarray):
    # a refinement block's pass count: the live sectors of a state (or of each row), at least 1
    return np.maximum(1, np.count_nonzero(count, axis=-1))


class _Search:
    """One search's fixed parts, built from its root state.

    It holds the config, the constraints, the work counts, the sectors live
    in the root state (`live`), the model's effect table over them, built
    once (`EffectivenessModel.table`), the candidate table, the feasibility
    memo (one mask per prefix of kinds) and the root row (`root`). Raises
    ValueError when the state's sector count is not the model's.

    Every frontier of the search holds only the `live` sectors. A sector
    with no regions in the root stays a sentinel under propagation, adds
    +0.0 to the priced sums and draws no sampled-mode noise, so leaving it
    out changes no result; a sector that dies on the way stays in the rows
    as zeros. The root row's utility and trace are priced on the whole root
    state's variances, stale sectors (no regions, nonzero moments) included.
    `state` scatters a row back into all k sectors as a `SheetState`.

    Candidate c is the action a child can be, in tie-break order: paths
    1..16, peel, capture, refinement and end, each with its `bucket_row`
    (`rows`), its unit cost (`cost`) and whether the model never saw it
    (`unseen`). `listed` marks the candidates a stage may add: paths
    1..cfg.path_count and every other kind. The refinement candidate stands
    for every pass count; its row, cost per pass and coverage do not depend
    on it.

    The committed path is one frontier row and the tuple of its actions.
    Each stage lists the row's best `branching` children as one level
    (`_level`), looks ahead from them as one frontier (`_lookahead`) and
    keeps the committed child's row and the tree below it (`_descend`),
    whose first level is the next stage's children. The completion suffix
    advances the row one action at a time (`_step`), a path step pricing
    every listed path in one batch. `replay_cost` advances the root row
    through a plan by the same step.
    """

    def __init__(self, state: SheetState, model: EffectivenessModel, cs: ConstraintSet,
                 cfg: SearchConfig, stats: SearchStats):
        self.cfg, self.cs, self.stats = cfg, cs, stats
        self.geometry, self.t = state.geometry, state.t
        self.live = live = state.count != 0
        self.effects = model.table(live)
        self.actions = ([plan_mod.path(i) for i in range(1, PATH_COUNT_DEFAULT + 1)]
                        + [plan_mod.peel(), plan_mod.capture(), plan_mod.refinement(1),
                           plan_mod.end()])
        self.refinement = PATH_COUNT_DEFAULT + 2
        self.kinds = [a.kind for a in self.actions]
        self.rows = np.array([bucket_row(a) for a in self.actions])
        self.index = {row: c for c, row in enumerate(self.rows.tolist())}
        self.cost = np.array([cfg.action_costs[kind] for kind in self.kinds], dtype=float)
        self.unseen = ~self.effects.covers[self.rows]
        self.listed = np.array([a.kind != "path" or a.arg <= cfg.path_count
                                for a in self.actions])
        self._feasible: dict[tuple[str, ...], np.ndarray] = {}
        mu, var, count = state.mu[None], state.var[None], state.count[None]
        utility, trace = price_batch(mu, var, count, state.geometry.area, cfg)
        self.root = _Frontier(mu[:, live], var[:, live], count[:, live],
                              [()], np.zeros(1), utility, trace, np.zeros(1))

    def action(self, c: int, passes: int) -> Action:
        return plan_mod.refinement(passes) if c == self.refinement else self.actions[c]

    def feasible(self, kinds: tuple[str, ...]) -> np.ndarray:
        """Which listed candidates may follow a prefix of these kinds, as a bool row.

        `end` is terminal, so it may follow only a prefix that it completes:
        the prefix plus `end` must already satisfy every constraint.
        """
        mask = self._feasible.get(kinds)
        if mask is None:
            allowed = next_kinds(kinds, self.cs, self.cfg.horizon)
            if "end" in allowed and plan_mod.outstanding(kinds + ("end",), self.cs) != {}:
                allowed = allowed - {"end"}
            mask = self._feasible[kinds] = self.listed & [k in allowed for k in self.kinds]
        return mask

    def state(self, front: _Frontier, i: int) -> SheetState:
        # row i scattered back into all k sectors, sentinels where `live` is False
        live = self.live
        mu, var = np.zeros(live.shape + (6,)), np.zeros(live.shape + (2, 3))
        count = np.zeros(live.shape, dtype=front.count.dtype)
        mu[live], var[live], count[live] = front.mu[i], front.var[i], front.count[i]
        return SheetState(self.geometry, mu, var, count, self.t + len(front.kinds[i]))


def _advance(search: _Search, front: _Frontier, parents: np.ndarray, which: np.ndarray,
             passes: np.ndarray) -> _Frontier:
    """Row `parents[i]` advanced by candidate `which[i]`: one propagate and one price.

    `passes[i]` is a refinement child's pass count; other children ignore
    it. A child's cost is its parent's plus its action cost (a refinement's
    is priced per pass) and its utility, plus cfg.w_unk where the model
    never saw the action. Its score is the one-step merit of the action,
    lower is better: the change of utility from the parent plus cfg.w_sigma
    times the change of the summed variances. In sampled mode a
    child draws from the seed of its position and action.
    """
    cfg = search.cfg
    position = len(front.kinds[0]) + 1
    seeds = (None if cfg.mode == "expectation"
             else [_sample_seed(cfg.seed, position, search.action(c, n))
                   for c, n in zip(which.tolist(), passes.tolist())])
    mu, var, count = propagate_rows(front.mu, front.var, front.count, parents,
                                    search.rows[which], search.effects, seeds)
    utility, trace = price_batch(mu, var, count, search.geometry.area, cfg)
    cost = (front.cost[parents] + search.cost[which] * np.where(which == search.refinement,
                                                                passes, 1) + utility)
    cost[search.unseen[which]] += cfg.w_unk
    score = utility - front.utility[parents] + cfg.w_sigma * (trace - front.trace[parents])
    search.stats.batch_calls += 1
    search.stats.children_priced += len(parents)
    return _Frontier(mu, var, count, None, cost, utility, trace, score)


def _step(search: _Search, front: _Frontier, actions) -> _Frontier:
    # the one row of `front` advanced by each of `actions` in one batch, a
    # child row per action with its prefix kinds
    which = np.array([search.index[bucket_row(action)] for action in actions])
    passes = np.array([action.arg if action.kind == "refinement" else 1 for action in actions])
    child = _advance(search, front, np.zeros(len(actions), dtype=int), which, passes)
    return replace(child, kinds=[front.kinds[0] + (action.kind,) for action in actions])


def _open(search: _Search, front: _Frontier) -> list[int]:
    # the rows whose prefix is below the horizon and does not end in `end`
    if len(front.kinds[0]) >= search.cfg.horizon:
        return []
    return [i for i, kinds in enumerate(front.kinds) if not kinds or kinds[-1] != "end"]


def _level(search: _Search, front: _Frontier, keep: int) -> _Level:
    """The best `keep` feasible children of each open row of a frontier: one propagate, one price.

    Every feasible child is priced, so the level knows each parent's least
    child utility, and ranked: best one-step score first, ties to the lower
    candidate index. The children's kinds are left to `_named`.
    """
    open_rows = _open(search, front)
    search.stats.nodes_expanded += len(open_rows)
    mask = np.zeros((len(front.kinds), len(search.kinds)), dtype=bool)
    for i in open_rows:
        mask[i] = search.feasible(front.kinds[i])
    parents, which = np.nonzero(mask)
    least = np.full(len(front.kinds), math.inf)
    if not len(parents):
        return _Level(front.take(parents), parents, which, least)
    children = _advance(search, front, parents, which, _live(front.count)[parents])
    np.minimum.at(least, parents, children.utility)
    order = np.lexsort((which, children.score, parents))
    grouped = parents[order]
    order = order[np.arange(len(order)) - np.searchsorted(grouped, grouped) < keep]
    return _Level(children.take(order), parents[order], which[order], least)


def _named(search: _Search, front: _Frontier, level: _Level) -> _Level:
    # the level with each row's prefix kinds: its parent's in `front` plus its own
    kinds = [front.kinds[p] + (search.kinds[c],)
             for p, c in zip(level.parents.tolist(), level.which.tolist())]
    return replace(level, rows=replace(level.rows, kinds=kinds))


def _lookahead(search: _Search, front: _Frontier,
               levels: tuple | list[_Level] = ()) -> tuple[np.ndarray, list[_Level]]:
    """Cheapest (accumulated cost + utility) among the leaves of each row's subtree.

    The subtree of each frontier row keeps the best `branching` children of
    each node (as `_level` ranks them) down to cfg.depth levels; a leaf is a
    node at that depth or one without a feasible child. All the subtrees are
    searched together, level by level: each level's nodes, whatever row they
    descend from, are array rows, propagated and priced with all their
    feasible candidates in one batch, and each remembers the row it descends
    from (`origin`).

    `levels` are the first levels of the tree, kept from the previous step
    (`_descend`), or none; only the levels below them are priced, and an
    empty kept level ends the tree where it ends. Returns one value per
    frontier row and the tree's levels, all but the deepest with their kinds.
    """
    depth, levels = search.cfg.depth, list(levels)
    origin = np.arange(len(front.cost))
    best = np.full(len(front.cost), math.inf)
    for d in range(depth):
        if d < len(levels):
            search.stats.nodes_reused += len(_open(search, front))
            level = levels[d]
        else:
            level = _level(search, front, search.cfg.branching)
            if d + 1 < depth:  # its rows are expanded next
                level = _named(search, front, level)
            levels.append(level)
        if not len(level.parents):
            break
        leaf = np.ones(len(front.cost), dtype=bool)
        leaf[level.parents] = False  # a row without a feasible child is a leaf
        np.minimum.at(best, origin[leaf], front.cost[leaf] + front.utility[leaf])
        front, origin = level.rows, origin[level.parents]
    np.minimum.at(best, origin, front.cost + front.utility)
    return best, levels


def _descend(search: _Search, front: _Frontier, levels: list[_Level], i: int) -> list[_Level]:
    """The tree below candidate i, once it is committed as the row `front`.

    `levels` are the lookahead levels below a step's candidates. Each is cut
    to the rows that descend from candidate i, one contiguous range found by
    `searchsorted`, as copies, with the parents renumbered into the cut
    above; the cut of the deepest level gets its kinds. The first cut is
    the committed row's children, the rest are lookahead levels for the
    next step. The cuts end at the first empty one.
    """
    lo, hi, above, cuts = i, i + 1, front, []
    for level in levels:
        a, b = np.searchsorted(level.parents, (lo, hi)).tolist()
        rows = np.arange(a, b)
        cut = _Level(level.rows.take(rows), level.parents[rows] - lo, level.which[rows],
                     level.least[lo:hi].copy())
        if cut.rows.kinds is None:
            cut = _named(search, above, cut)
        cuts.append(cut)
        if a == b:
            break
        lo, hi, above = a, b, cut.rows
    return cuts


def _suffix_step(search: _Search, kind: str, front: _Frontier) -> tuple[_Frontier, Action]:
    # the row advanced by one action of this kind, and the action; a path step
    # prices every listed path in one batch (`_level` keeps a row after end
    # closed) and takes the best-scoring one, ties to the lower index, as
    # `_level` ranks them
    if kind == "path":
        actions = search.actions[:search.cfg.path_count]
    elif kind == "refinement":
        actions = [plan_mod.refinement(int(_live(front.count[0])))]
    else:
        actions = [Action(kind)]
    children = _step(search, front, actions)
    i = int(np.argmin(children.score))
    return children.row(i), actions[i]


def _complete(search: _Search, front: _Frontier, prefix: tuple[Action, ...],
              audit: list) -> tuple[_Frontier, tuple[Action, ...]]:
    """Append `plan.completion`'s suffix, the shortest that satisfies the constraints."""
    kinds = front.kinds[0]
    suffix_kinds = plan_mod.completion(kinds, search.cs, search.cfg.horizon - len(kinds))
    if suffix_kinds is None:
        needed = plan_mod.outstanding(kinds, search.cs)
        why = ("a placed action already breaks a constraint" if needed is None
               else "outstanding: "
               + (", ".join(plan_mod.canonical_kinds(needed)) or "gap relations only"))
        raise SearchError(f"no valid completion within the horizon; {why}")
    for kind in suffix_kinds:
        front, action = _suffix_step(search, kind, front)
        prefix += (action,)
        audit.append({"step": len(prefix), "action": str(action),
                      "mode": "suffix", "cost": float(front.cost[0])})
    return front, prefix


def refine_plan_detailed(initial: SheetState, model: EffectivenessModel,
                         cs: ConstraintSet | None = None,
                         cfg: SearchConfig | None = None,
                         name: str = "refined",
                         stats: SearchStats | None = None) -> tuple[DrapingPlan, list[dict]]:
    """Commit-by-lookahead plan construction; returns the plan and an audit trail.

    The search's work counts accumulate into `stats` when one is given.
    """
    cs = cs if cs is not None else standard_constraints()
    cfg = cfg if cfg is not None else SearchConfig()
    stats = stats if stats is not None else SearchStats()
    if model.is_empty:
        raise SearchError("effectiveness model holds no data")
    if not prefix_feasible((), cs, cfg.horizon):
        raise SearchError("constraints admit no plan at all within the horizon")

    search = _Search(initial, model, cs, cfg, stats)
    front, prefix, levels = search.root, (), []
    audit: list[dict] = []
    while not prefix or prefix[-1].kind != "end":
        if levels:  # the committed row's children, kept from the last step's tree
            stats.nodes_reused += len(_open(search, front))
            level, levels = levels[0], levels[1:]
        else:
            level = _named(search, front, _level(search, front, cfg.branching))
        if not len(level.parents) or front.utility[0] - level.least[0] < cfg.epsilon_conv:
            front, prefix = _complete(search, front, prefix, audit)
            break
        children, which = level.rows, level.which.tolist()
        live = int(_live(front.count[0]))
        actions = [search.action(c, live) for c in which]
        # one lookahead frontier of the best `branching` children
        values, levels = _lookahead(search, children, levels)
        ranked = sorted(zip(values.tolist(), range(len(which))),
                        key=lambda t: (t[0], which[t[1]]))
        value, i = ranked[0]
        front, prefix = children.row(i), prefix + (actions[i],)
        levels = _descend(search, front, levels, i)
        audit.append({"step": len(prefix), "action": str(actions[i]),
                      "score": float(children.score[i]), "lookahead": value,
                      "alternatives": [[str(actions[j]), float(children.score[j]), float(v)]
                                       for v, j in ranked[1:]],
                      "mode": "committed", "cost": float(front.cost[0])})

    if not prefix:
        raise SearchError(f"the search added no action: the constraints require none, and "
                          f"no candidate improves the state utility by epsilon_conv "
                          f"({cfg.epsilon_conv:g}) or more")
    refined = DrapingPlan(actions=prefix, name=name)
    remaining = validate(refined, cs)
    if remaining:
        raise SearchError(f"search produced an invalid plan; binding: {remaining[0]}")
    return refined, audit


def replay_cost(actions, initial: SheetState, model: EffectivenessModel,
                cfg: SearchConfig) -> tuple[float, SheetState]:
    """A plan's accumulated cost and final state, rebuilt from the root.

    Each action adds one child as the search adds it, so a committed step's
    cost equals this replay's bit for bit. An empty plan returns the
    initial state itself.
    """
    actions = tuple(actions)
    if not actions:
        return 0.0, initial
    search = _Search(initial, model, ConstraintSet(), cfg, SearchStats())
    front = search.root
    for action in actions:
        front = _step(search, front, [action])
    return float(front.cost[0]), search.state(front, 0)
