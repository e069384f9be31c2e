"""Refined-plan generation: constrained tree search over the action space.

The planner commits one action at a time. At each stage it enumerates every
action the constraints still permit, ranks them by their expected one-step
merit under the learned effect model, explores the best `branching`
candidates `depth` levels deep (propagated in cfg.mode), and commits the
candidate whose subtree reaches the cheapest leaf. Accumulated cost is the
running sum of action cost plus propagated-state utility (plus a small
penalty per action the model has never seen). The loop stops when an end
action is committed, the horizon is hit, or no single action can improve
the state utility by more than the convergence threshold; the two latter
cases append the shortest constraint-satisfying suffix that
`plan.completion` names.

The lookahead goes level by level, not node by node. One depth level of the
subtrees below a stage's candidates is a frontier of array rows: a batch of
`SheetState`s with each row's cost, utility, covariance trace and prefix
kinds. All (row, feasible candidate) pairs of a level are propagated in one
call and priced in one `price_batch` call; action costs, the unmodeled
penalty and the one-step scores are array expressions, and a stable
`np.lexsort` on (row, score, candidate index) ranks each row's children, of
which the first `branching` form the next level. A row without a feasible
child, and every row of the last level, is a leaf; a candidate's lookahead
value is the least cost plus utility of the leaves below it. The rows of a
level share their prefix length, so a sampled-mode draw is seeded by
(position, action) for every row alike.

A frontier's rows hold only the sectors live in the root state: the search
takes them from the root once and keeps them to the end. A sector with no
regions is never moved: propagation zeroes it, it stays zero, it adds
exactly +0.0 to the priced sums and it draws no sampled-mode noise, so
leaving it out changes no result, and a sector that dies on the way stays
in the rows as zeros. The effect table is cut to the kept sectors once per
search (`EffectTable.cut`). The root's own utility and trace are
priced on its whole state, stale sectors (no regions, nonzero moments)
included.

The committed path is one frontier row and the tuple of its actions. Each
stage lists the row's children as one level and looks ahead from the best
`branching` of them as one frontier: their subtrees share one batch per
depth level, each node tracking the child it descends from, and the
stage keeps the committed child's row. The completion suffix advances the
row one action at a time, a path step pricing every path in one batch.
`replay_cost` advances one root row through a plan by the same step, so its
cost is the search's, and scatters the row back into all k sectors once, for
the final state.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import plan as plan_mod
from .effectiveness import (EffectivenessModel, EffectTable, bucket_row, effect_table,
                            propagate_rows)
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
    w_sigma: float = 0.002    # ... on covariance traces (a gentle tiebreaker)
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


def action_cost(action: Action, cfg: SearchConfig) -> float:
    base = cfg.action_costs[action.kind]
    if action.kind == "refinement":
        return base * action.arg
    return base


def _running_sum(terms: np.ndarray) -> np.ndarray:
    # row sums added left to right from 0.0, one term at a time; np.sum
    # adds pairwise for eight or more terms, which can change the last bit
    total = np.zeros(terms.shape[0])
    for column in terms.T:
        total += column
    return total


def price_batch(states: SheetState, cfg: SearchConfig) -> tuple[np.ndarray, np.ndarray]:
    """Utility and summed covariance diagonals of each state of a batch.

    `states` carries a leading batch axis. A state's utility is its
    residual-uncompaction price normalized by sheet area (lower is better):
    per live sector, w_h times the clamped mean height, w_area times the
    ellipse area (major * minor) and w_sigma times the covariance traces,
    added sector by sector in that order. The trace total sums both
    covariance traces of every sector, sentinels included.
    """
    sigma = states.sigma
    # the diagonal summed in np.trace's order, without its per-call overhead
    traces = (sigma[..., 0, 0] + sigma[..., 1, 1]) + sigma[..., 2, 2]  # (A, k, 2)
    sector_trace = traces[..., 0] + traces[..., 1]
    h = states.mu[..., 2]
    terms = np.stack([cfg.w_h * np.where(h > 0.0, h, 0.0),
                      cfg.w_area * states.mu[..., 3] * states.mu[..., 4],
                      cfg.w_sigma * sector_trace], axis=-1)
    terms = np.where((states.count != 0)[..., None], terms, 0.0)  # sentinels add nothing
    utility = _running_sum(terms.reshape(len(terms), -1)) / states.geometry.area
    return utility, _running_sum(sector_trace)


@dataclass
class SearchStats:
    """Work counts of one search; deterministic for given inputs."""

    nodes_expanded: int = 0   # non-terminal nodes below the horizon whose children were listed
    children_priced: int = 0  # child states propagated and priced
    batch_calls: int = 0      # one per propagated level or single step


@dataclass(frozen=True)
class _Frontier:
    """Search nodes as array rows: a level of a subtree, or the committed path's row.

    Row i holds one node's state, its accumulated cost (action costs plus
    utilities, plus the unmodeled penalty), its utility, its summed
    covariance diagonals, the one-step score of its last action and its
    prefix as kinds. The rows of a level share the prefix length, and with
    it the position that seeds a sampled-mode draw. The states hold only
    the sectors `live` marks, those live in the root state; every other
    sector is a sentinel in every row, as propagation leaves it.
    """

    states: SheetState         # a batch of N states over the sectors `live` marks
    live: np.ndarray           # (k,) bool
    kinds: list | None         # N tuples of prefix kinds; None until the rows are ranked
    cost: np.ndarray           # (N,)
    utility: np.ndarray        # (N,)
    trace: np.ndarray          # (N,)
    score: np.ndarray          # (N,)

    @classmethod
    def root(cls, state: SheetState, cfg: SearchConfig) -> "_Frontier":
        # the root's utility and trace, priced on its whole state, count its
        # stale sectors (no regions, nonzero moments); its descendants' do not
        s, live = state, state.count != 0
        utility, trace = price_batch(SheetState(s.geometry, s.mu[None], s.sigma[None],
                                                s.count[None], s.t), cfg)
        return cls(SheetState(s.geometry, s.mu[None, live], s.sigma[None, live],
                              s.count[None, live], s.t),
                   live, [()], np.zeros(1), utility, trace, np.zeros(1))

    def take(self, rows, kinds=None) -> "_Frontier":
        s = self.states
        return _Frontier(SheetState(s.geometry, s.mu[rows], s.sigma[rows], s.count[rows], s.t),
                         self.live, kinds, self.cost[rows], self.utility[rows], self.trace[rows],
                         self.score[rows])

    def row(self, i: int) -> "_Frontier":
        return self.take([i], [self.kinds[i]])

    def state(self, i: int) -> SheetState:
        # row i scattered back into all k sectors, sentinels where `live` is False
        s, live = self.states, self.live
        mu, sigma = np.zeros(live.shape + (6,)), np.zeros(live.shape + (2, 3, 3))
        count = np.zeros(live.shape, dtype=s.count.dtype)
        mu[live], sigma[live], count[live] = s.mu[i], s.sigma[i], s.count[i]
        return SheetState(s.geometry, mu, sigma, count, s.t)


def _sample_seed(cfg: SearchConfig, position: int, action: Action) -> int:
    return zlib.crc32(f"{cfg.seed}|{position}|{action}".encode())


def _live(count: np.ndarray):
    # a refinement block's pass count: the live sectors of a state (or of each row), at least 1
    return np.maximum(1, np.count_nonzero(count, axis=-1))


class _Candidates:
    """Every node's candidate actions, mapped to their `bucket_row`s once per search.

    A candidate's index is its tie-break rank: paths 1..path_count, peel,
    capture, refinement, end. The refinement candidate's argument is the
    node's live sector count (`action`); its table row, its coverage and its
    cost per pass do not depend on it. `table` is cut to the sectors live in
    the root state, those every frontier of the search holds. Raises
    ValueError when the state's sector count is not the model's.
    """

    def __init__(self, state: SheetState, model: EffectivenessModel, cs: ConstraintSet,
                 cfg: SearchConfig):
        self.table = effect_table(state, model).cut(state.count != 0)
        self.cs = cs
        self.horizon = cfg.horizon
        self.actions = ([plan_mod.path(i) for i in range(1, cfg.path_count + 1)]
                        + [plan_mod.peel(), plan_mod.capture(), plan_mod.refinement(1),
                           plan_mod.end()])
        self.refinement = cfg.path_count + 2
        self.kinds = [a.kind for a in self.actions]
        self.rows = np.array([bucket_row(a) for a in self.actions])
        self.cost = np.array([cfg.action_costs[kind] for kind in self.kinds], dtype=float)
        self.unseen = ~self.table.covers[self.rows]
        self._feasible: dict[tuple[str, ...], np.ndarray] = {}

    def action(self, i: int, live: int) -> Action:
        return plan_mod.refinement(live) if i == self.refinement else self.actions[i]

    def feasible(self, kinds: tuple[str, ...]) -> np.ndarray:
        """Which candidates may follow a prefix of these kinds, as a bool row.

        `end` is terminal, so it may follow only a prefix that it completes:
        the prefix plus `end` must already satisfy every constraint.
        """
        mask = self._feasible.get(kinds)
        if mask is None:
            allowed = next_kinds(kinds, self.cs, self.horizon)
            if "end" in allowed and plan_mod.outstanding(kinds + ("end",), self.cs) != {}:
                allowed = allowed - {"end"}
            mask = self._feasible[kinds] = np.array([k in allowed for k in self.kinds])
        return mask


def _advance(front: _Frontier, parents: np.ndarray, rows, costs, unseen, seeds,
             table: EffectTable, cfg: SearchConfig, stats: SearchStats) -> _Frontier:
    """Row `parents[i]` advanced by table row `rows[i]`: one propagate and one price.

    A child's cost is its parent's plus its action cost `costs[i]` and its
    utility, plus cfg.w_unk where `unseen[i]` (the model never saw the
    action). Its score is the one-step merit of the action, lower is better:
    the change of utility from the parent plus cfg.w_sigma times the change
    of the summed covariance diagonals.
    """
    after = propagate_rows(front.states, rows, table, seeds, parents)
    utility, trace = price_batch(after, cfg)
    cost = front.cost[parents] + costs + utility
    cost[unseen] += cfg.w_unk
    score = utility - front.utility[parents] + cfg.w_sigma * (trace - front.trace[parents])
    stats.batch_calls += 1
    stats.children_priced += len(parents)
    return _Frontier(after, front.live, None, cost, utility, trace, score)


def _step(front: _Frontier, actions, table: EffectTable, cfg: SearchConfig,
          stats: SearchStats) -> _Frontier:
    # the one row of `front` advanced by each of `actions` in one batch, a
    # child row per action with its prefix kinds; `table` is cut to the
    # frontier's live sectors
    position = len(front.kinds[0]) + 1
    rows = [bucket_row(action) for action in actions]
    seeds = (None if cfg.mode == "expectation"
             else [_sample_seed(cfg, position, action) for action in actions])
    child = _advance(front, np.zeros(len(rows), dtype=int), rows,
                     np.array([action_cost(action, cfg) for action in actions]),
                     ~table.covers[rows], seeds, table, cfg, stats)
    return replace(child, kinds=[front.kinds[0] + (action.kind,) for action in actions])


def _level(front: _Frontier, cands: _Candidates, cfg: SearchConfig, stats: SearchStats,
           keep: int | None = None) -> tuple[_Frontier, np.ndarray, np.ndarray] | None:
    """Every feasible child of every open row of a frontier: one propagate, one price.

    A row is open when its prefix is below the horizon and does not end in
    `end`. The children come grouped by parent row, in frontier order, each
    group best one-step score first, ties to the lower candidate index; with
    `keep`, only the first `keep` of each group. Returns the children, each
    child's parent row and each child's candidate index, or None when no row
    has a feasible child.
    """
    position = len(front.kinds[0]) + 1
    open_rows = ([i for i, kinds in enumerate(front.kinds) if not kinds or kinds[-1] != "end"]
                 if position <= cfg.horizon else [])
    stats.nodes_expanded += len(open_rows)
    mask = np.zeros((len(front.kinds), len(cands.kinds)), dtype=bool)
    for i in open_rows:
        mask[i] = cands.feasible(front.kinds[i])
    parents, which = np.nonzero(mask)
    if not len(parents):
        return None
    live = _live(front.states.count)[parents]
    seeds = (None if cfg.mode == "expectation"
             else [_sample_seed(cfg, position, cands.action(c, n))
                   for c, n in zip(which.tolist(), live.tolist())])
    costs = cands.cost[which] * np.where(which == cands.refinement, live, 1)
    children = _advance(front, parents, cands.rows[which], costs, cands.unseen[which], seeds,
                        cands.table, cfg, stats)
    order = np.lexsort((which, children.score, parents))
    if keep is not None:
        grouped = parents[order]
        order = order[np.arange(len(order)) - np.searchsorted(grouped, grouped) < keep]
    parents, which = parents[order], which[order]
    kinds = [front.kinds[p] + (cands.kinds[c],) for p, c in zip(parents.tolist(), which.tolist())]
    return children.take(order, kinds), parents, which


def _lookahead(front: _Frontier, cands: _Candidates, cfg: SearchConfig, depth: int,
               stats: SearchStats) -> np.ndarray:
    """Cheapest (accumulated cost + utility) among the leaves of each row's subtree.

    The subtree of each frontier row keeps the best `branching` children of
    each node (as `_level` ranks them) down to `depth` levels; a leaf is a
    node at that depth or one without a feasible child. All the subtrees are
    searched together, level by level: each level's nodes, whatever row they
    descend from, are array rows, propagated and priced with all their
    feasible candidates in one batch, and each remembers the row it descends
    from (`origin`). Returns one value per frontier row.
    """
    origin = np.arange(len(front.cost))
    best = np.full(len(front.cost), math.inf)
    for _ in range(depth):
        level = _level(front, cands, cfg, stats, keep=cfg.branching)
        if level is None:
            break
        children, parents, _ = level
        leaf = np.ones(len(front.cost), dtype=bool)
        leaf[parents] = False  # a row without a feasible child is a leaf
        np.minimum.at(best, origin[leaf], front.cost[leaf] + front.utility[leaf])
        front, origin = children, origin[parents]
    np.minimum.at(best, origin, front.cost + front.utility)
    return best


def _suffix_step(kind: str, front: _Frontier, cands: _Candidates, cfg: SearchConfig,
                 stats: SearchStats) -> tuple[_Frontier, Action]:
    # the row advanced by one action of this kind, and the action; a path step
    # prices every path in one batch (`_level` keeps a row after end closed)
    # and takes the best-scoring one, ties to the lower index, as `_level` ranks them
    if kind == "path":
        actions = cands.actions[:cfg.path_count]
    elif kind == "refinement":
        actions = [plan_mod.refinement(int(_live(front.states.count[0])))]
    else:
        actions = [Action(kind)]
    children = _step(front, actions, cands.table, cfg, stats)
    i = int(np.argmin(children.score))
    return children.row(i), actions[i]


def _complete(front: _Frontier, prefix: tuple[Action, ...], cands: _Candidates,
              cfg: SearchConfig, stats: SearchStats,
              audit: list) -> tuple[_Frontier, tuple[Action, ...]]:
    """Append `plan.completion`'s suffix, the shortest that satisfies the constraints."""
    kinds = front.kinds[0]
    suffix_kinds = plan_mod.completion(kinds, cands.cs, cfg.horizon - len(kinds))
    if suffix_kinds is None:
        needed = plan_mod.outstanding(kinds, cands.cs)
        why = ("a placed action already breaks a constraint" if needed is None
               else "outstanding: "
               + (", ".join(plan_mod.canonical_kinds(needed)) or "gap relations only"))
        raise SearchError(f"no valid completion within the horizon; {why}")
    for kind in suffix_kinds:
        front, action = _suffix_step(kind, front, cands, cfg, stats)
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

    front, prefix = _Frontier.root(initial, cfg), ()
    cands = _Candidates(initial, model, cs, cfg)
    audit: list[dict] = []
    while not prefix or prefix[-1].kind != "end":
        level = _level(front, cands, cfg, stats)
        if level is None or (front.utility[0] - level[0].utility).max() < cfg.epsilon_conv:
            front, prefix = _complete(front, prefix, cands, cfg, stats, audit)
            break
        children, _, which = level
        which = which.tolist()
        live = int(_live(front.states.count[0]))
        actions = [cands.action(c, live) for c in which]
        # one lookahead frontier of the best `branching` children
        top = range(min(cfg.branching, len(actions)))
        values = _lookahead(children.take(top, children.kinds[:len(top)]), cands, cfg,
                            cfg.depth, stats).tolist()
        ranked = sorted(zip(values, top), key=lambda t: (t[0], which[t[1]]))
        value, i = ranked[0]
        front, prefix = children.row(i), prefix + (actions[i],)
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
    cost equals this replay's bit for bit.
    """
    actions = tuple(actions)
    if not actions:
        return 0.0, initial
    table = effect_table(initial, model).cut(initial.count != 0)
    front, stats = _Frontier.root(initial, cfg), SearchStats()
    for action in actions:
        front = _step(front, [action], table, cfg, stats)
    return float(front.cost[0]), front.state(0)
