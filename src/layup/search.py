"""Refined-plan generation: constrained tree search over the action space.

The planner commits one action at a time. At each stage it enumerates every
action the constraints still permit, ranks them by their expected one-step
merit under the learned effect model, explores the best `branching`
candidates `depth` levels deep (expectation-mode propagation), and commits
the candidate whose subtree reaches the cheapest leaf. Accumulated cost is
the running sum of action cost plus propagated-state utility (plus a small
penalty per action the model has never seen). The loop stops when an end
action is committed, the horizon is hit, or no single action can improve
the state utility by more than the convergence threshold; the two latter
cases append the shortest constraint-satisfying suffix that
`plan.completion` names.

Nodes hold their `SheetState`, the same array state the estimator builds
and the learner differences. A node's feasible children are propagated
together by `propagate_batch`, as one batch of states, and priced together
by `price_batch`; each child keeps its row of the batch. `state_utility`
prices a batch of one, and `replay_cost` rebuilds a plan's nodes the same
way, so its cost is the search's.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import plan as plan_mod
from .effectiveness import EffectivenessModel, propagate_batch
from .jsonio import config_from_json, read_json
from .plan import (ACTION_KINDS, Action, ConstraintSet, DrapingPlan, PATH_COUNT_DEFAULT,
                   next_kinds, prefix_feasible, standard_constraints, validate)
from .sheet_state import SheetState

_KIND_ORDER = {"peel": 1, "capture": 2, "refinement": 3, "end": 4}


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
    traces = np.trace(states.sigma, axis1=-2, axis2=-1)  # (A, k, 2)
    sector_trace = traces[..., 0] + traces[..., 1]
    h = states.mu[..., 2]
    terms = np.stack([cfg.w_h * np.where(h > 0.0, h, 0.0),
                      cfg.w_area * states.mu[..., 3] * states.mu[..., 4],
                      cfg.w_sigma * sector_trace], axis=-1)
    terms = np.where((states.count != 0)[..., None], terms, 0.0)  # sentinels add nothing
    utility = _running_sum(terms.reshape(len(terms), -1)) / states.geometry.area
    return utility, _running_sum(sector_trace)


def _price(state: SheetState, cfg: SearchConfig) -> tuple[float, float]:
    # price_batch of a batch of one
    batch = SheetState(state.geometry, state.mu[None], state.sigma[None], state.count[None],
                       state.t)
    (utility,), (trace,) = price_batch(batch, cfg)
    return float(utility), float(trace)


def state_utility(state: SheetState, cfg: SearchConfig) -> float:
    """Residual-uncompaction price of a state, as `price_batch` prices it; lower is better."""
    return _price(state, cfg)[0]


@dataclass
class SearchStats:
    """Work counts of one search; deterministic for given inputs."""

    nodes_expanded: int = 0   # non-terminal nodes below the horizon whose children were listed
    children_priced: int = 0  # child states propagated and priced
    batch_calls: int = 0      # propagate_batch calls


@dataclass
class SearchNode:
    state: SheetState
    prefix: tuple[Action, ...]
    cost: float       # sum over the prefix of action cost + utility (+ unmodeled penalty)
    utility: float    # state_utility of the state
    trace: float      # summed covariance diagonals of the state
    stats: SearchStats  # shared by every node of a search
    score: float = 0.0  # one-step merit of the last action from the parent state

    @property
    def terminal(self) -> bool:
        return bool(self.prefix) and self.prefix[-1].kind == "end"


def root_node(state: SheetState, cfg: SearchConfig,
              stats: SearchStats | None = None) -> SearchNode:
    """The empty-prefix node the search starts from; its children count into `stats`."""
    utility, trace = _price(state, cfg)
    return SearchNode(state=state, prefix=(), cost=0.0, utility=utility, trace=trace,
                      stats=stats if stats is not None else SearchStats())


def _action_order(action: Action) -> tuple[int, int]:
    if action.kind == "path":
        return (0, action.arg)
    return (_KIND_ORDER[action.kind], 0)


def _sample_seed(cfg: SearchConfig, position: int, action: Action) -> int:
    return zlib.crc32(f"{cfg.seed}|{position}|{action}".encode())


def _priced(node: SearchNode, actions: list[Action], model: EffectivenessModel,
            cfg: SearchConfig) -> list[SearchNode]:
    """Propagate each action from the node and price the new states, in one batch."""
    if not actions:
        return []
    position = len(node.prefix) + 1
    seeds = (None if cfg.mode == "expectation"
             else [_sample_seed(cfg, position, action) for action in actions])
    after = propagate_batch(node.state, actions, model, seeds)
    utilities, traces = price_batch(after, cfg)
    node.stats.batch_calls += 1
    node.stats.children_priced += len(actions)
    children = []
    for i, (action, utility, trace) in enumerate(zip(actions, utilities.tolist(),
                                                     traces.tolist())):
        cost = node.cost + action_cost(action, cfg) + utility
        if not model.covers(action):
            cost += cfg.w_unk
        children.append(SearchNode(
            state=SheetState(after.geometry, after.mu[i], after.sigma[i], after.count[i],
                             after.t),
            prefix=node.prefix + (action,), cost=cost, utility=utility, trace=trace,
            stats=node.stats,
            score=utility - node.utility + cfg.w_sigma * (trace - node.trace)))
    return children


def _child(node: SearchNode, action: Action, model: EffectivenessModel,
           cfg: SearchConfig) -> SearchNode:
    return _priced(node, [action], model, cfg)[0]


def effectiveness_score(action: Action, state: SheetState,
                        model: EffectivenessModel, cfg: SearchConfig) -> float:
    """Expected one-step merit of an action; lower is better.

    Utility change of the propagated state (propagated as the search does,
    in cfg.mode) plus a weighted uncertainty term: the summed change of the
    covariance diagonals, scaled by cfg.w_sigma.
    """
    return _child(root_node(state, cfg), action, model, cfg).score


def _refinement_action(state: SheetState) -> Action:
    return plan_mod.refinement(max(1, int(np.count_nonzero(state.count))))


def _candidate_actions(state: SheetState, cfg: SearchConfig) -> list[Action]:
    acts = [plan_mod.path(i) for i in range(1, cfg.path_count + 1)]
    acts += [plan_mod.peel(), plan_mod.capture(), _refinement_action(state), plan_mod.end()]
    return acts


def _children(node: SearchNode, model, cs, cfg) -> list[SearchNode]:
    # every feasible child, best one-step score first
    if node.terminal or len(node.prefix) >= cfg.horizon:
        return []
    feasible = next_kinds(tuple(a.kind for a in node.prefix), cs, cfg.horizon)
    node.stats.nodes_expanded += 1
    out = _priced(node, [action for action in _candidate_actions(node.state, cfg)
                         if action.kind in feasible], model, cfg)
    out.sort(key=lambda c: (c.score, _action_order(c.prefix[-1])))
    return out


def expand(node: SearchNode, model: EffectivenessModel, cs: ConstraintSet,
           cfg: SearchConfig) -> list[SearchNode]:
    """The best `branching` feasible children, ranked by expected merit.

    Ties break on action order: ascending path index, then peel, capture,
    refinement, end. Terminal nodes (ending in `end`, or at the horizon)
    expand to nothing.
    """
    return _children(node, model, cs, cfg)[:cfg.branching]


def lookahead_value(node: SearchNode, model: EffectivenessModel, cs: ConstraintSet,
                    cfg: SearchConfig, depth: int | None = None) -> float:
    """Cheapest (accumulated cost + utility) among the subtree's leaves."""
    if depth is None:
        depth = cfg.depth
    children = expand(node, model, cs, cfg) if depth > 0 else []
    if not children:
        return node.cost + node.utility
    return min(lookahead_value(c, model, cs, cfg, depth - 1) for c in children)


def _suffix_child(kind: str, node: SearchNode, model, cs, cfg) -> SearchNode:
    if kind == "path":
        # the best-scoring feasible path, path 1 when none is feasible
        for child in _children(node, model, cs, cfg):
            if child.prefix[-1].kind == "path":
                return child
        return _child(node, plan_mod.path(1), model, cfg)
    if kind == "refinement":
        return _child(node, _refinement_action(node.state), model, cfg)
    return _child(node, Action(kind), model, cfg)


def _complete(node: SearchNode, model, cs, cfg, audit: list) -> SearchNode:
    """Append `plan.completion`'s suffix, the shortest that satisfies the constraints."""
    kinds = tuple(a.kind for a in node.prefix)
    suffix_kinds = plan_mod.completion(kinds, cs, cfg.horizon - len(kinds))
    if suffix_kinds is None:
        needed = plan_mod.outstanding(kinds, cs)
        why = ("a placed action already breaks a constraint" if needed is None
               else "outstanding: "
               + (", ".join(plan_mod.canonical_kinds(needed)) or "gap relations only"))
        raise SearchError(f"no valid completion within the horizon; {why}")
    for kind in suffix_kinds:
        node = _suffix_child(kind, node, model, cs, cfg)
        audit.append({"step": len(node.prefix), "action": str(node.prefix[-1]),
                      "mode": "suffix", "cost": node.cost})
    return node


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
    if model.is_empty:
        raise SearchError("effectiveness model holds no data")
    if not prefix_feasible((), cs, cfg.horizon):
        raise SearchError("constraints admit no plan at all within the horizon")

    node = root_node(initial, cfg, stats)
    audit: list[dict] = []
    while not node.terminal:
        children = _children(node, model, cs, cfg)
        if not children or max(node.utility - c.utility for c in children) < cfg.epsilon_conv:
            node = _complete(node, model, cs, cfg, audit)
            break
        top = children[:cfg.branching]
        values = [lookahead_value(ch, model, cs, cfg) for ch in top]
        ranked = sorted(zip(values, top), key=lambda t: (t[0], _action_order(t[1].prefix[-1])))
        value, node = ranked[0]
        audit.append({"step": len(node.prefix), "action": str(node.prefix[-1]),
                      "score": node.score, "lookahead": value,
                      "alternatives": [[str(c.prefix[-1]), c.score, float(v)]
                                       for v, c in ranked[1:]],
                      "mode": "committed", "cost": node.cost})

    refined = DrapingPlan(actions=node.prefix, name=name)
    remaining = validate(refined, cs)
    if remaining:
        raise SearchError(f"search produced an invalid plan; binding: {remaining[0]}")
    return refined, audit


def refine_plan(initial: SheetState, model: EffectivenessModel,
                cs: ConstraintSet | None = None, cfg: SearchConfig | None = None,
                name: str = "refined") -> DrapingPlan:
    return refine_plan_detailed(initial, model, cs, cfg, name)[0]


def replay_cost(actions, initial: SheetState, model: EffectivenessModel,
                cfg: SearchConfig) -> tuple[float, SheetState]:
    """A plan's accumulated cost and final state, rebuilt from the root node.

    Each action adds one child as the search adds it, so a committed node's
    cost equals this replay's bit for bit.
    """
    node = root_node(initial, cfg)
    for action in actions:
        node = _child(node, action, model, cfg)
    return node.cost, node.state
