import itertools
import math

import numpy as np
import pytest

from layup.effectiveness import EffectivenessModel, compute_signs
from layup.geometry import ROLLER_HALF_WIDTH_DEFAULT
from layup.plan import (AbsConstraint, ConstraintSet, RelConstraint, capture,
                        end, path, peel, refinement, standard_constraints,
                        validate)
from layup.search import (SearchConfig, SearchError, _default_costs, refine_plan_detailed,
                          replay_cost)
from layup.simulator import generate_refinement_paths

from conftest import children, lookahead, make_state, model_of, propagate_one, utility_of


def gauss(sector, h, a, b, theta=0.2):
    return np.array([10.0 * sector, 5.0, h, a, b, theta]), np.eye(3), 1


def two_sector_state(geom, h1=3.0, h2=2.0):
    return make_state(geom, {1: gauss(1, h1, 20.0, 10.0), 2: gauss(2, h2, 15.0, 8.0)})


def zero_signs():
    s = np.zeros((2, 3, 3))
    return compute_signs(s, s)


def model_from_deltas(deltas_by_key, k=2):
    """deltas_by_key: {(action, sector): (6,) or (n, 6) array-like, a sample per row}"""
    model = model_of(k, [(act, sector, delta, zero_signs())
                         for (act, sector), deltas in deltas_by_key.items()
                         for delta in np.reshape(np.asarray(deltas, dtype=float), (-1, 6))])
    model.experiments = 1
    return model


SMALL_CS = ConstraintSet(
    rel=(RelConstraint("end", "path", ">", 0),),
    abs=(AbsConstraint("end", ">", 0),
         AbsConstraint("peel", "<", 1),
         AbsConstraint("capture", "<", 1),
         AbsConstraint("refinement", "<", 1)),
)


def small_cfg(**over):
    base = dict(branching=10**6, depth=5, horizon=5, path_count=4,
                w_h=500.0, w_area=2.0, w_sigma=0.0, w_unk=0.5,
                epsilon_conv=-math.inf)
    base.update(over)
    return SearchConfig(**base)


def refine(state, model, cs, cfg):
    return refine_plan_detailed(state, model, cs, cfg)[0]


def random_small_model(rng, k=2, n_paths=4):
    return model_from_deltas(random_small_deltas(rng, k, n_paths), k=k)


def random_small_deltas(rng, k=2, n_paths=4):
    deltas = {}
    for i in range(1, n_paths + 1):
        for s in range(1, k + 1):
            d = np.zeros(6)
            d[2] = -abs(rng.normal(0.6, 0.5))       # height relief
            d[3] = -abs(rng.normal(0.4, 0.4))       # and some shrink
            d[4] = -abs(rng.normal(0.2, 0.2))
            deltas[(path(i), s)] = d
    for s in range(1, k + 1):
        deltas[(end(), s)] = np.zeros(6)
    return deltas


def brute_force_minimum(state, model, cs, cfg):
    """Exhaustive minimum of accumulated cost + terminal utility over all
    constraint-satisfying plans that stop at their end action."""
    best = math.inf
    kinds = [path(i) for i in range(1, cfg.path_count + 1)]
    for n_paths in range(0, cfg.horizon):
        for combo in itertools.product(kinds, repeat=n_paths):
            actions = list(combo) + [end()]
            if len(actions) > cfg.horizon:
                continue
            from layup.plan import DrapingPlan
            if validate(DrapingPlan(tuple(actions), "c"), cs):
                continue
            cost, final = replay_cost(actions, state, model, cfg)
            best = min(best, cost + utility_of(final, cfg))
    return best


class TestSearchConfigIO:
    def test_json_round_trip(self):
        cfg = SearchConfig(branching=3, depth=2, epsilon_conv=0.7, seed=9)
        assert SearchConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("over", [{"path_count": 0}, {"path_count": 17},
                                      {"action_costs": {"path": 1.0}},
                                      {"action_costs": {**_default_costs(), "end": True}},
                                      {"mode": "montecarlo"}, {"branching": 0}, {"depth": -1},
                                      {"horizon": 0}, {"w_h": -1.0}],
                             ids=["no-paths", "17-paths", "one-cost", "bool-cost",
                                  "unknown-mode", "no-branching", "negative-depth",
                                  "no-horizon", "negative-weight"])
    def test_rejects_bad_values(self, over):
        with pytest.raises(ValueError):
            SearchConfig(**over)


class TestActionCost:
    # a one-action plan on an all-sentinel state: every state there has
    # utility 0 and w_unk is 0, so the replayed cost is the action's own
    @staticmethod
    def cost(action, geom, **over) -> float:
        model = model_from_deltas({(path(1), 1): np.zeros(6)})
        return replay_cost([action], make_state(geom), model, SearchConfig(w_unk=0.0, **over))[0]

    def test_defaults(self, two_sector_geom):
        assert self.cost(path(3), two_sector_geom) == 1.0
        assert self.cost(refinement(6), two_sector_geom) == 6.0
        assert self.cost(peel(), two_sector_geom) == 0.2
        assert self.cost(capture(), two_sector_geom) == 0.2
        assert self.cost(end(), two_sector_geom) == 0.0

    def test_override(self, two_sector_geom):
        costs = {"path": 2.0, "peel": 0.1, "capture": 0.1, "end": 0.0, "refinement": 0.5}
        assert self.cost(path(1), two_sector_geom, action_costs=costs) == 2.0
        assert self.cost(refinement(4), two_sector_geom, action_costs=costs) == 2.0


class TestStateUtility:
    def test_all_sentinel_is_zero(self, two_sector_geom):
        state = make_state(two_sector_geom)
        assert utility_of(state, SearchConfig()) == 0.0

    def test_height_linearity(self, two_sector_geom):
        cfg = SearchConfig(w_h=100.0, w_area=0.0, w_sigma=0.0)
        s1 = two_sector_state(two_sector_geom, h1=2.0, h2=0.0)
        s2 = two_sector_state(two_sector_geom, h1=4.0, h2=0.0)
        assert utility_of(s2, cfg) == pytest.approx(2 * utility_of(s1, cfg) - 100.0 * 0.0)

    def test_manual_arithmetic(self, two_sector_geom):
        cfg = SearchConfig(w_h=10.0, w_area=2.0, w_sigma=1.0)
        state = two_sector_state(two_sector_geom, h1=3.0, h2=2.0)
        expected = (10 * 3 + 2 * 20 * 10 + 1 * 6.0
                    + 10 * 2 + 2 * 15 * 8 + 1 * 6.0) / two_sector_geom.area
        assert utility_of(state, cfg) == pytest.approx(expected, abs=1e-12)


class TestExpand:
    def test_fresh_state_yields_path_children(self, two_sector_geom):
        state = two_sector_state(two_sector_geom)
        model = random_small_model(np.random.default_rng(0))
        cfg = small_cfg(branching=4, horizon=8)
        best = children(state, model, standard_constraints(), cfg)[:cfg.branching]
        assert len(best) == 4
        assert all(c.action.kind == "path" for c in best)

    def test_capture_count_pruning(self, two_sector_geom):
        state = two_sector_state(two_sector_geom)
        model = random_small_model(np.random.default_rng(1))
        cfg = small_cfg(branching=30, horizon=8)
        best = children(state, model, standard_constraints(), cfg,
                        prefix=(path(1), capture()))[:cfg.branching]
        assert best  # something is feasible
        assert all(c.action.kind != "capture" for c in best)

    def test_tie_breaks_on_lower_path_index(self, two_sector_geom):
        state = two_sector_state(two_sector_geom)
        deltas = {}
        for i in (1, 2, 3, 4):
            for s in (1, 2):
                deltas[(path(i), s)] = np.array([0, 0, -1.0, 0, 0, 0.0])
        model = model_from_deltas(deltas)
        cfg = small_cfg(branching=2, horizon=8)
        best = children(state, model, SMALL_CS, cfg)[:cfg.branching]
        assert [c.action.arg for c in best] == [1, 2]

    def test_children_keep_every_sector(self, two_sector_geom):
        # the search propagates only the live sector 1; its children still hold
        # both sectors, the stale sector 2 zeroed as propagation zeroes it
        state = make_state(two_sector_geom, {1: gauss(1, 3.0, 20.0, 10.0),
                                             2: (gauss(2, 2.0, 15.0, 8.0)[0], np.eye(3), 0)})
        model = random_small_model(np.random.default_rng(4))
        cfg = small_cfg(branching=4, horizon=8)
        best = children(state, model, standard_constraints(), cfg)[:cfg.branching]
        assert best
        for child in best:
            want = propagate_one(state, child.action, model)
            assert child.state.mu.tobytes() == want.mu.tobytes()
            assert child.state.sigma.tobytes() == want.sigma.tobytes()
            assert child.state.count.tobytes() == want.count.tobytes()
            assert child.state.count.tolist() == [1, 0]
        cost, final = replay_cost([path(1), path(2)], state, model, cfg)
        assert final.mu.shape == (2, 6) and final.sigma.shape == (2, 2, 3, 3)
        assert final.count.tolist() == [1, 0]


class TestLookahead:
    def test_depth_zero_is_cost_plus_utility(self, two_sector_geom):
        state = two_sector_state(two_sector_geom)
        model = random_small_model(np.random.default_rng(2))
        cfg = small_cfg()
        got = lookahead(state, model, SMALL_CS, cfg, depth=0, prefix=(path(1),), cost=3.5)
        assert got == pytest.approx(3.5 + utility_of(state, cfg), abs=1e-12)

    def test_single_zero_delta_action_adds_its_cost(self, two_sector_geom):
        # all-sentinel state (utility 0) and constraints that admit only
        # path(1): one level of lookahead prices exactly that action
        state = make_state(two_sector_geom)
        model = model_from_deltas({(path(1), 1): np.zeros(6),
                                   (path(1), 2): np.zeros(6)})
        cs = ConstraintSet(abs=(AbsConstraint("peel", "<", 1),
                                AbsConstraint("capture", "<", 1),
                                AbsConstraint("refinement", "<", 1),
                                AbsConstraint("end", "<", 1)))
        cfg = small_cfg(path_count=1, horizon=6)
        base = lookahead(state, model, cs, cfg, depth=0)
        assert lookahead(state, model, cs, cfg, depth=1) == pytest.approx(base + 1.0, abs=1e-12)

    def test_full_depth_lookahead_equals_exhaustive_minimum(self, two_sector_geom):
        state = two_sector_state(two_sector_geom)
        rng = np.random.default_rng(21)
        for trial in range(3):
            model = random_small_model(rng)
            cfg = small_cfg()
            got = lookahead(state, model, SMALL_CS, cfg, depth=cfg.horizon)
            want = brute_force_minimum(state, model, SMALL_CS, cfg)
            assert got == pytest.approx(want, abs=1e-9)

    def test_branching_monotonicity(self, two_sector_geom):
        state = two_sector_state(two_sector_geom)
        rng = np.random.default_rng(3)
        for trial in range(5):
            model = random_small_model(rng)
            values = [lookahead(state, model, SMALL_CS, small_cfg(branching=bf, depth=3))
                      for bf in (1, 2, 3, 10**6)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestRefinePlan:
    def test_small_instance_matches_brute_force(self, two_sector_geom):
        rng = np.random.default_rng(11)
        state = two_sector_state(two_sector_geom)
        for trial in range(5):
            model = random_small_model(rng)
            cfg = small_cfg()
            plan = refine(state, model, SMALL_CS, cfg)
            cost, final = replay_cost(plan.actions, state, model, cfg)
            got = cost + utility_of(final, cfg)
            want = brute_force_minimum(state, model, SMALL_CS, cfg)
            assert got == pytest.approx(want, abs=1e-9)

    def test_all_sentinel_initial_state_minimal_skeleton(self, two_sector_geom):
        state = make_state(two_sector_geom)
        model = random_small_model(np.random.default_rng(5))
        cfg = SearchConfig(path_count=4, horizon=10)
        plan = refine(state, model, standard_constraints(), cfg)
        assert [a.kind for a in plan.actions] == \
            ["path", "peel", "refinement", "capture", "end"]
        assert plan.actions[2].arg == 1

    def test_output_always_validates(self, two_sector_geom):
        rng = np.random.default_rng(6)
        cs = standard_constraints()
        for trial in range(5):
            state = two_sector_state(two_sector_geom,
                                     h1=float(rng.uniform(0, 5)),
                                     h2=float(rng.uniform(0, 5)))
            model = random_small_model(rng)
            plan = refine(state, model, cs, SearchConfig(path_count=4, horizon=12))
            assert validate(plan, cs) == []

    def test_deterministic(self, two_sector_geom):
        state = two_sector_state(two_sector_geom)
        model = random_small_model(np.random.default_rng(7))
        cfg = SearchConfig(path_count=4, horizon=12)
        a = refine(state, model, standard_constraints(), cfg)
        b = refine(state, model, standard_constraints(), cfg)
        assert a == b

    def test_sampled_mode_deterministic_under_seed(self, two_sector_geom):
        state = two_sector_state(two_sector_geom)
        rng = np.random.default_rng(10)
        deltas = random_small_deltas(rng)
        # give buckets a second sample so the variance is nonzero
        for i in range(1, 5):
            for s in (1, 2):
                deltas[(path(i), s)] = [deltas[(path(i), s)], [0, 0, -0.2, 0, 0, 0]]
        model = model_from_deltas(deltas)
        cfg = SearchConfig(path_count=4, horizon=12, mode="sampled", seed=5)
        a = refine(state, model, standard_constraints(), cfg)
        b = refine(state, model, standard_constraints(), cfg)
        assert a == b

    def test_commitment_cost_matches_replay(self, two_sector_geom):
        # replay_cost rebuilds the committed plan's nodes from the root, so the
        # audit's last cost and the replay agree to the bit
        state = two_sector_state(two_sector_geom)
        model = random_small_model(np.random.default_rng(8))
        for mode in ("expectation", "sampled"):
            cfg = SearchConfig(path_count=4, horizon=12, mode=mode, seed=3)
            plan, audit = refine_plan_detailed(state, model, standard_constraints(), cfg)
            cost, _ = replay_cost(plan.actions, state, model, cfg)
            assert audit[-1]["cost"] == cost, mode

    def test_end_is_committed_only_when_it_completes_the_plan(self, two_sector_geom):
        # a completion of (end,) exists, (end, peel), but nothing may follow an
        # end; on an all-sentinel state a free end is the cheapest first step,
        # and the search once committed it and then found peel missing
        cs = ConstraintSet(rel=(RelConstraint("refinement", "path", "<", 0),
                                RelConstraint("refinement", "peel", ">", 3)),
                           abs=(AbsConstraint("peel", ">", 0),))
        state = make_state(two_sector_geom)
        model = random_small_model(np.random.default_rng(12))
        cfg = SearchConfig(branching=10, horizon=5, path_count=4, epsilon_conv=-math.inf)
        kinds = [c.action.kind for c in children(state, model, cs, cfg)[:cfg.branching]]
        assert "end" not in kinds and "peel" in kinds
        plan = refine(state, model, cs, cfg)
        assert validate(plan, cs) == []
        assert plan.actions[-1] == end()

    def test_path_after_end_is_scored(self, two_sector_geom):
        # a path must follow the end, so the search completes at once with the
        # suffix (end, path); the row after end is closed to `_level`, and the
        # suffix still takes path 3, which lowers the height most
        cs = ConstraintSet(rel=(RelConstraint("path", "end", ">", 0),),
                           abs=(AbsConstraint("path", ">", 0), AbsConstraint("end", ">", 0)))
        state = two_sector_state(two_sector_geom)
        model = model_from_deltas({(path(i), s): [0, 0, -0.1 * i, 0, 0, 0]
                                   for i in (1, 2, 3) for s in (1, 2)})
        plan, audit = refine_plan_detailed(state, model, cs,
                                           SearchConfig(path_count=3, horizon=6))
        assert plan.actions == (end(), path(3))
        assert [step["mode"] for step in audit] == ["suffix", "suffix"]

    def test_search_that_adds_nothing_is_a_search_error(self, two_sector_geom):
        # nothing required and nothing to improve: the search stops at the root
        state = make_state(two_sector_geom)
        model = model_from_deltas({(path(1), 1): np.zeros(6)})
        cfg = SearchConfig(horizon=1, path_count=1)
        with pytest.raises(SearchError, match="added no action"):
            refine(state, model, ConstraintSet(), cfg)

    def test_empty_model_rejected(self, two_sector_geom):
        state = two_sector_state(two_sector_geom)
        with pytest.raises(SearchError, match="no data"):
            refine(state, EffectivenessModel(sector_count=2), standard_constraints(),
                   SearchConfig())

    def test_infeasible_constraints_named(self, two_sector_geom):
        state = two_sector_state(two_sector_geom)
        model = random_small_model(np.random.default_rng(9))
        impossible = ConstraintSet(abs=(AbsConstraint("end", ">", 0),
                                        AbsConstraint("end", "<", 1)))
        with pytest.raises(SearchError):
            refine(state, model, impossible, SearchConfig(horizon=6))


    def test_failed_completion_names_outstanding_kinds(self, two_sector_geom):
        # end must come exactly two positions after a peel, so the canonical
        # suffix (paths, peel, end) fails, and 10 kinds exceed what the
        # exhaustive suffix search tries
        state = two_sector_state(two_sector_geom)
        model = random_small_model(np.random.default_rng(9))
        cs = ConstraintSet(rel=(RelConstraint("end", "peel", "=", 2),),
                           abs=(AbsConstraint("path", ">", 7), AbsConstraint("end", ">", 0)))
        cfg = SearchConfig(path_count=4, horizon=20, epsilon_conv=math.inf)
        with pytest.raises(SearchError, match=r"outstanding: (path, ){8}peel, end$"):
            refine(state, model, cs, cfg)


class TestGenerateRefinementPaths:
    def test_single_region_geometry(self, square_geom):
        state = make_state(square_geom, {1: ([50.0, 0.0, 2.0, 20.0, 10.0, 0.0], np.eye(3), 1)})
        paths = generate_refinement_paths(state, 1, ROLLER_HALF_WIDTH_DEFAULT)
        assert len(paths) == 1
        assert np.allclose(paths[0].start, [30.0, 0.0], atol=1e-9)
        assert np.allclose(paths[0].end, [150.0, 0.0], atol=1e-9)

    def test_cycles_when_more_paths_than_sectors(self, square_geom):
        state = make_state(square_geom,
                           {1: ([60.0, 20.0, 2.0, 20.0, 10.0, 0.1], np.eye(3), 1),
                            5: ([-60.0, -20.0, 3.0, 25.0, 12.0, 3.0], np.eye(3), 1)})
        paths = generate_refinement_paths(state, 4, ROLLER_HALF_WIDTH_DEFAULT)
        assert len(paths) == 4
        starts = {tuple(np.round(p.start, 6)) for p in paths}
        assert len(starts) == 2  # two distinct targets, each visited twice

    def test_severity_ranking(self, square_geom):
        state = make_state(square_geom,
                           {1: ([60.0, 20.0, 0.5, 5.0, 2.0, 0.1], np.eye(3), 1),
                            5: ([-60.0, -20.0, 4.0, 30.0, 15.0, 3.0], np.eye(3), 1)})
        first = generate_refinement_paths(state, 1, ROLLER_HALF_WIDTH_DEFAULT)[0]
        # the severe sector 5 wins the single slot
        assert first.start[0] < 0

    def test_all_sentinel_flagged_noop(self, square_geom, caplog):
        state = make_state(square_geom)
        with caplog.at_level("WARNING"):
            paths = generate_refinement_paths(state, 3, ROLLER_HALF_WIDTH_DEFAULT)
        assert len(paths) == 3
        assert "compacted" in caplog.text

    def test_n_positive(self, square_geom):
        state = make_state(square_geom)
        with pytest.raises(ValueError):
            generate_refinement_paths(state, 0, ROLLER_HALF_WIDTH_DEFAULT)
