import math

import numpy as np
import pytest

from layup.effectiveness import (EffectivenessModel, aggregate, bucket_row, compute_delta,
                                 compute_signs, extract_transitions, propagate_rows)
from layup.plan import ConstraintSet, expert_plan, path, peel
from layup.search import SearchConfig, replay_cost
from layup.sheet_state import SheetGeometry
from layup.simulator import GroundTruthParams, builtin_sheet, run_experiment

from conftest import (children, make_state, model_of, oracle_trace_total, propagate_one,
                      rows_of, utility_of, whole_table)


def gauss(mu1, sigma1_diag, mu2, sigma2_diag, n=1):
    """One sector's (mu, sigma, n) rows with diagonal covariances, as make_state takes them."""
    return (np.concatenate([mu1, mu2]).astype(float),
            np.array([np.diag(sigma1_diag), np.diag(sigma2_diag)], dtype=float), n)


class TestComputeDelta:
    def test_direct_subtraction(self):
        before = gauss([0, 0, 10.0], [1, 1, 1], [5, 2, 0.3], [1, 1, 1])
        after = gauss([0, 0, 2.0], [1, 1, 1], [5, 2, 0.3], [1, 1, 1])
        assert compute_delta(before[0], after[0])[2] == -8.0  # d_h

    def test_identity_is_zero(self):
        s = gauss([1, 2, 3], [1, 2, 3], [4, 5, 0.6], [1, 2, 3])
        d = compute_delta(s[0], s[0])
        assert np.array_equal(d, np.zeros(6))

    def test_orientation_wraps_modulo_pi(self):
        before = gauss([0, 0, 1], [1, 1, 1], [5, 2, 2.967], [1, 1, 1])
        after = gauss([0, 0, 1], [1, 1, 1], [5, 2, 0.1], [1, 1, 1])
        d_theta = compute_delta(before[0], after[0])[5]
        assert d_theta == pytest.approx(0.1 - 2.967 + math.pi, abs=1e-12)
        assert -math.pi / 2 < d_theta <= math.pi / 2

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = gauss(rng.normal(size=3), rng.uniform(0, 2, 3),
                      rng.uniform(0, 5, 3), rng.uniform(0, 2, 3))
            b = gauss(rng.normal(size=3), rng.uniform(0, 2, 3),
                      rng.uniform(0, 5, 3), rng.uniform(0, 2, 3))
            fwd = compute_delta(a[0], b[0])
            bwd = compute_delta(b[0], a[0])
            assert np.allclose(fwd[:5], -bwd[:5], atol=1e-12)
            wrap = (fwd[5] + bwd[5]) % math.pi
            assert min(wrap, math.pi - wrap) < 1e-12


class TestComputeSigns:
    def test_mixed_with_tie(self):
        before = gauss([0, 0, 1], [4, 4, 1], [1, 1, 1], [1, 1, 1])
        after = gauss([0, 0, 1], [2, 5, 1], [1, 1, 1], [1, 1, 1])
        s = compute_signs(before[1], after[1])
        assert np.array_equal(s[0], [-1.0, 1.0, -1.0])  # zero counts as shrink

    def test_identical_all_negative(self):
        s0 = gauss([0, 0, 1], [1, 2, 3], [1, 1, 1], [4, 5, 6])
        s = compute_signs(s0[1], s0[1])
        assert np.array_equal(s[0], [-1.0, -1.0, -1.0])
        assert np.array_equal(s[1], [-1.0, -1.0, -1.0])

    def test_growth_all_positive(self):
        before = gauss([0, 0, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1])
        after = gauss([0, 0, 1], [2, 3, 4], [1, 1, 1], [5, 6, 7])
        s = compute_signs(before[1], after[1])
        assert np.array_equal(s[0], [1.0, 1.0, 1.0])
        assert np.array_equal(s[1], [1.0, 1.0, 1.0])

    def test_one_sign_per_diagonal_entry(self):
        # off-diagonal covariance entries cast no vote: one sign per diagonal
        s0 = gauss([0, 0, 1], [1, 2, 3], [1, 1, 1], [4, 5, 6])
        s1 = (s0[0], s0[1] + 5.0 * (1.0 - np.eye(3)), 1)
        s = compute_signs(s0[1], s1[1])
        assert s.shape == (2, 3)
        assert np.array_equal(s, -np.ones((2, 3)))


def straight_line_delta(before, after):
    # independent re-statement used as a bitwise oracle, over (6,) mean rows
    dx = after[0] - before[0]
    dy = after[1] - before[1]
    dh = after[2] - before[2]
    da = after[3] - before[3]
    db = after[4] - before[4]
    raw = after[5] - before[5]
    dt = raw % math.pi
    if dt > math.pi / 2:
        dt -= math.pi
    return np.array([dx, dy, dh, da, db, dt])


class TestBitwiseOracle:
    def test_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = gauss(rng.normal(size=3), rng.uniform(0, 2, 3),
                      rng.uniform(0, 5, 3), rng.uniform(0, 2, 3))
            b = gauss(rng.normal(size=3), rng.uniform(0, 2, 3),
                      rng.uniform(0, 5, 3), rng.uniform(0, 2, 3))
            assert np.array_equal(compute_delta(a[0], b[0]),
                                  straight_line_delta(a[0], b[0]))


@pytest.fixture(scope="module")
def d1_log():
    params = GroundTruthParams()
    return run_experiment(expert_plan(1), builtin_sheet("sheet1"), params, seed=5,
                          keep_captures=False)


class TestExtractTransitions:
    def test_sample_count(self, d1_log):
        keys, deltas, u1, u2, sources = extract_transitions(d1_log)
        assert [len(column) for column in (keys, deltas, u1, u2, sources)] == [19 * 8] * 5

    def test_zero_delta_for_identical_states(self, d1_log):
        state = d1_log.states[0]
        fake = type(d1_log)(plan_name="x", sheet="sheet1", seed=0, actions=[peel()],
                            states=[state, state], correction_cycles=0, correction_paths=0,
                            correction_converged=True)
        _, deltas, _, _, _ = extract_transitions(fake)
        assert np.array_equal(deltas, np.zeros((8, 6)))


class TestExtractCorruptLog:
    def test_sector_mismatch_names_step(self, d1_log, two_sector_geom):
        # a log cannot hold the two-sector state after a step on sheet1's eight
        small = make_state(two_sector_geom)
        with pytest.raises(ValueError, match="^state 1 is on another geometry"):
            type(d1_log)(plan_name="x", sheet="sheet1", seed=0, actions=[peel()],
                         states=[d1_log.states[0], small], correction_cycles=0,
                         correction_paths=0, correction_converged=True)


class TestAggregate:
    def test_empty(self):
        model = aggregate([])
        assert model.is_empty
        assert model.bucket(path(1), 1) is None

    def test_mixed_sector_counts_rejected(self, d1_log, two_sector_geom):
        small = make_state(two_sector_geom)
        other = type(d1_log)(plan_name="y", sheet="tiny", seed=0, actions=[peel()],
                             states=[small, small], correction_cycles=0, correction_paths=0,
                             correction_converged=True)
        with pytest.raises(ValueError, match="sector counts"):
            aggregate([d1_log, other])

    def test_duplicate_logs_double_counts_keep_mean(self, d1_log):
        one = aggregate([d1_log])
        two = aggregate([d1_log, d1_log])
        once, twice = one.bucket(d1_log.actions[0], 1), two.bucket(d1_log.actions[0], 1)
        assert len(two.deltas[twice]) == 2 * len(one.deltas[once])
        assert np.allclose(two.deltas[twice].mean(axis=0), one.deltas[once].mean(axis=0))
        assert two.experiments == 2

    def test_order_independent(self, d1_log):
        """Each bucket holds the same deltas whatever the log order: the same
        multiset, for log order sets their order within a bucket."""
        params = GroundTruthParams()
        other = run_experiment(expert_plan(2), builtin_sheet("sheet1"), params,
                               seed=6,
                               keep_captures=False)
        a = aggregate([d1_log, other])
        b = aggregate([other, d1_log])
        ja, jb = a.to_json(), b.to_json()
        for key in ja["buckets"]:
            assert sorted(map(tuple, ja["buckets"][key]["deltas"])) == \
                sorted(map(tuple, jb["buckets"][key]["deltas"]))

    def test_bucket_counts_key_and_order(self):
        # the benchmark tracer sums these counts as the samples a learn pooled
        zero, signs = np.zeros(6), -np.ones((2, 3))
        model = model_of(3, [(peel(), 2, zero, signs), (path(12), 1, zero, signs),
                             (path(2), 3, zero, signs), (peel(), 2, zero, signs),
                             (path(12), 1, zero, signs), (peel(), 2, zero, signs)])
        assert list(model.bucket_counts().items()) == [("path|2|3", 1), ("path|12|1", 2),
                                                       ("peel|0|2", 3)]
        assert model_of(3, []).bucket_counts() == {}  # columns of no rows

    def test_save_load_lossless(self, d1_log, tmp_path):
        model = aggregate([d1_log])
        target = tmp_path / "model.json"
        model.save(target)
        back = EffectivenessModel.load(target)
        assert back.to_json() == model.to_json()


def one_sample_model(before_state, after_state, action):
    model = model_of(before_state.geometry.sector_count, [
        (action, row + 1, compute_delta(before_state.mu[row], after_state.mu[row]),
         compute_signs(before_state.sigma[row], after_state.sigma[row]))
        for row in range(len(before_state.count))])
    model.experiments = 1
    return model


class TestPropagate:
    def test_sentinel_stays_sentinel(self, two_sector_geom):
        state = make_state(two_sector_geom)
        model = model_of(2, [(path(1), 1, [0, 0, 5.0, 1.0, 1.0, 0],
                              compute_signs(state.sigma[0], state.sigma[0]))])
        out = propagate_one(state, path(1), model)
        assert not out.count.any()

    def test_clamp_to_zero_then_sentinel(self, two_sector_geom):
        state = make_state(two_sector_geom,
                           {1: gauss([0, 0, 3.0], [1, 1, 1], [2.0, 1.0, 0.5], [1, 1, 1])})
        model = model_of(2, [(path(1), 1, [0, 0, -5.0, -3.0, -2.0, 0],
                              compute_signs(state.sigma[0], state.sigma[0]))])
        out = propagate_one(state, path(1), model)
        assert out.count[0] == 0

    def test_single_sample_round_trip(self, square_geom, d1_log):
        # expectation-mode propagation of a one-sample model reproduces the
        # recorded after-state means exactly
        action, before, after = d1_log.actions[2], d1_log.states[2], d1_log.states[3]
        model = one_sample_model(before, after, action)
        out = propagate_one(before, action, model)
        for got, got_n, want, before_n in zip(out.mu, out.count, after.mu, before.count):
            if before_n == 0:
                assert got_n == 0
                continue
            assert np.allclose(got[:3], want[:3], atol=1e-9)
            assert np.allclose(got[3:5], np.maximum(want[3:5], 0), atol=1e-9)

    def test_unmodeled_leaves_state_unchanged(self, two_sector_geom):
        state = make_state(two_sector_geom,
                           {1: gauss([0, 0, 3.0], [1, 1, 1], [2, 1, 0.5], [1, 1, 1])})
        model = EffectivenessModel(sector_count=2)
        out = propagate_one(state, peel(), model)
        assert np.array_equal(out.mu[0, :3], state.mu[0, :3])
        assert not whole_table(model).covers[bucket_row(peel())]

    def test_sampled_mode_reproducible(self, d1_log):
        # two logs so the buckets carry nonzero sample variance
        params = GroundTruthParams()
        second = run_experiment(expert_plan(1), builtin_sheet("sheet1"), params,
                                seed=17,
                                keep_captures=False)
        model = aggregate([d1_log, second])
        state = d1_log.states[0]
        act = d1_log.actions[0]
        a = propagate_one(state, act, model, seed=77)
        b = propagate_one(state, act, model, seed=77)
        assert a.to_json() == b.to_json()
        c = propagate_one(state, act, model, seed=78)
        assert c.to_json() != a.to_json()

    def test_covariance_scaling_preserves_psd(self, d1_log):
        # variances scaled by 0.9 or 1.1 stay nonnegative, and the state that
        # replay_cost returns, those variances on zero matrices, is PSD
        model = aggregate([d1_log])
        state = d1_log.states[0]
        _, var, _ = propagate_rows(*rows_of(state), np.zeros(1, int), [bucket_row(path(15))],
                                   whole_table(model, state))
        assert (var >= 0.0).all()
        _, final = replay_cost(d1_log.actions, state, model, SearchConfig())
        for m in final.sigma.reshape(-1, 3, 3):
            assert np.allclose(m, m.T)
            assert np.linalg.eigvalsh(m).min() > -1e-9

    def test_sector_count_must_match_the_model(self, two_sector_geom):
        geom = SheetGeometry(center=two_sector_geom.center, polygon=two_sector_geom.polygon,
                             sector_count=3)
        row = gauss([0, 0, 3.0], [1, 1, 1], [2, 1, 0.5], [1, 1, 1])
        state = make_state(geom, {1: row, 3: row})
        model = model_of(2, [(path(1), 1, [0, 0, -1.0, 0, 0, 0],
                              compute_signs(state.sigma[0], state.sigma[0]))])
        with pytest.raises(ValueError, match="state has 3 sectors, the model 2"):
            propagate_one(state, path(1), model)

    def test_chained_propagation_keeps_invariants(self, d1_log):
        import math
        model = aggregate([d1_log])
        state = d1_log.states[0]
        actions = d1_log.actions
        for action in actions:
            state = propagate_one(state, action, model)
            for mu, sigma, count in zip(state.mu, state.sigma, state.count):
                if count == 0:
                    assert np.all(mu[:3] == 0) and np.all(sigma[0] == 0)
                    continue
                assert mu[2] >= 0.0
                assert mu[3] >= 0.0 and mu[4] >= 0.0
                assert 0.0 <= mu[5] < math.pi
                for m in sigma:
                    assert np.allclose(m, m.T)
                    assert np.linalg.eigvalsh(m).min() > -1e-9


def effectiveness_score(action, state, model, cfg) -> float:
    # the search's one-step score of an action from the root, every kind feasible
    return next(c.score for c in children(state, model, ConstraintSet(), cfg)
                if c.action == action)


class TestEffectivenessScore:
    def cfg(self):
        return SearchConfig(w_h=1000.0, w_area=10.0, w_sigma=0.5)

    def test_zero_delta_bucket_scores_covariance_only(self, two_sector_geom):
        state = make_state(two_sector_geom,
                           {1: gauss([10, 5, 2.0], [4, 4, 1], [8, 4, 0.3], [2, 2, 1])})
        model = model_of(2, [(path(1), 1, np.zeros(6),
                              compute_signs(state.sigma[0], state.sigma[0]))])
        cfg = self.cfg()
        score = effectiveness_score(path(1), state, model, cfg)
        after = propagate_one(state, path(1), model)
        d_trace = oracle_trace_total(after) - oracle_trace_total(state)
        # no mean movement: only the covariance bookkeeping contributes
        expected = (utility_of(after, cfg) - utility_of(state, cfg)
                    + cfg.w_sigma * d_trace)
        assert score == pytest.approx(expected, abs=1e-12)
        assert np.array_equal(after.mu[0, :3], state.mu[0, :3])
        assert d_trace < 0  # all-tie votes shrink the diagonals

    def test_dominated_action_scores_worse(self, two_sector_geom):
        state = make_state(two_sector_geom,
                           {1: gauss([0, 0, 5.0], [1, 1, 1], [5, 3, 0.2], [1, 1, 1]),
                            2: gauss([0, 0, 5.0], [1, 1, 1], [5, 3, 0.2], [1, 1, 1])})
        signs = compute_signs(state.sigma[0], state.sigma[0])
        model = model_of(2, [sample for sector in (1, 2)
                             for sample in ((path(1), sector, [0, 0, -2.0, 0, 0, 0], signs),
                                            (path(2), sector, [0, 0, -0.5, 0, 0, 0], signs))])
        cfg = self.cfg()
        assert effectiveness_score(path(1), state, model, cfg) < \
            effectiveness_score(path(2), state, model, cfg)

    def test_matches_manual_arithmetic(self, two_sector_geom):
        state = make_state(two_sector_geom,
                           {1: gauss([0, 0, 4.0], [0, 0, 0], [6, 2, 0.1], [0, 0, 0]),
                            2: gauss([0, 0, 2.0], [0, 0, 0], [3, 1, 0.1], [0, 0, 0])})
        signs = compute_signs(state.sigma[0], state.sigma[0])
        model = model_of(2, [(path(1), 1, [0, 0, -1.0, -1.0, 0, 0], signs)])
        cfg = SearchConfig(w_h=100.0, w_area=1.0, w_sigma=0.0)
        area = two_sector_geom.area
        f_before = (100 * 4 + 6 * 2 + 100 * 2 + 3 * 1) / area
        f_after = (100 * 3 + 5 * 2 + 100 * 2 + 3 * 1) / area
        got = effectiveness_score(path(1), state, model, cfg)
        assert got == pytest.approx(f_after - f_before, abs=1e-12)


class TestDecayRecovery:
    def test_first_pass_beats_late_pass(self, d1_log):
        # the simulator schedules strong early reductions: the learned
        # first-action bucket must dwarf the eighth-action bucket
        model = aggregate([d1_log])
        plan = expert_plan(1)
        first = model.bucket(plan.actions[0], 2)
        assert first is not None
        assert model.deltas[first, 2].mean() < -0.3
