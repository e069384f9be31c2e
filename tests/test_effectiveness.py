import math

import numpy as np
import pytest

from layup.effectiveness import (EffectivenessModel, TransitionSample, aggregate,
                                 compute_delta, compute_signs, extract_transitions,
                                 propagate)
from layup.plan import Action, path, peel, expert_plan
from layup.search import SearchConfig, effectiveness_score, state_utility, trace_total
from layup.simulator import GroundTruthParams, builtin_sheet, run_experiment

from conftest import make_state


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
        samples = extract_transitions(d1_log)
        assert len(samples) == 19 * 8

    def test_zero_delta_for_identical_states(self, d1_log):
        rec = d1_log.steps[0]
        from layup.simulator import StepRecord
        fake = type(d1_log)(plan_name="x", sheet="sheet1", seed=0,
                            steps=[StepRecord(1, peel(), rec.state_before,
                                              rec.state_before)],
                            correction_cycles=0, correction_paths=0,
                            correction_converged=True)
        samples = extract_transitions(fake)
        assert len(samples) == 8
        assert all(np.array_equal(s.delta, np.zeros(6)) for s in samples)


class TestExtractCorruptLog:
    def test_sector_mismatch_names_step(self, d1_log, two_sector_geom):
        from layup.effectiveness import LogFormatError
        from layup.simulator import StepRecord
        small = make_state(two_sector_geom)
        rec = d1_log.steps[0]
        corrupt = type(d1_log)(plan_name="x", sheet="sheet1", seed=0,
                               steps=[StepRecord(4, peel(), rec.state_before, small)],
                               correction_cycles=0, correction_paths=0,
                               correction_converged=True)
        with pytest.raises(LogFormatError, match="step 4"):
            extract_transitions(corrupt)


class TestAggregate:
    def test_empty(self):
        model = aggregate([])
        assert model.is_empty
        assert model.bucket(path(1), 1) is None

    def test_mixed_sector_counts_rejected(self, d1_log, two_sector_geom):
        from layup.simulator import StepRecord
        small = make_state(two_sector_geom)
        other = type(d1_log)(plan_name="y", sheet="tiny", seed=0,
                             steps=[StepRecord(1, peel(), small, small)],
                             correction_cycles=0, correction_paths=0,
                             correction_converged=True)
        with pytest.raises(ValueError, match="sector counts"):
            aggregate([d1_log, other])

    def test_duplicate_logs_double_counts_keep_mean(self, d1_log):
        one = aggregate([d1_log])
        two = aggregate([d1_log, d1_log])
        key = ("path", d1_log.steps[0].action.arg, 1)
        assert two.table[key].count == 2 * one.table[key].count
        assert np.allclose(two.table[key].mean, one.table[key].mean)
        assert two.experiments == 2

    def test_order_independent(self, d1_log):
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

    def test_save_load_lossless(self, d1_log, tmp_path):
        model = aggregate([d1_log])
        target = tmp_path / "model.json"
        model.save(target)
        back = EffectivenessModel.load(target)
        assert back.to_json() == model.to_json()


def one_sample_model(before_state, after_state, action):
    model = EffectivenessModel(sector_count=before_state.geometry.sector_count)
    for row in range(len(before_state.count)):
        model.add_sample(TransitionSample(
            action=action, sector=row + 1,
            delta=compute_delta(before_state.mu[row], after_state.mu[row]),
            signs=compute_signs(before_state.sigma[row], after_state.sigma[row])))
    model.experiments = 1
    return model


class TestPropagate:
    def test_sentinel_stays_sentinel(self, two_sector_geom):
        state = make_state(two_sector_geom)
        model = EffectivenessModel(sector_count=2)
        model.add_sample(TransitionSample(
            action=path(1), sector=1,
            delta=np.array([0, 0, 5.0, 1.0, 1.0, 0]),
            signs=compute_signs(state.sigma[0], state.sigma[0])))
        out = propagate(state, path(1), model)
        assert not out.count.any()

    def test_clamp_to_zero_then_sentinel(self, two_sector_geom):
        state = make_state(two_sector_geom,
                           {1: gauss([0, 0, 3.0], [1, 1, 1], [2.0, 1.0, 0.5], [1, 1, 1])})
        model = EffectivenessModel(sector_count=2)
        model.add_sample(TransitionSample(
            action=path(1), sector=1,
            delta=np.array([0, 0, -5.0, -3.0, -2.0, 0]),
            signs=compute_signs(state.sigma[0], state.sigma[0])))
        out = propagate(state, path(1), model)
        assert out.count[0] == 0

    def test_single_sample_round_trip(self, square_geom, d1_log):
        # expectation-mode propagation of a one-sample model reproduces the
        # recorded after-state means exactly
        rec = d1_log.steps[2]
        model = one_sample_model(rec.state_before, rec.state_after, rec.action)
        out = propagate(rec.state_before, rec.action, model)
        for got, got_n, want, before_n in zip(out.mu, out.count, rec.state_after.mu,
                                              rec.state_before.count):
            if before_n == 0:
                assert got_n == 0
                continue
            assert np.allclose(got[:3], want[:3], atol=1e-9)
            assert np.allclose(got[3:5], np.maximum(want[3:5], 0), atol=1e-9)

    def test_unmodeled_leaves_state_unchanged(self, two_sector_geom):
        state = make_state(two_sector_geom,
                           {1: gauss([0, 0, 3.0], [1, 1, 1], [2, 1, 0.5], [1, 1, 1])})
        model = EffectivenessModel(sector_count=2)
        out = propagate(state, peel(), model)
        assert np.array_equal(out.mu[0, :3], state.mu[0, :3])
        assert not model.covers(peel())

    def test_sampled_mode_reproducible(self, d1_log):
        # two logs so the buckets carry nonzero sample variance
        params = GroundTruthParams()
        second = run_experiment(expert_plan(1), builtin_sheet("sheet1"), params,
                                seed=17,
                                keep_captures=False)
        model = aggregate([d1_log, second])
        state = d1_log.steps[0].state_before
        act = d1_log.steps[0].action
        a = propagate(state, act, model, mode="sampled", seed=77)
        b = propagate(state, act, model, mode="sampled", seed=77)
        assert a.to_json() == b.to_json()
        c = propagate(state, act, model, mode="sampled", seed=78)
        assert c.to_json() != a.to_json()

    def test_covariance_scaling_preserves_psd(self, d1_log):
        model = aggregate([d1_log])
        state = d1_log.steps[0].state_before
        out = propagate(state, path(15), model)
        for m in out.sigma.reshape(-1, 3, 3):
            assert np.allclose(m, m.T)
            assert np.linalg.eigvalsh(m).min() > -1e-9

    def test_mode_validation(self, d1_log):
        with pytest.raises(ValueError):
            propagate(d1_log.steps[0].state_before, path(1),
                      aggregate([d1_log]), mode="montecarlo")

    def test_chained_propagation_keeps_invariants(self, d1_log):
        import math
        model = aggregate([d1_log])
        state = d1_log.steps[0].state_before
        actions = [rec.action for rec in d1_log.steps]
        for action in actions:
            state = propagate(state, action, model)
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


class TestEffectivenessScore:
    def cfg(self):
        return SearchConfig(w_h=1000.0, w_area=10.0, w_sigma=0.5)

    def test_zero_delta_bucket_scores_covariance_only(self, two_sector_geom):
        state = make_state(two_sector_geom,
                           {1: gauss([10, 5, 2.0], [4, 4, 1], [8, 4, 0.3], [2, 2, 1])})
        model = EffectivenessModel(sector_count=2)
        model.add_sample(TransitionSample(
            action=path(1), sector=1, delta=np.zeros(6),
            signs=compute_signs(state.sigma[0], state.sigma[0])))
        cfg = self.cfg()
        score = effectiveness_score(path(1), state, model, cfg)
        after = propagate(state, path(1), model)
        d_trace = trace_total(after) - trace_total(state)
        # no mean movement: only the covariance bookkeeping contributes
        expected = (state_utility(after, cfg) - state_utility(state, cfg)
                    + cfg.w_sigma * d_trace)
        assert score == pytest.approx(expected, abs=1e-12)
        assert np.array_equal(after.mu[0, :3], state.mu[0, :3])
        assert d_trace < 0  # all-tie votes shrink the diagonals

    def test_dominated_action_scores_worse(self, two_sector_geom):
        state = make_state(two_sector_geom,
                           {1: gauss([0, 0, 5.0], [1, 1, 1], [5, 3, 0.2], [1, 1, 1]),
                            2: gauss([0, 0, 5.0], [1, 1, 1], [5, 3, 0.2], [1, 1, 1])})
        model = EffectivenessModel(sector_count=2)
        signs = compute_signs(state.sigma[0], state.sigma[0])
        for sector in (1, 2):
            model.add_sample(TransitionSample(path(1), sector,
                                              np.array([0, 0, -2.0, 0, 0, 0]), signs))
            model.add_sample(TransitionSample(path(2), sector,
                                              np.array([0, 0, -0.5, 0, 0, 0]), signs))
        cfg = self.cfg()
        assert effectiveness_score(path(1), state, model, cfg) < \
            effectiveness_score(path(2), state, model, cfg)

    def test_matches_manual_arithmetic(self, two_sector_geom):
        state = make_state(two_sector_geom,
                           {1: gauss([0, 0, 4.0], [0, 0, 0], [6, 2, 0.1], [0, 0, 0]),
                            2: gauss([0, 0, 2.0], [0, 0, 0], [3, 1, 0.1], [0, 0, 0])})
        model = EffectivenessModel(sector_count=2)
        signs = compute_signs(state.sigma[0], state.sigma[0])
        model.add_sample(TransitionSample(path(1), 1,
                                          np.array([0, 0, -1.0, -1.0, 0, 0]), signs))
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
        assert first.mean[2] < -0.3
