import math

import numpy as np
import pytest

from layup.effectiveness import (DeltaVector, EffectivenessModel, SignMatrices,
                                 TransitionSample, aggregate, compute_delta,
                                 compute_signs, extract_transitions, propagate)
from layup.plan import Action, path, peel, expert_plan
from layup.search import (SearchConfig, effectiveness_score, generate_refinement_paths,
                          state_utility, trace_total)
from layup.sheet_state import SectorGaussians, SheetState
from layup.simulator import GroundTruthParams, builtin_sheet, run_experiment


def gauss(sector, mu1, sigma1_diag, mu2, sigma2_diag, n=1):
    return SectorGaussians(sector=sector,
                           mu1=np.array(mu1, dtype=float),
                           sigma1=np.diag(sigma1_diag).astype(float),
                           mu2=np.array(mu2, dtype=float),
                           sigma2=np.diag(sigma2_diag).astype(float),
                           sample_count=n)


class TestComputeDelta:
    def test_direct_subtraction(self):
        before = gauss(1, [0, 0, 10.0], [1, 1, 1], [5, 2, 0.3], [1, 1, 1])
        after = gauss(1, [0, 0, 2.0], [1, 1, 1], [5, 2, 0.3], [1, 1, 1])
        assert compute_delta(before, after).d_h == -8.0

    def test_identity_is_zero(self):
        s = gauss(2, [1, 2, 3], [1, 2, 3], [4, 5, 0.6], [1, 2, 3])
        d = compute_delta(s, s)
        assert np.array_equal(d.as_array(), np.zeros(6))

    def test_orientation_wraps_modulo_pi(self):
        before = gauss(1, [0, 0, 1], [1, 1, 1], [5, 2, 2.967], [1, 1, 1])
        after = gauss(1, [0, 0, 1], [1, 1, 1], [5, 2, 0.1], [1, 1, 1])
        d = compute_delta(before, after)
        assert d.d_theta == pytest.approx(0.1 - 2.967 + math.pi, abs=1e-12)
        assert -math.pi / 2 < d.d_theta <= math.pi / 2

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = gauss(1, rng.normal(size=3), rng.uniform(0, 2, 3),
                      rng.uniform(0, 5, 3), rng.uniform(0, 2, 3))
            b = gauss(1, rng.normal(size=3), rng.uniform(0, 2, 3),
                      rng.uniform(0, 5, 3), rng.uniform(0, 2, 3))
            fwd = compute_delta(a, b).as_array()
            bwd = compute_delta(b, a).as_array()
            assert np.allclose(fwd[:5], -bwd[:5], atol=1e-12)
            wrap = (fwd[5] + bwd[5]) % math.pi
            assert min(wrap, math.pi - wrap) < 1e-12


class TestComputeSigns:
    def test_mixed_with_tie(self):
        before = gauss(1, [0, 0, 1], [4, 4, 1], [1, 1, 1], [1, 1, 1])
        after = gauss(1, [0, 0, 1], [2, 5, 1], [1, 1, 1], [1, 1, 1])
        s = compute_signs(before, after)
        assert np.array_equal(np.diag(s.u1), [-1.0, 1.0, -1.0])  # zero counts as shrink

    def test_identical_all_negative(self):
        s0 = gauss(1, [0, 0, 1], [1, 2, 3], [1, 1, 1], [4, 5, 6])
        s = compute_signs(s0, s0)
        assert np.array_equal(np.diag(s.u1), [-1.0, -1.0, -1.0])
        assert np.array_equal(np.diag(s.u2), [-1.0, -1.0, -1.0])

    def test_growth_all_positive(self):
        before = gauss(1, [0, 0, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1])
        after = gauss(1, [0, 0, 1], [2, 3, 4], [1, 1, 1], [5, 6, 7])
        s = compute_signs(before, after)
        assert np.array_equal(np.diag(s.u1), [1.0, 1.0, 1.0])
        assert np.array_equal(np.diag(s.u2), [1.0, 1.0, 1.0])

    def test_off_diagonals_zero(self):
        s0 = gauss(1, [0, 0, 1], [1, 2, 3], [1, 1, 1], [4, 5, 6])
        s = compute_signs(s0, s0)
        assert np.all(s.u1[~np.eye(3, dtype=bool)] == 0.0)

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            SignMatrices(u1=np.ones((3, 3)), u2=np.diag([1.0, 1.0, 1.0]))


def straight_line_delta(before, after):
    # independent re-statement used as a bitwise oracle
    dx = after.mu1[0] - before.mu1[0]
    dy = after.mu1[1] - before.mu1[1]
    dh = after.mu1[2] - before.mu1[2]
    da = after.mu2[0] - before.mu2[0]
    db = after.mu2[1] - before.mu2[1]
    raw = after.mu2[2] - before.mu2[2]
    dt = raw % math.pi
    if dt > math.pi / 2:
        dt -= math.pi
    return np.array([dx, dy, dh, da, db, dt])


class TestBitwiseOracle:
    def test_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = gauss(1, rng.normal(size=3), rng.uniform(0, 2, 3),
                      rng.uniform(0, 5, 3), rng.uniform(0, 2, 3))
            b = gauss(1, rng.normal(size=3), rng.uniform(0, 2, 3),
                      rng.uniform(0, 5, 3), rng.uniform(0, 2, 3))
            assert np.array_equal(compute_delta(a, b).as_array(),
                                  straight_line_delta(a, b))


@pytest.fixture(scope="module")
def d1_log():
    params = GroundTruthParams()
    return run_experiment(expert_plan(1), builtin_sheet("sheet1"), params, seed=5,
                          path_generator=generate_refinement_paths,
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
        assert all(np.array_equal(s.delta.as_array(), np.zeros(6)) for s in samples)


class TestExtractCorruptLog:
    def test_sector_mismatch_names_step(self, d1_log, two_sector_geom):
        from layup.effectiveness import LogFormatError
        from layup.simulator import StepRecord
        from layup.sheet_state import SheetState
        small = SheetState(two_sector_geom, [SectorGaussians.sentinel(1),
                                             SectorGaussians.sentinel(2)])
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
        assert model.mean_delta(path(1), 1) is None

    def test_mixed_sector_counts_rejected(self, d1_log, two_sector_geom):
        from layup.simulator import StepRecord
        from layup.sheet_state import SheetState
        small = SheetState(two_sector_geom, [SectorGaussians.sentinel(1),
                                             SectorGaussians.sentinel(2)])
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
                               seed=6, path_generator=generate_refinement_paths,
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
    for b, a in zip(before_state.sectors, after_state.sectors):
        model.add_sample(TransitionSample(action=action, sector=b.sector,
                                          delta=compute_delta(b, a),
                                          signs=compute_signs(b, a)))
    model.experiments = 1
    return model


class TestPropagate:
    def test_sentinel_stays_sentinel(self, two_sector_geom):
        state = SheetState(two_sector_geom,
                           [SectorGaussians.sentinel(1), SectorGaussians.sentinel(2)])
        model = EffectivenessModel(sector_count=2)
        model.add_sample(TransitionSample(
            action=path(1), sector=1,
            delta=DeltaVector(0, 0, 5.0, 1.0, 1.0, 0),
            signs=compute_signs(SectorGaussians.sentinel(1), SectorGaussians.sentinel(1))))
        out = propagate(state, path(1), model)
        assert out.all_sentinel

    def test_clamp_to_zero_then_sentinel(self, two_sector_geom):
        state = SheetState(two_sector_geom,
                           [gauss(1, [0, 0, 3.0], [1, 1, 1], [2.0, 1.0, 0.5], [1, 1, 1]),
                            SectorGaussians.sentinel(2)])
        model = EffectivenessModel(sector_count=2)
        model.add_sample(TransitionSample(
            action=path(1), sector=1,
            delta=DeltaVector(0, 0, -5.0, -3.0, -2.0, 0),
            signs=compute_signs(state.sector(1), state.sector(1))))
        out = propagate(state, path(1), model)
        assert out.sector(1).is_sentinel

    def test_single_sample_round_trip(self, square_geom, d1_log):
        # expectation-mode propagation of a one-sample model reproduces the
        # recorded after-state means exactly
        rec = d1_log.steps[2]
        model = one_sample_model(rec.state_before, rec.state_after, rec.action)
        out = propagate(rec.state_before, rec.action, model)
        for got, want, before in zip(out.sectors, rec.state_after.sectors,
                                     rec.state_before.sectors):
            if before.is_sentinel:
                assert got.is_sentinel
                continue
            assert np.allclose(got.mu1, want.mu1, atol=1e-9)
            assert np.allclose(got.mu2[:2], np.maximum(want.mu2[:2], 0), atol=1e-9)

    def test_unmodeled_leaves_state_unchanged(self, two_sector_geom):
        state = SheetState(two_sector_geom,
                           [gauss(1, [0, 0, 3.0], [1, 1, 1], [2, 1, 0.5], [1, 1, 1]),
                            SectorGaussians.sentinel(2)])
        model = EffectivenessModel(sector_count=2)
        out = propagate(state, peel(), model)
        assert np.array_equal(out.sector(1).mu1, state.sector(1).mu1)
        assert not model.covers(peel())

    def test_sampled_mode_reproducible(self, d1_log):
        # two logs so the buckets carry nonzero sample variance
        params = GroundTruthParams()
        second = run_experiment(expert_plan(1), builtin_sheet("sheet1"), params,
                                seed=17, path_generator=generate_refinement_paths,
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
        for s in out.sectors:
            for m in (s.sigma1, s.sigma2):
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
            for s in state.sectors:
                if s.is_sentinel:
                    assert np.all(s.mu1 == 0) and np.all(s.sigma1 == 0)
                    continue
                assert s.mu1[2] >= 0.0
                assert s.mu2[0] >= 0.0 and s.mu2[1] >= 0.0
                assert 0.0 <= s.mu2[2] < math.pi
                for m in (s.sigma1, s.sigma2):
                    assert np.allclose(m, m.T)
                    assert np.linalg.eigvalsh(m).min() > -1e-9


class TestEffectivenessScore:
    def cfg(self):
        return SearchConfig(w_h=1000.0, w_area=10.0, w_sigma=0.5)

    def test_zero_delta_bucket_scores_covariance_only(self, two_sector_geom):
        state = SheetState(two_sector_geom,
                           [gauss(1, [10, 5, 2.0], [4, 4, 1], [8, 4, 0.3], [2, 2, 1]),
                            SectorGaussians.sentinel(2)])
        model = EffectivenessModel(sector_count=2)
        model.add_sample(TransitionSample(
            action=path(1), sector=1,
            delta=DeltaVector(0, 0, 0, 0, 0, 0),
            signs=compute_signs(state.sector(1), state.sector(1))))
        cfg = self.cfg()
        score = effectiveness_score(path(1), state, model, cfg)
        after = propagate(state, path(1), model)
        d_trace = trace_total(after) - trace_total(state)
        # no mean movement: only the covariance bookkeeping contributes
        expected = (state_utility(after, cfg) - state_utility(state, cfg)
                    + cfg.w_sigma * d_trace)
        assert score == pytest.approx(expected, abs=1e-12)
        assert np.array_equal(after.sector(1).mu1, state.sector(1).mu1)
        assert d_trace < 0  # all-tie votes shrink the diagonals

    def test_dominated_action_scores_worse(self, two_sector_geom):
        state = SheetState(two_sector_geom,
                           [gauss(1, [0, 0, 5.0], [1, 1, 1], [5, 3, 0.2], [1, 1, 1]),
                            gauss(2, [0, 0, 5.0], [1, 1, 1], [5, 3, 0.2], [1, 1, 1])])
        model = EffectivenessModel(sector_count=2)
        signs = compute_signs(state.sector(1), state.sector(1))
        for sector in (1, 2):
            model.add_sample(TransitionSample(path(1), sector,
                                              DeltaVector(0, 0, -2.0, 0, 0, 0), signs))
            model.add_sample(TransitionSample(path(2), sector,
                                              DeltaVector(0, 0, -0.5, 0, 0, 0), signs))
        cfg = self.cfg()
        assert effectiveness_score(path(1), state, model, cfg) < \
            effectiveness_score(path(2), state, model, cfg)

    def test_matches_manual_arithmetic(self, two_sector_geom):
        state = SheetState(two_sector_geom,
                           [gauss(1, [0, 0, 4.0], [0, 0, 0], [6, 2, 0.1], [0, 0, 0]),
                            gauss(2, [0, 0, 2.0], [0, 0, 0], [3, 1, 0.1], [0, 0, 0])])
        model = EffectivenessModel(sector_count=2)
        signs = compute_signs(state.sector(1), state.sector(1))
        model.add_sample(TransitionSample(path(1), 1,
                                          DeltaVector(0, 0, -1.0, -1.0, 0, 0), signs))
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
