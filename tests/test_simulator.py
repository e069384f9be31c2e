import hashlib
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from layup import simulator
from layup.geometry import PathGeometry, axial_difference, point_in_polygon
from layup.plan import DrapingPlan, capture, end, expert_plan, path, peel, refinement
from layup.sheet_state import (SheetGeometry, extract_regions, read_capture_frames,
                               write_capture_frames)
from layup.simulator import (GroundTruthParams, PlanInvalidError,
                             SimulationError, SimState, _polygon_grid, apply_action,
                             builtin_sheet, init_sheet, path_geometry,
                             read_log, render_capture, run_correction,
                             run_experiment, write_log)

from conftest import src_env

QUIET = dict(noise_height=0.0, noise_xy=0.0, noise_size=0.0, noise_theta=0.0,
             sensor_noise=0.0, edge_drift=0.0, orientation_rate=0.0)


def quiet_params(**over):
    merged = dict(QUIET)
    merged.update(over)
    return GroundTruthParams(**merged)


def make_sim(params, regions=(), sheet="sheet1", **over):
    """A SimState of `sheet` holding `regions`, rows of (x, y, peak, a, b, theta)."""
    return SimState(spec=builtin_sheet(sheet), params=params,
                    regions=np.array(regions, dtype=float).reshape(-1, 6),
                    rng=np.random.default_rng(0), **over)


class TestInitSheet:
    def test_deterministic(self):
        params = GroundTruthParams()
        spec = builtin_sheet("sheet1")
        a = init_sheet(spec, params, seed=3)
        b = init_sheet(spec, params, seed=3)
        assert a.regions.shape == (6, 6)
        assert np.array_equal(a.regions, b.regions)

    def test_zero_regions(self):
        params = GroundTruthParams(region_count=0)
        sim = init_sheet(builtin_sheet("sheet1"), params, seed=1)
        assert sim.regions.shape == (0, 6)
        frame = render_capture(make_sim(quiet_params(region_count=0)))
        assert np.all(frame.points[:, 2] == 0.0)

    def test_regions_inside_polygon(self):
        params = GroundTruthParams(region_count=6)
        for seed in range(5):
            sim = init_sheet(builtin_sheet("sheet2"), params, seed=seed)
            assert len(sim.regions) == 6
            for centroid in sim.regions[:, :2]:
                assert point_in_polygon(centroid, sim.geometry.polygon)

    def test_unknown_sheet(self):
        with pytest.raises(ValueError, match="unknown sheet"):
            builtin_sheet("sheet9")


class TestPathGeometry:
    def test_first_path_points_top_right(self):
        geom = builtin_sheet("sheet1").geometry
        pg = path_geometry(1, geom)
        assert pg.angle == pytest.approx(math.radians(45.0))

    def test_fifth_path_points_bottom_right(self):
        geom = builtin_sheet("sheet1").geometry
        pg = path_geometry(5, geom)
        assert pg.angle == pytest.approx(math.radians(-45.0))

    def test_sixteen_distinct_uniformly_spaced(self):
        geom = builtin_sheet("sheet1").geometry
        angles = [path_geometry(i, geom).angle for i in range(1, 17)]
        degs = sorted((math.degrees(a) % 360.0) for a in angles)
        diffs = np.diff(degs)
        assert len(set(np.round(degs, 6))) == 16
        assert np.allclose(diffs, 22.5)

    def test_out_of_range(self):
        geom = builtin_sheet("sheet1").geometry
        with pytest.raises(ValueError):
            path_geometry(0, geom)
        with pytest.raises(ValueError):
            path_geometry(17, geom)


def single_region_sim(params, centroid, a=25.0, b=12.0, theta=math.radians(45.0),
                      peak=4.0, sheet="sheet1"):
    return make_sim(params, [(*centroid, peak, a, b, theta)], sheet)


class TestApplyAction:
    def test_missed_region_unchanged(self):
        params = quiet_params()
        # region far off path 1's top-right ray
        sim = single_region_sim(params, centroid=(-80.0, -80.0))
        peak_before = sim.regions[0, 2]
        apply_action(sim, path(1))
        assert sim.j == 1
        assert sim.regions[0, 2] == peak_before

    def test_first_pass_reduction_exact(self):
        params = quiet_params()
        c = 80.0 / math.sqrt(2.0)
        sim = single_region_sim(params, centroid=(c, c))  # on path 1's ray
        peak_before = sim.regions[0, 2]
        apply_action(sim, path(1))
        # aligned hit at cumulative pass 1: height multiplies by (1 - 0.8)
        assert sim.regions[0, 2] == peak_before * (1.0 - 0.8)

    def test_eighth_pass_reduction_exact(self):
        params = quiet_params()
        c = 80.0 / math.sqrt(2.0)
        sim = single_region_sim(params, centroid=(c, c))
        sim.j = 7
        peak_before = sim.regions[0, 2]
        apply_action(sim, path(1))
        assert sim.j == 8
        assert sim.regions[0, 2] == peak_before * (1.0 - 0.3)

    def test_alignment_floor(self):
        params = quiet_params()
        c = 80.0 / math.sqrt(2.0)
        sim = single_region_sim(params, centroid=(c, c),
                                theta=math.radians(135.0))  # orthogonal to path 1
        peak_before = sim.regions[0, 2]
        apply_action(sim, path(1))
        assert sim.regions[0, 2] == peak_before * (1.0 - 0.8 * 0.25)

    def test_extinction(self):
        params = quiet_params()
        c = 80.0 / math.sqrt(2.0)
        sim = single_region_sim(params, centroid=(c, c), peak=0.6)
        apply_action(sim, path(1))  # 0.6 * 0.2 = 0.12 < 0.2
        assert sim.regions.shape == (0, 6)

    def test_peel_pulse(self):
        params = quiet_params()
        sim = single_region_sim(params, centroid=(50.0, 0.0), peak=2.0)
        apply_action(sim, peel())
        assert sim.peeled
        assert sim.regions[0, 2] == 2.0 * 1.05

    def test_capture_and_end_do_nothing(self):
        params = quiet_params()
        sim = single_region_sim(params, centroid=(50.0, 0.0))
        before = sim.regions[0, 2]
        apply_action(sim, capture())
        apply_action(sim, end())
        assert sim.regions[0, 2] == before
        assert sim.j == 0

    def test_refinement_requires_geometries(self):
        params = quiet_params()
        sim = single_region_sim(params, centroid=(50.0, 0.0))
        with pytest.raises(SimulationError):
            apply_action(sim, refinement(2))

    def test_monotone_volume_under_paths(self):
        params = quiet_params()
        sim = init_sheet(builtin_sheet("sheet1"), params, seed=2)

        def volume(s):
            return sum(s.regions[:, 2] * s.regions[:, 3] * s.regions[:, 4])

        prev = volume(sim)
        count = len(sim.regions)
        for i in range(1, 17):
            apply_action(sim, path(i))
            cur = volume(sim)
            assert cur <= prev + 1e-12
            assert len(sim.regions) <= count  # regions only ever disappear
            prev, count = cur, len(sim.regions)

    def test_permutation_equivariance(self):
        params = quiet_params()
        spec = builtin_sheet("sheet1")

        def fresh(order):
            base = init_sheet(spec, GroundTruthParams(), seed=4)
            return SimState(spec=spec, params=params, regions=base.regions[order],
                            rng=np.random.default_rng(0))

        ident = fresh(list(range(6)))
        rev = fresh(list(range(5, -1, -1)))
        for sim in (ident, rev):
            apply_action(sim, path(3))
        got = sorted(map(tuple, ident.regions))
        want = sorted(map(tuple, rev.regions))
        assert got == want


class TestRenderCapture:
    def test_zero_noise_peak_location(self):
        params = quiet_params()
        sim = single_region_sim(params, centroid=(40.0, 30.0), peak=5.0)
        frame = render_capture(sim)
        top = frame.points[np.argmax(frame.points[:, 2])]
        assert np.linalg.norm(top[:2] - [40.0, 30.0]) <= params.grid_pitch * math.sqrt(2)
        assert top[2] <= 5.0 + 1e-9

    @pytest.mark.parametrize("theta_deg", [30.0, 160.0])
    def test_fit_recovers_the_ground_truth_row(self, theta_deg):
        # the ground truth and the fit share one row layout, orientation included
        params = quiet_params()
        sim = single_region_sim(params, centroid=(40.0, 30.0), a=30.0, b=12.0,
                                theta=math.radians(theta_deg), peak=4.0)
        _, fitted = extract_regions(render_capture(sim), params.h_min, params.link_radius)
        truth, = sim.regions
        row, = fitted
        assert np.linalg.norm(row[:2] - truth[:2]) <= params.grid_pitch
        assert abs(axial_difference(row[5], truth[5])) <= math.radians(3.0)
        assert 0.0 < row[2] <= truth[2]

    def test_bitwise_reproducible(self):
        params = GroundTruthParams()
        a = render_capture(init_sheet(builtin_sheet("sheet1"), params, seed=9))
        b = render_capture(init_sheet(builtin_sheet("sheet1"), params, seed=9))
        assert np.array_equal(a.points, b.points)

    def test_heights_clamped_nonnegative(self):
        params = GroundTruthParams()
        sim = init_sheet(builtin_sheet("sheet1"), params, seed=10)
        frame = render_capture(sim)
        assert frame.points[:, 2].min() >= 0.0


    @pytest.mark.parametrize("sheet, pitch, count, digest", [
        ("sheet1", 3.0, 10201, "001a81d02011cfc9"), ("sheet1", 4.0, 5776, "629748352c3d4255"),
        ("sheet1", 5.5, 3025, "518bc1481d477c19"), ("sheet2", 3.0, 11256, "144540f5514c4d2f"),
        ("sheet2", 4.0, 6363, "f714e24975c9cf92"), ("sheet2", 5.5, 3358, "fdfdd550d3336725")])
    def test_grid_pinned(self, sheet, pitch, count, digest):
        # count and leading sha256 digits of the sample grid's bytes
        grid, x, y = _polygon_grid(builtin_sheet(sheet).geometry, pitch)
        assert len(grid) == count
        assert hashlib.sha256(grid.tobytes()).hexdigest()[:16] == digest
        assert np.array_equal(x, grid[:, 0]) and np.array_equal(y, grid[:, 1])


class TestRunCorrection:
    def test_requires_peel(self):
        sim = single_region_sim(quiet_params(), centroid=(50.0, 0.0))
        with pytest.raises(SimulationError):
            run_correction(sim)

    def test_already_compacted(self):
        params = quiet_params(region_count=0)
        sim = make_sim(params, peeled=True)
        assert run_correction(sim) == (0, 0, True)

    def test_single_pass_clears_small_region(self):
        # peak 1.1 at the 0.3 reduction stage: region mean ~0.76 before the
        # pass and ~0.63 after, straddling the 0.7 threshold
        params = quiet_params()
        sim = single_region_sim(params, centroid=(50.0, 10.0), a=30.0, b=18.0,
                                theta=0.3, peak=1.1)
        sim.peeled = True
        sim.j = 8
        cycles, paths, converged = run_correction(sim)
        assert (cycles, paths, converged) == (1, 1, True)

    def test_non_convergence_flagged(self):
        # reductions too weak to ever clear the region within the cycle cap
        params = quiet_params(reduction_schedule=(0.01,),
                              correction_max_cycles=4)
        sim = single_region_sim(params, centroid=(50.0, 10.0), peak=4.0)
        sim.peeled = True
        cycles, paths, converged = run_correction(sim)
        assert cycles == 4
        assert not converged


class TestRunExperiment:
    def test_totals_and_invariant(self):
        params = GroundTruthParams()
        log = run_experiment(expert_plan(1), builtin_sheet("sheet1"), params,
                             seed=12,
                             keep_captures=False)
        assert log.in_plan_paths == 16
        assert log.total_paths == 16 + log.correction_paths
        assert len(log.actions) == 19 and len(log.states) == 20
        assert log.captures == []

    def test_bitwise_deterministic(self, tmp_path):
        params = GroundTruthParams()
        paths_out = []
        for run in range(2):
            log = run_experiment(expert_plan(2), builtin_sheet("sheet2"), params,
                                 seed=21)
            target = tmp_path / f"run{run}.jsonl"
            write_log(log, target)
            paths_out.append(target.read_bytes())
        assert paths_out[0] == paths_out[1]

    def test_invalid_plan_rejected_before_execution(self):
        bad = DrapingPlan(actions=(end(),), name="bad")
        with pytest.raises(PlanInvalidError):
            run_experiment(bad, builtin_sheet("sheet1"), GroundTruthParams(), 0)

    def test_plan_without_end_skips_correction(self):
        from layup.plan import ConstraintSet
        p = DrapingPlan(actions=(path(1), peel(), capture()), name="no_end")
        log = run_experiment(p, builtin_sheet("sheet1"), GroundTruthParams(), 3,
                             constraints=ConstraintSet(), keep_captures=False)
        assert log.correction_cycles == 0
        assert log.total_paths == 1

    def test_corrections_add_up_over_every_end(self, monkeypatch):
        # D1 plus a second end: the controller runs at each end, and the log
        # keeps what every run of it returned, not only the last
        returned = []

        def recording(sim):
            returned.append(run_correction(sim))
            return returned[-1]

        monkeypatch.setattr(simulator, "run_correction", recording)
        plan = DrapingPlan(actions=expert_plan(1).actions + (end(),), name="two_ends")
        log = run_experiment(plan, builtin_sheet("sheet1"), GroundTruthParams(), seed=5,
                             keep_captures=False)
        assert len(returned) == 2
        assert log.correction_cycles == sum(cycles for cycles, _, _ in returned)
        assert log.correction_paths == sum(paths for _, paths, _ in returned) >= 7
        assert log.correction_converged == all(ok for _, _, ok in returned)
        assert log.total_paths == log.in_plan_paths + log.correction_paths

    def test_log_round_trip(self, tmp_path):
        params = GroundTruthParams()
        log = run_experiment(expert_plan(1), builtin_sheet("sheet1"), params,
                             seed=30)
        target = tmp_path / "log.jsonl"
        write_log(log, target)
        back = read_log(target)
        assert back.plan_name == log.plan_name
        assert back.total_paths == log.total_paths
        assert back.actions == log.actions
        assert [s.to_json() for s in back.states] == [s.to_json() for s in log.states]
        assert back.captures == []
        # the captures go to a file of their own, each frame once
        sidecar = tmp_path / "captures.npy"
        write_capture_frames(sidecar, log.captures)
        frames = read_capture_frames(sidecar)
        assert [fr.t for fr in frames] == list(range(len(log.states)))
        assert len(frames) == len(log.captures)
        for a, b in zip(log.captures, frames):
            assert a.t == b.t
            assert a.points.tobytes() == b.points.tobytes()

    def test_steps_view_pairs_consecutive_states(self):
        log = run_experiment(expert_plan(1), builtin_sheet("sheet1"), GroundTruthParams(),
                             seed=30)
        steps = log.steps
        assert [rec.index for rec in steps] == list(range(1, len(log.actions) + 1))
        for i, rec in enumerate(steps, start=1):
            assert rec.action is log.actions[i - 1]
            assert rec.state_before is log.states[i - 1] and rec.state_after is log.states[i]
            assert rec.capture_before is log.captures[i - 1]
            assert rec.capture_after is log.captures[i]
        steps.clear()
        assert len(log.steps) == len(log.actions)

    @pytest.mark.parametrize("change, message", [
        (lambda log: {"states": log.states[:2] + [replace(
            log.states[2], geometry=builtin_sheet("sheet2").geometry)] + log.states[3:]},
         r"^state 2 is on another geometry"),
        (lambda log: {"states": log.states[:-1], "captures": log.captures[:-1]},
         r"^19 actions, 19 states and 19 captures"),
        (lambda log: {"actions": [], "states": log.states[:1], "captures": log.captures[:1]},
         r"^0 actions, 1 states and 1 captures"),
        (lambda log: {"captures": log.captures[:-1]}, r"^19 actions, 20 states and 19 captures"),
    ], ids=["other-geometry", "n-states", "state-without-actions", "capture-count"])
    def test_log_refuses_what_it_cannot_hold(self, change, message):
        log = run_experiment(expert_plan(1), builtin_sheet("sheet1"), GroundTruthParams(),
                             seed=30)
        with pytest.raises(ValueError, match=message):
            replace(log, **change(log))

    def test_log_takes_an_equal_geometry(self):
        # a geometry that is not state 0's object but writes the same JSON
        log = run_experiment(expert_plan(1), builtin_sheet("sheet1"), GroundTruthParams(),
                             seed=30, keep_captures=False)
        copy = SheetGeometry.from_json(log.states[0].geometry.to_json())
        assert copy is not log.states[0].geometry
        states = log.states[:2] + [replace(log.states[2], geometry=copy)] + log.states[3:]
        assert replace(log, states=states).states[2].geometry is copy

    def test_params_round_trip(self, tmp_path):
        params = GroundTruthParams(region_count=4, edge_drift=1.5)
        target = tmp_path / "gt.json"
        params.save(target)
        assert GroundTruthParams.load(target) == params


def test_simulator_imports_no_planner():
    # the simulator stands in for the robot cell: it executes plans and
    # aims its own refinement passes, so it needs neither the search nor
    # the learned effect model
    out = subprocess.run([sys.executable, "-c", "import sys, layup.simulator; "
                          "print(' '.join(sorted(sys.modules)))"],
                         env=src_env(), capture_output=True, text=True, check=True).stdout.split()
    assert "layup.simulator" in out
    assert "layup.search" not in out and "layup.effectiveness" not in out
