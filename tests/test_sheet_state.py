import math

import numpy as np
import pytest

from layup.jsonio import LogFormatError
from layup.sheet_state import (CaptureFrame, SheetGeometry, SheetState, average_states,
                               build_state, filter_uncompacted, fit_ellipse,
                               read_capture_frames, sector_rows, segment_regions,
                               write_capture_frames)

from conftest import make_state


def frame_from(points, t=0):
    return CaptureFrame(points=np.asarray(points, dtype=float), t=t)


def polar(deg, r=100.0):
    a = math.radians(deg)
    return np.array([r * math.cos(a), r * math.sin(a)])


class TestAssignSector:
    """`sector_rows`: the wedge of each point, as row sector - 1."""

    def test_first_wedge(self, square_geom):
        assert sector_rows(polar(10.0)[None], square_geom).tolist() == [0]

    def test_boundary_belongs_to_upper_wedge(self, square_geom):
        # (100, 100) sits exactly on the 45-degree boundary
        assert sector_rows(np.array([[100.0, 100.0]]), square_geom).tolist() == [1]

    def test_last_wedge(self, square_geom):
        assert sector_rows(polar(359.0)[None], square_geom).tolist() == [7]

    def test_angle_rounding_up_to_2pi_stays_in_last_wedge(self, square_geom):
        # arctan2 gives -1e-300 here, and -1e-300 + 2*pi rounds to 2*pi
        assert sector_rows(np.array([[100.0, -1e-300]]), square_geom).tolist() == [7]

    def test_center_tie_break(self, square_geom):
        assert sector_rows(np.zeros((1, 2)), square_geom).tolist() == [0]

    def test_signed_zero_center_is_row_0(self, square_geom):
        # arctan2 reads offsets (-0.0, +-0.0) as pi, the wedge opposite row 0
        xy = np.array([[-0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]])
        assert sector_rows(xy, square_geom).tolist() == [0, 0, 0]

    def test_partition(self, square_geom):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-140, 140, size=(500, 2))
        rows = sector_rows(pts, square_geom).tolist()
        # every point lands in the wedge its angle dictates
        for p, row in zip(pts, rows):
            ang = math.atan2(p[1], p[0]) % (2 * math.pi)
            assert row == min(int(ang // (math.pi / 4)), 7)


class TestFilterUncompacted:
    def test_threshold_strict(self):
        fr = frame_from([[0, 0, 0.0], [1, 0, 0.4], [2, 0, 2.1]])
        kept = filter_uncompacted(fr, 0.5)
        assert kept.shape == (1, 3)
        assert kept[0, 2] == 2.1

    def test_fully_compacted(self):
        fr = frame_from([[0, 0, 0.0], [1, 1, 0.0]])
        assert len(filter_uncompacted(fr, 0.5)) == 0

    def test_gaussian_bump_level_set(self):
        # peak 5 bump: h > 0.5 exactly inside radius sigma*sqrt(2 ln 10)
        sigma = 20.0
        xs = np.arange(-80, 81, 4.0)
        gx, gy = np.meshgrid(xs, xs)
        r2 = gx.ravel() ** 2 + gy.ravel() ** 2
        h = 5.0 * np.exp(-r2 / (2 * sigma**2))
        fr = frame_from(np.column_stack([gx.ravel(), gy.ravel(), h]))
        kept = filter_uncompacted(fr, 0.5)
        r_star2 = 2 * sigma**2 * math.log(10.0)
        inside = r2 < r_star2
        assert len(kept) == inside.sum()
        kept_r2 = kept[:, 0] ** 2 + kept[:, 1] ** 2
        assert kept_r2.max() < r_star2

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValueError):
            filter_uncompacted(frame_from([[0, 0, 1.0]]), 0.0)


class TestSegmentRegions:
    def test_two_clusters(self):
        a = np.array([[0, 0, 1.0], [4, 0, 1.0], [0, 4, 1.0]])
        b = a + np.array([100.0, 0, 0])
        groups = segment_regions(np.vstack([a, b]), link_radius=10.0)
        assert len(groups) == 2
        assert [len(g) for g in groups] == [3, 3]

    def test_single_point(self):
        groups = segment_regions(np.array([[1.0, 2.0, 3.0]]), link_radius=10.0)
        assert len(groups) == 1 and len(groups[0]) == 1

    def test_chain_linkage(self):
        pts = np.array([[0, 0, 1.0], [8, 0, 1.0], [16, 0, 1.0]])
        assert len(segment_regions(pts, link_radius=10.0)) == 1

    def test_deterministic_ordering(self):
        rng = np.random.default_rng(11)
        clusters = [rng.normal(c, 2.0, size=(10, 2)) for c in
                    [(50, 0), (-50, 20), (0, -60)]]
        pts = np.vstack([np.column_stack([c, np.ones(len(c))]) for c in clusters])
        groups = segment_regions(pts, link_radius=12.0)
        mins = [(g[:, 0].min(), g[:, 1].min()) for g in groups]
        assert mins == sorted(mins)

    def test_partition_invariant_under_input_order(self):
        rng = np.random.default_rng(14)
        clusters = [rng.normal(c, 3.0, size=(8, 2)) for c in
                    [(40, 40), (-60, 10), (10, -70), (80, -20)]]
        pts = np.vstack([np.column_stack([c, np.ones(len(c))]) for c in clusters])
        permuted = pts[rng.permutation(len(pts))]

        def signature(groups):
            return sorted((len(g), round(float(g[:, 0].min()), 9),
                           round(float(g[:, 1].min()), 9)) for g in groups)

        assert signature(segment_regions(pts, 12.0)) == \
            signature(segment_regions(permuted, 12.0))


class TestFitEllipse:
    def test_line_along_x(self):
        pts = np.column_stack([np.linspace(-10, 10, 21), np.zeros(21), np.ones(21)])
        _, _, _, a, b, theta = fit_ellipse(pts)
        assert theta == 0.0
        assert b == 0.0
        assert a > 0

    def test_isotropic_tie_break(self):
        pts = np.array([[1, 0, 1.0], [-1, 0, 1.0], [0, 1, 1.0], [0, -1, 1.0]])
        _, _, _, a, b, theta = fit_ellipse(pts)
        assert abs(a - b) < 1e-12
        assert theta == 0.0

    def test_single_point_degenerate(self):
        assert fit_ellipse(np.array([[3.0, 4.0, 2.0]])).tolist() == [3.0, 4.0, 2.0, 0.0, 0.0, 0.0]

    def test_recovers_known_gaussian(self):
        rng = np.random.default_rng(42)
        theta = math.radians(30.0)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        xy = rng.normal(size=(10_000, 2)) * [20.0, 5.0] @ rot.T
        _, _, _, a, b, fitted = fit_ellipse(np.column_stack([xy, np.ones(len(xy))]))
        assert abs(a - 40.0) / 40.0 < 0.05
        assert abs(b - 10.0) / 10.0 < 0.05
        assert abs(math.degrees(fitted) - 30.0) < 2.0

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(5)
        xy = rng.normal(size=(300, 2)) * [12.0, 3.0]
        _, _, _, a, b, theta = fit_ellipse(np.column_stack([xy, np.ones(len(xy))]))
        phi = 0.7
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        _, _, _, ta, tb, ttheta = fit_ellipse(np.column_stack([xy @ rot.T, np.ones(len(xy))]))
        assert abs(ta - a) < 1e-6
        assert abs(tb - b) < 1e-6
        d = (ttheta - theta - phi) % math.pi
        assert min(d, math.pi - d) < 1e-9


def bump_points(center, sigma, peak, extent=60.0, pitch=4.0):
    xs = np.arange(center[0] - extent, center[0] + extent + pitch / 2, pitch)
    ys = np.arange(center[1] - extent, center[1] + extent + pitch / 2, pitch)
    gx, gy = np.meshgrid(xs, ys)
    r2 = (gx - center[0]) ** 2 + (gy - center[1]) ** 2
    h = peak * np.exp(-r2 / (2 * sigma**2))
    return np.column_stack([gx.ravel(), gy.ravel(), h.ravel()])


class TestBuildState:
    def test_fully_compacted(self, square_geom):
        pts = bump_points((0, 0), 10.0, 0.0)
        state = build_state(frame_from(pts), square_geom)
        assert not state.count.any()

    def test_single_bump_lands_in_its_sector(self, square_geom):
        center = polar(112.5, 90.0)  # middle of sector 3
        state = build_state(frame_from(bump_points(center, 12.0, 4.0)), square_geom)
        live = (np.flatnonzero(state.count) + 1).tolist()
        assert live == [3]
        s3 = state.mu[2]
        assert np.linalg.norm(s3[:2] - center) < 5.0
        assert s3[2] > 0.5

    def test_weighted_mean_matches_pointwise_oracle(self, square_geom):
        # two well-separated bumps, both inside sector 1
        c1, c2 = polar(8.0, 70.0), polar(38.0, 115.0)
        pts = np.vstack([bump_points(c1, 7.0, 4.0, extent=30),
                         bump_points(c2, 10.0, 3.0, extent=40)])
        frame = frame_from(pts)
        state = build_state(frame, square_geom)
        assert state.count[0] == 2
        # count-weighted mean over regions equals the plain mean of the
        # filtered points, recomputed here from scratch
        kept = pts[pts[:, 2] > 0.5]
        assert np.allclose(state.mu[0, :3], kept.mean(axis=0), atol=1e-9)

    def test_single_region_sigma2_zero(self, square_geom):
        state = build_state(frame_from(bump_points(polar(70, 90), 12.0, 4.0)),
                            square_geom)
        var1, var2 = state.var[1]
        assert state.count[1] == 1
        assert np.all(var2 == 0.0)
        assert var1.sum() > 0

    def test_covariances_psd(self, square_geom):
        rng = np.random.default_rng(8)
        pts = np.column_stack([rng.uniform(-140, 140, (400, 2)),
                               rng.uniform(0, 3.0, 400)])
        state = build_state(frame_from(pts), square_geom)
        assert state.var.shape == (square_geom.sector_count, 2, 3)
        assert (state.var >= 0.0).all()

    def test_height_scaling_exact_on_fixed_level_set(self, square_geom):
        # discrete heights keep the filtered point set identical under
        # scaling, so the mean height scales exactly and xy stays put
        rng = np.random.default_rng(12)
        xy = polar(200, 100) + rng.normal(0, 6, size=(40, 2))
        h = rng.choice([2.0, 3.0, 4.0], size=40)
        pts = np.column_stack([xy, h])
        doubled = pts.copy()
        doubled[:, 2] *= 2.0
        s_base = build_state(frame_from(pts), square_geom)
        s_doubled = build_state(frame_from(doubled), square_geom)
        for a, a_n, b, b_n in zip(s_base.mu, s_base.count, s_doubled.mu, s_doubled.count):
            assert (a_n == 0) == (b_n == 0)
            if a_n == 0:
                continue
            assert np.array_equal(b[:2], a[:2])
            assert b[2] == pytest.approx(2.0 * a[2], rel=1e-12)
            assert np.array_equal(b[3:5], a[3:5])

    def test_deterministic(self, square_geom):
        pts = bump_points(polar(300, 100), 15.0, 5.0)
        a = build_state(frame_from(pts), square_geom)
        b = build_state(frame_from(pts), square_geom)
        assert a.to_json() == b.to_json()


class TestStateJson:
    def test_rejects_moments_of_one_wrong_shape_throughout(self, square_geom):
        # no sector disagrees with another, so only the shape itself is wrong
        obj = make_state(square_geom).to_json()
        obj["var"] = [[[0.0, 0.0]] * 2] * square_geom.sector_count
        with pytest.raises(ValueError, match="var"):
            SheetState.from_json(obj, square_geom)

    @pytest.mark.parametrize("count", [[1] * 7, [1] * 9, [1.0] * 8, [True] * 8, 3],
                             ids=["short", "long", "floats", "booleans", "not-a-list"])
    def test_rejects_a_count_that_is_not_one_integer_per_sector(self, square_geom, count):
        obj = {**make_state(square_geom).to_json(), "count": count}
        with pytest.raises((TypeError, ValueError), match="count"):
            SheetState.from_json(obj, square_geom)


class TestCaptureIO:
    def test_round_trip(self, tmp_path):
        frames = [CaptureFrame(points=np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 0.1]]), t=0),
                  CaptureFrame(points=np.array([[5.0, 6.0, 0.0]]), t=1)]
        target = tmp_path / "caps.npy"
        write_capture_frames(target, frames)
        back = read_capture_frames(target)
        assert len(back) == 2
        for orig, rt in zip(frames, back):
            assert rt.t == orig.t
            assert np.array_equal(rt.points, orig.points)

    def test_bad_frame_names_its_number(self, tmp_path):
        target = tmp_path / "caps.npy"
        write_capture_frames(target, [frame_from([[0.0, 0.0, 1.0]]),
                                      frame_from([[5.0, 6.0, 2.0]], t=1)])
        data = target.read_bytes()
        target.write_bytes(data[:-8] + np.array([-2.0], dtype="<f8").tobytes())
        with pytest.raises(LogFormatError, match=r"caps\.npy: frame 2: heights must be nonneg"):
            read_capture_frames(target)

    def test_no_frames_read_back_as_an_empty_list(self, tmp_path):
        target = tmp_path / "caps.npy"
        write_capture_frames(target, [])
        assert read_capture_frames(target) == []

    @pytest.mark.parametrize("t", [2**63, -2**63 - 1])
    def test_t_outside_int64_is_a_value_error(self, tmp_path, t):
        with pytest.raises(ValueError, match="int64"):
            write_capture_frames(tmp_path / "caps.npy", [frame_from([[0.0, 0.0, 1.0]], t=t)])
        assert not (tmp_path / "caps.npy").exists()


class TestAverageStates:
    def test_union_of_live_sectors(self, square_geom):
        s_a = build_state(frame_from(bump_points(polar(20, 90), 10, 4.0)), square_geom)
        s_b = build_state(frame_from(bump_points(polar(200, 90), 10, 4.0)), square_geom)
        avg = average_states([s_a, s_b])
        live = set((np.flatnonzero(avg.count) + 1).tolist())
        assert live == {1, 5}

    def test_mean_of_means(self, square_geom):
        sa = make_state(square_geom, {1: ([1.0, 2.0, 3.0, 4.0, 2.0, 0.5], np.ones(3), 1)})
        sb = make_state(square_geom, {1: ([3.0, 4.0, 5.0, 6.0, 4.0, 1.5], np.ones(3), 1)})
        avg = average_states([sa, sb])
        assert np.allclose(avg.mu[0, :3], [2.0, 3.0, 4.0])
        assert np.allclose(avg.mu[0, 3:], [5.0, 3.0, 1.0])
