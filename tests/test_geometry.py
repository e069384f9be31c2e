import math

import numpy as np
import pytest

from layup.geometry import (PathGeometry, axial_difference, clamp_into_polygon, fold_axial,
                            nearest_boundary_point, nearest_edge_angle,
                            point_in_polygon, polygon_area, ray_exit_point, swept_rect_hits)

SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) * 100


def test_fold_axial_range():
    for theta in (-7.0, -math.pi, 0.0, 1.0, math.pi, 9.42, 100.0):
        f = fold_axial(theta)
        assert 0.0 <= f < math.pi
        assert abs(math.sin(f - theta)) < 1e-9  # same line


def test_axial_difference_shortest():
    assert axial_difference(0.1, 2.967) == pytest.approx(0.1 - 2.967 + math.pi)
    assert axial_difference(1.0, 1.0) == 0.0
    d = axial_difference(0.0, math.pi / 2)
    assert d == math.pi / 2  # boundary maps to +pi/2, never -pi/2


def test_polygon_area():
    assert polygon_area(SQUARE) == pytest.approx(200.0**2)


def test_point_in_polygon_boundary_inclusive():
    assert point_in_polygon([0, 0], SQUARE)
    assert point_in_polygon([100, 0], SQUARE)
    assert not point_in_polygon([101, 0], SQUARE)


def test_edge_tables_follow_the_polygon_in_place():
    # the per-polygon edge tables are keyed by the vertices, not by the array
    poly = SQUARE.copy()
    assert not point_in_polygon([150, 0], poly)
    assert nearest_edge_angle([80, 10], poly) == pytest.approx(math.pi / 2)
    poly *= 2.0
    assert point_in_polygon([150, 0], poly)
    assert np.allclose(nearest_boundary_point([150, 0], poly), [200, 0])
    assert nearest_edge_angle([10, 180], poly) == pytest.approx(0.0)
    assert poly.flags.writeable  # the caller's array is never frozen


def test_ray_exit_point():
    hit = ray_exit_point([0, 0], [1, 0], SQUARE)
    assert np.allclose(hit, [100, 0])
    hit = ray_exit_point([50, 50], [1, 1] / np.sqrt(2), SQUARE)
    assert np.allclose(hit, [100, 100])
    with pytest.raises(ValueError):
        ray_exit_point([200, 0], [1, 0], SQUARE)


def test_nearest_boundary_and_edge_angle():
    q = nearest_boundary_point([80, 10], SQUARE)
    assert np.allclose(q, [100, 10])
    ang = nearest_edge_angle([80, 10], SQUARE)
    assert ang == pytest.approx(math.pi / 2)  # right edge runs vertically


def test_clamp_into_polygon():
    inside = clamp_into_polygon([50, 50], SQUARE)
    assert np.allclose(inside, [50, 50])
    pulled = clamp_into_polygon([150, 0], SQUARE, margin=2.0)
    assert point_in_polygon(pulled, SQUARE)
    assert pulled[0] <= 100.0


def test_path_geometry_validation():
    with pytest.raises(ValueError):
        PathGeometry(start=np.zeros(2), end=np.zeros(2))
    with pytest.raises(ValueError):
        PathGeometry(start=np.zeros(2), end=np.array([1.0, 0]), half_width=0)


def hits_one(centroid, a, b, theta, path) -> bool:
    """`swept_rect_hits` of one ellipse."""
    hits = swept_rect_hits([centroid], [a], [b], [theta], path)
    assert hits.shape == (1,)
    return bool(hits[0])


class TestEllipseSweptRect:
    def path(self):
        return PathGeometry(start=np.array([0.0, 0.0]), end=np.array([100.0, 0.0]),
                            half_width=15.0)

    def test_centroid_inside(self):
        assert hits_one([50, 5], 10, 5, 0.0, self.path())

    def test_outline_overlap(self):
        # centroid outside the band, outline reaching in
        assert hits_one([50, 22], 10, 10, 0.0, self.path())
        assert not hits_one([50, 40], 10, 10, 0.0, self.path())

    def test_orientation_matters(self):
        # a slender ellipse near the band only reaches it point-first
        assert hits_one([50, 30], 20, 2, math.pi / 2, self.path())
        assert not hits_one([50, 30], 20, 2, 0.0, self.path())

    def test_rect_inside_big_ellipse(self):
        assert hits_one([50, 0], 200, 150, 0.3, self.path())

    def test_point_region(self):
        assert hits_one([50, 0], 0.0, 0.0, 0.0, self.path())
        assert not hits_one([50, 30], 0.0, 0.0, 0.0, self.path())


def test_swept_rect_against_dense_sampling():
    # no false negatives against a dense interior+outline sample, and every
    # claimed hit is corroborated by a sample within 2 mm of the band
    rng = np.random.default_rng(33)
    for _ in range(200):
        start = rng.uniform(-80, 80, 2)
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        pg = PathGeometry(start=start, end=start + direction * rng.uniform(60, 150),
                          half_width=rng.uniform(8, 20))
        c = rng.uniform(-120, 120, 2)
        a = rng.uniform(5, 40)
        b = rng.uniform(1, a)
        theta = rng.uniform(0, math.pi)
        got = hits_one(c, a, b, theta, pg)

        t = np.linspace(0, 2 * math.pi, 256, endpoint=False)
        r = np.sqrt(rng.uniform(0, 1, (40, 1)))
        ring = np.column_stack([a * np.cos(t), b * np.sin(t)])
        cloud = np.vstack([ring, (r * ring[rng.integers(0, 256, 40)])])
        rot = np.array([[math.cos(theta), math.sin(theta)],
                        [-math.sin(theta), math.cos(theta)]])
        cloud = c + cloud @ rot
        rel = cloud - pg.start
        along = rel @ pg.direction
        perp = rel @ np.array([-pg.direction[1], pg.direction[0]])
        inside = (along >= 0) & (along <= pg.length) & (np.abs(perp) <= pg.half_width)
        near = (along >= -2) & (along <= pg.length + 2) & \
            (np.abs(perp) <= pg.half_width + 2)
        if inside.any():
            assert got
        if got and not near.any():
            # only remaining hit mode: the band sits inside the ellipse, so
            # its center must satisfy the ellipse inequality
            mid = (pg.start + pg.end) / 2 - c
            u = mid @ np.array([math.cos(theta), math.sin(theta)])
            v = mid @ np.array([-math.sin(theta), math.cos(theta)])
            assert (u / a) ** 2 + (v / max(b, 1e-9)) ** 2 <= 1.0


def test_polygon_simplicity():
    from layup.geometry import polygon_is_simple
    assert polygon_is_simple(SQUARE)
    bowtie = np.array([[0, 0], [100, 100], [100, 0], [0, 100]], dtype=float)
    assert not polygon_is_simple(bowtie)


def test_sheet_geometry_rejects_bowtie():
    from layup.sheet_state import SheetGeometry
    bowtie = np.array([[-100, -100], [100, 100], [100, -100], [-100, 100]], dtype=float)
    with pytest.raises(ValueError, match="simple"):
        SheetGeometry(center=np.zeros(2), polygon=bowtie)
