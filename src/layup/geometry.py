"""Planar helpers shared across the package: polygons, rays, axial angles.

Coordinates are millimeters in the sheet frame (origin at the sheet center,
x right, y up, angles counter-clockwise from +x). Ellipse and roller-path
orientations are axial: a direction and its opposite describe the same line,
so their arithmetic is modulo pi.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROLLER_HALF_WIDTH_DEFAULT = 15.0  # mm, foam roller footprint half-width


def fold_axial(theta: float) -> float:
    """Fold an axial orientation into [0, pi)."""
    t = float(np.mod(theta, np.pi))
    if t >= np.pi:  # fp edge when theta is a tiny negative number
        t = 0.0
    return t


def axial_difference(after: float, before: float) -> float:
    """Signed shortest axial rotation from `before` to `after`, in (-pi/2, pi/2]."""
    d = float(np.mod(after - before, np.pi))
    if d > np.pi / 2.0:
        d -= np.pi
    return d


def unit_vector(angle: float) -> np.ndarray:
    return np.array([np.cos(angle), np.sin(angle)])


def polygon_area(polygon: np.ndarray) -> float:
    """Unsigned shoelace area of an ordered vertex list."""
    p = np.asarray(polygon, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


def polygon_is_simple(polygon) -> bool:
    """No two non-adjacent edges cross (shared endpoints excepted)."""
    poly = np.asarray(polygon, dtype=float)
    n = len(poly)

    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def crosses(p1, p2, q1, q2):
        d1 = cross2(p2 - p1, q1 - p1)
        d2 = cross2(p2 - p1, q2 - p1)
        d3 = cross2(q2 - q1, p1 - q1)
        d4 = cross2(q2 - q1, p2 - q1)
        return (d1 * d2 < 0) and (d3 * d4 < 0)

    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share a vertex
            if crosses(poly[i], poly[(i + 1) % n], poly[j], poly[(j + 1) % n]):
                return False
    return True


def point_in_polygon(point, polygon, tol: float = 1e-9):
    """Even-odd test of one point, or of each row of an (n, 2) array.

    Points within `tol` of the boundary count as inside. Returns a bool for
    one point and a bool array for an array of them.
    """
    p = np.asarray(point, dtype=float)
    a = np.asarray(polygon, dtype=float)
    b = np.concatenate([a[1:], a[:1]])  # edge i runs from a[i] to b[i]
    ab = b - a
    x, y = p[..., None, 0], p[..., None, 1]  # a trailing axis to pair with the edges
    straddles = (a[:, 1] > y) != (b[:, 1] > y)
    x_cross = a[:, 0] + (y - a[:, 1]) / np.where(straddles, ab[:, 1], 1.0) * ab[:, 0]
    odd = np.sum(straddles & (x < x_cross), axis=-1) % 2 == 1
    rx, ry = x - a[:, 0], y - a[:, 1]
    length2 = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]
    t = np.clip((rx * ab[:, 0] + ry * ab[:, 1]) / np.where(length2 > 0.0, length2, 1.0),
                0.0, 1.0)
    on_edge = np.hypot(rx - t * ab[:, 0], ry - t * ab[:, 1]) <= tol
    inside = odd | np.any(on_edge, axis=-1)
    return bool(inside) if p.ndim == 1 else inside


def ray_exit_point(origin, direction, polygon) -> np.ndarray:
    """Where the ray origin + t*direction (t >= 0) last crosses the boundary.

    The origin is expected inside the polygon; raises ValueError when the ray
    never meets the boundary.
    """
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    n = len(poly)
    best_t = None
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        e = b - a
        denom = d[0] * (-e[1]) - d[1] * (-e[0])
        if abs(denom) < 1e-12:
            continue
        rhs = a - o
        t = (rhs[0] * (-e[1]) - rhs[1] * (-e[0])) / denom
        s = (d[0] * rhs[1] - d[1] * rhs[0]) / denom
        if t >= 0.0 and -1e-9 <= s <= 1.0 + 1e-9:
            if best_t is None or t > best_t:
                best_t = t
    if best_t is None:
        raise ValueError("ray does not reach the polygon boundary")
    return o + best_t * d


def _closest_on_boundary(point, polygon) -> tuple[np.ndarray, int]:
    """The closest point on the polygon boundary and its edge, the first edge on ties."""
    p = np.asarray(point, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    best, best_edge, best_d = None, 0, np.inf
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
        q = a + t * ab
        d = float(np.linalg.norm(p - q))
        if d < best_d:
            best, best_edge, best_d = q, i, d
    return best, best_edge


def nearest_edge_angle(point, polygon) -> float:
    """Axial direction of the polygon edge closest to the point."""
    poly = np.asarray(polygon, dtype=float)
    i = _closest_on_boundary(point, poly)[1]
    e = poly[(i + 1) % len(poly)] - poly[i]
    return fold_axial(float(np.arctan2(e[1], e[0])))


def nearest_boundary_point(point, polygon) -> np.ndarray:
    """Closest point on the polygon boundary."""
    return _closest_on_boundary(point, polygon)[0]


def clamp_into_polygon(point, polygon, margin: float = 2.0) -> np.ndarray:
    """Pull a point that escaped the polygon back inside, `margin` mm off the edge."""
    p = np.asarray(point, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    if point_in_polygon(p, poly):
        return p
    q = nearest_boundary_point(p, poly)
    centroid = poly.mean(axis=0)
    inward = centroid - q
    norm = float(np.linalg.norm(inward))
    if norm < 1e-12:
        return q
    return q + inward / norm * min(margin, norm)


@dataclass(frozen=True)
class PathGeometry:
    """A straight roller pass: segment from start to end with half-width w."""

    start: np.ndarray
    end: np.ndarray
    half_width: float = ROLLER_HALF_WIDTH_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        object.__setattr__(self, "end", np.asarray(self.end, dtype=float))
        if np.allclose(self.start, self.end):
            raise ValueError("path start and end coincide")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))

    @property
    def direction(self) -> np.ndarray:
        d = self.end - self.start
        return d / np.linalg.norm(d)

    @property
    def angle(self) -> float:
        d = self.direction
        return float(np.arctan2(d[1], d[0]))


_OUTLINE_SAMPLES = 64  # points of the ellipse outline that ellipse_hits_swept_rect tests


def ellipse_hits_swept_rect(centroid, a: float, b: float, theta: float,
                            path: PathGeometry) -> bool:
    """Does the ellipse (2-sigma outline) meet the rectangle swept by the path?

    Checked by sampling the ellipse outline at _OUTLINE_SAMPLES points plus
    containment tests in both directions; exact for all but hairline
    tangencies, which the process noise makes irrelevant.
    """
    c = np.asarray(centroid, dtype=float)
    u = path.direction
    nvec = np.array([-u[1], u[0]])
    length = path.length

    def any_in_rect(points: np.ndarray) -> bool:
        rel = points - path.start
        along = rel @ u
        perp = rel @ nvec
        return bool(np.any((along >= 0.0) & (along <= length)
                           & (np.abs(perp) <= path.half_width)))

    if any_in_rect(c[None, :]):
        return True
    if a <= 0.0:
        return False
    t = np.linspace(0.0, 2.0 * np.pi, _OUTLINE_SAMPLES, endpoint=False)
    ca, sa = np.cos(theta), np.sin(theta)
    local = np.column_stack([a * np.cos(t), b * np.sin(t)])
    outline = c + local @ np.array([[ca, sa], [-sa, ca]])
    if any_in_rect(outline):
        return True
    # rectangle swallowed by the ellipse: test its corners
    corners = np.array([path.start + path.half_width * nvec,
                        path.start - path.half_width * nvec,
                        path.end + path.half_width * nvec,
                        path.end - path.half_width * nvec])
    rel = corners - c
    xr = rel @ np.array([ca, sa])
    yr = rel @ np.array([-sa, ca])
    sb = max(b, 1e-9)
    return bool(np.any((xr / a) ** 2 + (yr / sb) ** 2 <= 1.0))
