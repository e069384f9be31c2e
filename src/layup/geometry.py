"""Planar helpers shared across the package: polygons, rays, axial angles.

Coordinates are millimeters in the sheet frame (origin at the sheet center,
x right, y up, angles counter-clockwise from +x). Ellipse and roller-path
orientations are axial: a direction and its opposite describe the same line,
so their arithmetic is modulo pi.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

ROLLER_HALF_WIDTH_DEFAULT = 15.0  # mm, foam roller footprint half-width


def fold_axial(theta):
    """Fold an axial orientation, or each of an array of them, into [0, pi)."""
    t = np.mod(theta, np.pi)
    if np.ndim(t) == 0:
        return 0.0 if t >= np.pi else float(t)  # fp edge when theta is a tiny negative number
    t[t >= np.pi] = 0.0
    return t


def axial_difference(after, before):
    """Signed shortest axial rotation from `before` to `after`, in (-pi/2, pi/2].

    Elementwise when given arrays.
    """
    d = np.mod(after - before, np.pi)
    if np.ndim(d) == 0:
        return float(d - np.pi) if d > np.pi / 2.0 else float(d)
    d[d > np.pi / 2.0] -= np.pi
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


def _row_dot(x, y):
    """Dot products of matching rows of two (..., 2) arrays.

    Each is rounded as `x @ y` rounds one pair of vectors (BLAS may fuse the
    multiply and the add), so a point and an array of points get the same bits.
    """
    return (np.asarray(x)[..., None, :] @ np.asarray(y)[..., :, None])[..., 0, 0]


def _closest_on_boundary(point, polygon) -> tuple[np.ndarray, np.ndarray]:
    """The closest point on the polygon boundary and its edge, the first edge on ties.

    Takes one point or an (n, 2) array of them; the edge is a 0-d or (n,)
    index array.
    """
    p = np.asarray(point, dtype=float)[..., None, :]  # against every edge
    a = np.asarray(polygon, dtype=float)
    ab = np.roll(a, -1, axis=0) - a  # edge i runs from a[i] to a[i + 1]
    denom = _row_dot(ab, ab)
    proj = _row_dot(p - a, ab)
    t = np.clip(np.divide(proj, denom, out=np.zeros_like(proj), where=denom != 0.0), 0.0, 1.0)
    q = a + t[..., None] * ab
    off = p - q
    edge = np.argmin(np.sqrt(_row_dot(off, off)), axis=-1)
    return np.take_along_axis(q, edge[..., None, None], axis=-2)[..., 0, :], edge


def nearest_edge_angle(point, polygon):
    """Axial direction of the polygon edge closest to the point, or to each row of an (n, 2) array."""
    poly = np.asarray(polygon, dtype=float)
    e = np.roll(poly, -1, axis=0) - poly
    angle = fold_axial(np.arctan2(e[:, 1], e[:, 0]))[_closest_on_boundary(point, poly)[1]]
    return float(angle) if np.ndim(angle) == 0 else angle


def nearest_boundary_point(point, polygon) -> np.ndarray:
    """Closest point on the polygon boundary, of one point or of each row of an (n, 2) array."""
    return _closest_on_boundary(point, polygon)[0]


def clamp_into_polygon(point, polygon, margin: float = 2.0) -> np.ndarray:
    """Pull a point that escaped the polygon back inside, `margin` mm off the edge.

    Takes one point or an (n, 2) array, each row clamped on its own; points
    inside come back unchanged.
    """
    p = np.asarray(point, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    rows = p.reshape(-1, 2)
    out = ~point_in_polygon(rows, poly)
    if not out.any():
        return p
    q = nearest_boundary_point(rows[out], poly)
    inward = poly.mean(axis=0) - q
    norm = np.sqrt(_row_dot(inward, inward))[:, None]
    pulled = q + inward / np.where(norm < 1e-12, 1.0, norm) * np.minimum(margin, norm)
    rows = rows.copy()
    rows[out] = np.where(norm < 1e-12, q, pulled)
    return rows.reshape(p.shape)


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

    @functools.cached_property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))

    @functools.cached_property
    def direction(self) -> np.ndarray:
        d = self.end - self.start
        return d / np.linalg.norm(d)

    @functools.cached_property
    def angle(self) -> float:
        d = self.direction
        return float(np.arctan2(d[1], d[0]))


_OUTLINE_SAMPLES = 64  # outline points of each ellipse that swept_rect_hits tests
_OUTLINE_ANGLES = np.linspace(0.0, 2.0 * np.pi, _OUTLINE_SAMPLES, endpoint=False)
_OUTLINE_COS, _OUTLINE_SIN = np.cos(_OUTLINE_ANGLES), np.sin(_OUTLINE_ANGLES)


def swept_rect_hits(centroids, a, b, theta, path: PathGeometry) -> np.ndarray:
    """Which ellipses (2-sigma outlines) meet the rectangle swept by the path.

    Ellipse i has centroid row i of the (n, 2) `centroids`, semi-axes a[i]
    and b[i] and major-axis orientation theta[i]; returns an (n,) bool array.
    This is the sampled test: an ellipse hits when its center or one of
    _OUTLINE_SAMPLES outline points lies in the rectangle, or when a
    rectangle corner lies inside it (the rectangle swallowed whole). It
    misses only hairline tangencies between samples, which the process
    noise makes irrelevant. The exact test (the center inside the swath
    mapped to the unit circle, or an edge within distance 1) calls a few of
    those tangencies hits, which moves a summary the benchmark reference
    pins (sheet2, seed 64), so it waits for the next re-record of that
    reference. Each ellipse's products are taken in the same matrix shapes
    as when it is tested alone, so its result does not depend on the others.
    """
    c = np.asarray(centroids, dtype=float).reshape(-1, 2)
    a, b, theta = (np.asarray(v, dtype=float).reshape(-1) for v in (a, b, theta))
    u = path.direction
    nvec = np.array([-u[1], u[0]])

    def in_rect(points: np.ndarray) -> np.ndarray:  # (n, k, 2) -> (n, k)
        rel = points - path.start
        along = rel @ u
        return (along >= 0.0) & (along <= path.length) & (np.abs(rel @ nvec) <= path.half_width)

    hit = in_rect(c[:, None, :])[:, 0]
    rest = np.flatnonzero(~hit & (a > 0.0))
    if len(rest):
        c, a, b = c[rest, None, :], a[rest, None], b[rest, None]
        ca, sa = np.cos(theta[rest]), np.sin(theta[rest])
        major, minor = np.stack([ca, sa], axis=-1), np.stack([-sa, ca], axis=-1)
        local = np.stack([a * _OUTLINE_COS, b * _OUTLINE_SIN], axis=-1)
        outline = c + local @ np.stack([major, minor], axis=-2)
        corners = np.array([path.start + path.half_width * nvec,
                            path.start - path.half_width * nvec,
                            path.end + path.half_width * nvec,
                            path.end - path.half_width * nvec])
        rel = corners - c
        xr = (rel @ major[..., None])[..., 0]
        yr = (rel @ minor[..., None])[..., 0]
        swallowed = (xr / a) ** 2 + (yr / np.maximum(b, 1e-9)) ** 2 <= 1.0
        hit[rest] = in_rect(outline).any(axis=1) | swallowed.any(axis=1)
    return hit
