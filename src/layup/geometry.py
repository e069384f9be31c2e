"""Planar helpers shared across the package: polygons, rays, axial angles.

Coordinates are millimeters in the sheet frame (origin at the sheet center,
x right, y up, angles counter-clockwise from +x). Ellipse and roller-path
orientations are axial: a direction and its opposite describe the same line,
so their arithmetic is modulo pi.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ROLLER_HALF_WIDTH_DEFAULT = 15.0  # mm, foam roller footprint half-width


def fold_axial(theta):
    """theta mod pi, elementwise, and 0 where that rounds to pi; a numpy float for a scalar."""
    t = np.mod(theta, np.pi)
    return np.where(t >= np.pi, 0.0, t)[()]


def axial_difference(after, before):
    """Shortest axial rotation from `before` to `after`, in (-pi/2, pi/2], elementwise."""
    d = np.mod(after - before, np.pi)
    return np.where(d > np.pi / 2.0, d - np.pi, d)[()]


def unit_vector(angle: float) -> np.ndarray:
    return np.array([np.cos(angle), np.sin(angle)])


def polygon_area(polygon: np.ndarray) -> float:
    """Unsigned shoelace area of an ordered vertex list."""
    e = _edges(polygon)
    return float(abs(np.dot(e.a[:, 0], e.b[:, 1]) - np.dot(e.a[:, 1], e.b[:, 0])) / 2.0)


def polygon_is_simple(polygon) -> bool:
    """True unless two edges that share no vertex cross, the ends of each lying
    strictly on opposite sides of the other's line."""
    e = _edges(polygon)
    n = len(e.a)
    for i in range(n - 2):
        j = slice(i + 2, n - 1 if i == 0 else n)  # the later edges sharing no vertex with i
        a, b, ab = e.a[j], e.b[j], e.ab[j]
        d1, d2 = _cross(e.ab[i], a - e.a[i]), _cross(e.ab[i], b - e.a[i])
        d3, d4 = _cross(ab, e.a[i] - a), _cross(ab, e.b[i] - a)
        if np.any((d1 * d2 < 0) & (d3 * d4 < 0)):
            return False
    return True


def _cross(u, v):
    """z components of the cross products of matching rows of two (..., 2) arrays."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def point_in_polygon(point, polygon, tol: float = 1e-9):
    """Even-odd test of one point, or of each row of an (n, 2) array.

    Points within `tol` of the boundary count as inside. Returns a bool for
    one point and a bool array for an array of them.
    """
    p = np.asarray(point, dtype=float)
    e = _edges(polygon)
    a, b, ab = e.a, e.b, e.ab
    x, y = p[..., None, 0], p[..., None, 1]  # a trailing axis to pair with the edges
    straddles = (a[:, 1] > y) != (b[:, 1] > y)
    x_cross = a[:, 0] + (y - a[:, 1]) / np.where(straddles, ab[:, 1], 1.0) * ab[:, 0]
    odd = np.sum(straddles & (x < x_cross), axis=-1) % 2 == 1
    rx, ry = x - a[:, 0], y - a[:, 1]
    t = np.clip((rx * ab[:, 0] + ry * ab[:, 1]) / e.length2, 0.0, 1.0)
    on_edge = np.hypot(rx - t * ab[:, 0], ry - t * ab[:, 1]) <= tol
    inside = odd | np.any(on_edge, axis=-1)
    return bool(inside) if p.ndim == 1 else inside


def ray_exit_point(origin, direction, polygon) -> np.ndarray:
    """origin + t * direction at the largest t >= 0 where the ray meets an edge.

    An edge is met up to 1e-9 of its length past either end; edges whose cross
    product with `direction` is under 1e-12 in size are skipped. ValueError if none is met.
    """
    o, d = (np.asarray(v, dtype=float) for v in (origin, direction))
    e = _edges(polygon)
    denom = d[0] * -e.ab[:, 1] - d[1] * -e.ab[:, 0]
    crossed = np.abs(denom) >= 1e-12
    denom = np.where(crossed, denom, 1.0)
    rhs = e.a - o
    t = (rhs[:, 0] * -e.ab[:, 1] - rhs[:, 1] * -e.ab[:, 0]) / denom
    s = (d[0] * rhs[:, 1] - d[1] * rhs[:, 0]) / denom
    t = np.where(crossed & (t >= 0.0) & (-1e-9 <= s) & (s <= 1.0 + 1e-9), t, -np.inf)
    best = np.argmax(t)  # the first of equal ts, as 0.0 and -0.0 differ in o + t * d
    if t[best] == -np.inf:
        raise ValueError("ray does not reach the polygon boundary")
    return o + t[best] * d


def _row_dot(x, y):
    """Dot products of matching rows of two (..., 2) arrays.

    Each is rounded as `x @ y` rounds one pair of vectors (BLAS may fuse the
    multiply and the add), so a point and an array of points get the same bits.
    """
    return (np.asarray(x)[..., None, :] @ np.asarray(y)[..., :, None])[..., 0, 0]


class _EdgeTables(NamedTuple):
    """The per-edge tables of one polygon, shared by every caller and read-only."""

    a: np.ndarray        # (k, 2) edge i runs from a[i]
    b: np.ndarray        # (k, 2) to b[i] = a[i + 1]
    ab: np.ndarray       # (k, 2) b - a
    length2: np.ndarray  # (k,) squared edge lengths, 1 where an edge is a point
    ab_dot: np.ndarray   # (k,) squared edge lengths as `_row_dot` rounds them
    angle: np.ndarray    # (k,) axial direction of each edge, folded into [0, pi)


def _edges(polygon) -> _EdgeTables:
    """The edge tables of an (n, 2) vertex list, built once per distinct vertex bytes."""
    return _edge_tables(np.asarray(polygon, dtype=float).tobytes())


@functools.lru_cache(maxsize=256)
def _edge_tables(key: bytes) -> _EdgeTables:
    a = np.frombuffer(key).reshape(-1, 2)
    b = np.roll(a, -1, axis=0)
    ab = b - a
    length2 = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]
    tables = _EdgeTables(a=a, b=b, ab=ab, length2=np.where(length2 > 0.0, length2, 1.0),
                           ab_dot=_row_dot(ab, ab),
                           angle=fold_axial(np.arctan2(ab[:, 1], ab[:, 0])))
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _closest_on_boundary(point, polygon) -> tuple[np.ndarray, np.ndarray]:
    """The closest point on the polygon boundary and its edge, the first edge on ties.

    Takes one point or an (n, 2) array of them; the edge is a 0-d or (n,)
    index array.
    """
    p = np.asarray(point, dtype=float)[..., None, :]  # against every edge
    e = _edges(polygon)
    proj = _row_dot(p - e.a, e.ab)
    t = np.clip(np.divide(proj, e.ab_dot, out=np.zeros_like(proj), where=e.ab_dot != 0.0),
                0.0, 1.0)
    q = e.a + t[..., None] * e.ab
    off = p - q
    edge = np.argmin(np.sqrt(_row_dot(off, off)), axis=-1)
    return np.take_along_axis(q, edge[..., None, None], axis=-2)[..., 0, :], edge


def nearest_edge_angle(point, polygon):
    """Axial direction of the polygon edge closest to the point, or to each row of an (n, 2) array.

    A numpy float for one point.
    """
    angle = _edges(polygon).angle[_closest_on_boundary(point, polygon)[1]]
    return angle[()]


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
