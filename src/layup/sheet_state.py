"""Sheet state extraction: height captures -> regions -> per-sector Gaussians.

A capture is a point cloud of (x, y, h) samples, h being height above the
mold surface. Points above a height floor are grouped into uncompacted
regions, each region is fitted with an ellipse, and every angular sector of
the sheet is summarized by two 3-D Gaussians: one over region centroids and
mean height, one over the fitted (major, minor, orientation) triples.

A fitted region is one row in the layout of a sector mean: centroid x,
centroid y, mean height, major semi-axis, minor semi-axis, orientation. A
capture's regions are one (n, 6) array of such rows, which the sector
summary and the simulator's correction controller read as it is.

`SheetState` holds those Gaussians as arrays, one row per sector: the means
(k, 6), the covariances (k, 2, 3, 3) and the region counts (k,). The same
object is what the learner differences and what the search propagates and
prices, one state or a batch of them.

Sectors are numbered 1..k counter-clockwise, sector 1 starting at the +x
axis; a wedge owns its lower angular boundary.

Capture files hold a run's frames as binary NumPy `.npy` records, read back
bit for bit (`write_capture_frames`, `read_capture_frames`).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import fold_axial, point_in_polygon, polygon_area, polygon_is_simple
from .jsonio import LogFormatError, numbers, typed

H_MIN_DEFAULT = 0.5      # mm, height floor separating compacted from uncompacted
LINK_RADIUS_DEFAULT = 12.0  # mm, single-linkage radius for region growing
CAPTURE_T_DTYPE = np.dtype("<i8")       # capture files: the frames' t
CAPTURE_POINTS_DTYPE = np.dtype("<f8")  # capture files: each frame's points


@dataclass(frozen=True)
class SheetGeometry:
    """Sheet frame: center, bounding polygon (mm) and sector count."""

    center: np.ndarray
    polygon: np.ndarray
    sector_count: int = 8

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "polygon", np.asarray(self.polygon, dtype=float))
        if self.sector_count < 2:
            raise ValueError("sector_count must be at least 2")
        if self.center.shape != (2,) or self.polygon.ndim != 2 or self.polygon.shape[1] != 2:
            raise ValueError("center must be one xy point and polygon a list of them")
        if len(self.polygon) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if not polygon_is_simple(self.polygon):
            raise ValueError("polygon must be simple")
        if not point_in_polygon(self.center, self.polygon):
            raise ValueError("polygon must contain the sheet center")

    @functools.cached_property
    def area(self) -> float:
        return polygon_area(self.polygon)

    def to_json(self) -> dict:
        return {"center": [float(v) for v in self.center],
                "polygon": [[float(x), float(y)] for x, y in self.polygon],
                "sector_count": int(self.sector_count)}

    @classmethod
    def from_json(cls, obj: dict) -> "SheetGeometry":
        return cls(center=numbers(obj["center"], (2,), "center"),
                   polygon=numbers(obj["polygon"], (None, 2), "polygon"),
                   sector_count=typed(obj["sector_count"], 0, "sector_count"))


@dataclass(frozen=True)
class CaptureFrame:
    """One synthetic point-cloud capture; heights are clamped nonnegative upstream."""

    points: np.ndarray  # (N, 3) columns x, y, h in mm
    t: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
            raise ValueError("points must be a non-empty (N, 3) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if np.any(pts[:, 2] < 0):
            raise ValueError("heights must be nonnegative")
        object.__setattr__(self, "points", pts)


@dataclass
class SheetState:
    """Per-sector Gaussians of one sheet, as arrays.

    Row i is sector i + 1. `mu` holds mu1 (centroid x, y and mean height)
    then mu2 (major, minor, orientation), `sigma` the 3x3 covariances sigma1
    and sigma2, and `count` the regions a sector summarizes, 0 marking the
    compacted sentinel (zero moments). A leading axis, when present, indexes
    a batch of alternative states of the same sheet. Construction checks
    nothing; `from_json` checks a state read from outside.
    """

    geometry: SheetGeometry
    mu: np.ndarray     # (..., k, 6)
    sigma: np.ndarray  # (..., k, 2, 3, 3)
    count: np.ndarray  # (..., k) integers
    t: int = 0

    def to_json(self) -> dict:
        """`t` and the three arrays as nested lists; the geometry is not written."""
        return {"t": int(self.t), "mu": self.mu.tolist(), "sigma": self.sigma.tolist(),
                "count": self.count.tolist()}

    @classmethod
    def from_json(cls, obj: dict, geometry: SheetGeometry) -> "SheetState":
        """A state as `to_json` wrote it, on `geometry`; KeyError, TypeError or ValueError if bad.

        With k the geometry's sector count, `mu` must hold k x 6 numbers,
        `sigma` k x 2 x 3 x 3 numbers and `count` k integers, none negative.
        """
        k = geometry.sector_count
        count = numbers(typed(obj["count"], [0], "count"), (k,), "count").astype(int)
        if (count < 0).any():
            raise ValueError("count must hold non-negative integers")
        return cls(geometry, numbers(obj["mu"], (k, 6), "mu"),
                   numbers(obj["sigma"], (k, 2, 3, 3), "sigma"), count, typed(obj["t"], 0, "t"))


def sector_rows(xy: np.ndarray, geom: SheetGeometry) -> np.ndarray:
    """Row (sector - 1) of the angular wedge owning each point of an (n, 2) array.

    A point exactly at the center, signed zeros included, falls in row 0.
    """
    p = np.asarray(xy, dtype=float) - geom.center
    ang = np.arctan2(p[:, 1], p[:, 0])
    ang = np.where(ang < 0.0, ang + 2.0 * np.pi, ang)
    rows = (ang // (2.0 * np.pi / geom.sector_count)).astype(int)
    rows = np.minimum(rows, geom.sector_count - 1)  # guards ang == 2*pi fp edge
    rows[(p[:, 0] == 0.0) & (p[:, 1] == 0.0)] = 0
    return rows


def filter_uncompacted(frame: CaptureFrame, h_min: float = H_MIN_DEFAULT) -> np.ndarray:
    """Points strictly above the height floor, original order preserved."""
    if h_min <= 0:
        raise ValueError("h_min must be positive")
    return frame.points[frame.points[:, 2] > h_min]


def _component_labels(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Connected component of each of n nodes under the edges (i[k], j[k]).

    Components are numbered 0, 1, ... in order of their smallest node. Each
    round hooks the larger root of every edge whose ends differ under the
    smaller one, then points every node straight at its root, so a root is
    always its component's smallest node so far.
    """
    root = np.arange(n)
    while len(i):
        ri, rj = root[i], root[j]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        split = root[i] != root[j]
        i, j = i[split], j[split]
    is_root = root == np.arange(n)
    return (np.cumsum(is_root) - 1)[root]


def _link_pairs(x: np.ndarray, y: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of points (x[i], y[i]), (x[j], y[j]) with dx*dx + dy*dy <= r*r, once each.

    A cell list. Cells have side r, widened by a few ulps of the span so
    that no rounding of a cell index parts two linked points by more than
    one cell, and are keyed column-major with an empty cell on top of each
    column. After one stable sort by key, a point's half stencil is two key
    ranges: the rest of its own cell with the cell above, and the three
    cells of the next column. The pairs are exact while r*r is a normal
    float. Raises ValueError when the points are not finite or span more
    cells of side r than an int64 key can number.
    """
    xlo, ylo = float(x.min()), float(y.min())  # Python floats overflow to inf without a warning
    xspan, yspan = float(x.max()) - xlo, float(y.max()) - ylo
    if not (xspan / r + 2.0) * (yspan / r + 3.0) < 2.0 ** 62:
        raise ValueError("points must be finite and span fewer than 2**62 link_radius cells")
    side = r + 2.0 ** -48 * (r + max(xspan, yspan))
    height = int(yspan / side) + 2
    key = ((x - xlo) / side).astype(np.int64) * height + ((y - ylo) / side).astype(np.int64)
    order = np.argsort(key, kind="stable")
    key = key[order]
    n = len(key)
    ends = np.searchsorted(key, np.concatenate([key + 2, key + (height - 1), key + (height + 2)]))
    # sorted point k meets [starts, stops) at 2k in its own column and at 2k + 1 in the next
    starts, stops = np.empty(2 * n, dtype=np.int64), np.empty(2 * n, dtype=np.int64)
    starts[0::2], starts[1::2] = np.arange(1, n + 1), ends[n:2 * n]
    stops[0::2], stops[1::2] = ends[:n], ends[2 * n:]
    lengths = stops - starts
    total = np.cumsum(lengths)
    j = np.arange(total[-1]) + np.repeat(stops - total, lengths)
    per_point = lengths[0::2] + lengths[1::2]
    xs, ys = x[order], y[order]
    dx, dy = np.repeat(xs, per_point) - xs[j], np.repeat(ys, per_point) - ys[j]
    near = np.flatnonzero(dx * dx + dy * dy <= r * r)
    return np.repeat(order, per_point)[near], order[j[near]]


def segment_regions(points: np.ndarray, link_radius: float = LINK_RADIUS_DEFAULT) -> list[np.ndarray]:
    """Single-linkage components under the xy link radius.

    Two points share a region iff a chain of points with pairwise xy distance
    <= link_radius connects them, the test being dx*dx + dy*dy <=
    link_radius*link_radius in floating point. Components are ordered by
    (min x, min y); points inside a component keep their input order.
    Raises ValueError when link_radius lies outside [1e-150, 1e150] (inside,
    its square is a normal float, which keeps the pairs exact), or when the
    points are not finite or span more link radii than `_link_pairs` can key.
    """
    if not 1e-150 <= link_radius <= 1e150:
        raise ValueError("link_radius must lie in [1e-150, 1e150]")
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return []
    labels = _component_labels(len(pts), *_link_pairs(pts[:, 0], pts[:, 1], link_radius))
    # a stable sort keeps input order inside each component
    order = np.argsort(labels, kind="stable")
    comps = np.split(pts[order], np.cumsum(np.bincount(labels))[:-1])
    comps.sort(key=lambda g: (float(g[:, 0].min()), float(g[:, 1].min())))
    return comps


def fit_ellipse(group: np.ndarray) -> np.ndarray:
    """One region's (6,) row: centroid x, y, mean height, then the moment ellipse.

    The major and minor semi-axes are twice the root eigenvalues of the xy
    covariance, so the minor never exceeds the major, and the orientation of
    the major axis lies in [0, pi). A single-point group degenerates to
    a = b = 0, theta = 0. Isotropic spreads break the orientation tie
    toward theta = 0.
    """
    g = np.asarray(group, dtype=float)
    if len(g) == 0:
        raise ValueError("cannot fit an empty group")
    centroid = g[:, :2].mean(axis=0)
    mean_height = float(g[:, 2].mean())
    if len(g) == 1:
        return np.array([centroid[0], centroid[1], mean_height, 0.0, 0.0, 0.0])
    xy = g[:, :2] - centroid
    cov = xy.T @ xy / len(g)
    evals, evecs = np.linalg.eigh(cov)
    lo, hi = float(max(evals[0], 0.0)), float(max(evals[1], 0.0))
    a, b = 2.0 * np.sqrt(hi), 2.0 * np.sqrt(lo)
    if hi - lo <= 1e-12 * max(1.0, hi):
        theta = 0.0
    else:
        v = evecs[:, 1]
        theta = fold_axial(float(np.arctan2(v[1], v[0])))
    return np.array([centroid[0], centroid[1], mean_height, a, b, theta])


def extract_regions(frame: CaptureFrame, h_min: float = H_MIN_DEFAULT,
                    link_radius: float = LINK_RADIUS_DEFAULT):
    """Filter, segment and fit in one pass; returns (groups, regions).

    `groups` are the point groups `segment_regions` returns and `regions`
    their `fit_ellipse` rows, one (n, 6) array in the same order.
    """
    kept = filter_uncompacted(frame, h_min)
    groups = segment_regions(kept, link_radius)
    return groups, np.array([fit_ellipse(g) for g in groups]).reshape(len(groups), 6)


def _weighted_moments(samples: np.ndarray, weights: np.ndarray):
    w = weights / weights.sum()
    mu = w @ samples
    centered = samples - mu
    cov = (centered * w[:, None]).T @ centered
    return mu, _symmetrize(cov)


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def build_state(frame: CaptureFrame, geom: SheetGeometry,
                h_min: float = H_MIN_DEFAULT,
                link_radius: float = LINK_RADIUS_DEFAULT) -> SheetState:
    """Derive the per-sector Gaussian summary for one capture."""
    groups, regions = extract_regions(frame, h_min, link_radius)
    return state_from_regions(groups, regions, geom, frame.t)


def state_from_regions(groups: list[np.ndarray], regions: np.ndarray,
                       geom: SheetGeometry, t: int) -> SheetState:
    """Per-sector Gaussian summary of segmented regions and their (n, 6) rows.

    Regions belong to the sector containing their centroid. G1 is fitted over
    per-region (centroid, mean height) samples, the first three columns of
    `regions`, weighted by region point count; G2 over the per-region
    (a, b, theta) triples, the last three. A sector with one region takes
    that region's row as its mean, its point-level (x, y, h) moments for
    sigma1 and a zero sigma2; a sector with none is the compacted sentinel.
    """
    per_sector: dict[int, list[int]] = {}
    for idx, row in enumerate(sector_rows(regions[:, :2], geom).tolist()):
        per_sector.setdefault(row, []).append(idx)

    k = geom.sector_count
    mu, sigma, count = np.zeros((k, 6)), np.zeros((k, 2, 3, 3)), np.zeros(k, dtype=int)
    for row, idxs in per_sector.items():
        if len(idxs) == 1:
            pts = groups[idxs[0]]
            centered = pts - pts.mean(axis=0)
            mu[row] = regions[idxs[0]]
            sigma[row, 0] = _symmetrize(centered.T @ centered / len(pts))
        else:
            # fresh (m, 3) arrays: `w @ g1` on a strided view can round differently
            g1, g2 = regions[idxs, :3], regions[idxs, 3:]
            counts = np.array([len(groups[j]) for j in idxs], dtype=float)
            mu[row, :3], sigma[row, 0] = _weighted_moments(g1, counts)
            mu[row, 3:] = g2.mean(axis=0)
            centered = g2 - mu[row, 3:]
            sigma[row, 1] = _symmetrize(centered.T @ centered / len(idxs))
        count[row] = len(idxs)
    return SheetState(geometry=geom, mu=mu, sigma=sigma, count=count, t=t)


def average_states(states: list[SheetState]) -> SheetState:
    """Sector-wise mean of several derived states (historical initialization).

    Each sector averages means and covariances over the states where it is
    non-sentinel; a sector compacted in every input stays sentinel. The
    result carries the first state's geometry and time index 0.
    """
    if not states:
        raise ValueError("need at least one state to average")
    geom = states[0].geometry
    k = geom.sector_count
    if any(s.geometry.sector_count != k for s in states):
        raise ValueError("states mix sector counts")
    mus = np.stack([s.mu for s in states])
    sigmas = np.stack([s.sigma for s in states])
    counts = np.stack([s.count for s in states])
    mu, sigma, count = np.zeros((k, 6)), np.zeros((k, 2, 3, 3)), np.zeros(k, dtype=int)
    for row in range(k):
        live = counts[:, row] != 0
        if live.any():
            mu[row] = np.mean(mus[live, row], axis=0)
            sigma[row] = np.mean(sigmas[live, row], axis=0)
            count[row] = max(1, round(np.mean(counts[live, row])))
    return SheetState(geometry=geom, mu=mu, sigma=sigma, count=count, t=0)


def write_capture_frames(path, frames: list[CaptureFrame]) -> None:
    """Consecutive `.npy` records: the frames' `t`, then each frame's points.

    The first record is the `t` of every frame as one int64 (F,) array, and
    each frame's points follow as a float64 (n, 3) array, in frame order.
    Both dtypes are little-endian whatever the host, and the points' bytes
    are the frame's own, so reading the file back is exact, -0.0 included.
    A `t` outside int64 raises ValueError.
    """
    try:
        times = np.array([int(fr.t) for fr in frames], dtype=CAPTURE_T_DTYPE)
    except OverflowError as exc:
        raise ValueError(f"capture t must fit in int64 ({exc})") from exc
    with open(path, "wb") as fh:
        np.save(fh, times, allow_pickle=False)
        for fr in frames:
            np.save(fh, np.ascontiguousarray(fr.points, dtype=CAPTURE_POINTS_DTYPE),
                    allow_pickle=False)


def _capture_record(fh, where: str, dtype: np.dtype, ndim: int) -> np.ndarray:
    """The next `.npy` record of a capture file, of `dtype` and `ndim` dimensions."""
    try:
        arr = np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, MemoryError) as exc:  # MemoryError: a header claiming too many items
        raise LogFormatError(f"{where}: {exc}") from exc
    if arr.dtype != dtype or arr.ndim != ndim:
        raise LogFormatError(f"{where}: a {arr.ndim}-D {arr.dtype} array, not {ndim}-D {dtype}")
    return arr


def read_capture_frames(path) -> list[CaptureFrame]:
    """The frames `write_capture_frames` wrote; LogFormatError naming the file and frame if bad.

    Each points record is checked by `CaptureFrame`, and the file must end
    after the last frame.
    """
    with open(path, "rb") as fh:
        if fh.read(len(np.lib.format.MAGIC_PREFIX)) != np.lib.format.MAGIC_PREFIX:
            raise LogFormatError(f"{path}: not a capture file (no .npy record at its start)")
        fh.seek(0)
        times = _capture_record(fh, f"{path}: t record", CAPTURE_T_DTYPE, 1)
        frames = []
        for i, t in enumerate(times.tolist(), start=1):
            where = f"{path}: frame {i}"
            points = _capture_record(fh, where, CAPTURE_POINTS_DTYPE, 2)
            try:
                frames.append(CaptureFrame(points, t))
            except ValueError as exc:
                raise LogFormatError(f"{where}: {exc}") from exc
        if fh.read(1):
            raise LogFormatError(f"{path}: bytes after frame {len(frames)}, the last one")
    return frames
