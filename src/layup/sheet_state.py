"""Sheet state extraction: height captures -> regions -> per-sector Gaussians.

A capture is a point cloud of (x, y, h) samples, h being height above the
mold surface. Points above a height floor are grouped into uncompacted
regions, each region is fitted with an ellipse, and every angular sector of
the sheet is summarized by two 3-D Gaussians: one over region centroids and
mean height, one over the fitted (major, minor, orientation) triples.

`SheetState` holds those Gaussians as arrays, one row per sector: the means
(k, 6), the covariances (k, 2, 3, 3) and the region counts (k,). The same
object is what the learner differences and what the search propagates and
prices, one state or a batch of them.

Sectors are numbered 1..k counter-clockwise, sector 1 starting at the +x
axis; a wedge owns its lower angular boundary.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import fold_axial, point_in_polygon, polygon_area, polygon_is_simple
from .jsonio import numbers, read_json_lines, typed

H_MIN_DEFAULT = 0.5      # mm, height floor separating compacted from uncompacted
LINK_RADIUS_DEFAULT = 12.0  # mm, single-linkage radius for region growing


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

    def to_json(self) -> dict:
        return {"t": int(self.t), "points": self.points.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "CaptureFrame":
        return cls(points=numbers(obj["points"], (None, 3), "points"), t=typed(obj["t"], 0, "t"))


@dataclass(frozen=True)
class RegionEllipse:
    """Ellipse fitted to one uncompacted region (2-sigma axes convention)."""

    centroid: np.ndarray
    a: float            # major semi-axis, mm
    b: float            # minor semi-axis, mm
    theta: float        # orientation of the major axis, [0, pi)
    mean_height: float  # mm

    def __post_init__(self):
        object.__setattr__(self, "centroid", np.asarray(self.centroid, dtype=float))
        if self.b > self.a + 1e-12:
            raise ValueError("major semi-axis must dominate")
        if not (0.0 <= self.theta < np.pi):
            raise ValueError("theta must lie in [0, pi)")


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
        records = [{"sector": i, "mu1": m[:3], "sigma1": s[0], "mu2": m[3:], "sigma2": s[1],
                    "n": n}
                   for i, (m, s, n) in enumerate(zip(self.mu.tolist(), self.sigma.tolist(),
                                                     self.count.tolist()), start=1)]
        return {"geometry": self.geometry.to_json(), "t": int(self.t), "sectors": records}

    @classmethod
    def from_json(cls, obj: dict) -> "SheetState":
        """A state as `to_json` writes it; KeyError, TypeError or ValueError if malformed.

        Sector records must carry ids 1..k in order, three numbers in mu1
        and mu2, 3x3 numbers in sigma1 and sigma2, and an integer n.
        """
        geometry = SheetGeometry.from_json(obj["geometry"])
        records = obj["sectors"]
        k = geometry.sector_count
        if [typed(rec["sector"], 0, "sector") for rec in records] != list(range(1, k + 1)):
            raise ValueError(f"sector ids must run 1..{k} in order")
        mu = numbers([[rec["mu1"], rec["mu2"]] for rec in records], (k, 2, 3), "mu1 and mu2")
        sigma = numbers([[rec["sigma1"], rec["sigma2"]] for rec in records], (k, 2, 3, 3),
                        "sigma1 and sigma2")
        count = np.array([typed(rec["n"], 0, "n") for rec in records])
        return cls(geometry, mu.reshape(k, 6), sigma, count, typed(obj["t"], 0, "t"))


def assign_sector(point, geom: SheetGeometry) -> int:
    """Angular wedge owning the point; the exact center falls in sector 1."""
    p = np.asarray(point, dtype=float) - geom.center
    if p[0] == 0.0 and p[1] == 0.0:
        return 1
    ang = float(np.arctan2(p[1], p[0]))
    if ang < 0.0:
        ang += 2.0 * np.pi
    width = 2.0 * np.pi / geom.sector_count
    i = int(ang // width) + 1
    return min(i, geom.sector_count)  # guards ang == 2*pi fp edge


def filter_uncompacted(frame: CaptureFrame, h_min: float = H_MIN_DEFAULT) -> np.ndarray:
    """Points strictly above the height floor, original order preserved."""
    if h_min <= 0:
        raise ValueError("h_min must be positive")
    return frame.points[frame.points[:, 2] > h_min]


def _component_labels(n: int, pairs: np.ndarray) -> np.ndarray:
    """Connected component of each of n nodes under the (m, 2) edge list.

    Components are numbered 0, 1, ... in order of their smallest node. Each
    round hooks the larger root of every edge whose ends differ under the
    smaller one, then points every node straight at its root, so a root is
    always its component's smallest node so far.
    """
    root = np.arange(n)
    i, j = pairs[:, 0], pairs[:, 1]
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


def segment_regions(points: np.ndarray, link_radius: float = LINK_RADIUS_DEFAULT) -> list[np.ndarray]:
    """Single-linkage components under the xy link radius.

    Two points share a region iff a chain of points with pairwise xy distance
    <= link_radius connects them. Components are ordered by (min x, min y);
    points inside a component keep their input order.
    """
    if link_radius <= 0:
        raise ValueError("link_radius must be positive")
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return []
    pairs = cKDTree(pts[:, :2]).query_pairs(r=link_radius, output_type="ndarray")
    labels = _component_labels(len(pts), pairs)
    # a stable sort keeps input order inside each component
    order = np.argsort(labels, kind="stable")
    comps = np.split(pts[order], np.cumsum(np.bincount(labels))[:-1])
    comps.sort(key=lambda g: (float(g[:, 0].min()), float(g[:, 1].min())))
    return comps


def fit_ellipse(group: np.ndarray) -> RegionEllipse:
    """Moment-based ellipse: axes are twice the xy covariance's root eigenvalues.

    A single-point group degenerates to a = b = 0, theta = 0. Isotropic
    spreads break the orientation tie toward theta = 0.
    """
    g = np.asarray(group, dtype=float)
    if len(g) == 0:
        raise ValueError("cannot fit an empty group")
    centroid = g[:, :2].mean(axis=0)
    mean_height = float(g[:, 2].mean())
    if len(g) == 1:
        return RegionEllipse(centroid=centroid, a=0.0, b=0.0, theta=0.0,
                             mean_height=mean_height)
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
    return RegionEllipse(centroid=centroid, a=float(a), b=float(b), theta=theta,
                         mean_height=mean_height)


def extract_regions(frame: CaptureFrame, h_min: float = H_MIN_DEFAULT,
                    link_radius: float = LINK_RADIUS_DEFAULT):
    """Filter, segment and fit in one pass; returns (groups, ellipses)."""
    kept = filter_uncompacted(frame, h_min)
    groups = segment_regions(kept, link_radius)
    return groups, [fit_ellipse(g) for g in groups]


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
    groups, ellipses = extract_regions(frame, h_min, link_radius)
    return state_from_regions(groups, ellipses, geom, frame.t)


def state_from_regions(groups: list[np.ndarray], ellipses: list[RegionEllipse],
                       geom: SheetGeometry, t: int) -> SheetState:
    """Per-sector Gaussian summary of segmented regions and their ellipses.

    Regions belong to the sector containing their centroid. G1 is fitted over
    per-region (centroid, mean height) samples weighted by region point
    count; G2 over the per-region (a, b, theta) triples. A sector with one
    region takes its point-level (x, y, h) moments for sigma1 and a zero
    sigma2; a sector with none is the compacted sentinel.
    """
    per_sector: dict[int, list[int]] = {}
    for idx, ell in enumerate(ellipses):
        per_sector.setdefault(assign_sector(ell.centroid, geom), []).append(idx)

    k = geom.sector_count
    mu, sigma, count = np.zeros((k, 6)), np.zeros((k, 2, 3, 3)), np.zeros(k, dtype=int)
    for sector, idxs in per_sector.items():
        ells = [ellipses[j] for j in idxs]
        counts = np.array([len(groups[j]) for j in idxs], dtype=float)
        g1_samples = np.array([[e.centroid[0], e.centroid[1], e.mean_height]
                               for e in ells])
        g2_samples = np.array([[e.a, e.b, e.theta] for e in ells])
        row = sector - 1
        if len(idxs) == 1:
            pts = groups[idxs[0]]
            centered = pts - pts.mean(axis=0)
            mu[row] = np.concatenate([g1_samples[0], g2_samples[0]])
            sigma[row, 0] = _symmetrize(centered.T @ centered / len(pts))
        else:
            mu[row, :3], sigma[row, 0] = _weighted_moments(g1_samples, counts)
            mu[row, 3:] = g2_samples.mean(axis=0)
            centered = g2_samples - mu[row, 3:]
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
    """JSON-lines, one record per capture: {"t": ..., "points": [[x, y, h], ...]}."""
    with open(path, "w") as fh:
        for fr in frames:
            fh.write(json.dumps(fr.to_json()) + "\n")


def read_capture_frames(path) -> list[CaptureFrame]:
    return read_json_lines(path, CaptureFrame.from_json)
