"""Stochastic layup-process simulator standing in for the robot cell.

The ground truth is a set of uncompacted regions (bubbles), each an
ellipse with a peak height, held as arrays with one row per region. Roller
passes squeeze every region they sweep: the height multiplier follows a
per-pass reduction schedule that starts strong and decays with the
cumulative pass count, scaled by how well the pass aligns with the
region's major axis. Passes also push regions toward the sheet edge and
relax their orientation toward edge-orthogonal, the two drifts observed on
real sheets late in a layup. All randomness flows from one 64-bit seed, so
experiments replay bitwise.

Sheets carry characteristic trouble zones (where bubbles tend to form run
after run); per-seed jitter moves, resizes and reshapes the regions, which
is exactly the systematic-plus-noise structure the effect learner feeds on.
"""
from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import (PathGeometry, axial_difference, clamp_into_polygon, fold_axial,
                       nearest_boundary_point, nearest_edge_angle, point_in_polygon,
                       ray_exit_point, swept_rect_hits, unit_vector, ROLLER_HALF_WIDTH_DEFAULT)
from .jsonio import (LogFormatError, config_from_json, read_json, read_json_lines, required,
                     typed)
from .plan import (Action, DrapingPlan, PATH_COUNT_DEFAULT, initial_plan_constraints,
                   path_equivalents, validate)
from .sheet_state import (CaptureFrame, SheetGeometry, SheetState, build_state,
                          extract_regions, state_from_regions, H_MIN_DEFAULT,
                          LINK_RADIUS_DEFAULT)

GRID_PITCH_DEFAULT = 4.0  # mm between synthetic capture samples

logger = logging.getLogger(__name__)


class SimulationError(RuntimeError):
    pass


class PlanInvalidError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


def _default_schedule() -> tuple[float, ...]:
    # strong first pass, decaying linearly to the long-run floor by pass 8
    return tuple(0.8 - 0.5 * j / 7.0 for j in range(8))


@dataclass(frozen=True)
class GroundTruthParams:
    """Knobs of the generative process; all acceptance fixtures pin these."""

    reduction_schedule: tuple[float, ...] = field(default_factory=_default_schedule)
    alignment_floor: float = 0.25
    edge_drift: float = 3.0          # mm of outward push per sweeping pass
    orientation_rate: float = 0.15   # rad of relaxation toward edge-orthogonal per pass
    noise_height: float = 0.06       # mm, per affected region per pass
    noise_xy: float = 1.5            # mm
    noise_size: float = 0.4          # mm on each semi-axis
    noise_theta: float = 0.04        # rad
    sensor_noise: float = 0.05       # mm on every grid sample
    grid_pitch: float = GRID_PITCH_DEFAULT
    roller_half_width: float = ROLLER_HALF_WIDTH_DEFAULT
    extinction_height: float = 0.2   # regions below this peak vanish
    peel_pulse: float = 0.05         # fractional height pull-up when the film peels
    region_count: int = 6
    region_major: tuple[float, float] = (18.0, 38.0)     # mm, semi-axis range
    region_minor_frac: tuple[float, float] = (0.4, 0.9)  # of the major semi-axis
    region_height: tuple[float, float] = (2.0, 5.0)      # mm peak range
    zone_jitter: float = 7.0         # mm scatter of regions about their zone
    theta_jitter: float = 0.25       # rad scatter about the radial orientation
    correction_threshold: float = 0.7  # mm sector mean height that triggers fixing
    correction_max_cycles: int = 10
    h_min: float = H_MIN_DEFAULT
    link_radius: float = LINK_RADIUS_DEFAULT
    seed: int = 0

    def __post_init__(self):
        if not self.reduction_schedule or not all(0.0 < r < 1.0 for r in self.reduction_schedule):
            raise ValueError("reduction factors must lie in (0, 1), at least one of them")
        if any(len(r) != 2 for r in (self.region_major, self.region_minor_frac,
                                     self.region_height)):
            raise ValueError("region ranges must be pairs of numbers")
        if self.edge_drift < 0 or self.orientation_rate < 0:
            raise ValueError("drift rates must be nonnegative")
        for name in ("grid_pitch", "roller_half_width", "h_min", "link_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("region_count", "noise_height", "noise_xy", "noise_size", "noise_theta",
                     "sensor_noise", "extinction_height", "zone_jitter", "theta_jitter",
                     "peel_pulse", "correction_threshold"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0 <= self.alignment_floor <= 1:
            raise ValueError("alignment_floor must lie in [0, 1]")
        if self.correction_max_cycles < 1:
            raise ValueError("correction_max_cycles must be at least 1")
        for name in ("region_major", "region_minor_frac", "region_height"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ValueError(f"{name} must be a range 0 < lo <= hi")

    def reduction(self, j: int) -> float:
        """Reduction factor for the j-th cumulative pass (j >= 1)."""
        sched = self.reduction_schedule
        return sched[min(j, len(sched)) - 1]

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["version"] = 1
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "GroundTruthParams":
        return config_from_json(cls, obj)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "GroundTruthParams":
        return read_json(path, cls.from_json)


@dataclass(frozen=True)
class SheetSpec:
    """A sheet family: outline plus the characteristic trouble-zone directions."""

    name: str
    geometry: SheetGeometry
    zones: tuple[tuple[float, float], ...]  # (angle rad, radius fraction) pairs


def _rect(width: float, height: float) -> np.ndarray:
    w, h = width / 2.0, height / 2.0
    return np.array([[w, h], [-w, h], [-w, -h], [w, -h]])


_BUILTIN_SHEETS = {
    "sheet1": SheetSpec(
        name="sheet1",
        geometry=SheetGeometry(center=np.zeros(2), polygon=_rect(300.0, 300.0)),
        zones=((np.deg2rad(52.0), 0.50), (np.deg2rad(142.0), 0.50),
               (np.deg2rad(232.0), 0.52), (np.deg2rad(322.0), 0.48)),
    ),
    "sheet2": SheetSpec(
        name="sheet2",
        geometry=SheetGeometry(center=np.zeros(2), polygon=_rect(400.0, 250.0)),
        zones=((np.deg2rad(52.0), 0.52), (np.deg2rad(187.0), 0.55),
               (np.deg2rad(277.0), 0.50)),
    ),
}


def builtin_sheet(name: str) -> SheetSpec:
    try:
        return _BUILTIN_SHEETS[name]
    except KeyError:
        raise ValueError(f"unknown sheet spec {name!r}; "
                         f"built-ins: {sorted(_BUILTIN_SHEETS)}") from None


@dataclass
class SimState:
    """The ground truth of one sheet as the process leaves it.

    The live regions are arrays with one row per region, in the order
    `init_sheet` drew them: `centroids` (n, 2) in mm, the semi-axes `a` and
    `b` (n,) in mm with a >= b, the major-axis orientations `theta` (n,) in
    [0, pi) and the peak heights `peak` (n,) in mm. Sweeps update the rows
    in place and drop the regions that fall below the extinction height.
    """

    spec: SheetSpec
    params: GroundTruthParams
    centroids: np.ndarray
    a: np.ndarray
    b: np.ndarray
    theta: np.ndarray
    peak: np.ndarray
    rng: np.random.Generator
    j: int = 0              # cumulative roller passes
    peeled: bool = False
    capture_index: int = 0

    @property
    def geometry(self) -> SheetGeometry:
        return self.spec.geometry


def init_sheet(spec: SheetSpec, params: GroundTruthParams, seed: int | None = None) -> SimState:
    """Seeded initial ground truth: regions scattered about the sheet's zones."""
    rng = np.random.default_rng(params.seed if seed is None else seed)
    geom = spec.geometry
    rows = []
    # every zone misbehaves every run (that recurrence is what makes the
    # process learnable); extra regions land on random zones
    zone_picks = [spec.zones[i % len(spec.zones)] for i in range(min(params.region_count,
                                                                     len(spec.zones)))]
    for _ in range(params.region_count - len(zone_picks)):
        zone_picks.append(spec.zones[int(rng.integers(len(spec.zones)))])
    for angle, frac in zone_picks:
        direction = unit_vector(angle)
        reach = np.linalg.norm(ray_exit_point(geom.center, direction, geom.polygon)
                               - geom.center)
        centroid = geom.center + direction * frac * reach + rng.normal(0.0, params.zone_jitter, 2)
        centroid = clamp_into_polygon(centroid, geom.polygon, margin=25.0)
        a = float(rng.uniform(*params.region_major))
        b = a * float(rng.uniform(*params.region_minor_frac))
        # bubbles elongate along the stretch direction, i.e. radially outward
        radial = float(np.arctan2(centroid[1] - geom.center[1],
                                  centroid[0] - geom.center[0]))
        theta = fold_axial(radial + float(rng.normal(0.0, params.theta_jitter)))
        peak = float(rng.uniform(*params.region_height))
        rows.append((centroid[0], centroid[1], a, b, theta, peak))
    regions = np.array(rows, dtype=float).reshape(-1, 6)
    a, b, theta, peak = regions[:, 2:].T.copy()
    return SimState(spec=spec, params=params, centroids=regions[:, :2].copy(),
                    a=a, b=b, theta=theta, peak=peak, rng=rng)


_PATH_CACHE: dict[tuple, PathGeometry] = {}


def path_geometry(index: int, geom: SheetGeometry,
                  half_width: float = ROLLER_HALF_WIDTH_DEFAULT) -> PathGeometry:
    """Radial pass number `index`, numbered clockwise from the top-right diagonal.

    The pass depends on its arguments alone, so each is built once and shared.
    """
    if not 1 <= index <= PATH_COUNT_DEFAULT:
        raise ValueError(f"path index {index} outside 1..{PATH_COUNT_DEFAULT}")
    key = (index, geom.center.tobytes(), geom.polygon.tobytes(), float(half_width))
    pg = _PATH_CACHE.get(key)
    if pg is None:
        angle = np.deg2rad(45.0) - (index - 1) * (2.0 * np.pi / PATH_COUNT_DEFAULT)
        direction = unit_vector(angle)
        pg = PathGeometry(start=geom.center.copy(),
                          end=ray_exit_point(geom.center, direction, geom.polygon),
                          half_width=half_width)
        _PATH_CACHE[key] = pg
    return pg


def _noise(sim: SimState, n: int) -> np.ndarray:
    """Process noise of n swept regions: (n, 6) columns height, x, y, a, b, theta.

    A column whose scale is 0 draws nothing and reads 0. One standard_normal
    call fills the rows in the order that per-region `rng.normal` calls,
    region by region and column by column, would draw them.
    """
    p = sim.params
    scale = np.array([p.noise_height, p.noise_xy, p.noise_xy, p.noise_size, p.noise_size,
                      p.noise_theta])
    live = scale > 0
    noise = np.zeros((n, 6))
    noise[:, live] = sim.rng.standard_normal((n, int(live.sum()))) * scale[live]
    return noise


def _sweep(sim: SimState, pg: PathGeometry) -> None:
    p = sim.params
    sim.j += 1
    r = p.reduction(sim.j)
    poly = sim.geometry.polygon
    hit = np.flatnonzero(swept_rect_hits(sim.centroids, sim.a, sim.b, sim.theta, pg))
    if len(hit):
        theta, a, b = sim.theta[hit], sim.a[hit], sim.b[hit]
        alignment = np.minimum(1.0, np.maximum(p.alignment_floor,
                                               np.abs(np.cos(pg.angle - theta))))
        peak = sim.peak[hit] * (1.0 - r * alignment)
        centroids = clamp_into_polygon(sim.centroids[hit] + p.edge_drift * pg.direction, poly,
                                       margin=10.0)
        target = fold_axial(nearest_edge_angle(centroids, poly) + np.pi / 2.0)
        swing = axial_difference(target, theta)
        theta = fold_axial(theta + np.clip(swing, -p.orientation_rate, p.orientation_rate))
        noise = _noise(sim, len(hit))
        if p.noise_height > 0:
            peak = np.maximum(0.0, peak + noise[:, 0])
        if p.noise_xy > 0:
            centroids = clamp_into_polygon(centroids + noise[:, 1:3], poly, margin=10.0)
        if p.noise_size > 0:
            a = np.maximum(1.0, a + noise[:, 3])
            b = np.clip(b + noise[:, 4], 0.5, a)
        if p.noise_theta > 0:
            theta = fold_axial(theta + noise[:, 5])
        sim.centroids[hit], sim.a[hit], sim.b[hit] = centroids, a, b
        sim.theta[hit], sim.peak[hit] = theta, peak
    keep = sim.peak >= p.extinction_height
    if not keep.all():
        sim.centroids, sim.a, sim.b = sim.centroids[keep], sim.a[keep], sim.b[keep]
        sim.theta, sim.peak = sim.theta[keep], sim.peak[keep]


def generate_refinement_paths(state: SheetState, n: int,
                              half_width: float) -> list[PathGeometry]:
    """n corrective passes of the given roller half-width aimed at the worst sectors.

    Sectors rank by severity (mean height times ellipse area, descending) and
    are cycled when n exceeds the non-sentinel count. Each pass runs along
    the sector's mean orientation, signed toward the nearest sheet edge,
    starting one major semi-axis behind the centroid and ending on the
    boundary. With nothing left to fix, n harmless center-to-edge sweeps are
    returned and a warning is emitted through the `logging` module.
    """
    if n < 1:
        raise ValueError("n must be positive")
    geom = state.geometry
    live = np.flatnonzero(state.count).tolist()  # rows of non-sentinel sectors
    if not live:
        logger.warning("refinement paths requested on a fully compacted state; "
                       "emitting %d no-op sweeps", n)
        target = nearest_boundary_point(geom.center, geom.polygon)
        pg = PathGeometry(start=geom.center.copy(), end=target, half_width=half_width)
        return [pg] * n
    mu = state.mu
    live.sort(key=lambda row: (-(mu[row, 2] * mu[row, 3] * mu[row, 4]), row))
    paths = []
    for i in range(n):
        row = live[i % len(live)]
        centroid = clamp_into_polygon(mu[row, :2], geom.polygon, margin=5.0)
        u = unit_vector(mu[row, 5])
        toward_edge = nearest_boundary_point(centroid, geom.polygon) - centroid
        if float(u @ toward_edge) < 0.0:
            u = -u
        a = float(mu[row, 3])
        start = centroid - a * u if a > 0 else centroid.copy()
        end = ray_exit_point(centroid, u, geom.polygon)
        if np.allclose(start, end):
            start = centroid - max(a, 1.0) * u
        paths.append(PathGeometry(start=start, end=end, half_width=half_width))
    return paths


def apply_action(sim: SimState, action: Action, state: SheetState | None = None) -> SimState:
    """Execute one action against the ground truth, in place.

    Path actions sweep their radial pass. A refinement action sweeps the
    passes `generate_refinement_paths` aims from `state`, the latest derived
    state, which it requires. Peel flips the film flag and pulls every
    height up by the peel pulse; capture and end have no physical effect.
    """
    if action.kind == "refinement":
        if state is None:
            raise SimulationError("refinement action executed without a derived state")
        for pg in generate_refinement_paths(state, action.arg, sim.params.roller_half_width):
            _sweep(sim, pg)
    elif action.kind == "path":
        _sweep(sim, path_geometry(action.arg, sim.geometry,
                                  half_width=sim.params.roller_half_width))
    elif action.kind == "peel":
        sim.peeled = True
        sim.peak *= 1.0 + sim.params.peel_pulse
    elif action.kind in ("capture", "end"):
        pass
    else:  # pragma: no cover - Action validates kinds
        raise SimulationError(f"unknown action {action.kind!r}")
    return sim


_GRID_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _polygon_grid(geom: SheetGeometry, pitch: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The capture samples inside the sheet, (n, 2), and their x and y columns, contiguous."""
    key = (geom.polygon.tobytes(), float(pitch))
    grid = _GRID_CACHE.get(key)
    if grid is None:
        lo = geom.polygon.min(axis=0)
        hi = geom.polygon.max(axis=0)
        xs = np.arange(lo[0], hi[0] + pitch / 2.0, pitch)
        ys = np.arange(lo[1], hi[1] + pitch / 2.0, pitch)
        xx, yy = np.meshgrid(xs, ys)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        pts = pts[point_in_polygon(pts, geom.polygon)]
        grid = _GRID_CACHE[key] = (pts, pts[:, 0].copy(), pts[:, 1].copy())
    return grid


def render_capture(sim: SimState) -> CaptureFrame:
    """Synthetic height scan: superposed region bumps plus sensor noise.

    Regions are added one at a time on the grid's columns, in place.
    """
    p = sim.params
    grid, x, y = _polygon_grid(sim.geometry, p.grid_pitch)
    heights = np.zeros(len(grid))
    for (cx, cy), a, b, theta, peak in zip(sim.centroids, sim.a, sim.b, sim.theta, sim.peak):
        ca, si = np.cos(theta), np.sin(theta)
        dx, dy = x - cx, y - cy
        u = dx * ca  # along the major axis
        u += dy * si
        u /= max(a / 2.0, 0.75)
        u *= u
        v = dy * ca  # along the minor axis
        v -= dx * si
        v /= max(b / 2.0, 0.75)
        v *= v
        u += v
        u *= -0.5
        np.exp(u, out=u)
        u *= peak
        heights += u
    if p.sensor_noise > 0:
        heights += sim.rng.normal(0.0, p.sensor_noise, len(grid))
    np.maximum(heights, 0.0, out=heights)
    frame = CaptureFrame(points=np.column_stack([grid, heights]), t=sim.capture_index)
    sim.capture_index += 1
    return frame


def run_correction(sim: SimState) -> tuple[int, int, bool]:
    """Inspect-and-fix loop after the end action.

    Each cycle re-captures, stops once no sector's mean height exceeds the
    correction threshold, and otherwise sweeps one pass per offending region
    straight through its centroid along the major axis. Returns (cycles,
    paths, converged); converged is False when the cycle cap was hit.
    """
    if not sim.peeled:
        raise SimulationError("correction requires the backing film to be peeled")
    p = sim.params
    geom = sim.geometry
    cycles = 0
    paths = 0
    while cycles < p.correction_max_cycles:
        frame = render_capture(sim)
        groups, ellipses = extract_regions(frame, p.h_min, p.link_radius)
        state = state_from_regions(groups, ellipses, geom, frame.t)
        worst = max(state.mu[state.count != 0, 2], default=0.0)  # highest sector mean height
        if worst <= p.correction_threshold:
            return cycles, paths, True
        offenders = [e for e in ellipses if e.mean_height > p.correction_threshold]
        for ell in offenders:
            centroid = clamp_into_polygon(ell.centroid, geom.polygon, margin=5.0)
            u = unit_vector(ell.theta)
            tip = ray_exit_point(centroid, u, geom.polygon)
            tail = ray_exit_point(centroid, -u, geom.polygon)
            _sweep(sim, PathGeometry(start=tail, end=tip,
                                     half_width=p.roller_half_width))
        cycles += 1
        paths += len(offenders)
    return cycles, paths, False


@dataclass
class StepRecord:
    index: int
    action: Action
    state_before: SheetState | None
    state_after: SheetState | None
    capture_before: CaptureFrame | None = None
    capture_after: CaptureFrame | None = None

    def to_json(self) -> dict:
        return {"type": "step", "index": self.index,
                "action": [self.action.kind, self.action.arg],
                "state_before": self.state_before.to_json(),
                "state_after": self.state_after.to_json(),
                "capture_before": None if self.capture_before is None
                else self.capture_before.to_json(),
                "capture_after": None if self.capture_after is None
                else self.capture_after.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "StepRecord":
        kind, arg = obj["action"]
        return cls(index=typed(obj["index"], 0, "index"),
                   action=Action(typed(kind, "", "action kind"),
                                 arg if arg is None else typed(arg, 0, "action argument")),
                   state_before=SheetState.from_json(obj["state_before"]),
                   state_after=SheetState.from_json(obj["state_after"]),
                   capture_before=None if obj["capture_before"] is None
                   else CaptureFrame.from_json(obj["capture_before"]),
                   capture_after=None if obj["capture_after"] is None
                   else CaptureFrame.from_json(obj["capture_after"]))


@dataclass
class ExperimentLog:
    plan_name: str
    sheet: str
    seed: int
    steps: list[StepRecord]
    correction_cycles: int
    correction_paths: int
    correction_converged: bool

    @property
    def in_plan_paths(self) -> int:
        return path_equivalents(rec.action for rec in self.steps)

    @property
    def total_paths(self) -> int:
        return self.in_plan_paths + self.correction_paths


def run_experiment(plan: DrapingPlan, sheet: SheetSpec, params: GroundTruthParams,
                   seed: int, constraints=None, keep_captures: bool = True) -> ExperimentLog:
    """Execute a validated plan against a fresh seeded ground truth.

    A capture is taken before the first action and after every action; the
    end action hands control to the correction controller after its capture,
    so the logged post-end state is the handover state the planner must
    price. A refinement action runs the n roller passes that
    `apply_action` aims from the latest derived state.
    """
    cs = constraints if constraints is not None else initial_plan_constraints()
    violations = validate(plan, cs)
    if violations:
        raise PlanInvalidError(violations)

    sim = init_sheet(sheet, params, seed)
    geom = sheet.geometry
    frame = render_capture(sim)
    state = build_state(frame, geom, params.h_min, params.link_radius)
    steps: list[StepRecord] = []
    cycles = paths = 0
    converged = True

    for idx, action in enumerate(plan.actions, start=1):
        apply_action(sim, action, state)
        frame_after = render_capture(sim)
        state_after = build_state(frame_after, geom, params.h_min, params.link_radius)
        steps.append(StepRecord(
            index=idx, action=action,
            state_before=state, state_after=state_after,
            capture_before=frame if keep_captures else None,
            capture_after=frame_after if keep_captures else None))
        if action.kind == "end":
            cycles, paths, converged = run_correction(sim)
        frame, state = frame_after, state_after

    return ExperimentLog(plan_name=plan.name, sheet=sheet.name, seed=int(seed),
                         steps=steps, correction_cycles=cycles,
                         correction_paths=paths, correction_converged=converged)


# the summary record's fields, each with a value of its JSON type
_SUMMARY = {"type": "", "version": 0, "plan": "", "sheet": "", "seed": 0,
            "correction_cycles": 0, "correction_paths": 0, "correction_converged": True,
            "in_plan_paths": 0, "total_paths": 0}


def summary_from_json(obj: dict) -> dict:
    """A log's summary record, every field present and of its JSON type."""
    summary = required(obj, _SUMMARY)
    if summary["type"] != "summary" or summary["version"] != 1:
        raise ValueError("not a version 1 summary record")
    return summary


def write_log(log: ExperimentLog, path) -> None:
    """JSON-lines: one record per step plus a trailing summary record."""
    with open(path, "w") as fh:
        for rec in log.steps:
            fh.write(json.dumps(rec.to_json()) + "\n")
        fh.write(json.dumps({
            "type": "summary", "version": 1,
            "plan": log.plan_name, "sheet": log.sheet, "seed": log.seed,
            "correction_cycles": log.correction_cycles,
            "correction_paths": log.correction_paths,
            "correction_converged": log.correction_converged,
            "in_plan_paths": log.in_plan_paths,
            "total_paths": log.total_paths,
        }) + "\n")


def _log_record(obj: dict):
    return {"step": StepRecord.from_json, "summary": summary_from_json}[obj["type"]](obj)


def read_log(path) -> ExperimentLog:
    records = read_json_lines(path, _log_record)
    summaries = [rec for rec in records if isinstance(rec, dict)]
    if not summaries:
        raise LogFormatError(f"{path}: missing summary record")
    summary = summaries[-1]
    return ExperimentLog(plan_name=summary["plan"], sheet=summary["sheet"],
                         seed=summary["seed"],
                         steps=[rec for rec in records if isinstance(rec, StepRecord)],
                         correction_cycles=summary["correction_cycles"],
                         correction_paths=summary["correction_paths"],
                         correction_converged=summary["correction_converged"])
