"""Stochastic layup-process simulator standing in for the robot cell.

The ground truth is a set of uncompacted regions (bubbles), each an
ellipse with a peak height, held as one (n, 6) array with a row per region
in the layout of a fitted region row (`sheet_state.fit_ellipse`): centroid
x, y, height, semi-axes a >= b and orientation in [0, pi). Column 2 is the
region's peak height here, where a fitted row holds its mean height. Roller
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

    `regions` holds the live regions, one row each in the order `init_sheet`
    drew them, in the layout of a fitted region row: centroid x, y in mm,
    peak height in mm, semi-axes a >= b in mm and major-axis orientation in
    [0, pi). Column 2 is the peak height, where a fitted row holds the mean
    height of its capture points. Sweeps update the rows in place and drop
    the regions that fall below the extinction height.
    """

    spec: SheetSpec
    params: GroundTruthParams
    regions: np.ndarray  # (n, 6)
    rng: np.random.Generator
    j: int = 0              # cumulative roller passes
    peeled: bool = False
    capture_index: int = 0

    @property
    def geometry(self) -> SheetGeometry:
        return self.spec.geometry


def init_sheet(spec: SheetSpec, params: GroundTruthParams, seed: int) -> SimState:
    """Seeded initial ground truth: regions scattered about the sheet's zones."""
    rng = np.random.default_rng(seed)
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
        rows.append((centroid[0], centroid[1], peak, a, b, theta))
    return SimState(spec=spec, params=params, regions=np.array(rows, dtype=float).reshape(-1, 6),
                    rng=rng)


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
    regions = sim.regions
    hit = np.flatnonzero(swept_rect_hits(regions[:, :2], regions[:, 3], regions[:, 4],
                                         regions[:, 5], pg))
    if len(hit):
        rows = regions[hit]
        a, b, theta = rows[:, 3], rows[:, 4], rows[:, 5]
        alignment = np.minimum(1.0, np.maximum(p.alignment_floor,
                                               np.abs(np.cos(pg.angle - theta))))
        peak = rows[:, 2] * (1.0 - r * alignment)
        centroids = clamp_into_polygon(rows[:, :2] + p.edge_drift * pg.direction, poly,
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
        regions[hit] = np.column_stack([centroids, peak, a, b, theta])
    keep = regions[:, 2] >= p.extinction_height
    if not keep.all():
        sim.regions = regions[keep]


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
        sim.regions[:, 2] *= 1.0 + sim.params.peel_pulse
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
    for cx, cy, peak, a, b, theta in sim.regions:
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
        groups, regions = extract_regions(frame, p.h_min, p.link_radius)
        state = state_from_regions(groups, regions, geom, frame.t)
        worst = max(state.mu[state.count != 0, 2], default=0.0)  # highest sector mean height
        if worst <= p.correction_threshold:
            return cycles, paths, True
        offenders = regions[regions[:, 2] > p.correction_threshold]
        for region in offenders:
            centroid = clamp_into_polygon(region[:2], geom.polygon, margin=5.0)
            u = unit_vector(region[5])
            tip = ray_exit_point(centroid, u, geom.polygon)
            tail = ray_exit_point(centroid, -u, geom.polygon)
            _sweep(sim, PathGeometry(start=tail, end=tip,
                                     half_width=p.roller_half_width))
        cycles += 1
        paths += len(offenders)
    return cycles, paths, False


@dataclass
class StepRecord:
    """Step `index` (from 1) of a log: built by `ExperimentLog.steps`, not stored."""

    index: int
    action: Action
    state_before: SheetState
    state_after: SheetState
    capture_before: CaptureFrame | None = None
    capture_after: CaptureFrame | None = None


@dataclass(frozen=True)
class ExperimentLog:
    """A run as its log and capture sidecar hold it: n actions, the n + 1 states
    derived before the first and after each (none when n is 0), and the frames
    of those states, one each, or none. Construction raises ValueError when a
    list has another length, or naming a state on another geometry than state 0's.
    """

    plan_name: str
    sheet: str
    seed: int
    actions: list[Action]
    states: list[SheetState]
    correction_cycles: int
    correction_paths: int
    correction_converged: bool
    captures: list[CaptureFrame] = field(default_factory=list)

    def __post_init__(self):
        n, states = len(self.actions), self.states
        if len(states) != (n + 1 if n else 0) or len(self.captures) not in (0, len(states)):
            raise ValueError(f"{n} actions, {len(states)} states and {len(self.captures)} captures;"
                             " want n + 1 states (none if n is 0) and as many captures or none")
        for i, state in enumerate(states):
            if state.geometry is not states[0].geometry and \
                    state.geometry.to_json() != states[0].geometry.to_json():
                raise ValueError(f"state {i} is on another geometry than state 0")

    @property
    def steps(self) -> list[StepRecord]:
        """The steps, built afresh from the lists on each read."""
        captures = self.captures or [None] * len(self.states)
        return [StepRecord(i, action, self.states[i - 1], self.states[i],
                           captures[i - 1], captures[i])
                for i, action in enumerate(self.actions, start=1)]

    @property
    def in_plan_paths(self) -> int:
        return path_equivalents(self.actions)

    @property
    def total_paths(self) -> int:
        return self.in_plan_paths + self.correction_paths

    def summary(self) -> dict:
        """The summary record that `write_log` writes last, keys in file order."""
        return {key: value_of(self) for key, _, value_of in SUMMARY_FIELDS}


# The summary record, one field per entry in file order: its key, a value of
# its JSON type, and how an ExperimentLog gives it. `ExperimentLog.summary`
# writes from this table and `summary_from_json` checks against it.
SUMMARY_FIELDS = (
    ("type", "", lambda log: "summary"),
    ("version", 0, lambda log: 1),
    ("plan", "", lambda log: log.plan_name),
    ("sheet", "", lambda log: log.sheet),
    ("seed", 0, lambda log: log.seed),
    ("correction_cycles", 0, lambda log: log.correction_cycles),
    ("correction_paths", 0, lambda log: log.correction_paths),
    ("correction_converged", True, lambda log: log.correction_converged),
    ("in_plan_paths", 0, lambda log: log.in_plan_paths),
    ("total_paths", 0, lambda log: log.total_paths),
)


def run_experiment(plan: DrapingPlan, sheet: SheetSpec, params: GroundTruthParams,
                   seed: int, constraints=None, keep_captures: bool = True) -> ExperimentLog:
    """Execute a validated plan against a fresh seeded ground truth.

    A capture is taken before the first action and after every action; the
    end action hands control to the correction controller after its capture,
    so the logged post-end state is the handover state the planner must
    price. The log's correction cycles and paths sum over every end, and
    it reads converged only if every correction did. A refinement action
    runs the n roller passes that `apply_action` aims from the latest
    derived state. Each action appends the state derived from its capture
    and, with `keep_captures`, the capture itself; without it the log keeps
    no frame.
    """
    cs = constraints if constraints is not None else initial_plan_constraints()
    violations = validate(plan, cs)
    if violations:
        raise PlanInvalidError(violations)

    sim = init_sheet(sheet, params, seed)
    geom = sheet.geometry
    frame = render_capture(sim)
    frames = [frame] if keep_captures else []
    states = [build_state(frame, geom, params.h_min, params.link_radius)]
    cycles = paths = 0
    converged = True

    for action in plan.actions:
        apply_action(sim, action, states[-1])
        frame = render_capture(sim)
        if keep_captures:
            frames.append(frame)
        states.append(build_state(frame, geom, params.h_min, params.link_radius))
        if action.kind == "end":
            c, n, ok = run_correction(sim)
            cycles, paths, converged = cycles + c, paths + n, converged and ok

    return ExperimentLog(plan.name, sheet.name, int(seed), list(plan.actions), states, cycles,
                         paths, converged, frames)


def summary_from_json(obj: dict) -> dict:
    """A log's summary record, every field present and of its JSON type, whose paths add up."""
    summary = required(obj, {key: like for key, like, _ in SUMMARY_FIELDS})
    if summary["type"] != "summary" or summary["version"] != 1:
        raise ValueError("not a version 1 summary record")
    if summary["total_paths"] != summary["in_plan_paths"] + summary["correction_paths"]:
        raise ValueError("total_paths {total_paths} is not in_plan_paths {in_plan_paths} "
                         "plus correction_paths {correction_paths}".format(**summary))
    return summary


LOG_VERSION = 3


def write_log(log: ExperimentLog, path) -> None:
    """JSON lines: a start record, one record per step, then the summary record.

    The start record holds the log version, the sheet geometry and
    `states[0]`; step i's record holds `actions[i - 1]` and `states[i]`. A
    log without actions is its summary record alone. `write_capture_frames`
    writes the captures.
    """
    records = []
    if log.states:
        first = log.states[0]
        records.append({"type": "start", "version": LOG_VERSION,
                        "geometry": first.geometry.to_json(), "state": first.to_json()})
    records += [{"type": "step", "action": [action.kind, action.arg], "state": state.to_json()}
                for action, state in zip(log.actions, log.states[1:])]
    with open(path, "w") as fh:
        fh.writelines(json.dumps(obj) + "\n" for obj in records + [log.summary()])


def read_log(path) -> ExperimentLog:
    """The log `write_log` wrote; LogFormatError naming the file and line if malformed.

    The start record, followed by at least one step record, gives every
    state its geometry. The summary record comes last and gives the run's
    fields; its `in_plan_paths` must be the path equivalents of the steps.
    """
    states, actions, summaries = [], [], []

    def parse(obj: dict) -> None:
        kind = obj["type"]
        if summaries:
            raise ValueError(f"{kind} record after the summary record")
        if kind == "summary":
            summary = summary_from_json(obj)
            if states and not actions:
                raise ValueError("start record without a step record")
            if summary["in_plan_paths"] != path_equivalents(actions):
                raise ValueError(f"in_plan_paths {summary['in_plan_paths']}, but the step "
                                 f"records hold {path_equivalents(actions)} path equivalents")
            summaries.append(summary)
        elif kind == "start" and not states:
            if typed(obj["version"], 0, "version") != LOG_VERSION:
                raise ValueError(f"log version must be {LOG_VERSION}")
            geometry = SheetGeometry.from_json(obj["geometry"])
            states.append(SheetState.from_json(obj["state"], geometry))
        elif kind == "step" and states:
            name, arg = obj["action"]
            actions.append(Action(name, arg if arg is None else typed(arg, 0, "action argument")))
            states.append(SheetState.from_json(obj["state"], states[0].geometry))
        else:  # a log before version 3 starts with a step record
            raise ValueError(f"{kind} record {'after' if states else 'before any'} start record")

    read_json_lines(path, parse)
    if not summaries:
        raise LogFormatError(f"{path}: missing summary record")
    s, = summaries
    return ExperimentLog(s["plan"], s["sheet"], s["seed"], actions, states,
                         s["correction_cycles"], s["correction_paths"], s["correction_converged"])
