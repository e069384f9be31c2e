"""Property tests: fast paths against the slow oracles they stand in for,
and the plan and log boundaries against malformed input."""
import functools
import itertools
import json
import math
import re
import tempfile
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from layup.cli import RunConfig, cmd_simulate
from layup.effectiveness import (BUCKET_KEYS, COV_GROW, COV_SHRINK, EffectivenessModel,
                                 EffectTable, aggregate, bucket_row, compute_delta,
                                 extract_transitions, propagate_rows)
from layup.geometry import (PathGeometry, _closest_on_boundary,
                            axial_difference, clamp_into_polygon, fold_axial,
                            nearest_boundary_point, nearest_edge_angle, point_in_polygon,
                            polygon_area, polygon_is_simple, ray_exit_point, swept_rect_hits)
from layup.jsonio import LogFormatError
from layup.plan import (ACTION_KINDS, AbsConstraint, Action, ConstraintSet, DrapingPlan,
                        PATH_COUNT_DEFAULT, PlanParseError, RelConstraint, _feasible_screen,
                        canonical_kinds, capture, completion, emit_plan, emit_plan_text, end,
                        expert_plan, initial_plan_constraints, next_kinds, outstanding,
                        parse_plan_text, path, peel, prefix_feasible, refinement,
                        standard_constraints, validate)
from layup.search import (SearchConfig, SearchError, SearchStats, _descend, _Frontier,
                          _level, _lookahead, _named, _sample_seed, _Search, _step, price_batch,
                          refine_plan_detailed, replay_cost)
from layup.sheet_state import (CaptureFrame, SheetGeometry, SheetState,
                               _link_pairs, average_states, build_state, extract_regions,
                               read_capture_frames, segment_regions, write_capture_frames)
from layup.simulator import (ExperimentLog, GroundTruthParams, SimState,
                             _noise, _sweep, builtin_sheet, init_sheet,
                             path_geometry, read_log, render_capture, run_experiment,
                             write_log)

from conftest import (lookahead, meets, model_of, oracle_abs, oracle_rel, root_row, rows_of,
                      sample_key, whole_table)

kinds_st = st.sampled_from(ACTION_KINDS)
gamma_st = st.sampled_from((">", "=", "<"))


@st.composite
def rel_constraints(draw):
    alpha, beta = draw(st.lists(kinds_st, min_size=2, max_size=2, unique=True))
    return RelConstraint(alpha, beta, draw(gamma_st), draw(st.integers(0, 3)))


abs_constraints = st.builds(AbsConstraint, kinds_st, gamma_st, st.integers(0, 2))
constraint_sets = st.builds(ConstraintSet,
                            st.lists(rel_constraints(), max_size=3).map(tuple),
                            st.lists(abs_constraints, max_size=3).map(tuple))


@st.composite
def constraint_sets_and_kinds(draw):
    """A constraint set and a non-empty kind sequence, mostly of the kinds it names,
    so that counts and gaps land on the ends of the constraints' ranges."""
    cs = draw(constraint_sets)
    named = sorted({c.alpha for c in cs.abs + cs.rel} | {c.beta for c in cs.rel}) or ACTION_KINDS
    kinds = draw(st.lists(st.sampled_from(named) | kinds_st, min_size=1, max_size=6))
    return cs, tuple(kinds)


@settings(max_examples=500, deadline=None)
@given(case=constraint_sets_and_kinds())
# the upper ends of an absolute '<' (strict) and a relative '<' (inclusive)
@example(case=(ConstraintSet(abs=(AbsConstraint("peel", "<", 1),)), ("peel",)))
@example(case=(ConstraintSet(rel=(RelConstraint("end", "path", "<", 2),)),
               ("path", "peel", "end")))
def test_validate_and_outstanding_agree_with_the_oracle(case):
    # every relation and bound, '<' counts and '='/'<' gaps included, which
    # criterion 1's standard set never uses
    cs, kinds = case
    plan = DrapingPlan(tuple(Action(k, 1 if k in ("path", "refinement") else None)
                             for k in kinds))
    broken = {v.constraint for v in validate(plan, cs)}
    assert broken == ({c for c in cs.abs if not oracle_abs(kinds, c)}
                      | {c for c in cs.rel if not oracle_rel(kinds, c)})
    assert (not broken) == meets(kinds, cs) == (outstanding(kinds, cs) == {})


@settings(max_examples=300, deadline=None)
@given(cs=constraint_sets, kinds=st.lists(kinds_st, max_size=4).map(tuple),
       extra=st.integers(0, 4))
def test_screen_never_rejects_what_exact_accepts(cs, kinds, extra):
    horizon = len(kinds) + extra
    if completion(kinds, cs, extra) is not None:
        assert _feasible_screen(kinds, cs, horizon)


@settings(max_examples=300, deadline=None)
@given(kinds=st.lists(kinds_st, max_size=14).map(tuple), extra=st.integers(0, 10))
def test_canonical_suffix_completes_every_feasible_standard_prefix(kinds, extra):
    # so the exhaustive suffix search is never needed on the standard set
    cs = standard_constraints()
    horizon = len(kinds) + extra
    if not prefix_feasible(kinds, cs, horizon):
        return
    suffix = completion(kinds, cs, extra)
    assert suffix is not None
    assert suffix == canonical_kinds(outstanding(kinds, cs))
    assert meets(kinds + tuple(suffix), cs)
    assert len(kinds) + len(suffix) <= horizon


@settings(max_examples=200, deadline=None)
@given(cs=constraint_sets, kinds=st.lists(kinds_st, max_size=3).map(tuple),
       slots=st.integers(0, 6))
# the canonical suffix (path, peel) fails, and four suffixes of 3 tie
@example(cs=ConstraintSet(rel=(RelConstraint("peel", "path", "=", 2),),
                          abs=(AbsConstraint("peel", ">", 0),)), kinds=(), slots=6)
def test_completion_is_the_first_shortest_suffix(cs, kinds, slots):
    order = ("path", "peel", "refinement", "capture", "end")
    want = next((suffix for n in range(slots + 1)
                 for suffix in itertools.product(order, repeat=n)
                 if meets(kinds + suffix, cs)), None)
    assert completion(kinds, cs, slots) == want


# action lines, near misses of them (unknown kinds, missing or spurious
# arguments, indices out of range or too long for int()) and free text
plan_lines = st.one_of(
    st.builds("({}{}{})".format,
              st.sampled_from(("path", "Peel", "capture", "END", "refine", "refinement",
                               "drape", "")),
              st.sampled_from(("", ",", " , ")),
              st.one_of(st.just(""), st.integers(0, 20).map(str), st.text("0123456789"),
                        st.just("1" * 5000))),
    st.sampled_from(("# plan: p", "#plan:", "# comment", "", "  ")),
    st.text(max_size=12))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), st.lists(plan_lines, max_size=12).map("\n".join)))
def test_plan_text_parses_or_names_its_line(text):
    try:
        plan = parse_plan_text(text)
    except PlanParseError as exc:
        assert 0 <= exc.lineno <= len(text.splitlines())
        assert str(exc).startswith(f"line {exc.lineno}: ")
    else:
        assert isinstance(plan, DrapingPlan)


actions_st = st.one_of(st.integers(1, 16).map(path), st.just(peel()), st.just(capture()),
                       st.just(end()), st.integers(1, 40).map(refinement))


@settings(max_examples=200, deadline=None)
@given(actions=st.lists(actions_st, min_size=1, max_size=30),
       name=st.from_regex(r"[A-Za-z0-9_]([A-Za-z0-9_ .-]*[A-Za-z0-9_])?", fullmatch=True))
def test_emitted_plan_text_parses_back(actions, name):
    plan = DrapingPlan(tuple(actions), name=name)
    assert parse_plan_text(emit_plan_text(plan)) == plan


def single_linkage_oracle(pts: np.ndarray, radius: float) -> list[np.ndarray]:
    """Components by breadth-first search over all pairs, ordered as documented."""
    xy = pts[:, :2]
    linked = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2) <= radius ** 2
    label = [-1] * len(pts)
    comps = []
    for seed in range(len(pts)):
        if label[seed] >= 0:
            continue
        label[seed] = len(comps)
        members, frontier = [seed], [seed]
        while frontier:
            i = frontier.pop()
            for j in np.flatnonzero(linked[i]):
                if label[j] < 0:
                    label[j] = label[seed]
                    members.append(int(j))
                    frontier.append(int(j))
        comps.append(pts[sorted(members)])
    comps.sort(key=lambda g: (float(g[:, 0].min()), float(g[:, 1].min())))
    return comps


# integer coordinates keep every squared distance exact, and a small grid
# makes duplicate points and distance-equals-radius pairs common
points_st = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(1, 9)),
                     min_size=1, max_size=60).map(lambda p: np.array(p, dtype=float))


@settings(max_examples=200, deadline=None)
@given(pts=points_st, radius=st.integers(1, 8).map(float))
def test_segment_regions_matches_single_linkage_oracle(pts, radius):
    got = segment_regions(pts, radius)
    want = single_linkage_oracle(pts, radius)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def brute_force_pairs(xy: np.ndarray, radius: float) -> set:
    """Every pair i < j with dx*dx + dy*dy <= radius*radius, by testing them all."""
    return {(i, j) for i in range(len(xy)) for j in range(i + 1, len(xy))
            if (xy[i, 0] - xy[j, 0]) * (xy[i, 0] - xy[j, 0])
            + (xy[i, 1] - xy[j, 1]) * (xy[i, 1] - xy[j, 1]) <= radius * radius}


# a 4 mm capture lattice at the 12 mm link radius: many pairs exactly at the radius
lattice_st = st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1,
                      max_size=80).map(lambda ij: (4.0 * np.array(ij, dtype=float), 12.0))


def next_float(v: float, toward: float) -> float:
    return float(np.nextafter(v, toward))


@st.composite
def on_cell_edges(draw):
    """Linked pairs k radii above the lowest point: the lower point on that cell
    edge or on the highest float whose computed cell lies below it, the upper
    one the farthest float that still links; mirrored to negative x and y or not.

    There a cell index computed in floating point can round across a cell
    edge; at a power of two cells, cells of side exactly the radius part
    some such pairs by two cells.
    """
    radius = draw(st.sampled_from((12.0, 0.3, 7.1)) | st.floats(0.01, 20.0))
    origin = draw(st.floats(1.0, 1e6))  # positive, so no float steps through zero
    xy = [(origin, origin)]
    cells = st.integers(1, 12) | st.integers(0, 24).map(lambda p: 2 ** p)
    for k, below, flip in draw(st.lists(st.tuples(cells, st.booleans(), st.booleans()),
                                        min_size=1, max_size=10)):
        a = origin + k * radius
        while below and (a - origin) / radius >= k:
            a = next_float(a, -math.inf)
        b = a + radius
        while (b - a) * (b - a) <= radius * radius:
            b = next_float(b, math.inf)
        while (b - a) * (b - a) > radius * radius:
            b = next_float(b, -math.inf)
        xy += [(origin, a), (origin, b)] if flip else [(a, origin), (b, origin)]
    return draw(st.sampled_from((1.0, -1.0))) * np.array(xy), radius


@st.composite
def far_clusters(draw):
    """A few clusters of lattice and off-lattice points, up to 1e9 mm apart."""
    xy = []
    for cx, cy in draw(st.lists(st.tuples(st.floats(-5e8, 5e8), st.floats(-5e8, 5e8)),
                                min_size=1, max_size=4)):
        offsets = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                                          st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                                min_size=1, max_size=20))
        xy += [(cx + 4.0 * i + dx, cy + 4.0 * j + dy) for i, j, dx, dy in offsets]
    return np.array(xy), 12.0


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(lattice_st, on_cell_edges(), far_clusters()), shuffle=st.booleans())
# the last two points link, and cells of side exactly the radius put them two cells apart
@example(case=(np.array([[-350016.5799550172, 0.0], [-42817.655101174765, 0.0],
                         [-42798.90516679649, 0.0]]), 18.749934378286284), shuffle=False)
def test_link_pairs_match_brute_force(case, shuffle):
    xy, radius = case
    if shuffle:
        xy = xy[np.random.default_rng(len(xy)).permutation(len(xy))]
    i, j = _link_pairs(xy[:, 0], xy[:, 1], radius)
    got = [(min(p, q), max(p, q)) for p, q in zip(i.tolist(), j.tolist())]
    assert len(got) == len(set(got))  # each pair once
    assert set(got) == brute_force_pairs(xy, radius)
    # segmentation groups the points as labelling the brute-force pairs does
    pts = np.column_stack([xy, np.arange(len(xy), dtype=float)])
    want = single_linkage_oracle(pts, radius)
    got_groups = segment_regions(pts, radius)
    assert [g.tobytes() for g in got_groups] == [w.tobytes() for w in want]


@pytest.mark.parametrize("xy, radius", [
    ([[0.0, 0.0], [1e300, 1e300]], 12.0),
    ([[-1e300, 0.0], [1e300, 0.0]], 12.0),
    ([[0.0, 0.0], [12.0 * 2.0 ** 62, 0.0]], 12.0),
    ([[0.0, 0.0], [1.0, 1.0]], 1e-140),
], ids=["far-diagonal", "far-line", "2^62-cells", "tiny-radius"])
def test_link_pairs_refuse_spans_an_int64_key_cannot_number(xy, radius):
    pts = np.column_stack([np.array(xy), np.ones(len(xy))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid cast on the way
        with pytest.raises(ValueError, match="link_radius cells"):
            segment_regions(pts, radius)


# values that put the clamps, the collapse and fold_axial's edge within reach:
# small heights and axes meet large negative deltas, and an orientation of 0
# meets a tiny negative rotation, whose residue modulo pi rounds to pi;
# negative values reach the utility's clamp in sectors left untouched
SMALL_ST = st.sampled_from((-0.5, -0.0, 0.0, 1e-3, 0.4, 2.5, 40.0))
THETA_ST = st.sampled_from((0.0, 1e-17, 1.0, np.pi / 2, 3.1))
DELTAS = (0.0, -1e-17, -0.3, -50.0, 0.2, 1.7)
BATCH_ACTIONS = (path(1), path(2), path(3), peel(), capture(), refinement(3), end())


@dataclass
class WholeState:
    """A sheet state with each sector's two whole 3x3 covariances in place of
    their variances: the form the sector-by-sector oracles read and write.

    `sheet` is the `SheetState` of the covariances' diagonals, the form the
    program takes; `of` puts a `SheetState`'s variances on covariances that
    are zero off the diagonal.
    """

    geometry: SheetGeometry
    mu: np.ndarray     # (k, 6)
    sigma: np.ndarray  # (k, 2, 3, 3)
    count: np.ndarray  # (k,)
    t: int = 0

    @functools.cached_property
    def sheet(self) -> SheetState:
        return SheetState(self.geometry, self.mu,
                          np.diagonal(self.sigma, axis1=-2, axis2=-1).copy(), self.count, self.t)

    @classmethod
    def of(cls, state: SheetState) -> "WholeState":
        sigma = np.zeros(state.var.shape + (3,))
        sigma[..., range(3), range(3)] = state.var
        return cls(state.geometry, state.mu, sigma, state.count, state.t)


def whole_state(geom, sectors=None, t=0) -> WholeState:
    """A `WholeState` of `geom` from {sector id: (mu, sigma, n)}, `sigma` both
    3x3 covariances or one that both take; other sectors are sentinels."""
    k = geom.sector_count
    mu, sigma, count = np.zeros((k, 6)), np.zeros((k, 2, 3, 3)), np.zeros(k, dtype=int)
    for sector, (m, s, n) in (sectors or {}).items():
        mu[sector - 1], sigma[sector - 1], count[sector - 1] = m, s, n
    return WholeState(geom, mu, sigma, count, t)


@st.composite
def sectors(draw):
    """One sector's (mu, sigma, n) rows for whole_state, or None for a sentinel."""
    kind = draw(st.sampled_from(("live", "live", "live", "sentinel", "stale")))
    if kind == "sentinel":
        return None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m1 = rng.normal(size=(3, 3))
    m2 = rng.normal(size=(3, 3))
    # "stale": no samples, yet nonzero moments, which propagation must zero
    mu = [rng.normal() * 50, rng.normal() * 50, draw(SMALL_ST),
          draw(SMALL_ST), draw(SMALL_ST), draw(THETA_ST)]
    return mu, [m1 @ m1.T, m2 @ m2.T], 0 if kind == "stale" else draw(st.integers(1, 9))


def square_geometry(k: int) -> SheetGeometry:
    half = 100.0
    return SheetGeometry(center=np.zeros(2), sector_count=k,
                         polygon=np.array([[half, half], [-half, half],
                                           [-half, -half], [half, -half]]))


@st.composite
def whole_states(draw, geom=None):
    if geom is None:
        geom = square_geometry(draw(st.integers(2, 12)))  # np.sum adds 8 or more terms pairwise
    rows = {i: draw(sectors()) for i in range(1, geom.sector_count + 1)}
    return whole_state(geom, {i: row for i, row in rows.items() if row is not None},
                       t=draw(st.integers(0, 40)))


def states(geom=None):
    """`whole_states` as the program holds them: the covariances' diagonals."""
    return whole_states(geom).map(lambda state: state.sheet)


@st.composite
def states_and_models(draw):
    """A `WholeState` and a model of its sector count."""
    state = draw(whole_states())
    k = state.geometry.sector_count
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = []
    for action in BATCH_ACTIONS[:-1]:  # end stays unseen
        for sector in range(1, k + 1):
            for _ in range(rng.integers(0, 4)):  # 0: sector without data
                signs = rng.choice((-1.0, 1.0), size=(2, 3))
                samples.append((action, sector, rng.choice(DELTAS, size=6), signs))
    return state, model_of(k, samples)


LOWER = np.array([0.0, 0.0, -0.3, -0.3, -0.3, 0.1])
RAISE = np.array([1.7, -0.3, 0.2, 0.2, 0.0, -0.3])


def compaction_case(sectors: dict) -> tuple[WholeState, EffectivenessModel]:
    """A 4-sector state from {sector: (height, axes, regions)}, the other sectors
    sentinels, and a model with two samples per bucket and sector: paths lower
    the height and both axes by 0.45 on average, collapsing a sector whose three
    are below that, while peel, capture and refinement raise them; end is unseen.
    """
    state = whole_state(square_geometry(4), {
        sector: ([10.0 * sector, -5.0, h, axes, axes, 1.0], np.eye(3) * sector, n)
        for sector, (h, axes, n) in sectors.items()}, t=3)
    return state, model_of(4, [
        (action, sector, scale * (LOWER if action.kind == "path" else RAISE), signs)
        for action in BATCH_ACTIONS[:-1] for sector in range(1, 5)
        for scale, signs in ((1.0, [[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]]),
                             (2.0, [[1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]]))])


# sector 3 is stale: no regions, yet nonzero moments, which the root's trace counts
STALE_ROOT = compaction_case({1: (3.0, 20.0, 2), 3: (1.0, 8.0, 0), 4: (0.5, 4.0, 1)})
SENTINEL_ROOT = compaction_case({})
# sector 2 collapses on its first path, so the search's later levels drop it
COLLAPSING = compaction_case({1: (3.0, 20.0, 2), 2: (0.4, 0.4, 3)})
COMPACTION_CFG = SearchConfig(branching=2, depth=3, horizon=8, path_count=3, w_sigma=1.3,
                              epsilon_conv=-math.inf)


def row_bytes(mu, var, count, i=...) -> tuple:
    """The exact bytes of rows of means, variances and counts, or of row i of a batch."""
    return mu[i].tobytes(), var[i].tobytes(), count[i].tobytes()


def fingerprint(state: SheetState) -> tuple:
    """The exact bytes of a state's arrays."""
    return row_bytes(state.mu, state.var, state.count)


@dataclass
class OracleBucket:
    """One bucket's samples, row by row: lists appended one sample at a time,
    or the rows of the model's columns that a key mask picks."""

    deltas: list = field(default_factory=list)
    u1: list = field(default_factory=list)
    u2: list = field(default_factory=list)
    sources: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.deltas)

    @property
    def mean(self) -> np.ndarray:
        return np.mean(self.deltas, axis=0)


def oracle_bucket_key(action: Action) -> tuple[str, int]:
    """An action's (kind, arg) bucket: paths by index, every other kind as argument 0."""
    return action.kind, action.arg if action.kind == "path" else 0


@functools.lru_cache(maxsize=4)  # a model never changes: the recursive oracles ask often
def oracle_buckets(model: EffectivenessModel) -> dict:
    """The model's buckets by (kind, arg, sector), each the rows whose key a mask
    over the whole key column picks: a reading that uses neither `runs` nor `bucket`."""
    k, buckets = model.sector_count, {}
    for key in sorted(set(model.keys.tolist())):
        mask = model.keys == key
        kind, arg = BUCKET_KEYS[key // k]
        buckets[(kind, arg, key % k + 1)] = OracleBucket(
            model.deltas[mask], model.u1[mask], model.u2[mask], model.sources[mask])
    return buckets


def oracle_unseen(model: EffectivenessModel, action: Action) -> bool:
    """Whether no sector of the action's bucket holds a sample."""
    return oracle_bucket_key(action) not in {key[:2] for key in oracle_buckets(model)}


def bucket_variance(bucket) -> np.ndarray:
    """Per-component sample variance of a bucket's deltas; zero when only one sample exists."""
    return np.var(bucket.deltas, axis=0, ddof=1) if bucket.count > 1 else np.zeros(6)


def bucket_majority(bucket) -> tuple[np.ndarray, np.ndarray]:
    """Per-diagonal majority of a bucket's +-1 votes, u1's and u2's; ties land on -1."""
    return (np.where(np.sum(bucket.u1, axis=0) > 0, 1.0, -1.0),
            np.where(np.sum(bucket.u2, axis=0) > 0, 1.0, -1.0))


def oracle_compile(buckets: dict, k: int) -> EffectTable:
    """The dense tables of k sectors filled bucket by bucket, from {(kind, arg,
    sector): bucket}: the loop the model's grouped reductions replaced.

    Bucket key (kind, arg) fills row BUCKET_KEYS.index((kind, arg)); every
    other row keeps zero mean and deviation, unit scale and no data. The
    scale is the whole covariance scale np.outer(s, s) of each track, (R, k,
    2, 3, 3); the model's table holds its diagonal (`oracle_diagonal`).
    """
    shape = (len(BUCKET_KEYS), k)
    mean, std = np.zeros(shape + (6,)), np.zeros(shape + (6,))
    scale = np.ones(shape + (2, 3, 3))
    has = np.zeros(shape, dtype=bool)
    for (kind, arg, sector), b in buckets.items():
        if b.count == 0:
            continue
        at = (BUCKET_KEYS.index((kind, arg)), sector - 1)
        mean[at] = b.mean
        std[at] = np.sqrt(bucket_variance(b))
        for track, majority in enumerate(bucket_majority(b)):
            s = np.sqrt(np.where(majority > 0, COV_GROW, COV_SHRINK))
            scale[at + (track,)] = np.outer(s, s)
        has[at] = True
    return EffectTable(mean=mean, std=std, scale=scale, has=has, covers=has.any(axis=1))


def oracle_diagonal(table: EffectTable) -> EffectTable:
    """An `oracle_compile` table with each covariance scale cut to its diagonal,
    the variance scale that the model's table holds."""
    return replace(table, scale=np.diagonal(table.scale, axis1=-2, axis2=-1))


def table_bytes(table: EffectTable) -> tuple:
    return (table.mean.tobytes(), table.std.tobytes(), table.scale.tobytes(),
            table.has.tobytes(), table.covers.tobytes())


# -0.0, subnormals, and values whose sums and squares overflow
SPECIAL_DELTAS = (-0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300)
MODEL_ACTIONS = tuple(path(i) for i in range(1, 17)) + (peel(), capture(), refinement(1), end())


@st.composite
def ragged_models(draw):
    """A model whose buckets hold 1 to 40 samples each, so that their counts
    form several groups, with special deltas mixed in and some votes tied."""
    k = draw(st.integers(2, 8))
    cells = draw(st.lists(st.tuples(st.sampled_from(MODEL_ACTIONS), st.integers(1, k),
                                    st.integers(1, 40), st.booleans()),
                          min_size=1, max_size=12, unique_by=lambda c: (c[0], c[1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.sampled_from((0.0, 0.05, 0.5)))  # the share of special deltas
    samples = []
    for action, sector, n, tied in cells:
        deltas = rng.normal(0.0, rng.choice((1e-3, 1.0, 1e3)), size=(n, 6))
        pick = rng.random((n, 6)) < special
        deltas[pick] = rng.choice(SPECIAL_DELTAS, size=int(pick.sum()))
        votes = rng.choice((-1.0, 1.0), size=(n, 2, 3))
        if tied:  # rows alternate +1 and -1: an even count sums to 0 on every diagonal
            votes[:] = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)[:, None, None]
        samples += [(action, sector, delta, signs, "D1:1") for delta, signs in zip(deltas, votes)]
    return model_of(k, samples)


@settings(max_examples=150, deadline=None)
@given(model=ragged_models())
def test_compile_matches_the_per_bucket_oracle(model):
    with np.errstate(over="ignore", invalid="ignore"):
        assert table_bytes(whole_table(model)) == \
            table_bytes(oracle_diagonal(oracle_compile(oracle_buckets(model), model.sector_count)))


@settings(max_examples=150, deadline=None)
@given(model=ragged_models(), data=st.data())
def test_table_over_a_sector_mask_is_the_oracle_at_those_sectors(model, data):
    # the oracle's per-sector arrays at the marked sectors, byte for byte, the
    # scale as the diagonal of the oracle's np.outer(s, s), and its coverage of
    # all k sectors; the draws include an all-False mask and one that leaves
    # out every sector with data, whose buckets cover (the w_unk penalty does
    # not apply) while no held sector has data
    k = model.sector_count
    with_data = set((model.keys % k).tolist())
    mask = np.array(data.draw(st.one_of(st.lists(st.booleans(), min_size=k, max_size=k),
                                        st.just([False] * k),
                                        st.just([s not in with_data for s in range(k)]))),
                    dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = model.table(mask), oracle_diagonal(oracle_compile(oracle_buckets(model), k))
    assert got.scale.shape == (len(BUCKET_KEYS), int(mask.sum()), 2, 3)
    for name in ("mean", "std", "scale", "has"):
        cut = getattr(want, name)[:, mask]
        assert getattr(got, name).shape == cut.shape, name
        assert getattr(got, name).tobytes() == cut.tobytes(), name
    assert got.covers.tobytes() == want.covers.tobytes()
    if not mask[sorted(with_data)].any():
        assert not got.has.any() and got.covers.any()


def oracle_overflow(model: EffectivenessModel) -> str | None:
    """The first bucket, in key order, whose mean or deviation is not finite, as the
    model file names it; None when every bucket's are."""
    with np.errstate(over="ignore", invalid="ignore"):
        for (kind, arg, sector), b in sorted(oracle_buckets(model).items()):
            if not (np.isfinite(b.mean).all() and np.isfinite(bucket_variance(b)).all()):
                return f"{kind}|{arg}|{sector}"
    return None


def refused(bucket: str):
    return pytest.raises(ValueError, match=f"^bucket {re.escape(bucket)}: "
                                           f"mean or deviation overflows$")


@settings(max_examples=100, deadline=None)
@given(model=ragged_models())
def test_model_json_round_trip_compiles_the_same_table(model):
    # finite samples whose sums or squares overflow load as a refusal naming
    # the first such bucket; every other model compiles the same table back
    obj = json.loads(json.dumps(model.to_json()))
    bad = oracle_overflow(model)
    if bad is not None:
        with refused(bad):
            EffectivenessModel.from_json(obj)
        return
    back = EffectivenessModel.from_json(obj)
    assert table_bytes(whole_table(back)) == table_bytes(whole_table(model))


@settings(max_examples=100, deadline=None)
@given(model=ragged_models(), data=st.data())
def test_model_file_buckets_out_of_key_order_load_as_sorted(model, data):
    # `from_json` sorts the buckets by key, each bucket's rows kept in file order
    obj = json.loads(json.dumps(model.to_json()))
    names = data.draw(st.permutations(list(obj["buckets"])))
    shuffled = {**obj, "buckets": {n: obj["buckets"][n] for n in names}}
    bad = oracle_overflow(model)
    if bad is not None:  # the first bucket in key order, not in file order
        with refused(bad):
            EffectivenessModel.from_json(shuffled)
        return
    back = EffectivenessModel.from_json(shuffled)
    assert json.dumps(back.to_json()) == json.dumps(obj)
    assert table_bytes(whole_table(back)) == table_bytes(whole_table(model))


@settings(max_examples=100, deadline=None)
@given(model=ragged_models())
def test_bucket_is_the_key_mask_selection(model):
    k, rows = model.sector_count, np.arange(len(model.keys))
    for action in MODEL_ACTIONS:
        for sector in range(k + 2):  # sectors 0 and k + 1 name no bucket
            key = BUCKET_KEYS.index(oracle_bucket_key(action)) * k + sector - 1
            mask = (model.keys == key) & (1 <= sector <= k)
            got = model.bucket(action, sector)
            if mask.any():
                assert rows[got].tolist() == rows[mask].tolist()
            else:
                assert got is None


def test_a_bucket_the_model_never_saw_compiles_to_a_row_without_data():
    model = model_of(3, [(path(1), 1, np.full(6, 0.5), np.ones((2, 3))),
                         (peel(), 2, np.full(6, -0.5), -np.ones((2, 3)))])
    table = whole_table(model)
    row = bucket_row(refinement(2))
    assert table.mean.shape == (len(BUCKET_KEYS), 3, 6)
    assert not table.mean[row].any() and not table.std[row].any()
    assert (table.scale[row] == 1.0).all()
    assert not table.has[row].any() and not table.covers[row]
    assert table.covers[bucket_row(path(1))] and table.covers[bucket_row(peel())]


def oracle_propagate(state: WholeState, action: Action, model: EffectivenessModel,
                     mode: str = "expectation", seed: int | None = None) -> WholeState:
    """One action's learned effect, sector by sector: the loop `propagate_rows` replaced.

    A sampled-mode rng draws one (6,) row per moved sector, in sector order.
    """
    rng = np.random.default_rng(seed) if mode == "sampled" else None
    buckets = oracle_buckets(model)
    mu, sigma, count = state.mu.copy(), state.sigma.copy(), state.count.copy()
    for row in range(len(count)):
        if count[row] == 0:
            mu[row], sigma[row] = 0.0, 0.0
            continue
        bucket = buckets.get((*oracle_bucket_key(action), row + 1))
        if bucket is None:
            continue
        delta = bucket.mean.copy()
        if rng is not None:
            delta = delta + rng.standard_normal(6) * np.sqrt(bucket_variance(bucket))
        m = mu[row] + delta
        m[2] = max(0.0, m[2])
        m[3] = max(0.0, m[3])
        m[4] = max(0.0, m[4])
        m[5] = fold_axial(m[5])
        if m[2] == 0.0 and m[3] == 0.0 and m[4] == 0.0:
            mu[row], sigma[row], count[row] = 0.0, 0.0, 0
            continue
        mu[row] = m
        for track, majority in enumerate(bucket_majority(bucket)):
            scale = np.sqrt(np.where(majority > 0, 1.1, 0.9))
            sigma[row, track] = sigma[row, track] * np.outer(scale, scale)
    return WholeState(state.geometry, mu, sigma, count, state.t + 1)


def oracle_action_cost(action: Action, cfg: SearchConfig) -> float:
    """An action's own cost: its kind's unit cost, a refinement's once per pass."""
    if action.kind == "refinement":
        return cfg.action_costs["refinement"] * action.arg
    return cfg.action_costs[action.kind]


def oracle_trace_total(state: WholeState) -> float:
    """Summed covariance diagonals over all sectors, added sector by sector: the
    loop that the trace total of `search.price_batch` replaced."""
    return float(sum(np.trace(sigma[0]) + np.trace(sigma[1]) for sigma in state.sigma))


def oracle_state_utility(state: WholeState, cfg: SearchConfig) -> float:
    """A state's price, sector by sector: the loop `price_batch`'s utility replaced."""
    total = 0.0
    for mu, sigma, count in zip(state.mu, state.sigma, state.count):
        if count == 0:
            continue
        total += cfg.w_h * max(0.0, mu[2])
        total += cfg.w_area * mu[3] * mu[4]
        total += cfg.w_sigma * (np.trace(sigma[0]) + np.trace(sigma[1]))
    return float(total / state.geometry.area)


@settings(max_examples=200, deadline=None)
@given(case=states_and_models(), sampled=st.booleans(),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=len(BATCH_ACTIONS),
                      max_size=len(BATCH_ACTIONS)),
       weights=st.tuples(*(st.sampled_from((0.0, 0.002, 25.0, 2.4e5, 1.3)) for _ in range(3))))
@example(case=STALE_ROOT, sampled=True, seeds=list(range(len(BATCH_ACTIONS))),
         weights=(2.4e5, 25.0, 1.3))
@example(case=COLLAPSING, sampled=False, seeds=[0] * len(BATCH_ACTIONS),
         weights=(2.4e5, 25.0, 1.3))
def test_propagate_rows_matches_scalar_bitwise(case, sampled, seeds, weights):
    # the search's path on variances, propagate_rows then price_batch, against
    # the scalar oracles on whole covariances: a batch of rows, one per
    # action, then each row advanced by its own action again. Each row's
    # means, variances and counts are the oracle state's means, diagonals and
    # counts, and its utility and trace total are the oracles', bit for bit
    state, model = case
    mode = "sampled" if sampled else "expectation"
    cfg = SearchConfig(w_h=weights[0], w_area=weights[1], w_sigma=weights[2])
    rows, table = [bucket_row(action) for action in BATCH_ACTIONS], whole_table(model, state)
    level, wants, parents = rows_of(state.sheet), [state] * len(rows), np.zeros(len(rows), int)
    for _ in range(2):
        level = propagate_rows(*level, parents, rows, table, seeds if sampled else None)
        wants = [oracle_propagate(want, action, model, mode, seed)
                 for want, action, seed in zip(wants, BATCH_ACTIONS, seeds)]
        utility, trace = price_batch(*level, state.geometry.area, cfg)
        for i, want in enumerate(wants):
            assert row_bytes(*level, i) == fingerprint(want.sheet)
            assert utility[i].hex() == oracle_state_utility(want, cfg).hex()
            assert trace[i].hex() == oracle_trace_total(want).hex()
        parents = np.arange(len(rows))


@settings(max_examples=200, deadline=None)
@given(case=states_and_models(),
       weights=st.tuples(*(st.sampled_from((0.0, 0.002, 25.0, 2.4e5, 1.3)) for _ in range(3))))
def test_price_batch_matches_scalar_bitwise(case, weights):
    state, model = case
    cfg = SearchConfig(w_h=weights[0], w_area=weights[1], w_sigma=weights[2])
    scalar = [state] + [oracle_propagate(state, action, model) for action in BATCH_ACTIONS]
    utility, trace = price_batch(np.stack([s.mu for s in scalar]),
                                 np.stack([s.sheet.var for s in scalar]),
                                 np.stack([s.count for s in scalar]), state.geometry.area, cfg)
    want = [oracle_state_utility(s, cfg).hex() for s in scalar]
    assert [u.hex() for u in utility.tolist()] == want
    assert [t.hex() for t in trace.tolist()] == [oracle_trace_total(s).hex() for s in scalar]


@settings(max_examples=200, deadline=None)
@given(case=states_and_models(), sampled=st.booleans(), seed=st.integers(0, 2**32 - 1),
       path_count=st.integers(1, PATH_COUNT_DEFAULT),
       actions=st.lists(st.sampled_from(BATCH_ACTIONS + (path(PATH_COUNT_DEFAULT),)),
                        max_size=6))
@example(case=STALE_ROOT, sampled=True, seed=3, path_count=16,
         actions=[path(1), peel(), refinement(3), end()])
@example(case=SENTINEL_ROOT, sampled=False, seed=0, path_count=16, actions=[path(2), capture()])
@example(case=COLLAPSING, sampled=False, seed=0, path_count=16,
         actions=[path(1), path(3), refinement(3)])
@example(case=COLLAPSING, sampled=True, seed=5, path_count=16, actions=[path(1)] * 3 + [peel()])
@example(case=COLLAPSING, sampled=True, seed=5, path_count=1,
         actions=[path(3), refinement(3), path(16), refinement(1)])
def test_replay_cost_matches_the_oracle_chain(case, sampled, seed, path_count, actions):
    # criterion 4 compares the search with replay_cost, which takes the
    # search's own steps; this ties both to the sector-by-sector loops. A
    # replayed plan may hold paths above cfg.path_count and refinements of
    # any pass count, whatever the live sector count
    state, model = case
    cfg = SearchConfig(mode="sampled" if sampled else "expectation", seed=seed,
                       path_count=path_count)
    cost, final = replay_cost(actions, state.sheet, model, cfg)
    want_cost, want = 0.0, state
    for position, action in enumerate(actions, start=1):
        want = oracle_propagate(want, action, model, cfg.mode,
                                _sample_seed(cfg.seed, position, action))
        want_cost = want_cost + oracle_action_cost(action, cfg) + oracle_state_utility(want, cfg)
        if oracle_unseen(model, action):
            want_cost += cfg.w_unk
    assert cost.hex() == want_cost.hex()
    if not actions:
        assert final is state.sheet
        return
    # the search carries variances: the diagonals of the oracle's covariances
    assert fingerprint(final) == fingerprint(want.sheet)
    assert final.t == want.t


ORACLE_KIND_ORDER = {"peel": 1, "capture": 2, "refinement": 3, "end": 4}


def oracle_order(action: Action) -> tuple[int, int]:
    return (0, action.arg) if action.kind == "path" else (ORACLE_KIND_ORDER[action.kind], 0)


@dataclass
class OracleNode:
    """One node of the recursive search: a state of all k sectors and the actions
    that led to it."""

    state: SheetState
    prefix: tuple
    cost: float       # sum over the prefix of action cost + utility (+ unmodeled penalty)
    utility: float
    trace: float      # summed variances of the state
    stats: SearchStats  # shared by every node of a search
    score: float = 0.0  # one-step merit of the last action from the parent state

    @property
    def terminal(self) -> bool:
        return bool(self.prefix) and self.prefix[-1].kind == "end"


def oracle_root(state: WholeState, cfg, stats: SearchStats, prefix=()) -> OracleNode:
    """The node a search starts from, priced by the sector loops on whole
    covariances, as if reached by `prefix`; it holds the state's diagonals."""
    return OracleNode(state.sheet, tuple(prefix), 0.0, oracle_state_utility(state, cfg),
                      oracle_trace_total(state), stats)


def oracle_priced(node: OracleNode, actions, model, cfg) -> list[OracleNode]:
    """One node's children by the given actions, in one `propagate_rows` call."""
    if not actions:
        return []
    position = len(node.prefix) + 1
    seeds = (None if cfg.mode == "expectation"
             else [_sample_seed(cfg.seed, position, action) for action in actions])
    state = node.state
    mu, var, count = propagate_rows(*rows_of(state), np.zeros(len(actions), int),
                                    [bucket_row(action) for action in actions],
                                    whole_table(model, state), seeds)
    utilities, traces = price_batch(mu, var, count, state.geometry.area, cfg)
    node.stats.batch_calls += 1
    node.stats.children_priced += len(actions)
    children = []
    for i, (action, utility, trace) in enumerate(zip(actions, utilities.tolist(),
                                                     traces.tolist())):
        cost = node.cost + oracle_action_cost(action, cfg) + utility
        if oracle_unseen(model, action):
            cost += cfg.w_unk
        children.append(OracleNode(
            state=SheetState(state.geometry, mu[i], var[i], count[i], state.t + 1),
            prefix=node.prefix + (action,), cost=cost, utility=utility, trace=trace,
            stats=node.stats,
            score=utility - node.utility + cfg.w_sigma * (trace - node.trace)))
    return children


def oracle_children(node: OracleNode, model, cs, cfg, memo=None) -> list[OracleNode]:
    """Every feasible child of one node, best one-step score first: the search's
    expansion before it went level by level.

    With a `memo` (a dict by action prefix, for one search) a node expanded
    before returns its children again, counted as reused, not as expanded.
    """
    if node.terminal or len(node.prefix) >= cfg.horizon:
        return []
    if memo is not None and node.prefix in memo:
        node.stats.nodes_reused += 1
        return memo[node.prefix]
    kinds = tuple(a.kind for a in node.prefix)
    feasible = next_kinds(kinds, cs, cfg.horizon)
    if outstanding(kinds + ("end",), cs) != {}:  # end is terminal: it must complete the plan
        feasible = feasible - {"end"}
    node.stats.nodes_expanded += 1
    live = max(1, int(np.count_nonzero(node.state.count)))
    candidates = ([path(i) for i in range(1, cfg.path_count + 1)]
                  + [peel(), capture(), refinement(live), end()])
    out = oracle_priced(node, [a for a in candidates if a.kind in feasible], model, cfg)
    out.sort(key=lambda c: (c.score, oracle_order(c.prefix[-1])))
    if memo is not None:
        memo[node.prefix] = out
    return out


def oracle_lookahead_value(node: OracleNode, model, cs, cfg, depth: int, memo=None) -> float:
    """The recursive lookahead: one expansion per node, the minimum over the leaves."""
    children = oracle_children(node, model, cs, cfg, memo)[:cfg.branching] if depth > 0 else []
    if not children:
        return node.cost + node.utility
    return min(oracle_lookahead_value(c, model, cs, cfg, depth - 1, memo) for c in children)


def oracle_refine(initial: WholeState, model, cs, cfg) -> tuple[tuple, list, SearchStats]:
    """`refine_plan_detailed` on the recursive lookahead: the actions, audit and counts.

    Its expansions are memoized by prefix for the one search, so the counts
    are the distinct work, and a node expanded again is counted as reused.
    """
    stats, memo = SearchStats(), {}
    node = oracle_root(initial, cfg, stats)
    audit = []
    while not node.terminal:
        children = oracle_children(node, model, cs, cfg, memo)
        if not children or max(node.utility - c.utility for c in children) < cfg.epsilon_conv:
            kinds = tuple(a.kind for a in node.prefix)
            suffix = completion(kinds, cs, cfg.horizon - len(kinds))
            if suffix is None:
                raise SearchError("no valid completion within the horizon")
            for kind in suffix:
                if kind == "path":  # every path priced, even after an end
                    paths = [path(i) for i in range(1, cfg.path_count + 1)]
                    node = min(oracle_priced(node, paths, model, cfg), key=lambda c: c.score)
                elif kind == "refinement":
                    live = max(1, int(np.count_nonzero(node.state.count)))
                    node = oracle_priced(node, [refinement(live)], model, cfg)[0]
                else:
                    node = oracle_priced(node, [Action(kind)], model, cfg)[0]
                audit.append({"step": len(node.prefix), "action": str(node.prefix[-1]),
                              "mode": "suffix", "cost": node.cost})
            break
        top = children[:cfg.branching]
        values = [oracle_lookahead_value(c, model, cs, cfg, cfg.depth, memo) for c in top]
        ranked = sorted(zip(values, top), key=lambda t: (t[0], oracle_order(t[1].prefix[-1])))
        value, node = ranked[0]
        audit.append({"step": len(node.prefix), "action": str(node.prefix[-1]),
                      "score": node.score, "lookahead": value,
                      "alternatives": [[str(c.prefix[-1]), c.score, float(v)]
                                       for v, c in ranked[1:]],
                      "mode": "committed", "cost": node.cost})
    if not node.prefix:
        raise SearchError("the search added no action")
    if validate(DrapingPlan(node.prefix, "oracle"), cs):
        raise SearchError("search produced an invalid plan")
    return node.prefix, audit, stats


SEARCH_CONSTRAINTS = (
    standard_constraints(),
    ConstraintSet(abs=(AbsConstraint("end", ">", 0),)),  # end feasible at every position
    ConstraintSet(rel=(RelConstraint("end", "path", ">", 1),),
                  abs=(AbsConstraint("end", ">", 0), AbsConstraint("peel", "<", 2))),
    ConstraintSet(),  # nothing required: every kind feasible, no end needed
)


@st.composite
def search_cases(draw):
    """A `WholeState` (all-sentinel now and then), a model with data, constraints
    and a config."""
    state, model = draw(states_and_models())
    assume(not model.is_empty)
    if draw(st.integers(0, 5)) == 0:
        state = whole_state(state.geometry, t=state.t)
    cs = draw(st.sampled_from(SEARCH_CONSTRAINTS) | constraint_sets)
    sampled = draw(st.booleans())
    cfg = SearchConfig(branching=draw(st.integers(1, 5)), depth=draw(st.integers(0, 4)),
                       horizon=draw(st.integers(1, 8)), path_count=draw(st.integers(1, 4)),
                       w_h=draw(st.sampled_from((0.0, 25.0, 2.4e5))),
                       w_sigma=draw(st.sampled_from((0.0, 0.002, 1.3))),
                       w_unk=draw(st.sampled_from((0.0, 0.5, 40.0))),
                       epsilon_conv=draw(st.sampled_from((-math.inf, 0.0, 1.3))),
                       mode="sampled" if sampled else "expectation",
                       seed=draw(st.integers(0, 2**32 - 1)))
    return state, model, cs, cfg


def work_counts(stats: SearchStats) -> tuple[int, int, int]:
    return stats.nodes_expanded, stats.children_priced, stats.nodes_reused


@settings(max_examples=150, deadline=None)
@given(case=search_cases(), prefix=st.lists(st.sampled_from(BATCH_ACTIONS), max_size=3))
@example(case=STALE_ROOT + (standard_constraints(), COMPACTION_CFG), prefix=[])
@example(case=STALE_ROOT + (ConstraintSet(), replace(COMPACTION_CFG, mode="sampled", seed=3)),
         prefix=[path(1)])
@example(case=SENTINEL_ROOT + (standard_constraints(), COMPACTION_CFG), prefix=[])
@example(case=COLLAPSING + (standard_constraints(), replace(COMPACTION_CFG, depth=4)), prefix=[])
def test_lookahead_value_matches_the_recursive_oracle(case, prefix):
    state, model, cs, cfg = case
    stats, want_node = SearchStats(), oracle_root(state, cfg, SearchStats(), prefix)
    for depth in sorted({0, cfg.depth}):
        got = lookahead(state.sheet, model, cs, cfg, depth, prefix=prefix, stats=stats)
        want = oracle_lookahead_value(want_node, model, cs, cfg, depth)
        assert got.hex() == want.hex()
        assert work_counts(stats) == work_counts(want_node.stats)


@st.composite
def lookahead_frontiers(draw):
    """A search case and the prefixes of a frontier's rows, one to five of one length.

    Each row is the root advanced by its own prefix: a prefix may end in
    `end`, closing its row, or break the constraints, leaving its row
    without a feasible child.
    """
    case = draw(search_cases())
    length = draw(st.integers(0, 2))
    body = st.lists(st.sampled_from(BATCH_ACTIONS), min_size=length, max_size=length)
    last = st.sampled_from(BATCH_ACTIONS + (end(),))  # end twice as often as in a body
    return case, draw(st.lists(st.tuples(body, last).map(lambda p: (*p[0], p[1])),
                               min_size=1, max_size=5))


def stacked(rows: list) -> _Frontier:
    """One frontier of the rows of several one-row frontiers, in order."""
    return replace(rows[0], kinds=[r.kinds[0] for r in rows],
                   **{name: np.concatenate([getattr(r, name) for r in rows])
                      for name in ("mu", "var", "count", "cost", "utility", "trace", "score")})


@settings(max_examples=150, deadline=None)
@given(frontier=lookahead_frontiers())
@example(frontier=(STALE_ROOT + (standard_constraints(), COMPACTION_CFG),
                   [(path(1),), (end(),), (peel(),), (path(3),)]))
@example(frontier=(COLLAPSING + (ConstraintSet(),
                                 replace(COMPACTION_CFG, mode="sampled", seed=5)),
                   [(path(2), end()), (path(1), peel()), (end(), path(1)), (peel(), capture())]))
def test_batched_lookahead_matches_the_recursive_oracle_row_by_row(frontier):
    # the subtrees of several rows searched as one frontier: each row's value
    # is its own recursive lookahead's, bit for bit, and the work counts add up
    (state, model, cs, cfg), prefixes = frontier
    steps, want_stats = _Search(state.sheet, model, cs, cfg, SearchStats()), SearchStats()
    rows, want_nodes = [], []
    for prefix in prefixes:
        row, node = root_row(steps), oracle_root(state, cfg, SearchStats())
        for action in prefix:
            row = _step(steps, row, [action])
            node = oracle_priced(node, [action], model, cfg)[0]
        rows.append(row)
        want_nodes.append(replace(node, stats=want_stats))
    front, stats = stacked(rows), SearchStats()
    for depth in sorted({0, cfg.depth}):
        got, _ = _lookahead(_Search(state.sheet, model, cs, replace(cfg, depth=depth), stats),
                            front)
        want = [oracle_lookahead_value(node, model, cs, cfg, depth) for node in want_nodes]
        assert [value.hex() for value in got.tolist()] == [value.hex() for value in want]
        assert work_counts(stats) == work_counts(want_stats)


def tree_bytes(levels) -> list:
    """Every array of each level as (shape, dtype, bytes), and the rows' kinds."""
    names = ("mu", "var", "count", "cost", "utility", "trace", "score")
    return [([(a.shape, a.dtype.str, a.tobytes())
              for a in (level.parents, level.which, level.least,
                        *(getattr(level.rows, name) for name in names))],
             level.rows.kinds)
            for level in levels]


END_ANYWHERE = ConstraintSet(abs=(AbsConstraint("end", ">", 0),))


@settings(max_examples=100, deadline=None)
@given(case=search_cases(), prefix=st.lists(st.sampled_from(BATCH_ACTIONS), max_size=3))
@example(case=SENTINEL_ROOT + (standard_constraints(),
                               replace(COMPACTION_CFG, depth=0, mode="sampled", seed=3)),
         prefix=[])
@example(case=COLLAPSING + (standard_constraints(), replace(COMPACTION_CFG, branching=1, depth=1)),
         prefix=[])
@example(case=STALE_ROOT + (ConstraintSet(), replace(COMPACTION_CFG, depth=2, mode="sampled",
                                                     seed=3)),
         prefix=[path(1)])
@example(case=STALE_ROOT + (standard_constraints(), COMPACTION_CFG), prefix=[])
# the least child utility is not the best-scoring child's
@example(case=COLLAPSING + (END_ANYWHERE, replace(COMPACTION_CFG, branching=1, depth=4,
                                                  mode="sampled", seed=3)),
         prefix=[])
# rows closed by end at every level, and by the horizon below the second
@example(case=STALE_ROOT + (END_ANYWHERE, replace(COMPACTION_CFG, horizon=4, depth=4)),
         prefix=[peel()])
def test_a_kept_tree_is_the_tree_a_fresh_lookahead_prices(case, prefix):
    # after each possible commit, the cut levels and the lookahead that reads
    # them equal a fresh lookahead from the committed row's children, bit for
    # bit, and only the new levels are priced
    state, model, cs, cfg = case
    search = _Search(state.sheet, model, cs, cfg, SearchStats())
    root = root_row(search, prefix)
    level = _named(search, root, _level(search, root, cfg.branching))
    # the stop test's least child utility is over every feasible child, kept or not
    every = _level(search, root, len(search.actions))
    assert level.least.tobytes() == every.rows.utility.min(initial=math.inf,
                                                           keepdims=True).tobytes()
    if not len(level.parents):
        return
    _, levels = _lookahead(search, level.rows)
    for i in range(len(level.parents)):
        row = level.rows.row(i)
        kept = _descend(search, row, levels, i)
        if cfg.depth == 0:
            assert kept == []
            continue
        fresh_search = _Search(state.sheet, model, cs, cfg, SearchStats())
        first = _named(fresh_search, row, _level(fresh_search, row, cfg.branching))
        assert tree_bytes(kept[:1]) == tree_bytes([first])
        if not len(first.parents):
            continue
        kept_stats, fresh_stats = SearchStats(), SearchStats()
        got, got_levels = _lookahead(_Search(state.sheet, model, cs, cfg, kept_stats),
                                     kept[0].rows, kept[1:])
        want, want_levels = _lookahead(_Search(state.sheet, model, cs, cfg, fresh_stats),
                                       first.rows)
        assert got.tobytes() == want.tobytes()
        assert tree_bytes(got_levels) == tree_bytes(want_levels)
        assert (kept_stats.nodes_expanded + kept_stats.nodes_reused
                == fresh_stats.nodes_expanded)
        assert kept_stats.children_priced <= fresh_stats.children_priced


@settings(max_examples=150, deadline=None)
@given(case=search_cases())
@example(case=STALE_ROOT + (standard_constraints(), COMPACTION_CFG))
@example(case=STALE_ROOT + (standard_constraints(), replace(COMPACTION_CFG, mode="sampled",
                                                             seed=3)))
@example(case=SENTINEL_ROOT + (standard_constraints(), COMPACTION_CFG))
@example(case=COLLAPSING + (standard_constraints(), COMPACTION_CFG))
@example(case=COLLAPSING + (ConstraintSet(), replace(COMPACTION_CFG, mode="sampled", seed=5)))
def test_refine_plan_matches_the_recursive_oracle(case):
    state, model, cs, cfg = case
    stats = SearchStats()
    try:
        plan, audit = refine_plan_detailed(state.sheet, model, cs, cfg, stats=stats)
    except SearchError:
        with pytest.raises(SearchError):
            oracle_refine(state, model, cs, cfg)
        return
    actions, want_audit, want_stats = oracle_refine(state, model, cs, cfg)
    assert plan.actions == actions
    assert json.dumps(audit) == json.dumps(want_audit)
    assert work_counts(stats) == work_counts(want_stats)


@pytest.mark.parametrize("mode", ["expectation", "sampled"])
def test_golden_refine_counts_match_the_recursive_oracle(mode):
    # the sheet1 corpus of the golden files: D1 and D2 at seed 0, default search
    sheet = builtin_sheet("sheet1")
    logs = [run_experiment(expert_plan(variant), sheet, GroundTruthParams(), seed=0,
                           keep_captures=False) for variant in (1, 2)]
    model = aggregate(logs)
    state = average_states([log.states[0] for log in logs])
    cfg, cs, stats = SearchConfig(mode=mode, seed=3), standard_constraints(), SearchStats()
    plan, audit = refine_plan_detailed(state, model, cs, cfg, stats=stats)
    actions, want_audit, want = oracle_refine(WholeState.of(state), model, cs, cfg)
    assert plan.actions == actions
    assert json.dumps(audit) == json.dumps(want_audit)
    assert work_counts(stats) == work_counts(want)
    assert stats.batch_calls < want.batch_calls  # one call per level, not per node
    # one call per audit step, plus cfg.depth: the first committed step prices
    # its children and all depth levels below them, a later one only its new
    # deepest level; the stage that stops takes its children from the kept
    # tree; a suffix step is one batch, all paths in it for a path
    # (16 = 3 + 9 committed + 4 suffix at expectation)
    assert stats.batch_calls == cfg.depth + len(audit)
    if mode == "expectation":
        assert (stats.batch_calls, stats.children_priced) == (16, 11347)


def oracle_assign_sector(point, geom: SheetGeometry) -> int:
    """Angular wedge (1..k) owning the point, by a scalar arctan2; the exact center is sector 1."""
    p = np.asarray(point, dtype=float) - geom.center
    if p[0] == 0.0 and p[1] == 0.0:
        return 1
    ang = float(np.arctan2(p[1], p[0]))
    if ang < 0.0:
        ang += 2.0 * np.pi
    width = 2.0 * np.pi / geom.sector_count
    return min(int(ang // width) + 1, geom.sector_count)


@dataclass(frozen=True)
class OracleEllipse:
    centroid: np.ndarray
    a: float
    b: float
    theta: float
    mean_height: float


def oracle_fit(g: np.ndarray) -> OracleEllipse:
    """The moment ellipse of one group as an object, by the arithmetic of `fit_ellipse`."""
    centroid = g[:, :2].mean(axis=0)
    mean_height = float(g[:, 2].mean())
    if len(g) == 1:
        return OracleEllipse(centroid, 0.0, 0.0, 0.0, mean_height)
    xy = g[:, :2] - centroid
    evals, evecs = np.linalg.eigh(xy.T @ xy / len(g))
    lo, hi = float(max(evals[0], 0.0)), float(max(evals[1], 0.0))
    theta = 0.0
    if hi - lo > 1e-12 * max(1.0, hi):
        theta = fold_axial(float(np.arctan2(evecs[1, 1], evecs[0, 1])))
    return OracleEllipse(centroid, float(2.0 * np.sqrt(hi)), float(2.0 * np.sqrt(lo)), theta,
                         mean_height)


def oracle_build_state(frame: CaptureFrame, geom: SheetGeometry) -> tuple[WholeState, list]:
    """The per-ellipse path: one object per region, a scalar sector each, a list per sector."""
    groups = segment_regions(frame.points[frame.points[:, 2] > 0.5], 12.0)
    ellipses = [oracle_fit(g) for g in groups]
    per_sector: dict[int, list[int]] = {}
    for idx, ell in enumerate(ellipses):
        per_sector.setdefault(oracle_assign_sector(ell.centroid, geom), []).append(idx)
    k = geom.sector_count
    mu, sigma, count = np.zeros((k, 6)), np.zeros((k, 2, 3, 3)), np.zeros(k, dtype=int)
    for sector, idxs in per_sector.items():
        ells = [ellipses[j] for j in idxs]
        g1 = np.array([[e.centroid[0], e.centroid[1], e.mean_height] for e in ells])
        g2 = np.array([[e.a, e.b, e.theta] for e in ells])
        row = sector - 1
        if len(idxs) == 1:
            pts = groups[idxs[0]]
            centered = pts - pts.mean(axis=0)
            mu[row] = np.concatenate([g1[0], g2[0]])
            cov = centered.T @ centered / len(pts)
            sigma[row, 0] = (cov + cov.T) / 2.0
        else:
            w = np.array([len(groups[j]) for j in idxs], dtype=float)
            w = w / w.sum()
            mu[row, :3] = w @ g1
            centered = g1 - mu[row, :3]
            cov = (centered * w[:, None]).T @ centered
            sigma[row, 0] = (cov + cov.T) / 2.0
            mu[row, 3:] = g2.mean(axis=0)
            centered = g2 - mu[row, 3:]
            cov = centered.T @ centered / len(idxs)
            sigma[row, 1] = (cov + cov.T) / 2.0
        count[row] = len(idxs)
    return WholeState(geom, mu, sigma, count, frame.t), ellipses


# spots on a 40 mm lattice, each above the floor a one-point region, with
# signed zeros and the least subnormal at the center: spots at 0.0 and
# -5e-324 link, and their mean, -5e-324 / 2, rounds to -0.0, so a region's
# centroid can sit on the center as (-0.0, +-0.0), which arctan2 reads as pi
SPOT_ST = st.sampled_from((-0.0, 0.0, -5e-324, 40.0, -40.0, 80.0, -80.0))
# four points around the center: their centroid is exactly the center
CROSS = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0], [0.0, -3.0]])


@st.composite
def region_frames(draw):
    """A capture and the geometry it is summarized on.

    Either a seeded ground truth of either sheet with 0-8 regions, swept
    by up to three paths and rendered, on the sheet's polygon with 2-12
    sectors; or a hand-made frame of one-point regions and, perhaps, a
    region centred on the center, on a square of 2-12 sectors.
    """
    k = draw(st.integers(2, 12))
    if draw(st.booleans()):
        sheet = builtin_sheet(draw(st.sampled_from(("sheet1", "sheet2"))))
        sim = init_sheet(sheet, GroundTruthParams(region_count=draw(st.integers(0, 8))),
                         draw(st.integers(0, 2**32 - 1)))
        for i in draw(st.lists(st.integers(1, 16), max_size=3)):
            _sweep(sim, path_geometry(i, sheet.geometry, sim.params.roller_half_width))
        geom = SheetGeometry(sheet.geometry.center, sheet.geometry.polygon, k)
        return render_capture(sim), geom
    spots = draw(st.lists(st.tuples(SPOT_ST, SPOT_ST, st.sampled_from((0.2, 0.6, 1.0, 3.5))),
                          min_size=1, max_size=8))
    points = np.array(spots, dtype=float)
    if draw(st.booleans()):
        h = draw(st.lists(st.sampled_from((0.6, 1.0, 2.5)), min_size=4, max_size=4))
        points = np.concatenate([points, np.column_stack([CROSS, h])])
    return CaptureFrame(points, t=draw(st.integers(0, 40))), square_geometry(k)


@settings(max_examples=200, deadline=None)
@given(case=region_frames())
@example(case=(CaptureFrame(np.column_stack([np.vstack([CROSS, [80.0, 40.0]]), np.ones(5)])),
               square_geometry(8)))
@example(case=(CaptureFrame(np.array([[-5e-324, -5e-324, 1.0], [0.0, 0.0, 1.0]])),
               square_geometry(8)))
def test_build_state_matches_the_per_ellipse_path(case):
    frame, geom = case
    got = build_state(frame, geom)
    want, ellipses = oracle_build_state(frame, geom)
    assert fingerprint(got) == fingerprint(want.sheet)  # the covariances' diagonals
    assert got.t == want.t
    _, regions = extract_regions(frame)
    assert regions.shape == (len(ellipses), 6)
    assert (regions[:, 4] <= regions[:, 3]).all()  # b <= a
    assert ((regions[:, 5] >= 0.0) & (regions[:, 5] < np.pi)).all()


@settings(max_examples=200, deadline=None)
@given(state=states())
def test_state_json_round_trip_is_exact(state):
    back = SheetState.from_json(json.loads(json.dumps(state.to_json())), state.geometry)
    assert fingerprint(back) == fingerprint(state)
    assert back.t == state.t


def exact(frames) -> list:
    """Each frame's `t`, points shape and points bytes: equal only when bit for bit equal."""
    return [(fr.t, fr.points.shape, fr.points.tobytes()) for fr in frames]


# floats a lossy capture format would change: signed zero, subnormal, extremes
EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.5e-300, 0.1, 1e+16, 1.7976931348623157e+308)
coord_st = st.one_of(st.sampled_from(EDGE_FLOATS + tuple(-v for v in EDGE_FLOATS)),
                     st.floats(allow_nan=False, allow_infinity=False))
height_st = st.one_of(st.sampled_from(EDGE_FLOATS),
                      st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))


@st.composite
def capture_frames(draw):
    """Up to five frames of 1 to 6 points each, `t` anywhere in int64."""
    frames = []
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, 6))
        xy = draw(st.lists(st.tuples(coord_st, coord_st), min_size=n, max_size=n))
        h = draw(st.lists(height_st, min_size=n, max_size=n))
        frames.append(CaptureFrame(np.column_stack([np.array(xy, dtype=float), h]),
                                   t=draw(st.integers(-2**63, 2**63 - 1))))
    return frames


@settings(max_examples=200, deadline=None)
@given(frames=capture_frames())
@example(frames=[CaptureFrame(np.array([[-0.0, 1.0, -0.0], [3.0, -0.0, 0.0]]), t=-2**63),
                 CaptureFrame(np.array([[5e-324, 2.0, 1e+16]]), t=2**63 - 1)])
def test_capture_round_trip_is_exact(frames):
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "caps.npy"
        write_capture_frames(target, frames)
        back = read_capture_frames(target)
    assert exact(back) == exact(frames)
    assert all(type(fr.t) is int for fr in back)


@pytest.mark.parametrize("variant", [1, 2])
def test_simulate_sidecar_on_sheet2_reads_back_the_captures(tmp_path, variant):
    # no golden pins a sheet2 sidecar; the frames come from a separate run
    plan_path = tmp_path / f"D{variant}.plan"
    emit_plan(expert_plan(variant), plan_path)
    log_path, = cmd_simulate(plan_path, RunConfig(sheet="sheet2", seeds=(7,), out=tmp_path))
    log = run_experiment(expert_plan(variant), builtin_sheet("sheet2"), GroundTruthParams(), 7,
                         constraints=initial_plan_constraints(), keep_captures=True)
    sidecar = read_capture_frames(tmp_path / "captures" / f"{log_path.stem}.npy")
    assert len(log.captures) > 2
    assert exact(sidecar) == exact(log.captures)


actions_st = st.one_of(st.integers(1, 16).map(path), st.integers(1, 4).map(refinement),
                       st.sampled_from((peel(), capture(), end())))


@st.composite
def chained_logs(draw, geom=None):
    """A log of 0-3 steps: n actions and n + 1 states on one geometry (`geom`
    if given), no state for n = 0."""
    n = draw(st.integers(0, 3))
    chain = []
    if n:
        first = draw(states(geom))
        chain = [first] + [draw(states(first.geometry)) for _ in range(n)]
    return ExperimentLog(plan_name=draw(st.text(max_size=4)), sheet="sheet1",
                         seed=draw(st.integers(0, 2**63)),
                         actions=[draw(actions_st) for _ in range(n)], states=chain,
                         correction_cycles=draw(st.integers(0, 10)),
                         correction_paths=draw(st.integers(0, 20)),
                         correction_converged=draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(log=chained_logs())
def test_log_round_trip_is_exact(log):
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "log.jsonl"
        write_log(log, target)
        back = read_log(target)
    assert back.summary() == log.summary()
    assert back.actions == log.actions
    assert [fingerprint(state) for state in back.states] == \
        [fingerprint(state) for state in log.states]
    assert [state.t for state in back.states] == [state.t for state in log.states]
    assert all(state.geometry is back.states[0].geometry for state in back.states)


@dataclass(frozen=True)
class TransitionSample:
    """One (step, sector) sample of a log, as the oracles below record it."""

    action: Action
    sector: int
    delta: np.ndarray  # (6,), as compute_delta returns it
    signs: np.ndarray  # (2, 3) of +-1, the growth signs of the G1 and G2 variances
    source: str        # "plan:step"


def oracle_transitions(log) -> list[TransitionSample]:
    """One sample per (step, sector), row by row: the loop `extract_transitions` replaced."""
    samples = []
    for i, action in enumerate(log.actions, start=1):
        before, after = log.states[i - 1], log.states[i]
        for row in range(len(before.count)):
            samples.append(TransitionSample(
                action=action, sector=row + 1,
                delta=compute_delta(before.mu[row], after.mu[row]),
                signs=np.array([[1.0 if after.var[row, track, l] - before.var[row, track, l] > 0
                                 else -1.0 for l in range(3)] for track in range(2)]),
                source=f"{log.plan_name}:{i}"))
    return samples


@settings(max_examples=150, deadline=None)
@given(log=chained_logs())
def test_extract_transitions_matches_the_row_loop(log):
    want = oracle_transitions(log)
    n, k = len(want), len(log.states[0].count) if log.states else 2
    keys, deltas, u1, u2, sources = extract_transitions(log)
    assert [column.shape for column in (keys, deltas, u1, u2, sources)] == \
        [(n,), (n, 6), (n, 3), (n, 3), (n,)]
    assert keys.tolist() == [sample_key(s.action, s.sector, k) for s in want]
    assert sources.tolist() == [s.source for s in want]
    for column, rows in ((deltas, [s.delta for s in want]), (u1, [s.signs[0] for s in want]),
                         (u2, [s.signs[1] for s in want])):
        assert [row.tobytes() for row in column] == [row.tobytes() for row in rows]


def oracle_aggregate(logs) -> tuple[str, EffectTable]:
    """The model file text and whole effect table of pooled logs, each sample
    appended to its bucket's lists in log order, then step order: the loop
    `aggregate`'s one stable sort replaced."""
    ks = {len(log.states[0].count) for log in logs if log.states}
    k, table = ks.pop() if ks else 2, {}
    for log in logs:
        for s in oracle_transitions(log):
            bucket = table.setdefault((*oracle_bucket_key(s.action), s.sector), OracleBucket())
            bucket.deltas.append(s.delta)
            bucket.u1.append(s.signs[0])
            bucket.u2.append(s.signs[1])
            bucket.sources.append(s.source)
    buckets = {f"{kind}|{arg}|{sector}": {"deltas": [[float(v) for v in d] for d in b.deltas],
                                          "u1": [[float(v) for v in d] for d in b.u1],
                                          "u2": [[float(v) for v in d] for d in b.u2],
                                          "sources": b.sources}
               for (kind, arg, sector), b in sorted(table.items())}
    return json.dumps({"version": 1, "sector_count": k,
                       "experiments": len(logs), "sheets": sorted({log.sheet for log in logs}),
                       "buckets": buckets}), oracle_compile(table, k)


@st.composite
def log_corpora(draw):
    """1-3 logs on one geometry, a log possibly drawn more than once."""
    geom = square_geometry(draw(st.integers(2, 12)))
    logs = draw(st.lists(chained_logs(geom), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(logs), min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(logs=log_corpora())
def test_aggregate_matches_the_per_sample_loop(logs):
    model = aggregate(logs)
    text, table = oracle_aggregate(logs)
    assert json.dumps(model.to_json()) == text
    with np.errstate(over="ignore", invalid="ignore"):
        assert table_bytes(whole_table(model)) == table_bytes(oracle_diagonal(table))


def _fields(node):
    # (container, key, value) of every field below a JSON node, depth first
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key, value
        if isinstance(value, (dict, list)):
            yield from _fields(value)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# which (container, key, value) sites each corruption applies to
CORRUPTIONS = {
    "drop a key": lambda c, k, v: isinstance(c, dict),
    "shorten a vector": lambda c, k, v: isinstance(v, list) and k != "polygon",
    "string for a number": lambda c, k, v: _is_number(v),
}


def _corrupt(container, key, how: str) -> None:
    if how == "drop a key":
        del container[key]
    elif how == "shorten a vector":
        container[key] = container[key][:-1]
    else:
        container[key] = "oops"


@settings(max_examples=200, deadline=None)
@given(state=states(), line=st.sampled_from((1, 2, 3)),
       how=st.sampled_from(sorted(CORRUPTIONS)), data=st.data())
def test_read_log_names_the_line_of_a_corrupt_step(state, line, how, data):
    # line 1 is the start record, lines 2 and 3 the steps
    log = ExperimentLog(plan_name="p", sheet="s", seed=0, actions=[path(1), path(2)],
                        states=[state] * 3, correction_cycles=0, correction_paths=0,
                        correction_converged=True)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "log.jsonl"
        write_log(log, target)
        read_log(target)  # well formed before the corruption
        lines = target.read_text().splitlines()
        rec = json.loads(lines[line - 1])
        sites = [(c, k) for c, k, v in _fields(rec)
                 if not (c is rec and k == "type")
                 and CORRUPTIONS[how](c, k, v)]
        _corrupt(*sites[data.draw(st.integers(0, len(sites) - 1))], how)
        lines[line - 1] = json.dumps(rec)
        target.write_text("\n".join(lines) + "\n")
        kind = "start" if line == 1 else "step"
        with pytest.raises(LogFormatError, match=re.escape(f"{target}:{line}: bad {kind} record")):
            read_log(target)


@st.composite
def star_polygons(draw):
    """A simple polygon: 3-9 vertices around the origin in angular order.

    Each angular gap is under half a turn, so no two edges cross.
    """
    gaps = draw(st.lists(st.floats(1.0, 1.9), min_size=3, max_size=9))
    angles = 2.0 * np.pi * np.cumsum(gaps) / sum(gaps)
    radii = np.array(draw(st.lists(st.floats(5.0, 200.0), min_size=len(gaps),
                                   max_size=len(gaps))))
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def _edges(poly):
    return list(zip(poly, np.roll(poly, -1, axis=0)))


def _closest_on_edge(p, a, b):
    """Exact closest point of segment ab to p, and its squared distance."""
    (px, py), (ax, ay), (bx, by) = (map(Fraction, v) for v in (p, a, b))
    dx, dy = bx - ax, by - ay
    t = min(max(((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy), 0), 1)
    qx, qy = ax + t * dx, ay + t * dy
    return (qx, qy), (px - qx) ** 2 + (py - qy) ** 2


def even_odd_oracle(p, poly) -> bool:
    """Exact even-odd rule: an edge crossing the ray toward +x has p on its left
    going up, or on its right going down."""
    px, py = map(Fraction, p)
    inside = False
    for a, b in _edges(poly):
        (ax, ay), (bx, by) = map(Fraction, a), map(Fraction, b)
        if (ay > py) != (by > py):
            side = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            if (side > 0) == (by > ay):
                inside = not inside
    return inside


coords_st = st.floats(-250.0, 250.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(poly=star_polygons(), pts=st.lists(st.tuples(coords_st, coords_st), min_size=1,
                                          max_size=40).map(np.array),
       ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_point_in_polygon_matches_even_odd_oracle(poly, pts, ts):
    assert polygon_is_simple(poly)
    got = point_in_polygon(pts, poly)
    assert got.shape == (len(pts),)
    assert got.tolist() == [point_in_polygon(p, poly) for p in pts]
    for p, inside in zip(pts, got.tolist()):
        if min(_closest_on_edge(p, a, b)[1] for a, b in _edges(poly)) > Fraction(1e-12):
            assert inside == even_odd_oracle(p, poly)  # more than 1e-6 off the boundary
    on_boundary = np.array([a + t * (b - a) for a, b in _edges(poly) for t in ts])
    assert point_in_polygon(on_boundary, poly).all()
    assert point_in_polygon(poly, poly).all()
    assert all(point_in_polygon(p, poly) for p in np.concatenate([on_boundary, poly]))


@settings(max_examples=200, deadline=None)
@given(poly=star_polygons(), pts=st.lists(st.tuples(coords_st, coords_st), min_size=1,
                                          max_size=10))
def test_nearest_boundary_matches_edge_scan(poly, pts):
    for p in pts:
        scan = [_closest_on_edge(p, a, b) for a, b in _edges(poly)]
        best = min(d2 for _, d2 in scan)
        q = nearest_boundary_point(p, poly)
        assert np.hypot(*(np.asarray(p) - q)) == pytest.approx(float(best) ** 0.5, abs=1e-9)
        # the edges that come within 1e-9 mm of the minimum: a vertex closest ties two
        near = [i for i, (_, d2) in enumerate(scan) if float(d2) ** 0.5 <= float(best) ** 0.5
                + 1e-9]
        assert any(np.allclose(q, [float(v) for v in scan[i][0]], rtol=0, atol=1e-9)
                   for i in near)
        got = nearest_edge_angle(p, poly)
        assert 0.0 <= got < math.pi
        assert any(abs(axial_difference(got, math.atan2(b[1] - a[1], b[0] - a[0]))) < 1e-12
                   for a, b in (_edges(poly)[i] for i in near))


def closest_on_boundary_loop(point, polygon):
    """The edge-by-edge scan `_closest_on_boundary` batches: one point's closest
    boundary point and edge, the first edge on ties."""
    p = np.asarray(point, dtype=float)
    best, best_edge, best_d = None, 0, np.inf
    for i, (a, b) in enumerate(_edges(np.asarray(polygon, dtype=float))):
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
        q = a + t * ab
        d = float(np.linalg.norm(p - q))
        if d < best_d:
            best, best_edge, best_d = q, i, d
    return best, best_edge


def clamp_loop(point, polygon, margin):
    """One point's clamp, as `clamp_into_polygon` did it before it took arrays."""
    p = np.asarray(point, dtype=float)
    if point_in_polygon(p, polygon):
        return p
    q = closest_on_boundary_loop(p, polygon)[0]
    inward = polygon.mean(axis=0) - q
    norm = float(np.linalg.norm(inward))
    if norm < 1e-12:
        return q
    return q + inward / norm * min(margin, norm)


@settings(max_examples=200, deadline=None)
@given(poly=star_polygons(), pts=st.lists(st.tuples(coords_st, coords_st), min_size=1,
                                          max_size=8).map(np.array),
       margin=st.sampled_from((2.0, 5.0, 10.0, 25.0)))
def test_boundary_helpers_match_the_edge_loop(poly, pts, margin):
    # bit for bit, for an array of points and for each point alone
    loop = [closest_on_boundary_loop(p, poly) for p in pts]
    q, edge = _closest_on_boundary(pts, poly)
    assert q.tobytes() == np.array([w for w, _ in loop]).tobytes()
    assert edge.tolist() == [e for _, e in loop]
    e = np.roll(poly, -1, axis=0) - poly
    angles = [fold_axial(float(np.arctan2(e[i, 1], e[i, 0]))) for _, i in loop]
    assert nearest_edge_angle(pts, poly).tolist() == angles
    clamped = np.array([clamp_loop(p, poly, margin) for p in pts])
    assert clamp_into_polygon(pts, poly, margin).tobytes() == clamped.tobytes()
    for p, (w, i), angle, c in zip(pts, loop, angles, clamped):
        assert nearest_boundary_point(p, poly).tobytes() == w.tobytes()
        assert nearest_edge_angle(p, poly) == angle
        assert clamp_into_polygon(p, poly, margin).tobytes() == c.tobytes()


def polygon_is_simple_loop(polygon) -> bool:
    """The pair loop `polygon_is_simple` runs one edge at a time."""
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


def polygon_area_roll(polygon) -> float:
    """The shoelace area over `np.roll`ed coordinates, as `polygon_area` took it."""
    p = np.asarray(polygon, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


def ray_exit_loop(origin, direction, polygon):
    """The edge loop `ray_exit_point` batches; None where the ray meets no edge."""
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
    return None if best_t is None else o + best_t * d


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def flip_zeros(xy):
    """The same values, each zero's sign flipped: equal to `xy`, but not in bytes."""
    return [tuple(-v if v == 0.0 else v for v in row) for row in xy]


# small integer vertices repeat, line up and close zero-length edges
grid_polygons = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3,
                         max_size=8).map(lambda v: np.array(v, dtype=float))


@st.composite
def rays(draw, poly):
    """An origin at a vertex (its zeros negated or not), an edge midpoint or anywhere,
    and a direction along an edge (zero-length edges included), against it, aimed
    just either side of one of its ends, or anywhere."""
    k = len(poly)
    i = draw(st.integers(0, k - 1))
    a, b = poly[i], poly[(i + 1) % k]
    origin = draw(st.sampled_from((a, np.array(flip_zeros([a])[0]), (a + b) / 2.0))
                  | st.tuples(coords_st, coords_st).map(np.array))
    past = draw(st.sampled_from((-5e-9, -5e-10, 0.0, 5e-10, 5e-9)))
    direction = draw(st.sampled_from((b - a, a - b, a + past * (b - a) - origin,
                                      b - past * (a - b) - origin))
                     | st.floats(-np.pi, np.pi).map(lambda t: np.array([np.cos(t), np.sin(t)])))
    return origin, direction


@settings(max_examples=300, deadline=None)
@given(poly=grid_polygons | star_polygons() | grid_polygons.map(lambda p: p * 37.5 + 0.1),
       data=st.data())
@example(poly=np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]),
         data=None)  # a repeated vertex, and a bowtie
@example(poly=np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [2.0, 0.0]]), data=None)
@example(poly=np.array([[-2.0, -2.0], [1.0, 0.0], [1.0, -1.0]]), data=None)
def test_polygon_helpers_match_the_edge_loops(poly, data):
    # bit for bit: the simple test, the area and ray exits, parallel rays included;
    # on the last example the ray from (1, -0.0) meets edges 0 and 2 at t = -0.0 and
    # t = 0.0, and the first of them wins
    assert polygon_is_simple(poly) == polygon_is_simple_loop(poly)
    assert bits(polygon_area(poly)) == bits(polygon_area_roll(poly))
    cases = [(poly[0], poly[1] - poly[0]), ((poly[0] + poly[1]) / 2.0, poly[1] - poly[0]),
             (poly.mean(axis=0), np.array([1e-12, 0.0])),  # |cross| 1e-12 on a unit edge
             (np.array([1.0, -0.0]), np.array([1.0, -1.0]))]
    if data is not None:
        cases += [data.draw(rays(poly)) for _ in range(6)]
    for origin, direction in cases:
        want = ray_exit_loop(origin, direction, poly)
        if want is None:
            with pytest.raises(ValueError, match="does not reach"):
                ray_exit_point(origin, direction, poly)
        else:
            assert bits(ray_exit_point(origin, direction, poly)) == bits(want)


def fold_axial_branches(theta):
    """`fold_axial` as it was, one branch for a scalar and one for an array."""
    t = np.mod(theta, np.pi)
    if np.ndim(t) == 0:
        return 0.0 if t >= np.pi else float(t)
    t[t >= np.pi] = 0.0
    return t


def axial_difference_branches(after, before):
    """`axial_difference` as it was, one branch for scalars and one for arrays."""
    d = np.mod(after - before, np.pi)
    if np.ndim(d) == 0:
        return float(d - np.pi) if d > np.pi / 2.0 else float(d)
    d[d > np.pi / 2.0] -= np.pi
    return d


# fold_axial's edge (-1e-17 mod pi rounds to pi), multiples of pi, the two
# sides of +-pi/2 where axial_difference flips, and anything else
angles_st = (st.sampled_from((-1e-17, 1e-17, -0.0, 0.0, np.pi / 2, -np.pi / 2,
                              math.nextafter(np.pi / 2, 0.0), math.nextafter(np.pi / 2, 4.0),
                              math.nextafter(-np.pi / 2, 0.0), math.nextafter(-np.pi / 2, -4.0)))
             | st.integers(-8, 8).map(lambda k: k * np.pi)
             | st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(after=st.lists(angles_st, min_size=1, max_size=12), data=st.data())
@example(after=[-1e-17, np.pi, -np.pi, 3 * np.pi / 2], data=None)
def test_axial_helpers_match_their_branches(after, data):
    before = data.draw(st.lists(angles_st, min_size=len(after), max_size=len(after))) \
        if data is not None else [0.0, -np.pi / 2, np.pi / 2, 0.0]
    pairs = [(fold_axial, fold_axial_branches, (after,)),
             (axial_difference, axial_difference_branches, (after, before))]
    for helper, branches, args in pairs:
        arrays = helper(*map(np.array, args))
        assert arrays.dtype == float and bits(arrays) == bits(branches(*map(np.array, args)))
        for i, row in enumerate(zip(*args)):
            got = helper(*row)
            assert isinstance(got, np.floating) and isinstance(got, float)
            assert bits(got) == bits(branches(*row)) == bits(arrays[i])


_OUTLINE = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)


def ellipse_hits_swept_rect(centroid, a, b, theta, path) -> bool:
    """The sampled hit test of one ellipse, as the simulator ran it region by region."""
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
    ca, sa = np.cos(theta), np.sin(theta)
    local = np.column_stack([a * np.cos(_OUTLINE), b * np.sin(_OUTLINE)])
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


@st.composite
def swept_paths(draw):
    start = np.array([draw(st.floats(-150.0, 150.0)), draw(st.floats(-150.0, 150.0))])
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    length = draw(st.floats(1.0, 300.0))
    return PathGeometry(start=start, end=start + length * np.array([np.cos(angle), np.sin(angle)]),
                        half_width=draw(st.floats(0.5, 30.0)))


# degenerate ellipses among the draws: points (a = 0) and slivers (b -> 0)
ellipses_st = st.tuples(st.floats(-250.0, 250.0), st.floats(-250.0, 250.0),
                        st.one_of(st.just(0.0), st.floats(0.0, 80.0)),
                        st.one_of(st.sampled_from((0.0, 1e-300, 1e-12)), st.floats(0.0, 1.0)),
                        st.floats(0.0, np.pi))


@settings(max_examples=300, deadline=None)
@given(path=swept_paths(), ellipses=st.lists(ellipses_st, max_size=8))
@example(path=PathGeometry(np.zeros(2), np.array([100.0, 0.0]), 15.0),
         ellipses=[(50.0, 0.0, 0.0, 0.0, 0.0), (50.0, 30.0, 0.0, 0.0, 0.0),
                   (50.0, 30.0, 20.0, 1e-300, np.pi / 2), (50.0, 0.0, 200.0, 0.75, 0.3),
                   (100.0, 15.0, 5.0, 0.0, 0.0), (-20.0, 0.0, 20.0, 0.5, 0.0)])
def test_swept_rect_hits_matches_the_scalar_test(path, ellipses):
    rows = np.array(ellipses, dtype=float).reshape(-1, 5)
    a = rows[:, 2]
    b = a * rows[:, 3]  # minor semi-axis as a fraction of the major
    with np.errstate(over="ignore"):  # a tiny major semi-axis scales corners past the float range
        got = swept_rect_hits(rows[:, :2], a, b, rows[:, 4], path)
        want = [ellipse_hits_swept_rect(r[:2], ai, bi, r[4], path)
                for r, ai, bi in zip(rows, a.tolist(), b.tolist())]
    assert got.dtype == bool and got.shape == (len(rows),)
    assert got.tolist() == want


scale_st = st.sampled_from((0.0, 0.04, 0.4, 1.5))


def noise_params(draw_scales) -> GroundTruthParams:
    height, xy, size, theta = draw_scales
    return GroundTruthParams(noise_height=height, noise_xy=xy, noise_size=size,
                             noise_theta=theta)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 9),
       scales=st.tuples(scale_st, scale_st, scale_st, scale_st))
def test_sweep_noise_matches_per_region_draws(seed, n, scales):
    p = noise_params(scales)
    sim = init_sheet(builtin_sheet("sheet1"), p, seed)
    rng = init_sheet(builtin_sheet("sheet1"), p, seed).rng
    want = np.zeros((n, 6))
    for row in want:  # region by region, term by term
        if p.noise_height > 0:
            row[0] = rng.normal(0.0, p.noise_height)
        if p.noise_xy > 0:
            row[1:3] = rng.normal(0.0, p.noise_xy, 2)
        if p.noise_size > 0:
            row[3] = rng.normal(0.0, p.noise_size)
            row[4] = rng.normal(0.0, p.noise_size)
        if p.noise_theta > 0:
            row[5] = rng.normal(0.0, p.noise_theta)
    assert _noise(sim, n).tobytes() == want.tobytes()
    assert sim.rng.bit_generator.state == rng.bit_generator.state


def sweep_loop(sim, pg):
    """The sweep as the simulator ran it, one region at a time on plain floats;
    leaves the surviving regions in `sim` and returns them as (x, y, peak, a,
    b, theta) rows."""
    p = sim.params
    sim.j += 1
    r = p.reduction(sim.j)
    poly = sim.geometry.polygon
    rows = []
    for x, y, peak, a, b, theta in sim.regions.tolist():
        centroid = np.array([x, y])
        if ellipse_hits_swept_rect(centroid, a, b, theta, pg):
            alignment = min(1.0, max(p.alignment_floor, abs(np.cos(pg.angle - theta))))
            peak *= (1.0 - r * alignment)
            centroid = clamp_into_polygon(centroid + p.edge_drift * pg.direction, poly, 10.0)
            target = fold_axial(nearest_edge_angle(centroid, poly) + np.pi / 2.0)
            swing = axial_difference(target, theta)
            theta = fold_axial(theta + float(np.clip(swing, -p.orientation_rate,
                                                     p.orientation_rate)))
            if p.noise_height > 0:
                peak = max(0.0, peak + float(sim.rng.normal(0.0, p.noise_height)))
            if p.noise_xy > 0:
                centroid = clamp_into_polygon(centroid + sim.rng.normal(0.0, p.noise_xy, 2),
                                              poly, 10.0)
            if p.noise_size > 0:
                a = max(1.0, a + float(sim.rng.normal(0.0, p.noise_size)))
                b = float(np.clip(b + sim.rng.normal(0.0, p.noise_size), 0.5, a))
            if p.noise_theta > 0:
                theta = fold_axial(theta + float(sim.rng.normal(0.0, p.noise_theta)))
        if peak >= p.extinction_height:
            rows.append((centroid[0], centroid[1], peak, a, b, theta))
    sim.regions = np.array(rows, dtype=float).reshape(-1, 6)
    return sim.regions


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sheet=st.sampled_from(("sheet1", "sheet2")),
       scales=st.tuples(scale_st, scale_st, scale_st, scale_st),
       drift=st.sampled_from((0.0, 3.0, 40.0)), count=st.integers(0, 9),
       paths=st.lists(st.one_of(st.integers(1, 16), swept_paths()), min_size=1, max_size=6))
def test_sweep_matches_the_region_loop(seed, sheet, scales, drift, count, paths):
    # a large drift pushes regions out of the sheet, so clamps and extinctions happen
    height, xy, size, theta = scales
    p = GroundTruthParams(noise_height=height, noise_xy=xy, noise_size=size, noise_theta=theta,
                          edge_drift=drift, region_count=count, extinction_height=1.0)
    sim, ref = (init_sheet(builtin_sheet(sheet), p, seed) for _ in range(2))
    for pg in paths:
        if isinstance(pg, int):
            pg = path_geometry(pg, sim.geometry)
        _sweep(sim, pg)
        want = sweep_loop(ref, pg)
        assert sim.regions.tobytes() == want.tobytes()
        assert sim.j == ref.j
        assert sim.rng.bit_generator.state == ref.rng.bit_generator.state


def serpentine(rows: int, cols: int, origin) -> list:
    """One single-linkage chain under radius 1: rows of unit steps, 2 apart, each
    joined to the next at alternate ends, listed from end to end."""
    x0, y0 = origin
    pts = []
    for r in range(rows):
        xs = range(cols) if r % 2 == 0 else range(cols - 1, -1, -1)
        pts += [(x0 + x, y0 + 2 * r) for x in xs]
        if r + 1 < rows:
            pts.append((x0 + (cols - 1 if r % 2 == 0 else 0), y0 + 2 * r + 1))
    return pts


@settings(max_examples=40, deadline=None)
@given(chains=st.lists(st.tuples(st.integers(1, 8), st.integers(1, 30)), min_size=1, max_size=3),
       shuffle=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_segment_regions_serpentine_chains(chains, shuffle):
    # long chains listed from their far end, the most rounds a labelling can need
    pts, x0 = [], 0
    for rows, cols in chains:
        pts += serpentine(rows, cols, (x0, 0))
        x0 += cols + 2  # more than the radius apart
    pts = np.array([(x, y, 1.0 + i % 7) for i, (x, y) in enumerate(pts)], dtype=float)[::-1]
    if shuffle is not None:
        pts = pts[np.random.default_rng(shuffle).permutation(len(pts))]
    got = segment_regions(pts, 1.0)
    want = single_linkage_oracle(pts, 1.0)
    assert len(got) == len(want) == len(chains)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
