"""Property tests: fast paths against the slow oracles they stand in for,
and the plan and log boundaries against malformed input."""
import itertools
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from layup.effectiveness import (EffectivenessModel, LogFormatError,  # noqa: E402
                                 TransitionSample, propagate, propagate_batch)
from layup.geometry import (PathGeometry, _closest_on_boundary,  # noqa: E402
                            axial_difference, clamp_into_polygon, fold_axial,
                            nearest_boundary_point, nearest_edge_angle, point_in_polygon,
                            polygon_is_simple, swept_rect_hits)
from layup.plan import (ACTION_KINDS, AbsConstraint, ConstraintSet,  # noqa: E402
                        DrapingPlan, PlanParseError, RelConstraint, _feasible_screen,
                        canonical_kinds, capture, completion, emit_plan_text, end,
                        outstanding, parse_plan_text, path, peel, prefix_feasible,
                        refinement, standard_constraints)
from layup.search import (SearchConfig, price_batch, state_utility,  # noqa: E402
                          trace_total)
from layup.sheet_state import SheetGeometry, SheetState, segment_regions  # noqa: E402
from layup.simulator import (ExperimentLog, GroundTruthParams, SimState,  # noqa: E402
                             StepRecord, _noise, _sweep, builtin_sheet, init_sheet,
                             path_geometry, read_log, write_log)

from conftest import make_state, meets  # noqa: E402

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


def _satisfies(kinds, cs) -> bool:
    if kinds:
        return meets(kinds, cs)
    # the empty prefix: relative constraints hold vacuously, counts are zero
    return all({">": 0 > c.lam, "=": c.lam == 0, "<": 0 < c.lam}[c.gamma] for c in cs.abs)


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
                 if _satisfies(kinds + suffix, cs)), None)
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


# values that put the clamps, the collapse and fold_axial's edge within reach:
# small heights and axes meet large negative deltas, and an orientation of 0
# meets a tiny negative rotation, whose residue modulo pi rounds to pi;
# negative values reach the utility's clamp in sectors left untouched
SMALL_ST = st.sampled_from((-0.5, -0.0, 0.0, 1e-3, 0.4, 2.5, 40.0))
THETA_ST = st.sampled_from((0.0, 1e-17, 1.0, np.pi / 2, 3.1))
DELTAS = (0.0, -1e-17, -0.3, -50.0, 0.2, 1.7)
BATCH_ACTIONS = (path(1), path(2), path(3), peel(), capture(), refinement(3), end())


@st.composite
def sectors(draw):
    """One sector's (mu, sigma, n) rows for make_state, or None for a sentinel."""
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


@st.composite
def states(draw):
    k = draw(st.integers(2, 12))  # np.sum adds 8 or more terms pairwise
    half = 100.0
    geom = SheetGeometry(center=np.zeros(2), sector_count=k,
                         polygon=np.array([[half, half], [-half, half],
                                           [-half, -half], [half, -half]]))
    rows = {i: draw(sectors()) for i in range(1, k + 1)}
    return make_state(geom, {i: row for i, row in rows.items() if row is not None},
                      t=draw(st.integers(0, 40)))


@st.composite
def states_and_models(draw):
    state = draw(states())
    k = state.geometry.sector_count
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = EffectivenessModel(sector_count=k)
    for action in BATCH_ACTIONS[:-1]:  # end stays unseen
        for sector in range(1, k + 1):
            for _ in range(rng.integers(0, 4)):  # 0: sector without data
                u1, u2 = rng.choice((-1.0, 1.0), size=(2, 3))
                model.add_sample(TransitionSample(
                    action, sector, rng.choice(DELTAS, size=6), np.array([u1, u2])))
    return state, model


def fingerprint(state: SheetState, i=...) -> tuple:
    """The exact bytes of a state's arrays, or of state i of a batch."""
    return state.mu[i].tobytes(), state.sigma[i].tobytes(), state.count[i].tobytes()


@settings(max_examples=200, deadline=None)
@given(case=states_and_models(), sampled=st.booleans(),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=len(BATCH_ACTIONS),
                      max_size=len(BATCH_ACTIONS)))
def test_propagate_batch_matches_scalar_bitwise(case, sampled, seeds):
    state, model = case
    batch = propagate_batch(state, BATCH_ACTIONS, model, seeds if sampled else None)
    for i, (action, seed) in enumerate(zip(BATCH_ACTIONS, seeds)):
        want = propagate(state, action, model, mode="sampled" if sampled else "expectation",
                         seed=seed)
        assert fingerprint(batch, i) == fingerprint(want)


@settings(max_examples=200, deadline=None)
@given(case=states_and_models(),
       weights=st.tuples(*(st.sampled_from((0.0, 0.002, 25.0, 2.4e5, 1.3)) for _ in range(3))))
def test_price_batch_matches_scalar_bitwise(case, weights):
    state, model = case
    cfg = SearchConfig(w_h=weights[0], w_area=weights[1], w_sigma=weights[2])
    scalar = [state] + [propagate(state, action, model) for action in BATCH_ACTIONS]
    batch = SheetState(state.geometry, np.stack([s.mu for s in scalar]),
                       np.stack([s.sigma for s in scalar]), np.stack([s.count for s in scalar]))
    utility, trace = price_batch(batch, cfg)
    assert [u.hex() for u in utility.tolist()] == \
        [state_utility(s, cfg).hex() for s in scalar]
    assert [t.hex() for t in trace.tolist()] == [trace_total(s).hex() for s in scalar]


@settings(max_examples=200, deadline=None)
@given(state=states())
def test_state_json_round_trip_is_exact(state):
    back = SheetState.from_json(json.loads(json.dumps(state.to_json())))
    assert fingerprint(back) == fingerprint(state)
    assert back.t == state.t


def _fields(node):
    # (container, key, value) of every field below a JSON node, depth first
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key, value
        if isinstance(value, (dict, list)):
            yield from _fields(value)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# which (container, key, value) sites each corruption applies to; captures
# are optional, so a step record's required fields are all the rest
CORRUPTIONS = {
    "drop a key": lambda c, k, v: isinstance(c, dict),
    "shorten a vector": lambda c, k, v: isinstance(v, list) and k != "polygon",
    "string for a number": lambda c, k, v: _is_number(v),
    "reorder sector ids": lambda c, k, v: k == "sectors",
}


def _corrupt(container, key, how: str) -> None:
    if how == "drop a key":
        del container[key]
    elif how == "shorten a vector":
        container[key] = container[key][:-1]
    elif how == "string for a number":
        container[key] = "oops"
    else:
        records = container[key]
        records[0], records[-1] = records[-1], records[0]


@settings(max_examples=200, deadline=None)
@given(state=states(), line=st.sampled_from((1, 2)),
       how=st.sampled_from(sorted(CORRUPTIONS)), data=st.data())
def test_read_log_names_the_line_of_a_corrupt_step(state, line, how, data):
    log = ExperimentLog(plan_name="p", sheet="s", seed=0,
                        steps=[StepRecord(i, path(i), state, state) for i in (1, 2)],
                        correction_cycles=0, correction_paths=0, correction_converged=True)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "log.jsonl"
        write_log(log, target)
        read_log(target)  # well formed before the corruption
        lines = target.read_text().splitlines()
        rec = json.loads(lines[line - 1])
        sites = [(c, k) for c, k, v in _fields(rec)
                 if not (c is rec and k in ("type", "capture_before", "capture_after"))
                 and CORRUPTIONS[how](c, k, v)]
        _corrupt(*sites[data.draw(st.integers(0, len(sites) - 1))], how)
        lines[line - 1] = json.dumps(rec)
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match=re.escape(f"{target}:{line}: bad step record")):
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
    leaves the surviving regions in `sim` and returns them as (x, y, a, b,
    theta, peak) rows."""
    p = sim.params
    sim.j += 1
    r = p.reduction(sim.j)
    poly = sim.geometry.polygon
    rows = []
    for centroid, a, b, theta, peak in zip(sim.centroids.copy(), sim.a.tolist(), sim.b.tolist(),
                                           sim.theta.tolist(), sim.peak.tolist()):
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
            rows.append((centroid[0], centroid[1], a, b, theta, peak))
    regions = np.array(rows, dtype=float).reshape(-1, 6)
    sim.centroids = regions[:, :2].copy()
    sim.a, sim.b, sim.theta, sim.peak = regions[:, 2:].T.copy()
    return regions


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
        got = np.column_stack([sim.centroids, sim.a, sim.b, sim.theta, sim.peak])
        assert got.tobytes() == want.tobytes()
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
