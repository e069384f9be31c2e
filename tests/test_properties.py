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
from layup.geometry import (axial_difference, nearest_boundary_point,  # noqa: E402
                            nearest_edge_angle, point_in_polygon, polygon_is_simple)
from layup.plan import (ACTION_KINDS, AbsConstraint, ConstraintSet,  # noqa: E402
                        DrapingPlan, PlanParseError, RelConstraint, _feasible_screen,
                        canonical_kinds, capture, completion, emit_plan_text, end,
                        outstanding, parse_plan_text, path, peel, prefix_feasible,
                        refinement, standard_constraints)
from layup.search import (SearchConfig, price_batch, state_utility,  # noqa: E402
                          trace_total)
from layup.sheet_state import SheetGeometry, SheetState, segment_regions  # noqa: E402
from layup.simulator import ExperimentLog, StepRecord, read_log, write_log  # noqa: E402

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
