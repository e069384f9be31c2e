"""Property tests: fast paths against the slow oracles they stand in for."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from layup.plan import (ACTION_KINDS, AbsConstraint, ConstraintSet,  # noqa: E402
                        RelConstraint, _feasible_exact, _feasible_screen,
                        _kinds_valid, prefix_feasible, standard_constraints)
from layup.search import _needed_suffix_kinds  # noqa: E402
from layup.sheet_state import segment_regions  # noqa: E402

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
    if _feasible_exact(kinds, cs, horizon):
        assert _feasible_screen(kinds, cs, horizon)


@settings(max_examples=300, deadline=None)
@given(kinds=st.lists(kinds_st, max_size=14).map(tuple), extra=st.integers(0, 10))
def test_canonical_suffix_completes_every_feasible_standard_prefix(kinds, extra):
    # so the breadth-first suffix search is never needed on the standard set
    cs = standard_constraints()
    horizon = len(kinds) + extra
    if not prefix_feasible(kinds, cs, horizon):
        return
    suffix = _needed_suffix_kinds(kinds, cs)
    assert suffix is not None
    assert _kinds_valid(kinds + tuple(suffix), cs)
    assert len(kinds) + len(suffix) <= horizon


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
