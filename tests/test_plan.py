import itertools

import numpy as np
import pytest

from layup.plan import (ACTION_KINDS, AbsConstraint, Action, ConstraintSet,
                        DrapingPlan, PlanParseError, RelConstraint, capture,
                        emit_plan, emit_plan_text, end,
                        expert_plan, initial_plan_constraints, parse_plan,
                        parse_plan_text, path, peel, prefix_feasible,
                        refinement, standard_constraints, validate,
                        completion, _feasible_screen)

from conftest import meets, oracle_abs, oracle_rel


def plan_of(*actions, name="t"):
    return DrapingPlan(actions=tuple(actions), name=name)


def holds(plan, c) -> bool:
    """Whether `plan` meets the single constraint `c`, by `validate`."""
    one = ConstraintSet(abs=(c,)) if isinstance(c, AbsConstraint) else ConstraintSet(rel=(c,))
    return validate(plan, one) == []


def refined_style_plan():
    """Shape of the published refined plans: paths, peel mid-way, more paths,
    one refinement, capture, end."""
    return plan_of(path(3), path(11), path(7), path(15), path(1), path(9),
                   peel(), path(5), path(13), refinement(6), capture(), end(),
                   name="refined_style")


class TestActions:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            Action("drape")
        with pytest.raises(ValueError):
            Action("path")          # missing index
        with pytest.raises(ValueError):
            Action("peel", 2)       # spurious argument
        with pytest.raises(ValueError):
            Action("refinement", 0)

    def test_path_equivalents(self):
        assert refined_style_plan().path_equivalents == 8 + 6
        assert expert_plan(1).path_equivalents == 16


class TestCheckAbs:
    """Absolute constraints, each checked alone through `validate`."""

    def test_expert_plan_has_a_peel(self):
        assert holds(expert_plan(1), AbsConstraint("peel", ">", 0))

    def test_expert_plan_one_capture(self):
        assert holds(expert_plan(1), AbsConstraint("capture", "=", 1))

    def test_zero_refinements_is_not_one(self):
        assert not holds(expert_plan(1), AbsConstraint("refinement", "=", 1))


class TestCheckRel:
    """Relative constraints, each checked alone through `validate`."""

    def test_capture_immediately_before_end_counts(self):
        # positional gap of 1 satisfies "more than 0 after"
        assert holds(refined_style_plan(), RelConstraint("end", "capture", ">", 0))

    def test_end_before_any_path(self):
        assert not holds(plan_of(end(), path(1)), RelConstraint("end", "path", ">", 0))

    def test_within_window_fails_on_gap_three(self):
        p = plan_of(path(1), peel(), capture(), end())
        assert not holds(p, RelConstraint("end", "path", "<", 2))
        assert holds(p, RelConstraint("end", "path", "<", 3))

    def test_vacuous_when_alpha_absent(self):
        assert holds(plan_of(path(1)), RelConstraint("end", "path", ">", 0))

    def test_less_than_monotone_in_lambda(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            kinds = rng.choice(ACTION_KINDS, size=rng.integers(1, 7))
            p = plan_of(*[_mk(k) for k in kinds])
            for lam in range(5):
                if holds(p, RelConstraint("end", "peel", "<", lam)):
                    assert holds(p, RelConstraint("end", "peel", "<", lam + 1))

    def test_abs_greater_reverse_monotone(self):
        p = expert_plan(1)
        for lam in range(1, 6):
            if holds(p, AbsConstraint("path", ">", lam)):
                assert holds(p, AbsConstraint("path", ">", lam - 1))


def _mk(kind):
    if kind == "path":
        return path(1)
    if kind == "refinement":
        return refinement(1)
    return Action(kind)


class TestValidate:
    def test_expert_plans_validate(self):
        cs = initial_plan_constraints()
        assert validate(expert_plan(1), cs) == []
        assert validate(expert_plan(2), cs) == []

    def test_refined_style_plan_validates_fully(self):
        assert validate(refined_style_plan(), standard_constraints()) == []

    def test_deleting_refinement_breaks_two_constraints(self):
        bare = plan_of(*[a for a in refined_style_plan().actions
                         if a.kind != "refinement"])
        violations = validate(bare, standard_constraints())
        broken = {str(v.constraint) for v in violations}
        assert broken == {"(refinement, =, 1)", "(end, refinement, >, 0)"}

    def test_expert_plans_fail_only_refinement_rules_under_full_set(self):
        violations = validate(expert_plan(1), standard_constraints())
        broken = {str(v.constraint) for v in violations}
        assert broken == {"(refinement, =, 1)", "(end, refinement, >, 0)"}

    def test_matches_componentwise_checks(self):
        rng = np.random.default_rng(1)
        cs = standard_constraints()
        for _ in range(100):
            kinds = rng.choice(ACTION_KINDS, size=rng.integers(1, 8))
            p = plan_of(*[_mk(k) for k in kinds])
            ok = all(holds(p, c) for c in cs.abs + cs.rel)
            assert (validate(p, cs) == []) == ok

    def test_matches_componentwise_checks_random_sets(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            abs_cs = tuple(AbsConstraint(str(rng.choice(ACTION_KINDS)),
                                         str(rng.choice([">", "=", "<"])),
                                         int(rng.integers(0, 4)))
                           for _ in range(rng.integers(0, 4)))
            rel_cs = []
            for _ in range(rng.integers(0, 3)):
                alpha, beta = rng.choice(ACTION_KINDS, size=2, replace=False)
                rel_cs.append(RelConstraint(str(alpha), str(beta),
                                            str(rng.choice([">", "=", "<"])),
                                            int(rng.integers(0, 4))))
            cs = ConstraintSet(rel=tuple(rel_cs), abs=abs_cs)
            kinds = rng.choice(ACTION_KINDS, size=rng.integers(1, 8))
            p = plan_of(*[_mk(k) for k in kinds])
            ok = all(holds(p, c) for c in cs.abs + cs.rel)
            assert (validate(p, cs) == []) == ok
            assert (validate(p, cs) == []) == meets(p.kinds(), cs)


ALPHABET = (path(1), path(2), peel(), capture(), end(), refinement(1))


class TestPrefixFeasible:
    def test_count_already_exceeded(self):
        cs = ConstraintSet(abs=(AbsConstraint("capture", "=", 1),))
        assert not prefix_feasible([capture(), capture()], cs, 10)

    def test_empty_prefix_with_standard_constraints(self):
        assert prefix_feasible([], standard_constraints(), 19)

    def test_end_first_is_dead(self):
        cs = ConstraintSet(rel=(RelConstraint("end", "path", ">", 0),))
        assert not prefix_feasible([end()], cs, 12)

    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError):
            prefix_feasible([peel(), peel()], standard_constraints(), 1)

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(7)
        cs = standard_constraints()
        for _ in range(60):
            length = int(rng.integers(0, 4))
            kinds = tuple(rng.choice(ACTION_KINDS, size=length))
            horizon = length + int(rng.integers(0, 5))
            got = completion(kinds, cs, horizon - length) is not None
            want = any(  # no plan is empty
                meets(kinds + ext, cs)
                for n in range(horizon - length + 1)
                for ext in itertools.product(ACTION_KINDS, repeat=n) if kinds + ext)
            assert got == want

    def test_screen_never_prunes_feasible(self):
        rng = np.random.default_rng(13)
        for _ in range(80):
            cs = ConstraintSet(
                rel=tuple(RelConstraint(a, b, g, int(l)) for a, b, g, l in
                          [("end", "path", ">", 0)][:rng.integers(0, 2)]),
                abs=tuple(AbsConstraint(str(rng.choice(ACTION_KINDS)),
                                        str(rng.choice([">", "=", "<"])),
                                        int(rng.integers(0, 3)))
                          for _ in range(rng.integers(0, 3))))
            kinds = tuple(rng.choice(ACTION_KINDS, size=rng.integers(0, 4)))
            horizon = len(kinds) + 5
            if completion(kinds, cs, horizon - len(kinds)) is not None:
                assert _feasible_screen(kinds, cs, horizon)

    def test_screen_agrees_with_exact_on_standard_set(self):
        cs = standard_constraints()
        for length in range(0, 3):
            for kinds in itertools.product(ACTION_KINDS, repeat=length):
                for extra in (4, 6):
                    horizon = length + extra
                    assert _feasible_screen(kinds, cs, horizon) == \
                        (completion(kinds, cs, extra) is not None), (kinds, horizon)


class TestPlanIO:
    def test_parse_action_forms(self):
        p = parse_plan_text("# plan: demo\n(path, 15)\n(peel,)\n(refine, 6)\n(end,)\n")
        assert p.name == "demo"
        assert p.actions[0] == path(15)
        assert p.actions[1] == peel()
        assert p.actions[2] == refinement(6)

    def test_round_trip_identity(self):
        for p in (expert_plan(1), expert_plan(2), refined_style_plan()):
            assert parse_plan_text(emit_plan_text(p)) == p

    def test_round_trip_random_plans(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            actions = []
            for _ in range(rng.integers(1, 10)):
                a = ALPHABET[rng.integers(len(ALPHABET))]
                actions.append(a)
            p = plan_of(*actions, name=f"r{rng.integers(100)}")
            assert parse_plan_text(emit_plan_text(p)) == p

    def test_malformed_line_reports_number(self):
        with pytest.raises(PlanParseError, match="line 3"):
            parse_plan_text("(path, 1)\n(peel,)\n(oops\n")

    def test_argument_misuse_reports_number(self):
        with pytest.raises(PlanParseError, match="line 2"):
            parse_plan_text("(path, 1)\n(peel, 3)\n")

    def test_empty_file_rejected(self):
        with pytest.raises(PlanParseError):
            parse_plan_text("# plan: nothing\n\n")

    def test_path_index_zero_rejected(self):
        with pytest.raises(PlanParseError, match="line 1"):
            parse_plan_text("(path, 0)\n")

    def test_path_index_above_sixteen_rejected(self):
        with pytest.raises(PlanParseError, match="line 2: .*1..16"):
            parse_plan_text("(path, 16)\n(path, 17)\n")

    def test_file_errors_name_the_file(self, tmp_path):
        target = tmp_path / "p.plan"
        target.write_text("(path, 1)\n(path, 17)\n")
        with pytest.raises(PlanParseError) as info:
            parse_plan(target)
        assert str(info.value) == f"{target}:2: path actions need a path index in 1..16"
        assert info.value.lineno == 2
        target.write_text("# plan: nothing\n")
        with pytest.raises(PlanParseError) as info:
            parse_plan(target)
        assert str(info.value) == f"{target}: plan file holds no actions"

    def test_file_round_trip(self, tmp_path):
        target = tmp_path / "d1.plan"
        emit_plan(expert_plan(1), target)
        assert parse_plan(target) == expert_plan(1)

    def test_constraint_set_json_round_trip(self):
        for cs in (standard_constraints(), initial_plan_constraints(),
                   ConstraintSet()):
            assert ConstraintSet.from_json(cs.to_json()) == cs


class TestExhaustiveAgainstOracle:
    def test_all_short_plans(self):
        # every plan up to length 4 here; acceptance pushes to length 6
        cs = standard_constraints()
        for n in range(1, 5):
            for combo in itertools.product(ALPHABET, repeat=n):
                p = plan_of(*combo)
                kinds = p.kinds()
                assert (validate(p, cs) == []) == meets(kinds, cs)
                for c in cs.abs:
                    assert holds(p, c) == oracle_abs(kinds, c)
                for c in cs.rel:
                    assert holds(p, c) == oracle_rel(kinds, c)
