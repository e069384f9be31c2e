"""Draping plans: action types, ordering/count constraints, validation, file I/O.

A plan is an ordered list of five action kinds:

* ``path``        geometry-planner pass, argument = path index 1..n (n = 16)
* ``peel``        remove the top backing film
* ``capture``     take a camera capture
* ``end``         surrender control to the correction controller
* ``refinement``  insert n freshly generated corrective passes, argument = n

Constraints come in two flavors. An absolute constraint (alpha, gamma, lam)
bounds how often alpha occurs in the whole plan: '>' strictly more than lam,
'=' exactly lam, '<' strictly fewer than lam. A relative constraint
(alpha, beta, gamma, lam) requires every occurrence of alpha at position p to
have some earlier beta at position q whose positional gap g = p - q satisfies
the relation: '>' means g > lam, '=' means g = lam, '<' means g <= lam
(within lam positions). The gap counts positions, not intermediary actions:
beta immediately before alpha has g = 1, so (alpha, beta, '>', 0) is already
satisfied by adjacency. Plans with no alpha satisfy the constraint vacuously.

Each relation is written once, as the inclusive (lo, hi) range it allows:
`AbsConstraint.counts` for counts, `RelConstraint.gaps` for gaps. `validate`,
`outstanding` and the gap scan read those ranges.
"""
from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field

from .jsonio import read_json, settings, typed

ACTION_KINDS = ("path", "peel", "capture", "end", "refinement")
PATH_COUNT_DEFAULT = 16
_KIND_ALIASES = {"refine": "refinement"}
_EXACT_FEASIBILITY_WINDOW = 6  # exhaustive extension search up to this many free slots
_COMPLETION_ORDER = ("path", "peel", "refinement", "capture", "end")


class PlanParseError(ValueError):
    """Raised for malformed plan text; carries the offending line number.

    The message names the line, or `path:line` when the text came from a
    file (line 0 stands for the whole text).
    """

    def __init__(self, lineno: int, message: str, path=None):
        if path is None:
            where = f"line {lineno}"
        else:
            where = f"{path}:{lineno}" if lineno else str(path)
        super().__init__(f"{where}: {message}")
        self.lineno = lineno
        self.message = message


@dataclass(frozen=True)
class Action:
    kind: str
    arg: int | None = None

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind == "path":
            if self.arg is None or not 1 <= self.arg <= PATH_COUNT_DEFAULT:
                raise ValueError(f"path actions need a path index in 1..{PATH_COUNT_DEFAULT}")
        elif self.kind == "refinement":
            if self.arg is None or self.arg < 1:
                raise ValueError("refinement actions need a positive count")
        elif self.arg is not None:
            raise ValueError(f"{self.kind} takes no argument")

    def __str__(self):
        return f"({self.kind}, {self.arg})" if self.arg is not None else f"({self.kind},)"


def path(i: int) -> Action:
    return Action("path", i)


def peel() -> Action:
    return Action("peel")


def capture() -> Action:
    return Action("capture")


def end() -> Action:
    return Action("end")


def refinement(n: int) -> Action:
    return Action("refinement", n)


@dataclass(frozen=True)
class DrapingPlan:
    """Ordered action sequence; positions are 1-based throughout."""

    actions: tuple[Action, ...]
    name: str = "plan"

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise ValueError("a plan cannot be empty")

    def __len__(self):
        return len(self.actions)

    def kinds(self) -> tuple[str, ...]:
        return tuple(a.kind for a in self.actions)

    @property
    def path_equivalents(self) -> int:
        return path_equivalents(self.actions)


def path_equivalents(actions) -> int:
    """In-plan passes: path actions plus the sum of refinement arguments."""
    total = 0
    for a in actions:
        if a.kind == "path":
            total += 1
        elif a.kind == "refinement":
            total += a.arg
    return total


@dataclass(frozen=True)
class RelConstraint:
    alpha: str
    beta: str
    gamma: str  # one of > = <
    lam: int
    # the inclusive (lo, hi) range of gaps p - q that satisfies the relation
    gaps: tuple[int, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_constraint_fields(self.alpha, self.gamma, self.lam)
        if self.beta not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.beta!r}")
        if self.alpha == self.beta:
            raise ValueError("relative constraints need distinct kinds")
        lam = self.lam
        object.__setattr__(self, "gaps", {">": (lam + 1, math.inf), "=": (lam, lam),
                                          "<": (1, lam)}[self.gamma])

    def __str__(self):
        return f"({self.alpha}, {self.beta}, {self.gamma}, {self.lam})"


@dataclass(frozen=True)
class AbsConstraint:
    alpha: str
    gamma: str
    lam: int
    # the inclusive (lo, hi) range of alpha counts that satisfies the relation
    counts: tuple[int, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_constraint_fields(self.alpha, self.gamma, self.lam)
        lam = self.lam
        object.__setattr__(self, "counts", {">": (lam + 1, math.inf), "=": (lam, lam),
                                            "<": (0, lam - 1)}[self.gamma])

    def __str__(self):
        return f"({self.alpha}, {self.gamma}, {self.lam})"


def _check_constraint_fields(alpha, gamma, lam):
    if alpha not in ACTION_KINDS:
        raise ValueError(f"unknown action kind {alpha!r}")
    if gamma not in (">", "=", "<"):
        raise ValueError(f"bad relation {gamma!r}")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")


@dataclass(frozen=True)
class ConstraintSet:
    rel: tuple[RelConstraint, ...] = ()
    abs: tuple[AbsConstraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rel", tuple(self.rel))
        object.__setattr__(self, "abs", tuple(self.abs))

    def to_json(self) -> dict:
        return {"version": 1,
                "rel": [[c.alpha, c.beta, c.gamma, c.lam] for c in self.rel],
                "abs": [[c.alpha, c.gamma, c.lam] for c in self.abs]}

    @classmethod
    def from_json(cls, obj: dict) -> "ConstraintSet":
        """Raises ValueError naming the list and index of a malformed record."""
        obj = settings(obj, ("rel", "abs"))
        return cls(rel=_constraint_records(obj, "rel", RelConstraint, 4),
                   abs=_constraint_records(obj, "abs", AbsConstraint, 3))

    @classmethod
    def load(cls, path) -> "ConstraintSet":
        return read_json(path, cls.from_json)


def _constraint_records(obj: dict, key: str, kind: type, width: int) -> tuple:
    # each record is [kinds..., relation, lambda]
    out = []
    for i, rec in enumerate(obj.get(key, ())):
        try:
            if not isinstance(rec, (list, tuple)) or len(rec) != width:
                raise ValueError(f"expected a list of {width} fields")
            out.append(kind(*rec[:-1], typed(rec[-1], 0, "lambda")))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key} record {i} {json.dumps(rec)}: {exc}") from exc
    return tuple(out)


def standard_constraints() -> ConstraintSet:
    """Ordering and count rules enforced when searching for refined plans.

    End must come after at least one path, the peel, the capture and the
    refinement block; peel and end occur at least once, capture and
    refinement exactly once.
    """
    return ConstraintSet(
        rel=(RelConstraint("end", "path", ">", 0),
             RelConstraint("end", "peel", ">", 0),
             RelConstraint("end", "capture", ">", 0),
             RelConstraint("end", "refinement", ">", 0)),
        abs=(AbsConstraint("peel", ">", 0),
             AbsConstraint("end", ">", 0),
             AbsConstraint("refinement", "=", 1),
             AbsConstraint("capture", "=", 1)),
    )


def initial_plan_constraints() -> ConstraintSet:
    """The subset applying to expert-crafted plans, which predate refinement.

    Identical to ``standard_constraints`` minus the two rules about the
    refinement action, so classic 16-path expert plans validate cleanly.
    """
    full = standard_constraints()
    return ConstraintSet(
        rel=tuple(c for c in full.rel if c.beta != "refinement"),
        abs=tuple(c for c in full.abs if c.alpha != "refinement"),
    )


@dataclass(frozen=True)
class Violation:
    constraint: RelConstraint | AbsConstraint
    message: str

    def __str__(self):
        return self.message


def _first_rel_violation_pos(kinds, c: RelConstraint) -> int | None:
    lo, hi = c.gaps
    beta_positions = [q for q, k in enumerate(kinds, start=1) if k == c.beta]
    for p, k in enumerate(kinds, start=1):
        if k != c.alpha:
            continue
        # betas at or after p give p - q <= 0, outside every range: the one
        # range reaching 0, '=' 0, would need beta at alpha's own position
        if not any(lo <= p - q <= hi for q in beta_positions):
            return p
    return None


def validate(plan: DrapingPlan, cs: ConstraintSet) -> list[Violation]:
    """Every failed constraint; [] means valid."""
    out = []
    kinds = plan.kinds()
    for c in cs.abs:
        count = sum(1 for k in kinds if k == c.alpha)
        lo, hi = c.counts
        if not lo <= count <= hi:
            out.append(Violation(c, f"{c}: {c.alpha} occurs {count} time(s)"))
    for c in cs.rel:
        p = _first_rel_violation_pos(kinds, c)
        if p is not None:
            out.append(Violation(
                c, f"{c}: {c.alpha} at position {p} lacks a qualifying earlier {c.beta}"))
    return out


def prefix_feasible(prefix, cs: ConstraintSet, horizon: int) -> bool:
    """Can the prefix (actions or kinds) still be extended to a constraint-satisfying plan?

    Exact while at most 6 slots remain (a `completion` exists; constraints
    never look at action arguments); beyond that a necessary-condition screen
    runs instead: the outstanding requirements (see `outstanding`) must exist
    and fit in the remaining slots.
    """
    kinds = tuple(a.kind if isinstance(a, Action) else str(a) for a in prefix)
    if horizon < len(kinds):
        raise ValueError(f"horizon {horizon} shorter than prefix of length {len(kinds)}")
    return _kinds_feasible(kinds, cs, horizon)


# its hits are repeats across searches: one search memoizes its prefixes (`_Search.feasible`)
@functools.lru_cache(maxsize=1 << 14)
def next_kinds(kinds: tuple[str, ...], cs: ConstraintSet, horizon: int) -> frozenset[str]:
    """The kinds an action appended to `kinds` may have, by `prefix_feasible`'s rule.

    Constraints see kinds only, so one memoized answer per prefix of kinds
    serves every candidate action; empty once the prefix fills the horizon.
    """
    if len(kinds) >= horizon:
        return frozenset()
    return frozenset(k for k in ACTION_KINDS if _kinds_feasible(kinds + (k,), cs, horizon))


def _kinds_feasible(kinds: tuple[str, ...], cs: ConstraintSet, horizon: int) -> bool:
    slots = horizon - len(kinds)
    if slots <= _EXACT_FEASIBILITY_WINDOW:
        return completion(kinds, cs, slots) is not None
    return _feasible_screen(kinds, cs, horizon)


def outstanding(kinds: tuple[str, ...], cs: ConstraintSet) -> dict[str, int] | None:
    """What any extension of the prefix must still add, as {kind: count}.

    None when no extension can help: a relative constraint is already broken
    by placed actions (its beta would have to precede them), or a count is
    already above its range. Otherwise what each count lacks of its range's
    lower end, plus one beta for every relative constraint whose alpha is
    still required while no beta has been placed (pulled in transitively).
    The counts are lower bounds: gap relations may demand more. An empty
    dict means the kinds themselves satisfy every constraint.
    """
    counts = {k: 0 for k in ACTION_KINDS}
    for k in kinds:
        counts[k] += 1
    for c in cs.rel:
        if _first_rel_violation_pos(kinds, c) is not None:
            return None
    needed = {}
    for c in cs.abs:
        lo, hi = c.counts
        if counts[c.alpha] > hi:
            return None
        needed[c.alpha] = max(needed.get(c.alpha, 0), lo - counts[c.alpha])
    needed = {k: v for k, v in needed.items() if v > 0}
    changed = True
    while changed:
        changed = False
        for c in cs.rel:
            if c.alpha in needed and counts[c.beta] == 0 and c.beta not in needed:
                needed[c.beta] = 1
                changed = True
    return needed


def _feasible_screen(kinds: tuple[str, ...], cs: ConstraintSet, horizon: int) -> bool:
    needed = outstanding(kinds, cs)
    return needed is not None and sum(needed.values()) <= horizon - len(kinds)


def canonical_kinds(needed: dict[str, int]) -> tuple[str, ...]:
    """`outstanding`'s counts as a suffix in canonical order."""
    return tuple(kind for kind in _COMPLETION_ORDER for _ in range(needed.get(kind, 0)))


@functools.lru_cache(maxsize=1 << 16)
def completion(kinds: tuple[str, ...], cs: ConstraintSet,
               slots: int) -> tuple[str, ...] | None:
    """The kinds that complete the prefix into a constraint-satisfying plan.

    The outstanding requirements in canonical order (`_COMPLETION_ORDER`)
    when they satisfy the constraints and fit in `slots`; otherwise the
    first, in that order, of the shortest suffixes that do, searched
    exhaustively up to 6 kinds (and `slots`). None when there is none.
    """
    needed = outstanding(kinds, cs)
    if needed is None or sum(needed.values()) > slots:  # the counts are lower bounds
        return None
    suffix = canonical_kinds(needed)
    if outstanding(kinds + suffix, cs) == {}:
        return suffix
    best = None
    for kind in _COMPLETION_ORDER:  # slots >= 1 here: something is outstanding
        rest = completion(kinds + (kind,), cs, min(slots, _EXACT_FEASIBILITY_WINDOW) - 1)
        if rest is not None and (best is None or len(rest) + 1 < len(best)):
            best = (kind,) + rest
    return best


_LINE_RE = re.compile(r"^\(\s*([A-Za-z]+)\s*(?:,\s*([0-9]*)\s*)?\)$")


def parse_plan_text(text: str, name: str = "plan") -> DrapingPlan:
    actions = []
    plan_name = name
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"#\s*plan:\s*(.+)$", line)
            if m:
                plan_name = m.group(1).strip()
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise PlanParseError(lineno, f"unparseable action {line!r}")
        kind = _KIND_ALIASES.get(m.group(1).lower(), m.group(1).lower())
        try:
            actions.append(Action(kind, int(m.group(2)) if m.group(2) else None))
        except ValueError as exc:  # also an index too long for int()
            raise PlanParseError(lineno, str(exc)) from exc
    if not actions:
        raise PlanParseError(0, "plan file holds no actions")
    return DrapingPlan(actions=tuple(actions), name=plan_name)


def emit_plan_text(plan: DrapingPlan) -> str:
    lines = [f"# plan: {plan.name}"]
    lines.extend(str(a) for a in plan.actions)
    return "\n".join(lines) + "\n"


def parse_plan(path) -> DrapingPlan:
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_plan_text(text)
    except PlanParseError as exc:
        raise PlanParseError(exc.lineno, exc.message, path) from None


def emit_plan(plan: DrapingPlan, path) -> None:
    with open(path, "w") as fh:
        fh.write(emit_plan_text(plan))


def expert_plan(variant: int, name: str | None = None) -> DrapingPlan:
    """The two built-in expert-style 16-path plans (variant 1 or 2).

    Both lay the odd paths first in a crossing order that visits the
    historically troublesome directions early, then sweep the even paths in
    ascending order, then peel, capture and hand over.
    """
    odd_orders = {1: [1, 7, 9, 3, 13, 5, 11, 15], 2: [13, 5, 11, 15, 1, 9, 7, 3]}
    if variant not in odd_orders:
        raise ValueError("variant must be 1 or 2")
    actions = [path(i) for i in odd_orders[variant]]
    actions += [path(i) for i in range(2, 17, 2)]
    actions += [peel(), capture(), end()]
    return DrapingPlan(actions=tuple(actions), name=name or f"D{variant}")
