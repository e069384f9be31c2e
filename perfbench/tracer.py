"""Layer tracing from outside the library.

The tracer replaces module-level functions of ``layup`` with wrappers, in
every ``layup`` module namespace that holds a reference to them: a name
imported with ``from .x import f`` is a separate binding, so wrapping only the
defining module would leave those calls uncounted. Each wrapper records a span
(name, start, end, parent span) in memory and updates counters derived from
the call's arguments and return value. Nothing inside ``src/`` is changed;
``uninstall`` puts the original functions back.

The wrapper's own work (the span record, the counters, the state key of
``propagate``) runs outside the span it records but inside its parent's, so
each span also keeps the wrapper's entry and exit times, and the span times
leave that work out of the parents' totals and self times.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _propagate_key(args, kwargs) -> tuple:
    """A `propagate` call's (action, state, mode, seed), the state as exact bytes.

    Exact, because a memo that returns byte-identical results can only reuse
    a byte-identical input.
    """
    state, action, *rest = args
    return (str(action), tuple(rest[1:]), tuple(sorted(kwargs.items())),
            tuple((s.sample_count, s.mu1.tobytes(), s.sigma1.tobytes(),
                   s.mu2.tobytes(), s.sigma2.tobytes()) for s in state.sectors))


def _count_run_correction(counts, args, kwargs, result):
    cycles, paths, converged = result
    counts["simulator.run_correction.cycles"] += cycles
    counts["simulator.run_correction.paths"] += paths
    counts["simulator.run_correction.nonconverged"] += 0 if converged else 1


def _count_file_bytes(metric, path_arg):
    def count(counts, args, kwargs, result):
        counts[metric] += os.path.getsize(args[path_arg])
    return count


def _count_segment_points(counts, args, kwargs, result):
    counts["sheet_state.segment_regions.points"] += len(args[0])


def _count_hits(counts, args, kwargs, result):
    counts["geometry.ellipse_hits_swept_rect.hits"] += 1 if result else 0


def _count_samples(counts, args, kwargs, result):
    counts["effectiveness.aggregate.samples"] += sum(result.bucket_counts().values())


# (defining module, function name, extra counter or None). A span is recorded
# for every call of each function; the counter, when given, turns the call's
# arguments and result into the listed counts.
TARGETS = (
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_learn", None),
    ("cli", "cmd_refine", None),
    ("cli", "cmd_report", None),
    ("simulator", "run_experiment", None),
    ("simulator", "apply_action", None),
    ("simulator", "render_capture", None),
    ("simulator", "run_correction", _count_run_correction),
    ("simulator", "write_log", _count_file_bytes("simulator.write_log.bytes", 1)),
    ("simulator", "read_log", _count_file_bytes("simulator.read_log.bytes", 0)),
    ("sheet_state", "build_state", None),
    ("sheet_state", "segment_regions", _count_segment_points),
    ("sheet_state", "fit_ellipse", None),
    ("geometry", "ellipse_hits_swept_rect", _count_hits),
    ("effectiveness", "aggregate", _count_samples),
    ("effectiveness", "propagate", None),  # distinct pairs counted by the tracer
    ("effectiveness", "effectiveness_score", None),
    ("search", "state_utility", None),
    ("search", "expand", None),
    ("search", "lookahead_value", None),
    ("search", "refine_plan_detailed", None),
    ("search", "generate_refinement_paths", None),
    ("plan", "validate", None),
    ("plan", "prefix_feasible", None),
)

PROPAGATE = "effectiveness.propagate"


class Tracer:
    """In-memory spans and counters for the functions named in TARGETS."""

    def __init__(self):
        self.names: list[str] = []        # span name table, index = name id
        self.spans: list = []             # (name id, start, end, parent, entry, exit)
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self.missing: list[str] = []      # targets the library no longer defines
        self._stack: list[int] = []
        self._restore: list = []          # (module, attribute, original)
        self._distinct: set = set()       # (action, state) pairs of the current op
        self._distinct_done = 0           # distinct pairs of the finished ops

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "layup" or n.startswith("layup."))]
        for module_name, func_name, counter in TARGETS:
            metric = f"{module_name}.{func_name}"
            home = sys.modules.get(f"layup.{module_name}")
            original = getattr(home, func_name, None) if home else None
            if not callable(original):
                self.missing.append(metric)
                continue
            wrapper = self._wrap(original, metric, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def begin_op(self) -> None:
        """Start a new timed op; distinct propagate pairs are counted per op."""
        self._distinct_done += len(self._distinct)
        self._distinct.clear()

    def _wrap(self, fn, metric: str, counter):
        name_id = len(self.names)
        self.names.append(metric)
        calls_key = metric + ".calls"
        spans, stack, counts = self.spans, self._stack, self.counts
        is_propagate = metric == PROPAGATE
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            entry = clock()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, entry, end)
            counts[calls_key] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            if is_propagate:
                self._distinct.add(_propagate_key(args, kwargs))
            spans[index] = (name_id, start, end, parent, entry, clock())
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", metric)
        return wrapper

    def snapshot_counts(self) -> dict[str, int]:
        counts = dict(self.counts)
        counts[PROPAGATE + ".distinct"] = self._distinct_done + len(self._distinct)
        return counts

    def span_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name, without the tracer's own work.

        Spans nest strictly (one thread) and a child's index is above its
        parent's. A span's total is its duration less the wrapper work of
        all the spans inside it; its self time is its duration less the time
        its direct children's wrappers took, entry to exit.
        """
        n = len(self.spans)
        inner = [0.0] * n      # wrapper seconds of every span inside
        children = [0.0] * n   # entry-to-exit seconds of the direct children
        for i in range(n - 1, -1, -1):
            _, start, end, parent, entry, exit_ = self.spans[i]
            if parent >= 0:
                inner[parent] += inner[i] + (start - entry) + (exit_ - end)
                children[parent] += exit_ - entry
        total = {name: 0.0 for name in self.names}
        own = {name: 0.0 for name in self.names}
        for i, (name_id, start, end, *_) in enumerate(self.spans):
            name = self.names[name_id]
            total[name] += end - start - inner[i]
            own[name] += end - start - children[i]
        return total, own

    def write(self, path: Path) -> None:
        """Write every span as [name id, start, end, parent, entry, exit] with the
        name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.snapshot_counts()}, fh)
