"""Every JSON input-file reader against one mutation of a small valid file.

Each example drops a required key, puts a non-number or a non-finite number
(NaN, Infinity) where a number belongs or a number where a string belongs,
or makes a line or the whole document something other than a JSON object.
The reader must reject the file with a `LogFormatError` naming it, and the
line for JSON-lines files.
"""
import copy
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layup.cli import RunConfig
from layup.effectiveness import EffectivenessModel
from layup.jsonio import LogFormatError, read_json, read_last_json_line
from layup.plan import ConstraintSet, path, peel, refinement, standard_constraints
from layup.search import SearchConfig
from layup.sheet_state import SheetGeometry
from layup.simulator import (ExperimentLog, GroundTruthParams, read_log, summary_from_json,
                             write_log)

from conftest import make_state, model_of


@dataclass
class Reader:
    read: Callable            # path -> value
    docs: list                # the valid file's JSON objects, one per line if `lines`
    lines: bool
    optional: Callable = lambda keys: False  # key paths a valid file may lack


def _log_docs() -> list:
    geom = SheetGeometry(center=np.zeros(2), polygon=[[50, 50], [-50, 50], [-50, -50], [50, -50]],
                         sector_count=2)
    state = make_state(geom, {1: ([1.0, 2.0, 0.5, 4.0, 2.0, 0.3], np.ones(3), 2)}, t=1)
    log = ExperimentLog(plan_name="p", sheet="sheet1", seed=3,
                        actions=[path(2), refinement(2)], states=[state] * 3,
                        correction_cycles=1, correction_paths=2, correction_converged=False)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "log.jsonl"
        write_log(log, target)
        return [json.loads(line) for line in target.read_text().splitlines()]


def _model_doc() -> dict:
    model = model_of(2, [(action, 1 + i % 2, np.arange(6.0) - i,
                          [[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]], f"D1:{i}")
                         for i, action in enumerate((path(1), path(1), peel()))])
    model.experiments, model.sheets = 1, ["sheet1"]
    return model.to_json()


def _top_level(keys: tuple) -> bool:
    return len(keys) == 1


LOG = _log_docs()
READERS = {
    "log": Reader(read_log, docs=LOG, lines=True),
    "summary": Reader(lambda p: read_last_json_line(p, summary_from_json), docs=LOG[-1:],
                      lines=True),
    "model": Reader(EffectivenessModel.load, docs=[_model_doc()], lines=False,
                    optional=lambda keys: keys[0] == "buckets" and len(keys) == 2),
    "search": Reader(SearchConfig.load, docs=[SearchConfig(branching=2).to_json()],
                     lines=False, optional=_top_level),
    "ground truth": Reader(GroundTruthParams.load, lines=False, optional=_top_level,
                           docs=[GroundTruthParams(region_count=3).to_json()]),
    "constraints": Reader(ConstraintSet.load, docs=[standard_constraints().to_json()],
                          lines=False, optional=_top_level),
    "run config": Reader(lambda p: read_json(p, RunConfig.from_json), lines=False,
                         optional=_top_level,
                         docs=[{"sheet": "sheet2", "ground_truth": "", "constraints": "",
                                "search": "", "seeds": [7, 8], "out": "runs"}]),
}


def _sites(node, keys=()):
    # (container, key, value, key path) of every value below a JSON node
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key, value, keys + (key,)
        if isinstance(value, (dict, list)):
            yield from _sites(value, keys + (key,))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# each mutation: where it applies, and the values it puts there (none: drop the key)
MUTATIONS = {
    "drop a key": (lambda reader, c, v, keys: isinstance(c, dict) and not reader.optional(keys),
                   ()),
    "not a number": (lambda reader, c, v, keys: _is_number(v),
                     ("x", [], {}, None, True, float("nan"), float("inf"), float("-inf"))),
    "a number for a string": (lambda reader, c, v, keys: isinstance(v, str), (3, 1.5)),
}
NOT_OBJECTS = ([1, 2], 3, "x", None, [])


def _write(target: Path, reader: Reader, docs: list) -> None:
    if reader.lines:
        target.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    else:
        target.write_text(json.dumps(docs[0]))


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_accepts_the_valid_file(name, tmp_path):
    reader = READERS[name]
    target = tmp_path / "input.json"
    _write(target, reader, reader.docs)
    reader.read(target)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_reader_rejects_one_mutation(name, data):
    reader = READERS[name]
    docs = copy.deepcopy(reader.docs)
    line = data.draw(st.integers(0, len(docs) - 1), label="line")
    sites = {how: [(c, k) for c, k, v, keys in _sites(docs[line]) if applies(reader, c, v, keys)]
             for how, (applies, _) in MUTATIONS.items()}
    how = data.draw(st.sampled_from(sorted(h for h in sites if sites[h]) + ["not an object"]),
                    label="mutation")
    if how == "not an object":
        docs[line] = data.draw(st.sampled_from(NOT_OBJECTS), label="document")
    else:
        container, key = data.draw(st.sampled_from(sites[how]), label="site")
        values = MUTATIONS[how][1]
        if values:
            container[key] = data.draw(st.sampled_from(values), label="value")
        else:
            del container[key]
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "input.json"
        _write(target, reader, docs)
        with pytest.raises(LogFormatError) as info:
            reader.read(target)
    where = f"{target}:{line + 1}: " if reader.lines else f"{target}: "
    assert str(info.value).startswith(where)
