"""Re-record every pinned output: the goldens and the benchmark record.

Run from anywhere in a checkout, then let git show what moved:

    python3 tests/make_golden.py
    git diff --exit-code -- tests/golden perfbench/data

It first writes `tests/golden/`: the output of one full sheet1 pipeline
(simulate both expert plans at seed 0, learn, refine, evaluate at seed 1,
report) in the current environment, the refine's audit (every committed
cost, lookahead value and alternative, and the search's work counts)
included, and one digest of the same refine's plan and audit in sampled mode
(`mode="sampled"`, seed 3). It then runs `perfbench/reference.py` from the
repository root, which writes `perfbench/data/`: the benchmark's log
summaries, model hashes and refined plans. The goldens go first, because the
recorder refuses a seed-0 sheet1 plan that differs from
`tests/golden/refined_sheet1.plan`. Takes about 15 seconds.

Run it after intentional changes to the simulator, learner or search
defaults, and give a reason for each value the diff shows. A run that moves
nothing leaves the diff empty.
"""
import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import GOLDEN_DIR, _golden_artifacts  # noqa: E402


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = _golden_artifacts(Path(tmp))
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        (GOLDEN_DIR / name).write_text(content)
        print(f"wrote {GOLDEN_DIR / name}")
    return subprocess.run([sys.executable, "perfbench/reference.py"], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
