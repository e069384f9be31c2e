"""Regenerate, or check, the golden artifacts for the determinism criterion.

Run from the repository root:

    python3 tests/make_golden.py          # rewrite tests/golden/
    python3 tests/make_golden.py --check  # compare only, write nothing

The goldens pin the output of one full sheet1 pipeline (simulate both expert
plans at seed 0, learn, refine, evaluate at seed 1, report) in the current
environment, the refine's audit (every committed cost, lookahead value and
alternative, and the search's work counts) included, and one digest of the
same refine's plan and audit in sampled mode (`mode="sampled"`, seed 3).
Regenerate after
intentional changes to the simulator, learner or search defaults. `--check`
regenerates into a temporary directory, lists every golden file that is
missing or differs, and exits 1 if there is one; use it to show that a
change left the goldens where they were.
"""
import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import GOLDEN_DIR, _golden_artifacts  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with tests/golden/ and exit 1 on a mismatch")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = _golden_artifacts(Path(tmp))
    if args.check:
        mismatched = [name for name, content in artifacts.items()
                      if not (GOLDEN_DIR / name).exists()
                      or (GOLDEN_DIR / name).read_text() != content]
        for name in mismatched:
            print(f"mismatch: {GOLDEN_DIR / name}")
        if not mismatched:
            print(f"{len(artifacts)} golden files match")
        return 1 if mismatched else 0
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        (GOLDEN_DIR / name).write_text(content)
        print(f"wrote {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
