"""What importing `layup` pulls in, checked in a fresh interpreter."""
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import src_env

# imports every layup module, segments one capture and prints what got loaded
PROBE = """
import importlib, json, pkgutil, sys
import layup
modules = [importlib.import_module(f"layup.{m.name}") for m in pkgutil.iter_modules(layup.__path__)]
from layup.sheet_state import extract_regions
from layup.simulator import GroundTruthParams, builtin_sheet, init_sheet, render_capture
sim = init_sheet(builtin_sheet("sheet1"), GroundTruthParams(), seed=0)
groups, _ = extract_regions(render_capture(sim))
print(json.dumps({"modules": len(modules), "groups": len(groups),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_layup_runs_without_scipy():
    out = subprocess.run([sys.executable, "-c", PROBE], env=src_env(), capture_output=True,
                         text=True, check=True).stdout
    probe = json.loads(out)
    assert probe["modules"] >= 8
    assert probe["groups"] > 0
    assert probe["scipy"] == []


def test_make_golden_runs_without_pythonpath(tmp_path):
    # the script puts the checkout's src/ on sys.path itself; --help exits before any run
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    script = Path(__file__).resolve().parent / "make_golden.py"
    done = subprocess.run([sys.executable, str(script), "--help"], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
