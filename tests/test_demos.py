"""The demos and the README's CLI quick start run to the end, each in its own
empty working directory."""
import glob
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from layup import cli

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch):
    # `python3 -c` lines run in a subprocess, `layup` lines through cli.main
    # with their globs expanded as a shell would
    block = re.search(r"## Quick start \(CLI\)\s*```\n(.*?)```",
                      (ROOT / "README.md").read_text(), re.S).group(1)
    monkeypatch.chdir(tmp_path)
    lines = [line for line in block.splitlines() if line.strip()]
    assert lines
    for line in lines:
        argv = shlex.split(line)
        if argv[:2] == ["python3", "-c"]:
            code = subprocess.run([sys.executable, *argv[1:]], env=src_env()).returncode
        else:
            assert argv[0] == "layup", line
            code = cli.main([match for arg in argv[1:]
                             for match in (sorted(glob.glob(arg)) or [arg])])
        assert code == 0, line
