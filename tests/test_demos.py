"""Every demo script, and the README quick start, runs to completion
against the package in ``src``."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from copulabn.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = _run([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == [], "demos write no files"


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    done = _run(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    edges = ast.literal_eval(done.stdout.splitlines()[0])
    assert {frozenset(e) for e in edges} == {frozenset((0, 1)), frozenset((1, 2))}


def test_demos_are_found():
    assert DEMOS


def test_readme_command_lines_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("copulabn ")]
    assert len(lines) == 7
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
