"""Check that every name the demos import from kfplab still exists, run
every demo end to end, and check demo 01's fit, the one that exercises the
convolution oracle."""

import ast
import functools
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


def test_demo_imports_exist():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    missing = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kfplab":
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert not missing


@functools.lru_cache(maxsize=None)
def _run_demo(path):
    """One run of a demo, shared by the tests that read it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs_cleanly(path):
    proc = _run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_demo_01_runs_and_oracle_fit_matches_closed_form():
    proc = _run_demo(DEMOS / "01_kernel_and_decay.py")
    assert proc.returncode == 0, proc.stderr
    fit = re.search(r"^fitted exponent over \[2, 20\]: (\S+) +"
                    r"\(closed-form sup norm on the same points: (\S+)\)$", proc.stdout, re.M)
    assert fit, proc.stdout
    oracle, closed = map(float, fit.groups())
    assert oracle == closed == -1.8786
