"""Smoke tests: the example scripts must actually run.

Examples are the quickstart surface of the library; a refactor that
breaks them breaks the README.  Only the fast ones run here (the
workload-heavy examples are exercised manually);
each runs in a subprocess so import side effects stay isolated.
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
SRC_DIR = pathlib.Path(__file__).parent.parent / "src"

FAST_EXAMPLES = ["buffering_analysis.py", "custom_scheduler.py",
                 "quickstart.py", "scenario_gallery.py"]


def _child_env() -> dict:
    """A subprocess environment whose ``PYTHONPATH`` carries ``src/``.

    pytest's own ``pythonpath`` config does not propagate to child
    interpreters, so without this the subprocess tests depended on the
    caller exporting ``PYTHONPATH=src`` (and silently skipped in any
    environment that didn't).  Injecting it here makes the example
    smoke tests run everywhere the suite runs.
    """
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (f"{SRC_DIR}{os.pathsep}{existing}"
                         if existing else str(SRC_DIR))
    return env


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True, text=True, timeout=120,
        env=_child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), f"{script} printed nothing"


def test_buffering_analysis_reproduces_paper_sentence():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "buffering_analysis.py")],
        capture_output=True, text=True, timeout=120,
        env=_child_env())
    assert "5.12GB" in result.stdout
    assert "5.12KB" in result.stdout


def test_all_examples_compile():
    """Every example must at least be syntactically valid."""
    for script in EXAMPLES_DIR.glob("*.py"):
        source = script.read_text()
        compile(source, str(script), "exec")
