"""Every example script runs to completion.

Each ``examples/*.py`` is run as a user runs it — a fresh interpreter
with ``src`` on ``PYTHONPATH`` — and must exit 0.  The examples drive
the public API end to end, so a removed or renamed parameter they still
pass fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=100,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    # dispatch_service.py prints its self-checks' verdicts.
    assert "MISMATCH" not in completed.stdout
