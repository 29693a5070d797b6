"""Every narrative demo runs to completion against the current API, and the
replay demo reproduces its trial."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# a line a demo must print besides exiting cleanly: the replay demo's
# check that replaying a trial's log reproduces the trial
EXPECTED_LINES = {"05_replay.py": "identical: True"}


def test_demos_found():
    assert DEMOS
    assert set(EXPECTED_LINES) <= {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    if demo.name in EXPECTED_LINES:
        assert EXPECTED_LINES[demo.name] in done.stdout.splitlines(), done.stdout
