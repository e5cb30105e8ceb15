"""The scripts in scripts/ run to completion against the current library."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_all_scripts_listed():
    assert [p.name for p in SCRIPTS] == [
        "catalysis_demo.py", "convergence_study.py", "cooling_sweep.py"]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
