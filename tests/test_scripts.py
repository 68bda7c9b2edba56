"""The experiment scripts run end to end and print their CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("survivor_decay.py", ("--stages", "2"), "t,length,survivors,measure,measure_float"),
        ("rotation_returns.py", ("--steps", "2"), "epsilon,ceiling,scan_n,cf_n"),
    ],
    ids=["survivor_decay", "rotation_returns"],
)
def test_script_prints_csv(script, args, header, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    # one row per stage or step, each with a field per column
    assert len(lines) == 3
    assert all(len(ln.split(",")) == len(header.split(",")) for ln in lines)
