"""The experiment scripts run end to end and print their CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header, rows",
    [
        ("survivor_decay.py", ("--stages", "2"), "t,length,survivors,measure,measure_float", 2),
        # the default --stages 3 reaches a survivor set written as cubes
        ("survivor_decay.py", (), "t,length,survivors,measure,measure_float", 3),
        ("rotation_returns.py", ("--steps", "2"), "epsilon,ceiling,scan_n,cf_n", 2),
    ],
    ids=["survivor_decay", "survivor_decay_defaults", "rotation_returns"],
)
def test_script_prints_csv(script, args, header, rows, tmp_path):
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
    assert len(lines) == 1 + rows
    assert all(len(ln.split(",")) == len(header.split(",")) for ln in lines)
