"""Smoke tests for the measurement scripts under ``tools/``: each runs end to end."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_theorem1_layers_prints_every_layer():
    proc = subprocess.run(
        [sys.executable, "tools/theorem1_layers.py", "--src", "src", "6"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    depth = json.loads(proc.stdout)["6"]
    assert {"theorem1_s", "peak_rss_mb"} <= depth.keys()
    assert {"g0", "g1", "ratio", "backward", "compare", "forward"} <= depth["s"].keys()
