"""Tests of the measurement scripts under ``tools/``: each runs end to end, and
bench_pairs' summary counts the wins every BENCH_*.json reports."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_theorem1_layers_children_load_compiled_rrcf_and_leave_src_alone(tmp_path):
    # a source tree with no bytecode: under PYTHONDONTWRITEBYTECODE the children used to compile rrcf
    src = shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONVERBOSE": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "theorem1_layers.py"), "--src", str(src), "6"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "6" in json.loads(proc.stdout)
    loaded = [line for line in proc.stderr.splitlines() if line.startswith("# code object from") and "poly" in line]
    assert len(loaded) == 1 and loaded[0].endswith(f"/rrcf/__pycache__/poly.{sys.implementation.cache_tag}.pyc'")
    assert str(src) not in loaded[0]
    assert not list(src.rglob("__pycache__"))


def _summarise():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarise


def _run(op_s, ops_per_s):
    return {"correct": 10, "failed": 1, "errors": ["op 3: wrong"], "op_s.mean": op_s, "ops_per_s": ops_per_s}


def test_bench_pairs_summarise_counts_wins_by_each_metrics_direction():
    pairs = [
        {"before": _run(1.0, 5.0), "after": _run(0.5, 6.0)},  # after wins both
        {"before": _run(1.0, 5.0), "after": _run(1.0, 5.0)},  # a tie on both: neither side wins
        {"before": _run(1.0, 5.0), "after": _run(2.0, 4.0)},  # before wins both
        {"before": _run(1.0, 5.0), "after": _run(0.9, 7.0)},  # after wins both
    ]
    summary = _summarise()(pairs)
    # the run counts and the failure lines are not metrics
    assert set(summary) == {"op_s.mean", "ops_per_s"}
    # op_s.mean is lower-is-better and ops_per_s higher-is-better; a tie
    # counted as a win, or ops_per_s read the other way, would change these
    assert summary["op_s.mean"]["after_wins"] == 2
    assert summary["ops_per_s"]["after_wins"] == 2
    assert summary["op_s.mean"]["before"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert summary["op_s.mean"]["after"] == pytest.approx({"median": 0.95, "q1": 0.8, "q3": 1.25})
