"""Paired before/after runs of one perfbench workload, summarised as JSON.

    python3 tools/bench_pairs.py --before REV --after REV --workload verify_all \\
        [--pairs 10] [--seed 0] [--out BENCH_label.json]

Each revision is exported with ``git archive`` into its own fresh directory,
and ``perfbench/run.py`` runs there at its own run length, so both sides
build from committed sources only.  Pair i runs both sides with seed
``--seed + i``; the side that runs first alternates from pair to pair, so a
drift in host speed falls on both sides alike.  The summary gives, per end-to-end metric, the
median and quartiles of each side and the number of pairs the after side
won.  Each run's record keeps the ``# failed:`` lines perfbench prints,
so a failing op can be found again.  With ``--out`` the workload's entry,
with both git shas, is merged into that file, which also records the
Python version and nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HIGHER_IS_BETTER = {"ops_per_s"}


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` to ``dest``; return the full sha."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], capture_output=True, text=True, check=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True)
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return sha.stdout.strip()


FAILED_PREFIX = "# failed: "
RUN_KEYS = ("correct", "failed", "errors")


def run_once(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = [line[len(FAILED_PREFIX):] for line in lines if line.startswith(FAILED_PREFIX)]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"], "errors": errors, **metrics}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict]) -> dict:
    out = {}
    for metric in pairs[0]["before"]:
        if metric in RUN_KEYS:
            continue
        before = [p["before"][metric] for p in pairs]
        after = [p["after"][metric] for p in pairs]
        sign = -1 if metric in HIGHER_IS_BETTER else 1
        out[metric] = {
            "before": quartiles(before),
            "after": quartiles(after),
            "after_wins": sum(1 for b, a in zip(before, after) if sign * a < sign * b),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="git revision of the baseline")
    parser.add_argument("--after", required=True, help="git revision of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None, help="JSON file to merge the summary into")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")

    with tempfile.TemporaryDirectory() as tmp:
        trees, shas = {}, {}
        for side in ("before", "after"):
            trees[side] = Path(tmp) / side
            shas[side] = export(getattr(args, side), trees[side])
        pairs = []
        for i in range(args.pairs):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            pair = {"seed": args.seed + i, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, args.seed + i)
            pairs.append(pair)
            print(json.dumps(pair), flush=True)

    entry = {"before_sha": shas["before"], "after_sha": shas["after"], "pairs": pairs, "summary": summarise(pairs)}
    print(json.dumps(entry["summary"], indent=1))
    if args.out is not None:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data.update({"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))})
        data.setdefault("workloads", {})[args.workload] = entry
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
