"""Benchmark of rrcf: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; the program is imported from ``src/``.
One client sends one op at a time (a closed loop) for ``--seconds``.  Ops
of theorem1_deep and verify_all each run in a fresh worker process, so they
start from empty memo tables as a fresh ``rrcf`` process does; the other
workloads run all their ops in one worker.  The start-up of every worker
(interpreter, import of rrcf, input generation) is set-up time, never op time.

With ``--trace 0`` the last line of output is a JSON object whose metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer figures
of a traced run, per traced op.  ``--workload all`` runs every workload
untraced and then traced and prints every metric by name with its unit.
Each run also writes its full result, stamped with the git sha, the Python
version and nproc, to ``perfbench/out/``, and a traced run writes its spans
there too.

BENCHMARK.json gates verify_all and eval_grid, which between them reach
every module; theorem1_deep and rf_generic run by name or with ``all``.
A run lasts 60 s by default: on a shared 2-vCPU virtual machine the CPU
speed changes by up to 1.8x from one second to the next, and only long runs
average those changes out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 9  # set-up-only workers started by every run
READY_TIMEOUT_S = 120
OP_TIMEOUT_S = 170
P90_MIN_OPS = 100

END_TO_END = {"op_s.mean": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
SUITES = ("entry16", "theorem1", "recursion", "telescoping", "b0", "asi", "division")


class Worker:
    """One worker process; measures its start-up until it reports ready."""

    def __init__(self, workload: str, seed: int, trace: int, seconds: float, op_index: int | None = None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--seconds", repr(seconds)]
        if op_index is not None:
            cmd += ["--op-index", str(op_index)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.close()
            raise RuntimeError(f"worker for {workload} did not start (exit code {self.proc.returncode})")

    def run(self) -> dict:
        out, _ = self.proc.communicate("go\n", timeout=OP_TIMEOUT_S)
        if self.proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"worker exited with code {self.proc.returncode} and no result")
        return json.loads(out)

    def quit(self) -> None:
        self.proc.communicate("quit\n", timeout=READY_TIMEOUT_S)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return the set-up times and the workers' results."""
    setup = []
    for _ in range(SETUP_SAMPLES):
        with Worker(name, seed, 0, seconds) as w:
            setup.append(w.setup_s)
            w.quit()
    results = []
    if WORKLOADS[name].fresh_process:
        # An op starts only if it is expected to end within the run, so a run
        # lasts about --seconds however long one op takes.
        start = time.perf_counter()
        spent: list[float] = []
        while len(spent) < 1 + trace or time.perf_counter() - start + statistics.median(spent) <= seconds:
            t0 = time.perf_counter()
            i = len(spent)
            with Worker(name, seed, int(trace and i % 2 == 1), seconds, op_index=i) as w:
                setup.append(w.setup_s)
                results.append(w.run())
            spent.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
    else:
        with Worker(name, seed, trace, seconds) as w:
            setup.append(w.setup_s)
            results.append(w.run())
        wall = results[0]["busy_s"]
    return {"setup": setup, "results": results, "wall_s": wall}


def end_to_end(run: dict) -> dict:
    results = run["results"]
    ops = sum(r["ops"] for r in results)
    metrics = {
        "op_s.mean": sum(r["time_sum"] for r in results) / ops,
        "ops_per_s": ops / run["wall_s"],
        "setup_s": statistics.median(run["setup"]),
        "peak_rss_mb": max(r["rss_kb"] for r in results) * 1024 / 1e6,
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def per_layer(run: dict) -> dict:
    """Per traced op: time, calls and counts of each layer, and the tracing overhead."""
    results = run["results"]
    traced = [t for r in results for t in r["traced_times"]]
    untraced = [t for r in results for t in r["times"]]
    k = len(traced)
    totals: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for r in results:
        for name, (calls, ns, self_ns) in r.get("totals", {}).items():
            acc = totals.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += ns
            acc[2] += self_ns
        for key, v in r.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + v

    def calls(name):
        return totals.get(name, [0, 0, 0])[0] / k

    def secs(name, field=1):
        return totals.get(name, [0, 0, 0])[field] / 1e9 / k

    def per_op(key):
        return counts.get(key, 0) / k

    def share(num, den):
        return num / den if den else 0.0

    def layer_sum(layer, field):
        return sum(v[field] for n, v in totals.items() if n.split(".")[0] == layer) / k

    m = {
        "poly.mul.calls": (calls("poly.mul"), "count"),
        "poly.mul.s": (secs("poly.mul"), "s"),
        "poly.mul.term_pairs": (per_op("poly.mul.term_pairs"), "count"),
        "poly.exact_div.calls": (calls("poly.exact_div"), "count"),
        "poly.exact_div.s": (secs("poly.exact_div"), "s"),
        "poly.exact_div.ok_ratio": (share(per_op("poly.exact_div.ok"), calls("poly.exact_div")), "ratio"),
        "poly.rf_init.calls": (calls("poly.rf_init"), "count"),
        "poly.rf_init.self_s": (secs("poly.rf_init", 2), "s"),
        "poly.rf_init.terms_out": (per_op("poly.rf_init.terms_out"), "count"),
        "qpoch.calls": (layer_sum("qpoch", 0), "count"),
        "qpoch.s": (layer_sum("qpoch", 1) / 1e9, "s"),
        "core.g.calls": (calls("core.g"), "count"),
        "core.g.s": (secs("core.g"), "s"),
        "core.g.repeat_ratio": (share(per_op("core.g.repeats"), calls("core.g")), "ratio"),
        "core.g.repeat_s": (per_op("core.g.repeat_ns") / 1e9, "s"),
        "core.backward.s": (secs("core.backward"), "s"),
        "core.g_difference.s": (secs("core.g_difference"), "s"),
        "core.asi_u.s": (secs("core.asi_u"), "s"),
        "core.mu_nu.s": (secs("core.mu_nu"), "s"),
        "verify.ratio.s": (secs("verify.ratio"), "s"),
        "verify.compare.calls": (calls("verify.compare"), "count"),
        "verify.compare.s": (secs("verify.compare"), "s"),
        **{f"verify.{s}.s": (secs(f"verify.{s}"), "s") for s in SUITES},
        "numeric.cf_numeric.calls": (calls("numeric.cf_numeric"), "count"),
        "numeric.cf_steps": (per_op("numeric.cf_steps"), "count"),
        "numeric.cf_numeric.s": (secs("numeric.cf_numeric"), "s"),
        "numeric.demo.self_s": (secs("numeric.demo", 2), "s"),
        "cli.main.self_s": (secs("cli.main", 2), "s"),
    }
    attributed = 0.0
    for layer in LAYERS:
        self_s = layer_sum(layer, 2) / 1e9
        attributed += self_s
        m[f"layer.{layer}.self_s"] = (self_s, "s")
    m["layer.other.self_s"] = (statistics.fmean(traced) - attributed, "s")
    m["trace.op_s.p50"] = (statistics.median(traced), "s")
    m["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return m


def stamp() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or sha
    return {"git_sha": sha, "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}


def report(name: str, seed: int, seconds: float, trace: int, info: dict) -> dict:
    """Print one run's metrics by name and unit, write its files, return the result line."""
    run = run_workload(name, seed, seconds, trace)
    results = run["results"]
    attempted = sum(r["ops"] + r["traced_ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    nonconverged = sum(r["nonconverged"] for r in results)
    metrics = per_layer(run) if trace else end_to_end(run)
    times = [t for r in results for t in r["times"]]
    extra = {
        "op_s.p50": (statistics.median(times), "s"),
        "attempted": (attempted, "count"),
        "fail_ratio": (failed / attempted, "ratio"),
        "nonconverged_ratio": (nonconverged / attempted, "ratio"),
    }
    if sum(r["ops"] for r in results) >= P90_MIN_OPS:
        extra["op_s.p90"] = (statistics.quantiles(times, n=10, method="inclusive")[-1], "s")

    print(f"# workload={name} seed={seed} seconds={seconds} trace={trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for key, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{key:28s} {value:.6g} {unit}")
    errors = [e for r in results for e in r["errors"]]
    for e in errors:
        print(f"# failed: {e}")
    absent = sorted({a for r in results for a in r.get("absent", [])})
    if absent:
        print(f"# absent: {' '.join(absent)}")

    OUT.mkdir(exist_ok=True)
    full = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, **info,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
            "setup_s": run["setup"], "op_s": times, "errors": errors, "absent": absent}
    (OUT / f"{name}-trace{trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    if trace:
        spans = [[i, *s] for i, r in enumerate(results) for s in r.get("spans", [])]
        dropped = sum(r.get("dropped_spans", 0) for r in results)
        (OUT / f"{name}.spans.json").write_text(json.dumps({
            "workload": name, "seed": seed, **info, "dropped": dropped,
            "columns": ["worker", "op", "id", "parent", "name", "start_ns", "end_ns"], "spans": spans,
        }) + "\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rrcf" / "__init__.py").is_file():
        print(f"error: no rrcf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    info = stamp()
    if args.workload != "all":
        line = report(args.workload, args.seed, args.seconds, args.trace, info)
        print(json.dumps(line))
        return 0
    for trace in (0, 1):
        for name in WORKLOADS:
            print(json.dumps(report(name, args.seed, args.seconds, trace, info)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
