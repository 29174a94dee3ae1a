"""One benchmark worker process: set up a workload, then run its ops.

Started by run.py, never by hand.  The protocol on stdin/stdout is three
lines: the worker prints ``ready`` once rrcf is imported and the inputs are
generated, reads ``go`` (or ``quit``), runs, and prints one JSON result.

With ``--op-index`` the worker runs that single op, so the op starts from
the empty memo tables of a fresh rrcf process.  Without it the worker runs
a closed loop for ``--seconds``; in a traced run it runs each input twice,
untraced and then traced, so the tracing overhead is measured on the same
inputs under the same conditions.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import sys
import time
from array import array
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
MAX_ERRORS = 5
KEPT_TIMES = 1 << 17  # op times kept per kind of op (1 MiB each)


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    mods = SimpleNamespace(**{
        name: importlib.import_module(f"rrcf.{name}") for name in ("poly", "core", "verify", "numeric", "cli")
    })
    origin = Path(mods.poly.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"rrcf was imported from {origin}, not from {src}")
    return mods


def _no_span(name):
    return nullcontext()


class Times:
    """Op times in a reservoir of fixed size, so memory does not grow with the op count.

    The first KEPT_TIMES times are all kept; after that each new time replaces
    a kept one with the probability that keeps the sample uniform.
    """

    def __init__(self, seed: int):
        self.kept = array("d", [0.0]) * KEPT_TIMES  # allocated and touched up front
        self.count = 0
        self.total = 0.0
        self.rng = random.Random(seed)

    def add(self, t: float) -> None:
        if self.count < KEPT_TIMES:
            self.kept[self.count] = t
        else:
            j = self.rng.randrange(self.count + 1)
            if j < KEPT_TIMES:
                self.kept[j] = t
        self.count += 1
        self.total += t

    def tolist(self) -> list[float]:
        return self.kept[: min(self.count, KEPT_TIMES)].tolist()


class Runner:
    def __init__(self, workload, tracer, seed: int):
        self.workload = workload
        self.tracer = tracer
        self.times = Times(seed)
        self.traced_times = Times(seed + 1)
        self.failed = 0
        self.errors: list[str] = []

    def run_op(self, i: int, traced: bool) -> None:
        x = self.workload.inputs(i)
        span = _no_span
        if traced:
            self.tracer.install()
            self.tracer.start_op(i)
            span = self.tracer.span
        clock = time.perf_counter
        error = None
        t0 = clock()
        try:
            out = self.workload.op(x, span)
        except Exception as exc:  # an op that raises is a failed op, not a crash of the run
            error = f"op {i} raised {type(exc).__name__}: {str(exc)[:200]}"
        elapsed = clock() - t0
        if traced:
            self.tracer.uninstall()
        if error is None:
            try:
                error = self.workload.check(x, out)
            except Exception as exc:
                error = f"the check raised {type(exc).__name__}: {str(exc)[:200]}"
            if error is not None:
                error = f"op {i}: {error}"
        (self.traced_times if traced else self.times).add(elapsed)
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(error)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--op-index", type=int, default=None)
    args = parser.parse_args()

    mods = _import_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](mods, args.seed)
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, tracer, args.seed)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    start = time.perf_counter()
    if args.op_index is not None:
        runner.run_op(args.op_index, traced=bool(args.trace))
    else:
        i = 0
        # at least one op, and in a traced run at least one op of each kind
        while i < 1 + args.trace or time.perf_counter() - start < args.seconds:
            if args.trace:  # each input once untraced, then once traced
                runner.run_op(i // 2, traced=i % 2 == 1)
            else:
                runner.run_op(i, traced=False)
            i += 1
    busy = time.perf_counter() - start

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "ops": runner.times.count,
        "traced_ops": runner.traced_times.count,
        "time_sum": runner.times.total,
        "times": runner.times.tolist(),
        "traced_times": runner.traced_times.tolist(),
        "failed": runner.failed,
        "errors": runner.errors,
        "nonconverged": getattr(workload, "nonconverged", 0),
        "busy_s": busy,
        "rss_kb": rss_kb,
    }
    if tracer is not None:
        result.update(
            totals=tracer.totals,
            counts=tracer.counts,
            absent=tracer.absent,
            spans=tracer.spans,
            dropped_spans=tracer.dropped,
        )
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
