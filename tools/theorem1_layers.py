"""Time each layer of theorem1 at single depths, each depth in a fresh process.

    python3 tools/theorem1_layers.py [--src DIR] 32 40 52

For each depth n, a new child process imports rrcf, so every memo table
starts empty, and times g(n, 0), g(n, 1), the ratio (1+b) g(n,0)/g(n,1),
the backward fraction and ``compare``, in seconds.  Their sum is the
``theorem1_s`` total, and ``peak_rss_mb`` is the child's peak resident set
size when ``compare`` returns.  The forward recurrence is timed after that,
outside the total and the memory figure.  The term counts of the ratio's
numerator and denominator are reported too.  Each depth is one run, so
compare two revisions run back to back on the same host.  ``--src`` points
at the ``src`` directory of another checkout, so the same script times an
older revision.  Prints one JSON object.

Before the first depth the script copies ``--src`` to a temporary directory
and compiles the copy there, and the children import that copy: no child
compiles rrcf, so its peak memory does not move with the size of the
source, and the source tree itself is left as it is.
"""

from __future__ import annotations

import argparse
import compileall
import json
import multiprocessing
import resource
import shutil
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

THEOREM1_LAYERS = ("g0", "g1", "ratio", "backward", "compare")


def time_depth(n: int, src: str) -> dict:
    """Run in the child: time theorem1's layers and the forward recurrence at depth n."""
    sys.path.insert(0, src)
    from rrcf import core, poly, verify

    times = {}

    def timed(name, fn):
        t = time.perf_counter()
        value = fn()
        times[name] = round(time.perf_counter() - t, 4)
        return value

    g0 = timed("g0", lambda: core.g(n, 0))
    g1 = timed("g1", lambda: core.g(n, 1))
    lhs = timed("ratio", lambda: (poly.ONE + poly.B) * g0 / g1)
    spec = core.CFSpec.standard(n)
    rhs = timed("backward", lambda: core.cf_finite_backward(spec))
    equal, _ = timed("compare", lambda: verify.compare(lhs, rhs))
    if not equal:
        raise RuntimeError(f"theorem1 fails at n = {n}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timed("forward", lambda: list(core.cf_convergents_iter(spec)))
    return {
        "s": times,
        "theorem1_s": round(sum(times[k] for k in THEOREM1_LAYERS), 4),
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "num_terms": len(lhs.num),
        "den_terms": len(lhs.den),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("depths", type=int, nargs="+")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args()

    spawn = multiprocessing.get_context("spawn")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        src = shutil.copytree(args.src, Path(tmp) / "src", ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(src, quiet=1)
        for n in args.depths:
            with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
                out[str(n)] = pool.submit(time_depth, n, str(src)).result()
            print(f"n = {n}: {out[str(n)]['theorem1_s']} s", file=sys.stderr, flush=True)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
