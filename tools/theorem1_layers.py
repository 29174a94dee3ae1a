"""Time each layer of theorem1 at single depths, with empty memo tables.

    python3 tools/theorem1_layers.py [--src DIR] 12 16 20

For each depth n: g(n, 0), g(n, 1), the ratio (1+b) g(n,0)/g(n,1), the
backward fraction, the forward recurrence and ``compare``, in seconds, plus
the term counts of the ratio's numerator and denominator.  Every layer's
time is the smallest of ``REPEAT`` runs, each started from empty memo
tables.  ``--src`` points at the ``src`` directory of another checkout, so
the same script times an older revision.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPEAT = 3


def time_depth(n: int, core, qpoch, verify, poly) -> dict:
    core._g_cached.cache_clear()
    qpoch._product.cache_clear()
    times = {}

    def timed(name, fn):
        t = time.perf_counter()
        value = fn()
        times[name] = time.perf_counter() - t
        return value

    g0 = timed("g0", lambda: core.g(n, 0))
    g1 = timed("g1", lambda: core.g(n, 1))
    lhs = timed("ratio", lambda: (poly.ONE + poly.B) * g0 / g1)
    spec = core.CFSpec.standard(n)
    rhs = timed("backward", lambda: core.cf_finite_backward(spec))
    timed("forward", lambda: core.cf_convergents_forward(spec))
    equal, _ = timed("compare", lambda: verify.compare(lhs, rhs))
    if not equal:
        raise SystemExit(f"theorem1 fails at n = {n}")
    return {"times": times, "num_terms": len(lhs.num), "den_terms": len(lhs.den)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("depths", type=int, nargs="+")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src))
    from rrcf import core, poly, qpoch, verify

    out = {}
    for n in args.depths:
        runs = [time_depth(n, core, qpoch, verify, poly) for _ in range(REPEAT)]
        out[str(n)] = {
            "s": {k: round(min(r["times"][k] for r in runs), 4) for k in runs[0]["times"]},
            "num_terms": runs[0]["num_terms"],
            "den_terms": runs[0]["den_terms"],
        }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
