"""Command-line surface: build formulas, verify identities, run the demo.

Subcommands:

* ``convergent``  print the n-th convergent as a rational function
* ``series``      print mu, nu, g or the specialized Al-Salam-Ismail sum
* ``verify``      run an identity suite; exit 0 only if every case passes
* ``eval``        numeric convergence table at a point (q, lambda, b)

Exit codes are stable for CI use: 0 success / all cases pass, 1 at least one
verification failure, 2 usage error (an ``--out`` path that cannot be
written, a depth above ``EXACT_DEPTH_CAP`` or ``EVAL_N_MAX_CAP``, and an
``eval --k`` above ``EVAL_K_CAP``, included).  Text output is deterministic
for fixed arguments; ``--format json`` (and ``csv`` for eval) emit the
documented machine formats, optionally to ``--out`` instead of stdout.

``verify --suite all`` runs every suite in this process, in ``verify.SUITES``
order (``verify.run_all``), so all seven share one memo table of g values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import core, numeric, verify
from .poly import RationalFunction

USAGE_ERROR = 2
# Largest ``rrcf eval --n-max``, so that a huge value is a usage error, not a
# run out of time or memory.  At the cap the text output takes about 0.7 s
# and 52 MB, JSON 1.4 s and 133 MB.  The library's convergence_demo has no cap.
EVAL_N_MAX_CAP = 100_000
# Largest ``rrcf eval --k``.  A series that has not met the stop rule runs
# all k terms before it exits 1 (one whose partial sums overflow stops at
# the first of them).  The library's convergence_demo has no cap.
EVAL_K_CAP = 1_000_000
# Largest exact depth, ``--n`` of ``convergent`` and ``series`` and ``--n-max``
# of ``verify``.  The exact formulas cost about n^5 to n^6, so a depth of a few
# hundred would run for hours; 128 is twice the depth theorem1 proves in 60 s
# on a 2-core host (n = 62 to 64).  The library functions have no cap.
EXACT_DEPTH_CAP = 128


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrcf",
        description="Exact convergents of the generalized Rogers-Ramanujan continued fraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_conv = sub.add_parser("convergent", help="print the n-th convergent")
    p_conv.add_argument(
        "--n", type=int, required=True, help=f"depth of the continued fraction, 1..{EXACT_DEPTH_CAP}"
    )
    _output_flags(p_conv)

    p_series = sub.add_parser("series", help="print one of the defining sums")
    p_series.add_argument("--which", choices=("mu", "nu", "g", "asi"), required=True)
    p_series.add_argument("--n", type=int, required=True, help=f"depth, at most {EXACT_DEPTH_CAP}")
    p_series.add_argument("--s", type=int, default=None, help="shift parameter, g only (0 <= s <= n+1)")
    _output_flags(p_series)

    p_verify = sub.add_parser("verify", help="run an exact identity suite")
    p_verify.add_argument("--suite", choices=(*verify.SUITES, "all"), required=True)
    p_verify.add_argument(
        "--n-max", type=int, default=10, dest="n_max", help=f"deepest case, 1..{EXACT_DEPTH_CAP}"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    _output_flags(p_verify)

    p_eval = sub.add_parser("eval", help="numeric convergence demonstration")
    p_eval.add_argument("--q", type=float, required=True, help="base, |q| < 1")
    p_eval.add_argument("--lambda", type=float, required=True, dest="lam")
    p_eval.add_argument("--b", type=float, required=True)
    p_eval.add_argument(
        "--n-max", type=int, default=10, dest="n_max", help=f"deepest convergent, 1..{EVAL_N_MAX_CAP}"
    )
    p_eval.add_argument("--k", type=int, default=50, help=f"series truncation bound, 1..{EVAL_K_CAP}")
    _output_flags(p_eval, csv=True)

    return parser


def _output_flags(p: argparse.ArgumentParser, csv: bool = False) -> None:
    formats = ("text", "json", "csv") if csv else ("text", "json")
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", type=Path, default=None, help="write output to a file instead of stdout")


def _emit(text: str, out: Path | None) -> bool:
    """Print text, or write it to ``out``; False, after an error line, if the write fails."""
    if out is None:
        print(text)
        return True
    try:
        out.write_text(text + "\n")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _out_of_range(flag: str, value: int, lo: int, hi: int) -> bool:
    """True, after an error line, if ``value`` is outside ``lo..hi``."""
    if value < lo:
        print(f"error: {flag} must be >= {lo}, got {value}", file=sys.stderr)
    elif value > hi:
        print(f"error: {flag} must be <= {hi}, got {value}", file=sys.stderr)
    else:
        return False
    return True


def _render_rf(rf: RationalFunction, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rf.to_json(), indent=2)
    return str(rf)


def _cmd_convergent(args: argparse.Namespace) -> int:
    if _out_of_range("--n", args.n, 1, EXACT_DEPTH_CAP):
        return USAGE_ERROR
    return 0 if _emit(_render_rf(core.convergent(args.n), args.format), args.out) else USAGE_ERROR


def _cmd_series(args: argparse.Namespace) -> int:
    which = args.which
    if which != "g" and args.s is not None:
        print("error: --s only applies to --which g", file=sys.stderr)
        return USAGE_ERROR
    if _out_of_range("--n", args.n, 0 if which == "asi" else 1, EXACT_DEPTH_CAP):
        return USAGE_ERROR
    try:
        if which == "mu":
            obj = RationalFunction(core.mu(args.n))
        elif which == "nu":
            obj = RationalFunction(core.nu(args.n))
        elif which == "asi":
            obj = core.asi_u(args.n)
        else:
            if args.s is None:
                print("error: --which g requires --s", file=sys.stderr)
                return USAGE_ERROR
            obj = core.g(args.n, args.s)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if _emit(_render_rf(obj, args.format), args.out) else USAGE_ERROR


def _cmd_verify(args: argparse.Namespace) -> int:
    # division reads no n_max, but every suite rejects one below 1 alike
    if _out_of_range("--n-max", args.n_max, 1, EXACT_DEPTH_CAP):
        return USAGE_ERROR
    if args.suite == "all":
        reports = verify.run_all(args.n_max, args.seed)
    else:
        reports = [verify.SUITES[args.suite](args.n_max, args.seed)]
    if args.format == "json":
        payload = reports[0].to_json() if len(reports) == 1 else [r.to_json() for r in reports]
        text = json.dumps(payload, indent=2)
    else:
        text = "\n".join(r.render_text() for r in reports)
    if not _emit(text, args.out):
        return USAGE_ERROR
    return 0 if all(r.all_passed for r in reports) else 1


def _render_eval_text(report: numeric.ConvergenceReport) -> str:
    pt = report.point
    lines = [
        f"q={pt.q!r} lambda={pt.lam!r} b={pt.b!r} "
        f"series_ratio={report.series_ratio!r} truncation_terms={report.truncation_terms}"
    ]
    for row in report.rows:
        lines.append(f"n={row.n} convergent={row.convergent!r} deviation={row.deviation!r}")
    return "\n".join(lines)


def _cmd_eval(args: argparse.Namespace) -> int:
    if _out_of_range("--n-max", args.n_max, 1, EVAL_N_MAX_CAP) or _out_of_range("--k", args.k, 1, EVAL_K_CAP):
        return USAGE_ERROR
    try:
        pt = numeric.NumericPoint(q=args.q, lam=args.lam, b=args.b)
    except ValueError as exc:  # NonConvergent, or a non-finite point
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        report = numeric.convergence_demo(pt, args.n_max, args.k)
    except numeric.NumericBreakdown as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        text = json.dumps(report.to_json(), indent=2)
    elif args.format == "csv":
        text = report.to_csv().rstrip("\n")
    else:
        text = _render_eval_text(report)
    return 0 if _emit(text, args.out) else USAGE_ERROR


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    handler = {
        "convergent": _cmd_convergent,
        "series": _cmd_series,
        "verify": _cmd_verify,
        "eval": _cmd_eval,
    }[args.command]
    return handler(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
