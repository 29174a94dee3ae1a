"""Span tracer for the traced benchmark runs.

The tracer wraps public names of the rrcf modules where their callers look
them up: a method on its class, or a function in the namespace of the module
that calls it (``core.poch_ratio_q``, not ``qpoch.poch_ratio_q``).  Each call
through a wrapper becomes one span with a name, a start, an end, a parent
span and the op it belongs to.  Spans stay in memory; the benchmark writes
them out when the run ends.  Nothing inside the program changes, and
``uninstall`` puts every original back.

A name that no longer exists is reported as absent and skipped, so the
tracer keeps working while the modules it wraps are reshaped.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (owner, attribute, span name).  The owner is a module, or "module:Class"
# for a method.  The first part of a span name is its layer.
TARGETS = (
    ("rrcf.poly:Polynomial", "__mul__", "poly.mul"),
    ("rrcf.poly:Polynomial", "__rmul__", "poly.mul"),
    ("rrcf.poly:Polynomial", "exact_div", "poly.exact_div"),
    ("rrcf.poly:RationalFunction", "__init__", "poly.rf_init"),
    ("rrcf.core", "poch_q", "qpoch.poch_q"),
    ("rrcf.core", "poch_neg_bq", "qpoch.poch_neg_bq"),
    ("rrcf.core", "poch_ratio_q", "qpoch.poch_ratio_q"),
    ("rrcf.core", "poch_ratio_negb", "qpoch.poch_ratio_negb"),
    ("rrcf.verify", "poch_neg_bq", "qpoch.poch_neg_bq"),
    ("rrcf.core", "g", "core.g"),
    ("rrcf.core", "mu", "core.mu_nu"),
    ("rrcf.core", "nu", "core.mu_nu"),
    ("rrcf.core", "g_difference", "core.g_difference"),
    ("rrcf.core", "cf_finite_backward", "core.backward"),
    ("rrcf.core", "cf_convergents_forward", "core.forward"),
    ("rrcf.core", "convergent", "core.convergent"),
    ("rrcf.core", "asi_u", "core.asi_u"),
    ("rrcf.verify", "compare", "verify.compare"),
    ("rrcf.verify", "run_all", "verify.run_all"),
    ("rrcf.verify", "check_entry16", "verify.entry16"),
    ("rrcf.verify", "check_theorem1", "verify.theorem1"),
    ("rrcf.verify", "check_recursion", "verify.recursion"),
    ("rrcf.verify", "check_telescoping", "verify.telescoping"),
    ("rrcf.verify", "check_b0_reduction", "verify.b0"),
    ("rrcf.verify", "check_asi", "verify.asi"),
    ("rrcf.verify", "check_division_step", "verify.division"),
    ("rrcf.numeric", "cf_numeric", "numeric.cf_numeric"),
    ("rrcf.numeric", "convergence_demo", "numeric.demo"),
    ("rrcf.numeric", "series_ratio_entry15", "numeric.series_ratio"),
    ("rrcf.cli", "main", "cli.main"),
)

LAYERS = ("poly", "qpoch", "core", "verify", "numeric", "cli")

# Spans kept per worker process; later spans still count in the totals.
MAX_KEPT_SPANS = 200_000


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name, None) if class_name else module


class Tracer:
    """Wraps the TARGETS and records spans and per-op totals."""

    def __init__(self) -> None:
        self.absent: list[str] = []
        self.spans: list[tuple] = []  # (op, id, parent, name, start_ns, end_ns)
        self.dropped = 0
        self._stack: list[list] = []  # open spans: [id, child_ns, parent, start_ns]
        self._next_id = 0
        self._op = -1
        self._op_start = 0
        self.totals: dict[str, list[int]] = {}  # name -> [calls, ns, self_ns]
        self.counts: dict[str, int] = {}
        self._g_seen: set = set()
        self._patches = self._prepare()  # (owner, attribute, original, wrapper)

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _prepare(self) -> list[tuple]:
        from rrcf.poly import Polynomial

        def mul_pairs(args, kwargs, exc, ns):
            a, b = args[0], args[1]
            self._count("poly.mul.term_pairs", len(a) * (len(b) if isinstance(b, Polynomial) else 1))

        def div_ok(args, kwargs, exc, ns):
            if exc is None:
                self._count("poly.exact_div.ok")

        def rf_terms(args, kwargs, exc, ns):
            if exc is None:
                rf = args[0]
                self._count("poly.rf_init.terms_out", len(rf.num) + len(rf.den))

        def g_repeat(args, kwargs, exc, ns):
            key = (args, tuple(sorted(kwargs.items())))
            if key in self._g_seen:
                self._count("core.g.repeats")
                self._count("core.g.repeat_ns", ns)
            self._g_seen.add(key)

        def cf_steps(args, kwargs, exc, ns):
            self._count("numeric.cf_steps", args[1] if len(args) > 1 else kwargs.get("n", 0))

        hooks = {
            "poly.mul": mul_pairs,
            "poly.exact_div": div_ok,
            "poly.rf_init": rf_terms,
            "core.g": g_repeat,
            "numeric.cf_numeric": cf_steps,
        }
        patches = []
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            patches.append((owner, attr, original, self._wrap(original, name, hooks.get(name))))
        return patches

    def _wrap(self, fn, name: str, hook):
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ns = end(frame, name)
                if hook is not None:
                    hook(args, kwargs, exc, ns)
                raise
            ns = end(frame, name)
            if hook is not None:
                hook(args, kwargs, None, ns)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self._begin()
        try:
            yield
        finally:
            self._end(frame, name)

    # -- recording ------------------------------------------------------------

    def _begin(self) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0, parent, time.perf_counter_ns()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _end(self, frame: list, name: str) -> int:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, child_ns, parent, start = frame
        ns = end - start
        if self._stack:
            self._stack[-1][1] += ns
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += ns
        total[2] += ns - child_ns
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((self._op, span_id, parent, name, start - self._op_start, end - self._op_start))
        else:
            self.dropped += 1
        return ns

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def start_op(self, op: int) -> None:
        """Begin a traced op; repeats of g are counted within one op."""
        self._op = op
        self._g_seen = set()
        self._op_start = time.perf_counter_ns()
