"""Traced mode: spans and counters around each layer's public functions.

The tracer swaps module attributes of the ``onebit_bounds`` package for
wrappers while a traced pass runs and puts the originals back afterwards, so
the program itself carries no tracing code and untraced passes run it as is.
"""
from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  The wrapper replaces the attribute in every
# package module that binds the same object, so calls through re-exports
# such as ``cli.mi_direct`` or ``optimizer.solve_qh`` are seen as well.
SPANS = (
    ("cli", "main", "cli.main"),
    ("optimizer", "optimize_training", "optimizer.optimize_training"),
    ("replica", "reff_linear", "replica.reff_linear"),
    ("replica", "reff_onebit", "replica.reff_onebit"),
    ("replica", "solve_qh", "replica.solve_qh"),
    ("replica", "solve_qx_linear", "replica.solve_qx_linear"),
    ("replica", "solve_qx_onebit", "replica.solve_qx_onebit"),
    ("replica", "csir_rate", "replica.csir_rate"),
    ("replica", "overlap_fixed_points", "replica.overlap_fixed_points"),
    ("exact", "reff_exact", "exact.reff_exact"),
    ("exact", "mi_direct", "exact.mi_direct"),
    ("exact", "_Tables.receiver_tables", "exact.receiver_tables"),
)

# Leaf calls are too many for a span each (about 161k exp_ratio calls in one
# compare sweep), so they only add to counters under the enclosing span.
# ``exact.logsumexp`` runs once per training outcome, in _conditional_mi_nats.
LEAVES = (
    ("numerics", "exp_ratio", "numerics.exp_ratio"),
    ("numerics", "q_log_q", "numerics.q_log_q"),
    ("numerics", "log_q_function", "numerics.log_q_function"),
    ("numerics", "q_function", "numerics.q_function"),
    ("exact", "logsumexp", "exact.outcome_mi"),
)

# Span fields: name, start, end, parent index, job id, child seconds, leaf calls.
_NAME, _START, _END, _PARENT, _JOB, _CHILD, _LEAVES = range(7)


class Tracer:
    """Spans and counters of one run, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._leaf_totals = defaultdict(lambda: [0, 0, 0.0])  # calls, elements, seconds
        self._roots = [0, 0]  # roots returned, solves with more than one root

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None, self.job, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
                if rec[_PARENT] is not None:
                    spans[rec[_PARENT]][_CHILD] += rec[_END] - rec[_START]

        return wrapper

    def _leaf(self, name, fn):
        spans, stack, totals = self.spans, self._stack, self._leaf_totals[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            totals[0] += 1
            totals[1] += np.size(args[0])
            totals[2] += dt
            if stack:
                rec = spans[stack[-1]]
                rec[_CHILD] += dt
                if rec[_LEAVES] is None:
                    rec[_LEAVES] = {}
                rec[_LEAVES][name] = rec[_LEAVES].get(name, 0) + 1
            return out

        return wrapper

    def _count_roots(self, fn):
        def wrapper(*args, **kwargs):
            roots, brackets = fn(*args, **kwargs)
            self._roots[0] += len(roots)
            self._roots[1] += len(roots) > 1
            return roots, brackets

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "onebit_bounds" or name.startswith("onebit_bounds.")}
        saved = []

        def patch(module, attr, make):
            owner = package[f"onebit_bounds.{module}"]
            *path, attr = attr.split(".")
            if path:  # a method: patch the class only
                owner = getattr(owner, path[0])
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, make(owner.__dict__[attr]))
                return
            original = getattr(owner, attr)
            wrapped = make(original)
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, value))
                        setattr(mod, key, wrapped)

        for module, attr, name in SPANS:
            if attr == "overlap_fixed_points":
                patch(module, attr, lambda f, n=name: self._span(n, self._count_roots(f)))
            else:
                patch(module, attr, lambda f, n=name: self._span(n, f))
        for module, attr, name in LEAVES:
            patch(module, attr, lambda f, n=name: self._leaf(n, f))
        try:
            yield self
        finally:
            for owner, key, value in reversed(saved):
                setattr(owner, key, value)

    def layer_metrics(self, first_span: int) -> dict:
        """Per-layer figures of the spans from ``first_span`` on, and reset
        the counters that are not kept per span."""
        calls, inclusive, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for rec in self.spans[first_span:]:
            dur = rec[_END] - rec[_START]
            calls[rec[_NAME]] += 1
            inclusive[rec[_NAME]] += dur
            own[rec[_NAME]] += dur - rec[_CHILD]
        m = {}
        for _, _, name in SPANS:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = inclusive[name]
            m[f"{name}.self_s"] = own[name]
        for _, _, name in LEAVES:
            n, elements, seconds = self._leaf_totals[name]
            m[f"{name}.calls"], m[f"{name}.elements"], m[f"{name}.s"] = n, elements, seconds
        m["replica.overlap_fixed_points.roots"], m["replica.overlap_fixed_points.multi_root"] = self._roots
        rate_evals = calls["replica.reff_linear"] + calls["replica.reff_onebit"]
        m["optimizer.rate_evals"] = rate_evals
        qh = calls["replica.solve_qh"]
        m["optimizer.qh_reuse"] = rate_evals / qh if qh else 0.0
        for totals in self._leaf_totals.values():
            totals[:] = [0, 0, 0.0]
        self._roots = [0, 0]
        return m

    def span_records(self):
        """Spans as JSON-ready objects, in start order."""
        return [{"name": r[_NAME], "start": r[_START], "end": r[_END], "parent": r[_PARENT],
                 "job": r[_JOB], "self_s": r[_END] - r[_START] - r[_CHILD], "leaf_calls": r[_LEAVES]}
                for r in self.spans]
