"""Spans and counters recorded from outside the package under test.

Both rebind, for the length of one pass, the functions and methods
through which one stlmon module calls into another (module attributes
and class methods); the sources under src/ stay unchanged.  Spans and
counts live in separate passes, so the counting wrappers, including the
one on every interval kernel call, add nothing to any span.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Rebinder:
    """Rebinds attributes and restores the originals on exit."""

    def __init__(self):
        self._saved: list = []

    def __enter__(self):
        return self

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def boundaries(order: int) -> list:
    """(owner, attribute, span name) for every cross-module call site.

    The span name is a string, or a function of the call's arguments:
    the integrator calls ``state_series`` three times per step, for the
    point series (``interval_const``, order k), the jets (a jet constant
    maker) and the remainder (``interval_const``, order k + 1).
    """
    import stlmon.integrator as integrator
    import stlmon.monitor as monitor
    from stlmon.taylor import interval_const

    def series_name(program, z0, n, const):
        if const is not interval_const:
            return "taylor.jet"
        return "taylor.remainder" if n == order + 1 else "taylor.point"

    enc, step = integrator.SignalEnclosure, integrator.StepModel
    return [
        (monitor, "monitor_stl", "monitor.verify"),
        (monitor, "search_zero", "monitor.search_zero"),
        (monitor, "dt_enclosure", "monitor.dt_enclosure"),
        (monitor, "newton_step", "interval.newton_step"),
        (monitor, "eval_box", "expr.eval_box"),
        (monitor, "gradient", "expr.gradient"),
        (monitor, "propagate", "timesets.propagate"),
        (monitor, "normalize", "timesets.normalize"),
        (enc, "__init__", "integrator.init"),
        (enc, "extend", "integrator.extend"),
        (enc, "eval", "integrator.eval"),
        (step, "eval_local", "integrator.eval_local"),
        (integrator, "eval_box", "expr.eval_box"),
        (integrator, "compile_flow", "taylor.compile"),
        (integrator, "state_series", series_name),
    ]


class Tracer:
    """Spans (name, start, end, parent index) kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            rec = [namer(*args) if namer else name, clock(), 0.0,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self, rb: Rebinder, order: int) -> None:
        for owner, attr, name in boundaries(order):
            rb.set(owner, attr, self.wrap(vars(owner)[attr], name))


def summarize(spans: list) -> dict:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the time its direct child spans
    cover; spans nest strictly because the workload runs on one thread.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
    return dict(out)


class CallCounter:
    """Call counts at the span boundaries, the search outcomes and every
    interval kernel call."""

    KERNELS = ("kadd", "ksub", "kmul", "kdiv")

    def __init__(self):
        self.counts: Counter = Counter()

    def _wrap(self, fn, name):
        counts = self.counts
        if callable(name):
            def counted(*args, **kwargs):
                counts[name(*args)] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return counted

    def _wrap_search(self, fn):
        from stlmon.errors import TangencyError

        counts = self.counts

        def search(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except TangencyError:
                counts["monitor.tangency_refusals"] += 1
                raise
            if not out.is_empty:
                counts["monitor.roots_certified"] += 1
            return out

        return search

    def install(self, rb: Rebinder, order: int) -> None:
        import stlmon.interval as interval
        import stlmon.monitor as monitor

        for owner, attr, name in boundaries(order):
            fn = vars(owner)[attr]
            if owner is monitor and attr == "search_zero":
                fn = self._wrap_search(fn)
            rb.set(owner, attr, self._wrap(fn, name))
        for k in self.KERNELS:
            rb.set(interval, k, self._wrap(vars(interval)[k], "kernel." + k))
