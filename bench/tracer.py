"""Span tracer for the benchmark's traced run.

The lab is not instrumented.  Instead the tracer replaces each layer's entry
points at the module attribute where callers look them up (for example
``pair_revenue.integrate_with_breakpoints`` or ``ValuationDistribution.cdf``)
with a wrapper that records one span per call: name, start, end, thread,
parent span, and a work figure such as the number of elements.  The
originals are put back when the traced run ends.

A span's parent is the innermost open span on its thread.  Work submitted to
``optimize_pair_offer``'s thread pool carries the span that was open on the
submitting thread, so pool-thread spans attach to the enclosing optimizer
span instead of starting a new root.  Self time is a span's duration minus
the part of its interval that its children cover, with children on any
thread merged into one union.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

NS = 1e-9

#: Per-layer metrics reported by :meth:`Tracer.metrics`, with their units.
LAYER_METRICS = {
    "valuations.cdf_calls": "count",
    "valuations.cdf_s": "s",
    "valuations.cdf_elems_per_call": "elems/call",
    "valuations.pdf_calls": "count",
    "valuations.pdf_s": "s",
    "valuations.quantile_draws": "count",
    "valuations.quantile_ns_per_draw": "ns/draw",
    "quad.integrals": "count",
    "quad.pieces_per_integral": "pieces/call",
    "quad.self_s": "s",
    "quad.refined_integrals": "count",
    "pair_revenue.exact_evals": "count",
    "pair_revenue.exact_us_per_eval": "us/eval",
    "pair_revenue.exact_self_s": "s",
    "pair_revenue.optimize_s": "s",
    "pair_revenue.optimize_self_s": "s",
    "pair_revenue.pool_speedup": "ratio",
    "mc.calls": "count",
    "mc.elements": "count",
    "mc.batches": "count",
    "mc.rng_ns_per_draw": "ns/draw",
    "mc.row_revenue_ns_per_element": "ns/elem",
    "mc.repeat_draw_share": "ratio",
    "search.golden_calls": "count",
    "search.evals_per_call": "evals/call",
    "group_revenue.optimize_s": "s",
    "group_revenue.verify_s": "s",
    "single_pricing.calls": "count",
    "single_pricing.s": "s",
    "experiments.csv_s": "s",
    "experiments.csv_bytes": "B",
    "trace.spans": "count",
}

#: Counts that depend only on the config and seed; two traced runs of one
#: config must give the same values.
EXACT_COUNTS = (
    "pair_revenue.exact_evals",
    "quad.integrals",
    "quad.refined_integrals",
    "mc.calls",
    "mc.elements",
    "mc.batches",
    "search.golden_calls",
)


def _size(args, result) -> int:
    return int(np.size(args[1]))


def _union_ns(intervals) -> int:
    covered = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            covered += hi - lo
            end = hi
        elif hi > end:
            covered += hi - end
            end = hi
    return covered


class _TracedRng:
    """A batch generator that records its ``random`` calls and remembers
    which ``(seed, batch)`` substream it draws from."""

    __slots__ = ("_rng", "_random", "key")

    def __init__(self, rng, key, random):
        self._rng = rng
        self._random = random
        self.key = key

    def random(self, size):
        return self._random(self._rng, size)


class Tracer:
    """Records spans around the lab's layer entry points while installed."""

    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, thread, parent, work)
        self._ids = itertools.count()
        self._local = threading.local()
        self._seen_draws = set()

    def reset(self) -> None:
        self.spans.clear()
        self._seen_draws.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def wrap(self, name, fn, work=None):
        """``fn`` with a span around each call; ``work(args, result)`` gives
        the span's work figure."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter_ns, threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, name, start, end, ident(), parent,
                          work(args, result) if work else 0))
            return result

        return traced

    def _executor_class(self):
        tracer = self

        class TracingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def under_parent(*a, **k):
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        stack.pop()

                return super().submit(under_parent, *args, **kwargs)

        return TracingExecutor

    def _counted(self, name, fn, first_call):
        """Wrap a function that takes a callable as its first argument; the
        span's work is ``(first_call figure, number of calls)`` of it."""
        traced = self.wrap(name, fn, lambda args, result: (
            args[0].first, args[0].calls))

        def counted(f, *args, **kwargs):
            def probe(*a, **k):
                if not probe.calls:
                    probe.first = first_call(a)
                probe.calls += 1
                return f(*a, **k)

            probe.calls = 0
            probe.first = 0
            return traced(probe, *args, **kwargs)

        return counted

    def _patches(self, lab):
        """``(owner, attribute, replacement)`` for every traced entry point."""
        ex, pr, gr, mc = lab.experiments, lab.pair_revenue, lab.group_revenue, lab._mc
        vd = lab.valuations.ValuationDistribution
        seen = self._seen_draws

        def draw_work(args, result):
            dists, rows, rng = args
            # Run-length encode the distribution objects: a 10,000-customer
            # group is one object repeated.
            pattern = tuple((key, sum(1 for _ in group))
                            for key, group in itertools.groupby(map(id, dists)))
            key = (pattern, rng.key, rows)
            repeated = key in seen
            seen.add(key)
            return (result.size, repeated)

        traced_random = self.wrap("mc.rng", lambda rng, size: rng.random(size),
                                  lambda args, result: result.size)
        make_rng = mc._batch_rng

        def batch_rng(seed, batch):
            return _TracedRng(make_rng(seed, batch), (seed, batch), traced_random)

        quad = self._counted("quad.integrate", pr.integrate_with_breakpoints,
                             lambda a: np.size(a[0]) // 5)
        golden = self._counted("search.golden", gr.golden_section_max,
                               lambda a: 0)
        revenue_stats = self.wrap("mc.revenue_stats", mc.revenue_stats)
        single = self.wrap("single_pricing.optimal", pr.optimal_single_price)
        return [
            (vd, "cdf", self.wrap("valuations.cdf", vd.cdf, _size)),
            (vd, "pdf", self.wrap("valuations.pdf", vd.pdf, _size)),
            (vd, "_quantile_array",
             self.wrap("valuations.quantile", vd._quantile_array, _size)),
            (pr, "integrate_with_breakpoints", quad),
            (pr, "pair_expected_revenue_exact",
             self.wrap("pair_revenue.exact", pr.pair_expected_revenue_exact)),
            (pr, "ThreadPoolExecutor", self._executor_class()),
            (ex, "optimize_pair_offer",
             self.wrap("pair_revenue.optimize", ex.optimize_pair_offer)),
            (pr, "revenue_stats", revenue_stats),
            (gr, "revenue_stats", revenue_stats),
            (gr, "valuation_sums",
             self.wrap("mc.valuation_sums", gr.valuation_sums)),
            (mc, "_batch_rng", batch_rng),
            (mc, "_draw", self.wrap("mc.draw", mc._draw, draw_work)),
            (mc, "_row_revenues",
             self.wrap("mc.row_revenues", mc._row_revenues,
                       lambda args, result: args[0].size)),
            (pr, "golden_section_max", golden),
            (gr, "golden_section_max", golden),
            (ex, "optimize_group_offer",
             self.wrap("group_revenue.optimize", ex.optimize_group_offer)),
            (ex, "verify_surplus_extraction",
             self.wrap("group_revenue.verify", ex.verify_surplus_extraction)),
            (ex, "optimal_single_price", single),
            (pr, "optimal_single_price", single),
            (gr, "optimal_single_price", single),
            (ex, "_write_csv", self.wrap("experiments.csv", ex._write_csv)),
            (ex, "run", self.wrap("experiments.run", ex.run)),
        ]

    @contextmanager
    def installed(self, lab):
        """Trace the lab's entry points inside the ``with`` block."""
        patches = self._patches(lab)
        originals = [(owner, attr, owner.__dict__[attr])
                     for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def metrics(self, csv_bytes: int) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        by_name = defaultdict(list)
        children = defaultdict(list)
        for span in self.spans:
            by_name[span[1]].append(span)
            children[span[5]].append(span)

        def total_s(name):
            return sum(s[3] - s[2] for s in by_name[name]) * NS

        def self_s(name):
            total = 0
            for sid, _, start, end, _, _, _ in by_name[name]:
                kids = [(max(c[2], start), min(c[3], end))
                        for c in children[sid] if c[3] > start and c[2] < end]
                total += (end - start) - _union_ns(kids)
            return total * NS

        def work(name):
            return sum(s[6] for s in by_name[name])

        def ratio(num, den):
            return num / den if den else 0.0

        cdf, pdf = by_name["valuations.cdf"], by_name["valuations.pdf"]
        quads = by_name["quad.integrate"]
        exact = by_name["pair_revenue.exact"]
        optimize = by_name["pair_revenue.optimize"]
        optimize_ids = {s[0] for s in optimize}
        draws = by_name["mc.draw"]
        elements = sum(s[6][0] for s in draws)
        golden = by_name["search.golden"]
        m = {
            "valuations.cdf_calls": len(cdf),
            "valuations.cdf_s": total_s("valuations.cdf"),
            "valuations.cdf_elems_per_call": ratio(work("valuations.cdf"), len(cdf)),
            "valuations.pdf_calls": len(pdf),
            "valuations.pdf_s": total_s("valuations.pdf"),
            "valuations.quantile_draws": work("valuations.quantile"),
            "valuations.quantile_ns_per_draw": ratio(
                total_s("valuations.quantile") / NS, work("valuations.quantile")),
            "quad.integrals": len(quads),
            "quad.pieces_per_integral": ratio(sum(s[6][0] for s in quads), len(quads)),
            "quad.self_s": self_s("quad.integrate"),
            "quad.refined_integrals": sum(1 for s in quads if s[6][1] > 1),
            "pair_revenue.exact_evals": len(exact),
            "pair_revenue.exact_us_per_eval": ratio(
                total_s("pair_revenue.exact") * 1e6, len(exact)),
            "pair_revenue.exact_self_s": self_s("pair_revenue.exact"),
            "pair_revenue.optimize_s": total_s("pair_revenue.optimize"),
            "pair_revenue.optimize_self_s": self_s("pair_revenue.optimize"),
            "pair_revenue.pool_speedup": ratio(
                sum(s[3] - s[2] for s in exact if s[5] in optimize_ids) * NS,
                total_s("pair_revenue.optimize")),
            "mc.calls": len(by_name["mc.revenue_stats"])
            + len(by_name["mc.valuation_sums"]),
            "mc.elements": elements,
            "mc.batches": len(draws),
            "mc.rng_ns_per_draw": ratio(total_s("mc.rng") / NS, work("mc.rng")),
            "mc.row_revenue_ns_per_element": ratio(
                total_s("mc.row_revenues") / NS, work("mc.row_revenues")),
            "mc.repeat_draw_share": ratio(
                sum(s[6][0] for s in draws if s[6][1]), elements),
            "search.golden_calls": len(golden),
            "search.evals_per_call": ratio(sum(s[6][1] for s in golden), len(golden)),
            "group_revenue.optimize_s": total_s("group_revenue.optimize"),
            "group_revenue.verify_s": total_s("group_revenue.verify"),
            "single_pricing.calls": len(by_name["single_pricing.optimal"]),
            "single_pricing.s": total_s("single_pricing.optimal"),
            "experiments.csv_s": total_s("experiments.csv"),
            "experiments.csv_bytes": csv_bytes,
            "trace.spans": len(self.spans),
        }
        return m


def median_metrics(runs: list[dict]) -> dict:
    """Per-key median over the metric dicts of several traced runs."""
    return {key: statistics.median_low(r[key] for r in runs) for key in runs[0]}
