"""Spans and counters for the traced benchmark run.

The benchmark calls every library function through ``tracer.call(name,
fn, ...)``, where ``name`` is ``<module>.<function>``: the layer the call
enters.  ``Tracer`` records a span (name, start, end, parent) per call and
keeps them in memory until the run writes them out; ``NullTracer`` makes
the same calls with nothing recorded, for the untraced runs that give the
end-to-end metrics.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict


class NullTracer:
    """Tracing off: calls go straight through and counts are dropped."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount=1):
        pass

    def counted(self, stages):
        return list(stages)


class Tracer:
    """Tracing on: one span per call, plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def counted(self, stages):
        """Copies of pipeline stages whose rules add to ``reduce.rule_evals``."""
        counts = self.counts

        def wrap(stage):
            rule = stage.rule

            def counting_rule(window):
                counts["reduce.rule_evals"] += 1
                return rule(window)

            return dataclasses.replace(stage, rule=counting_rule)

        return [wrap(stage) for stage in stages]

    def totals(self) -> tuple[dict, dict, Counter]:
        """Per span name: summed duration, summed self time, and call count.

        A span's self time is its duration minus the durations of its
        direct children, which lie inside it.
        """
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        duration: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, inner):
            duration[name] += end - start
            own[name] += end - start - covered
            calls[name] += 1
        return duration, own, calls
