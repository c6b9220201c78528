"""Span recording around the program's public functions, and span summaries.

The benchmark times the program's layers from outside.  It replaces
attributes of the `bove` modules with wrappers; the program looks those
attributes up at call time, so every call made through them is recorded.
A span holds a name, start and end times, the index of the span that was
open when it started (its parent) and a run id (the benchmark pass).
Spans stay in memory until the run ends.

A generator function (conll.read_conll) is wrapped so that its span lasts
from the call to the generator's exhaustion or closing: the time its
consumer takes to drain it.
"""

import functools
import json
import math
import time
from statistics import median

# Percentiles tried by the tail rule, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Records nested spans from wrapped functions and explicit blocks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent, run]
        self.counters = {}  # (run, name) -> summed count
        self.run = None
        self._stack = []
        self._patched = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.run])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span %s closed out of order"
                               % self.spans[index][0])

    def count(self, name, amount):
        key = (self.run, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, module, attr, name, counter=None, generator=False, after=None):
        """Replace module.attr by a span-recording wrapper.

        counter(result) -> int adds to the counter `name`, and after(), if
        given, runs when a call has returned, outside its span; both need a
        regular function.  The original is restored by restore().
        """
        original = getattr(module, attr)
        tracer = self

        if generator:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = tracer.open(name)
                try:
                    yield from original(*args, **kwargs)
                finally:
                    tracer.close(index)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(index)
                if counter is not None:
                    tracer.count(name, counter(result))
                if after is not None:
                    after()
                return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run}) + "\n")


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, run in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i])
        for i, (name, start, end, parent, run) in enumerate(spans)
    ]


def _rank(pct, n):
    """1-based nearest rank of the pct-th percentile among n values."""
    # Rounding first keeps e.g. 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(values, pct):
    """The pct-th percentile of values by the nearest-rank rule."""
    return sorted(values)[_rank(pct, len(values)) - 1]


def tail(values):
    """(value, pct) at the highest ladder percentile with at least
    TAIL_MIN_BEYOND values beyond it; None when there are too few values."""
    n = len(values)
    best = None
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            best = (nearest_rank(values, pct), pct)
    return best


class Summary:
    """Per-name statistics of the spans of the given runs.

    calls and counter values are per run (averaged over runs); total_s and
    self_s are the median over runs of the per-run sums; durations lists
    every call's duration.
    """

    def __init__(self, tracer, runs):
        runs = list(runs)
        self.runs = runs
        selfs = self_times(tracer.spans)
        per_run = {}
        self.durations = {}
        for (name, start, end, parent, run), self_s in zip(tracer.spans, selfs):
            if run not in runs:
                continue
            slot = per_run.setdefault(name, {r: [0, 0.0, 0.0] for r in runs})
            slot[run][0] += 1
            slot[run][1] += end - start
            slot[run][2] += self_s
            self.durations.setdefault(name, []).append(end - start)
        self._per_run = per_run
        self._counters = tracer.counters

    def names(self):
        return set(self._per_run)

    def calls(self, name):
        slot = self._per_run.get(name)
        if slot is None:
            return 0
        return sum(v[0] for v in slot.values()) / len(self.runs)

    def total_s(self, name):
        slot = self._per_run.get(name)
        return median([v[1] for v in slot.values()]) if slot else 0.0

    def self_s(self, name):
        slot = self._per_run.get(name)
        return median([v[2] for v in slot.values()]) if slot else 0.0

    def counter(self, name):
        return sum(self._counters.get((r, name), 0) for r in self.runs) / len(self.runs)
