"""Host speed probes: fixed reference kernels timed between workload steps.

A shared host's CPU speed can swing by 20-40% in phases of seconds to tens
of seconds, so a wall time says as much about the phase it fell in as
about the program.  HostClock times a fixed reference kernel between units
of the program's work and divides each stretch of wall time between two
probes by the slowdown they measured, the ratio of the probes' time to
the kernel's reference time (REFERENCE_S): the result is the work's time
at the reference host speed.  The kernels are the benchmark's own code,
never the program's, so a change to the program does not move them.

Each kind imitates the instruction mix of the steps it normalizes:
  "solve"  - einsum contractions of a relation tensor with token
             embeddings and a Cholesky solve (ALS training, inference);
  "cells"  - a Python loop over sampled cells with tiny numpy products and
             set membership tests (SGD training);
  "small"  - many calls of small-matrix numpy operations and Python string
             and dict work (scoring).
A workload's set-up and its other steps use the kind of its main step.
"""

import time
from statistics import median

import numpy as np
from scipy.linalg import cho_factor, cho_solve

KINDS = ("solve", "cells", "small")
# Seconds one call of each kernel takes at the reference speed: about the
# median of 300 probes on a 2-vCPU Intel Xeon VM, numpy 2.4 with
# scipy-openblas at one thread.  They scale every reported time, so they
# stay fixed.
REFERENCE_S = {"solve": 0.0085, "cells": 0.0072, "small": 0.0040}
# Calls per probe of one kind; the probe's time is their median.
REPEATS = 5


class _Kernels:
    """Inputs of the reference kernels, drawn once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        d, n, r, c = 12, 10, 20, 40
        self.r_tensor = rng.standard_normal((d, r, r)) * 0.1
        self.e = rng.standard_normal((n, r))
        self.p = rng.standard_normal((c, r))
        self.w = rng.standard_normal((c, n))
        self.x = (rng.random((d, n, n)) < 0.05).astype(float)
        self.e_small = rng.standard_normal((n, 50)) * 0.1
        self.r_small = rng.standard_normal((d, 50, 50)) * 0.1
        self.bags = [rng.standard_normal((int(k), r)) for k in rng.integers(5, 13, 16)]
        self.words = ["w%d_%d" % (i % 37, i % 11) for i in range(1000)]

    def solve(self):
        r_t, e, p = self.r_tensor, self.e, self.p
        m = e.T @ e
        gram = p.T @ p
        gram += np.einsum("kab,bc,kdc->ad", r_t, m, r_t)
        gram += np.einsum("kba,bc,kcd->ad", r_t, m, r_t)
        rhs = self.w.T @ p
        rhs += np.einsum("kij,ja,kba->ib", self.x, e, r_t)
        rhs += np.einsum("kji,ja,kab->ib", self.x, e, r_t)
        gram[np.diag_indices_from(gram)] += 1.0
        return cho_solve(cho_factor(gram), rhs.T).T

    def cells(self):
        rng = np.random.default_rng(7)
        e, r_t = self.e_small, self.r_small
        d, n = r_t.shape[0], e.shape[0]
        seen = set()
        g_r = np.zeros_like(r_t)
        g_e = np.zeros_like(e)
        loss = 0.0
        for _ in range(180):
            cell = (int(rng.integers(d)), int(rng.integers(n)), int(rng.integers(n)))
            if cell in seen:
                continue
            seen.add(cell)
            k, h, t = cell
            resid = float(e[h] @ r_t[k] @ e[t]) - 1.0
            loss += resid * resid
            g_r[k] += 2.0 * resid * np.outer(e[h], e[t])
            g_e[h] += 2.0 * resid * (r_t[k] @ e[t])
            g_e[t] += 2.0 * resid * (r_t[k].T @ e[h])
        return loss

    def small(self):
        total = 0.0
        bags = [b / np.linalg.norm(b, axis=1, keepdims=True) for b in self.bags]
        for a in bags:
            for b in bags:
                total += float(np.mean((a @ b.T).max(axis=0)))
        counts = {}
        for word in self.words:
            key = word.split("_")[0].upper()
            counts[key] = counts.get(key, 0) + 1
        return total, len(counts)


class Probe:
    """The reference kernels, warmed up once and timed on each call."""

    def __init__(self):
        self.kernels = _Kernels()
        for kind in KINDS:
            getattr(self.kernels, kind)()

    def __call__(self, kinds=KINDS):
        """{kind: median seconds of REPEATS calls} for the given kinds."""
        times = {}
        for kind in kinds:
            fn = getattr(self.kernels, kind)
            samples = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - t0)
            times[kind] = median(samples)
        return times


class HostClock:
    """Converts wall-clock intervals to seconds at the reference speed.

    Probes run at the boundaries of timed steps (probe()) and, through
    maybe_probe(), between units of work inside a step once `interval`
    seconds have passed since the last probe.  A stretch of wall time
    between two probes is divided by the slowdown they measured (the mean
    of the two probes over the reference time); time spent in probes
    counts for nothing.
    """

    def __init__(self, kinds, interval, clock=time.perf_counter, measure=None):
        self.kinds = tuple(kinds)
        self.interval = interval
        self.clock = clock
        self.measure = measure or Probe()
        self.probes = []  # (start, end, {kind: seconds per call})

    def probe(self):
        start = self.clock()
        times = self.measure(self.kinds)
        self.probes.append((start, self.clock(), times))

    def maybe_probe(self):
        if not self.probes or self.clock() - self.probes[-1][1] >= self.interval:
            self.probe()

    def _stretches(self, start, end):
        """(length, probe before, probe after) of each stretch of the
        wall-clock interval start..end between two probes; there must be a
        probe before start and one after end."""
        if not self.probes or self.probes[0][1] > start or self.probes[-1][0] < end:
            raise ValueError("interval %.6f..%.6f is not bracketed by probes" % (start, end))
        for (_, lo, before), (hi, _, after) in zip(self.probes, self.probes[1:]):
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                yield overlap, before, after

    def reference_seconds(self, start, end, kind):
        """Seconds at the reference speed of the work between wall-clock
        readings start and end."""
        return sum(length * 2.0 * REFERENCE_S[kind] / (before[kind] + after[kind])
                   for length, before, after in self._stretches(start, end))

    def work_seconds(self, start, end):
        """Wall seconds between start and end, probes left out."""
        return sum(length for length, _, _ in self._stretches(start, end))

    def slowdowns(self, kind):
        """Slowdown of each probe against the reference speed."""
        return [times[kind] / REFERENCE_S[kind] for _, _, times in self.probes]
