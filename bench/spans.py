"""In-memory spans recorded around the program's public functions.

A ``Tracer`` replaces a function with a timing wrapper at the place its
caller looks it up (a module global such as ``fairtopk.optimizer.g2_estimate``
or a class attribute such as ``FactorizationScorer.score_many``).  Nothing
inside the program changes: ``patched`` puts every original back when its
block exits, also when the block raises.

Each span records its name, start, end and the index of the span that was
open when it started (-1 for a root).  Self time is a span's duration
minus the part of it covered by its children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] += value

    def _wrapper(self, name, original, count):
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open)
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(float("nan"))
            open_.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each ``(owner, attr, span_name, count)`` for the block.

        ``count(tracer, args, result)``, when given, runs after the span
        closes and adds the call's work counters with ``tracer.add``.
        """
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans, scale=None) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total and self time in seconds.
    When given, ``scale[i]`` multiplies the times of span ``i``."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    if scale is None:
        scale = [1.0] * len(spans)
    for (name, start, end, _), own, f in zip(spans, self_times(spans), scale):
        t = totals[name]
        t["calls"] += 1
        t["total_s"] += f * (end - start)
        t["self_s"] += f * own
    return totals
