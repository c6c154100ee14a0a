"""Spans, self time and the tail-percentile rule used by the benchmark.

Spans are kept in memory and written out once, when the run ends. A span
records its name, start and end (``time.perf_counter`` seconds), the span
that was open when it started (its parent) and a trace id: the fit or gap it
belongs to. Self time is a span's duration minus the part of that interval
its children cover.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    sid: int
    name: str
    trace_id: str
    parent: int | None
    start: float
    end: float = math.nan

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``enabled=False`` makes :meth:`span` a bare timer."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: str = ""):
        if not self.enabled:
            yield None
            return
        sp = Span(
            sid=len(self.spans),
            name=name,
            trace_id=trace_id,
            parent=self._stack[-1] if self._stack else None,
            start=time.perf_counter(),
        )
        self.spans.append(sp)
        self._stack.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Durations (s) of every finished span called ``name``."""
        return [s.dur for s in self.spans if s.name == name and not math.isnan(s.end)]

    def self_times(self) -> dict[int, float]:
        return self_times(self.spans)

    def dump(self, path: str | Path) -> None:
        """Write every span as one JSON line, with its self time."""
        st = self.self_times()
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({**asdict(s), "self": st[s.sid]}) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.dur - covered(kids.get(s.sid, []), s.start, s.end) for s in spans}


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """Highest whole percentile with at least ``beyond`` of ``n`` samples
    above it, or None when ``n`` is too small for any (``n <= beyond``).

    p has ``n * (1 - p/100)`` samples beyond it; the largest whole p with
    that count >= ``beyond`` is ``floor(100 * (1 - beyond / n))``.
    """
    if n <= beyond:
        return None
    return float(math.floor(100.0 * (n - beyond) / n + 1e-9))
