"""In-memory span recorder for the traced benchmark run.

A span is one call the benchmark makes into a public function of the
package: name, start and end (perf_counter_ns), the enclosing span, the
request it belongs to, and an optional tag (``cold`` or ``warm`` on
``decisions.decision_regions``, the size of a simulation).  Spans stay
in memory until the run ends; ``write`` then dumps them as JSON lines.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int | None
    tag: object

    @property
    def us(self) -> float:
        return (self.end_ns - self.start_ns) / 1000.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def begin(self, name: str) -> tuple:
        """Open a span; pass the token to ``end``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return (sid, name, parent, perf_counter_ns())

    def end(self, token: tuple, tag: object = None) -> Span:
        end = perf_counter_ns()
        sid, name, parent, start = token
        self._stack.pop()
        span = Span(sid, name, start, end, parent, self.request, tag)
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            token = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token)

        return traced

    def durations_us(self, name: str, tag: str | None = None) -> list[float]:
        return [
            s.us for s in self.spans if s.name == name and (tag is None or s.tag == tag)
        ]

    def median_us(self, name: str, tag: str | None = None) -> float:
        values = self.durations_us(name, tag)
        if not values:
            raise ValueError(f"no spans recorded for {name!r} (tag {tag!r})")
        return statistics.median(values)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s._asdict()) + "\n")
