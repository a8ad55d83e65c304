"""Spans recorded by the benchmark around its calls into each layer.

The program under test carries no tracing yet, so the benchmark records
spans from the outside: one root span per request, one child span per call
into a layer's public function.  Spans stay in memory and are written out
when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    """An in-memory span list; ``enabled=False`` makes every span a no-op.

    A span is ``[name, start, end, parent, request]``: *parent* is the index
    of the enclosing span (``-1`` for a root) and *request* the identifier
    every span of one request shares.  Times are seconds on the
    ``perf_counter`` clock, relative to the tracer's creation.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._epoch = time.perf_counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int = -1) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else -1
        if parent >= 0:
            request = self.spans[parent][4]
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, request]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter() - self._epoch
        try:
            yield
        finally:
            record[2] = time.perf_counter() - self._epoch
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds spent in every finished span called *name*."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def child_seconds(self) -> dict[int, float]:
        """For every span index, the seconds its direct children cover.

        A span's self time is its duration minus this.
        """
        covered: dict[int, float] = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return covered

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "span": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                )
                handle.write("\n")
