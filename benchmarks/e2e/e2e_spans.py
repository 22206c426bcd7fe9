"""Benchmark-side spans: one around every call into a layer's public API.

Nothing here touches ``src/``: the spans are taken from outside, around
the calls the benchmark itself makes. Spans are kept in memory and
written out when the run ends. When ``enabled`` is false a span is just
a pair of clock reads, so the untraced pass pays nothing but them; the
difference between the two passes is reported as
``bench.trace_overhead_pct``.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List, Optional, Tuple


class Span:
    """A timed region; ``wall`` is valid after the ``with`` block."""

    __slots__ = ("_spans", "_name", "_args", "_record", "start", "wall")

    def __init__(self, spans: "Spans", name: str, args: dict):
        self._spans = spans
        self._name = name
        self._args = args
        self._record: Optional[dict] = None
        self.start = 0.0
        self.wall = 0.0

    def open(self, at: float) -> None:
        spans = self._spans
        if spans.enabled:
            self._record = {
                "id": len(spans.records),
                "name": self._name,
                "parent": spans._stack[-1] if spans._stack else None,
                "iteration": spans.iteration,
                "start": at,
                "end": None,
                "args": self._args,
            }
            spans.records.append(self._record)
            spans._stack.append(self._record["id"])
        self.start = at

    def close(self, at: float) -> None:
        self.wall = at - self.start
        if self._record is not None:
            self._record["end"] = at
            self._spans._stack.pop()

    def __enter__(self) -> "Span":
        self.open(perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        self.close(perf_counter())


class Iteration:
    """One iteration's wall, tiled into phases.

    ``phase(name)`` ends the running phase and starts the next at the
    same clock reading, so the phases sum to the iteration wall exactly.
    A phase name may recur; its walls add up.
    """

    def __init__(self, spans: "Spans", index: int):
        self._spans = spans
        self.phases: Dict[str, float] = {}
        self.wall = 0.0
        spans.iteration = index
        self._root = spans.span("iteration")
        self._phase: Optional[Span] = None
        self._phase_name = ""
        self._root.open(perf_counter())

    def _close_phase(self, at: float) -> None:
        if self._phase is not None:
            self._phase.close(at)
            self.phases[self._phase_name] = (
                self.phases.get(self._phase_name, 0.0) + self._phase.wall
            )

    def phase(self, name: str) -> None:
        # The first phase starts with the iteration, so the tiling has no gap.
        now = perf_counter() if self._phase is not None else self._root.start
        self._close_phase(now)
        self._phase_name = name
        self._phase = self._spans.span("phase." + name)
        self._phase.open(now)

    def end(self) -> None:
        now = perf_counter()
        self._close_phase(now)
        self._phase = None
        self._root.close(now)
        self.wall = self._root.wall
        self._spans.iteration = -1


class Spans:
    """The run's span store. ``iteration`` is -1 outside iterations."""

    def __init__(self) -> None:
        self.enabled = False
        self.records: List[dict] = []
        self.iteration = -1
        self._stack: List[int] = []

    def span(self, name: str, **args) -> Span:
        return Span(self, name, args)

    def begin_iteration(self, index: int) -> Iteration:
        return Iteration(self, index)

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (count, total seconds, self seconds).

        Self time is a span's duration minus what its child spans cover.
        """
        covered = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None and record["end"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        table: Dict[str, Tuple[int, float, float]] = {}
        for record in self.records:
            if record["end"] is None:
                continue
            total = record["end"] - record["start"]
            count, total_sum, self_sum = table.get(record["name"], (0, 0.0, 0.0))
            table[record["name"]] = (
                count + 1,
                total_sum + total,
                self_sum + total - covered[record["id"]],
            )
        return table

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w") as handle:
            json.dump({**header, "spans": self.records}, handle)
