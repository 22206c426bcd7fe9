"""The span view of a run's epoch lives, and the switch that asks for it.

Nothing on the record / replay path writes a span: every stage fills a
field of an :class:`~repro.obs.lifecycle.EpochLife` with raw
``perf_counter`` stamps, traced or not. :func:`start_trace` only hangs a
:class:`Tracer` on the calling thread's run scope, every run begun under
it hands the tracer its lives, and :attr:`Tracer.spans` derives the
timeline when somebody exports it:

1. **One clock.** ``time.perf_counter()`` is the system-wide monotonic
   clock on every platform we support, so a worker's stamps and the
   coordinator's land on one timeline by subtracting the trace origin.
   No cross-process handshake, no skew model.
2. **Flat spans.** Spans never nest within a track: a worker decodes,
   then executes; the coordinator cuts, dispatches, then commits. That
   keeps the exported timeline legible and lets the schema test assert
   per-track monotonicity.

Span taxonomy (``cat`` → names; every span carries ``position``, and
``epoch`` unless said otherwise):

* ``segment`` — ``tp-epoch``: one epoch's slice of the thread-parallel
  run on the coordinator, boundary to boundary.
* ``wire`` — ``dispatch`` (build + submit one unit, coordinator; no
  ``epoch``; ``bytes`` newly put into the scratch pack, ``speculative``
  on a pushed attempt) and ``wire-decode`` (resolve the unit's digests
  through the worker's cache and the pack, worker side; no ``epoch``).
* ``epoch`` — ``execute``: one uniprocessor execution, on the track of
  the process that ran it; ``kind`` says record / replay / ``-serial``.
  Pool executions carry the unit's wire cost so far (``bytes_shipped``
  / ``blobs_sent``). Only consumed results have one.
* ``commit`` — ``commit``: folding the epoch into the recording (and
  the durable sink), clean or recovered (no ``position``).
* ``recovery`` — ``divergence`` (log pruning after a rejected result)
  and ``recovery`` (the live forward re-execution); no ``position``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import metrics as obs_metrics

#: span categories (the ``cat`` field; see the module docstring)
CAT_SEGMENT = "segment"
CAT_WIRE = "wire"
CAT_EPOCH = "epoch"
CAT_COMMIT = "commit"
CAT_RECOVERY = "recovery"


@dataclass
class SpanRecord:
    """One span on the coordinator timeline.

    ``start``/``end`` are seconds since the trace origin; ``track`` is
    the host pid that did the work.
    """

    name: str
    cat: str
    start: float
    end: float
    track: int
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """The runs one trace will export, and the timeline they derive."""

    def __init__(self, path: Optional[str] = None):
        #: where the CLI writes the Chrome trace when the run ends
        self.path = path
        self.pid = os.getpid()
        #: raw ``perf_counter`` instant all span times are relative to
        self.origin = time.perf_counter()
        #: the :class:`~repro.obs.lifecycle.Lives` of every run begun
        #: while this tracer was its thread's (``lifecycle.begin``)
        self.runs: List = []

    def _span(self, name, cat, interval, track, args) -> SpanRecord:
        # A stamp can never precede the trace it belongs to, nor a span
        # end before it starts, whatever a platform clock does.
        start = max(0.0, interval[0] - self.origin)
        end = max(start, interval[1] - self.origin)
        return SpanRecord(name, cat, start, end, track or self.pid, args)

    def _life_spans(self, life) -> List[SpanRecord]:
        """One life's spans: ``(name, cat, interval, track, args)`` rows,
        a row whose interval never happened dropped."""
        epoch, at = {"epoch": life.epoch}, {"position": life.position}
        rows = [("tp-epoch", CAT_SEGMENT, life.tp, 0, {**epoch, **at})]
        shipped = blobs = 0
        for attempt in life.attempts:
            shipped, blobs = shipped + attempt.bytes, blobs + attempt.blobs
            pushed = {"speculative": True} if attempt.pushed else {}
            rows.append((
                "dispatch", CAT_WIRE, attempt.dispatch, 0,
                {**at, "bytes": attempt.bytes, **pushed},
            ))
            timing = attempt.timing
            if timing is None:
                continue  # a dropped result: nothing of it is in the run
            wire = {}
            if attempt.dispatch:  # it ran in a pool worker
                rows.append((
                    "wire-decode", CAT_WIRE, (timing.decode_started, timing.started),
                    timing.worker_pid,
                    {**at, "cache_hits": timing.blob_cache_hits,
                     "cache_misses": timing.blob_cache_misses},
                ))
                wire = {"bytes_shipped": shipped, "blobs_sent": blobs}
            rows.append((
                "execute", CAT_EPOCH, (timing.started, timing.started + timing.wall),
                timing.worker_pid, {**epoch, **at, "kind": attempt.kind, **wire},
            ))
        rows += [
            ("divergence", CAT_RECOVERY, life.divergence, 0,
             {**epoch, "reason": life.reason}),
            ("recovery", CAT_RECOVERY, life.recovery, 0, {**epoch}),
            ("commit", CAT_COMMIT, life.commit, 0, {**epoch}),
        ]
        return [self._span(*row) for row in rows if row[2]]

    @property
    def spans(self) -> List[SpanRecord]:
        """Every span of every collected run, derived now."""
        return [
            span
            for run in self.runs
            for life in run.all
            for span in self._life_spans(life)
        ]


def enabled() -> bool:
    """Is a trace being collected on this thread?"""
    return obs_metrics.scope().trace is not None


def start_trace(path: Optional[str] = None) -> Tracer:
    """Collect this thread's runs from now on; returns the tracer."""
    tracer = obs_metrics.scope().trace = Tracer(path)
    return tracer


def stop_trace() -> Optional[Tracer]:
    """Detach and return the tracer (export is the caller's job)."""
    scope = obs_metrics.scope()
    tracer, scope.trace = scope.trace, None
    return tracer
