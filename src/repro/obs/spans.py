"""Epoch-lifecycle span tracing across the coordinator and its workers.

Design constraints, in order:

1. **Disabled means free.** Tracing is off by default and every
   instrumentation site costs one module-global ``is None`` check (the
   :func:`span` context manager short-circuits on it; hot per-op code
   is never instrumented at all — spans exist only at epoch/dispatch
   granularity; ``tests/test_work_counts.py`` counts the calls).
2. **One clock.** ``time.perf_counter()`` is the system-wide monotonic
   clock on every platform we support, so worker processes ship *raw*
   timestamps and the coordinator re-bases them by subtracting its own
   trace origin (:meth:`Tracer.rebase`). No cross-process handshake,
   no skew model — spans from every process land on one timeline.
3. **Flat spans.** Spans never nest within a track: the taxonomy is
   chosen so that per-track intervals are naturally disjoint (a worker
   decodes, then executes; the coordinator dispatches, then commits),
   which is what makes the exported timeline legible and lets the
   schema test assert per-track monotonicity.

Span taxonomy (``cat`` → names):

* ``segment`` — ``tp-epoch``: one epoch's slice of the thread-parallel
  run on the coordinator (live kernel, checkpoints, hint capture),
  emitted boundary-to-boundary so the timeline shows which epoch the
  TP run was producing while the commit pipeline worked behind it.
* ``wire`` — ``dispatch`` (build + submit one unit, coordinator;
  ``args["speculative"]`` marks mid-segment pipeline dispatches),
  ``wire-decode`` (resolve the unit's digests through the worker's
  blob cache and the scratch pack, and hydrate the checkpoints,
  worker side).
* ``epoch`` — ``execute``: one epoch's uniprocessor execution. Worker
  side for pool units, coordinator side for the serial path and the
  serial fallback (``args["kind"]`` distinguishes record / replay /
  ``*-serial``). The coordinator annotates harvested execute spans
  with the unit's wire cost (``bytes_shipped`` / ``blobs_sent``).
* ``commit`` — ``commit``: folding one epoch's result into the
  recording on the coordinator.
* ``recovery`` — ``divergence`` (log pruning after a failed epoch)
  and ``recovery`` (the live forward-recovery re-execution).

Worker spans travel home as plain tuples
``(name, cat, raw_start, raw_end, args)`` on
``repro.host.wire.UnitTiming.spans`` — picklable, tiny, and absent
(``()``) when tracing is off.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: span categories (the ``cat`` field; see the module docstring)
CAT_SEGMENT = "segment"
CAT_WIRE = "wire"
CAT_EPOCH = "epoch"
CAT_COMMIT = "commit"
CAT_RECOVERY = "recovery"


@dataclass
class SpanRecord:
    """One completed span on the coordinator timeline.

    ``start``/``end`` are seconds since the trace origin (coordinator
    clock); ``track`` is the host pid that did the work.
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
    """Coordinator-side span collector for one traced run."""

    def __init__(self, path: Optional[str] = None):
        #: where the CLI writes the Chrome trace when the run ends
        self.path = path
        self.pid = os.getpid()
        #: raw ``perf_counter`` instant all span times are relative to
        self.origin = time.perf_counter()
        self.spans: List[SpanRecord] = []

    def now(self) -> float:
        """Seconds since the trace origin."""
        return time.perf_counter() - self.origin

    def add(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        track: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.spans.append(
            SpanRecord(
                name=name,
                cat=cat,
                start=start,
                end=max(end, start),
                track=track or self.pid,
                args=args or {},
            )
        )

    def rebase(self, raw: float) -> float:
        """Re-base a worker's raw ``perf_counter`` stamp onto this trace.

        ``perf_counter`` is system-wide monotonic, so re-basing is one
        subtraction; the clamp guards against a pathological platform
        clock (a span can never precede the trace it belongs to).
        """
        return max(0.0, raw - self.origin)

    def ingest(
        self,
        raw_spans: Sequence[tuple],
        track: int,
        annotate: Optional[Dict[str, object]] = None,
    ) -> None:
        """Fold a worker's raw-clock spans into the coordinator timeline.

        ``annotate`` is merged into the args of the worker's ``epoch``
        spans — the coordinator is the side that knows the unit's wire
        cost, the worker the side that knows its execution interval.
        """
        for name, cat, raw_start, raw_end, args in raw_spans:
            merged = dict(args)
            if annotate and cat == CAT_EPOCH:
                merged.update(annotate)
            self.add(
                name,
                cat,
                self.rebase(raw_start),
                self.rebase(raw_end),
                track=track,
                args=merged,
            )


class WorkerSpanLog:
    """Raw-clock span collection inside a worker process.

    Created per task only when the dispatch asked for tracing; spans are
    plain tuples ``(name, cat, raw_start, raw_end, args)`` ready to ride
    home on ``UnitTiming.spans``.
    """

    __slots__ = ("spans",)

    def __init__(self) -> None:
        self.spans: List[tuple] = []

    def add(self, name: str, cat: str, raw_start: float, raw_end: float,
            **args) -> None:
        self.spans.append((name, cat, raw_start, raw_end, args))

    def export(self) -> Tuple[tuple, ...]:
        return tuple(self.spans)


#: the active tracer, or None — the disabled fast path is this check
_tracer: Optional[Tracer] = None

#: per-thread tracer override (service sessions). The sentinel
#: distinguishes "no override installed" (fall through to the module
#: global) from "explicitly no tracer" (a session that is not tracing
#: must not leak spans into a trace the main thread happens to have
#: active).
_SCOPE_UNSET = object()
_scoped = threading.local()


def _active() -> Optional[Tracer]:
    tracer = getattr(_scoped, "tracer", _SCOPE_UNSET)
    if tracer is not _SCOPE_UNSET:
        return tracer
    return _tracer


def enabled() -> bool:
    """Is a trace being collected on this thread?"""
    return _active() is not None


def current() -> Optional[Tracer]:
    """The active tracer (None when tracing is disabled)."""
    return _active()


def start_trace(path: Optional[str] = None) -> Tracer:
    """Begin collecting spans; returns the (now-active) tracer."""
    global _tracer
    _tracer = Tracer(path)
    return _tracer


def stop_trace() -> Optional[Tracer]:
    """Detach and return the active tracer (export is the caller's job)."""
    global _tracer
    tracer, _tracer = _tracer, None
    return tracer


def set_session_tracer(tracer: Optional[Tracer]) -> None:
    """Install a per-thread tracer override (service session isolation).

    ``None`` is an explicit override too: the session collects no spans
    even while another thread's global trace is running. Use
    :func:`clear_session_tracer` to remove the override entirely.
    """
    _scoped.tracer = tracer


def clear_session_tracer() -> None:
    """Drop this thread's tracer override (back to the module global)."""
    try:
        del _scoped.tracer
    except AttributeError:
        pass


@contextlib.contextmanager
def span(name: str, cat: str, **args):
    """Record one coordinator span around a block (no-op when disabled)."""
    tracer = _active()
    if tracer is None:
        yield
        return
    start = tracer.now()
    try:
        yield
    finally:
        tracer.add(name, cat, start, tracer.now(), args=args)
