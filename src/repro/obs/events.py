"""The structured event journal: every load-bearing transition, in order.

Counters say *how many*; the journal says *what happened, in order*.
Every state transition an operator would grep a log for is emitted as
one structured event — epoch committed, divergence discarded, fault
contained/retried/serial-fallback, flight-window slide and GC, session
admitted/completed — into a process-wide :class:`EventJournal`, which
stamps it (a global, monotonic ``seq`` and ``t``, seconds since
install) and appends it as one JSON object per line to its sink: the
durable form ``repro events tail`` reads and the CI smoke greps. Nothing
in the process reads the journal back; the live telemetry
(:mod:`repro.obs.expo`) is derived from the epoch lives, not from here.

**Disabled means free.** The journal is ``None`` by default; every
:func:`emit` site costs one module-global check, the same contract the
span tracer honors (``tests/test_work_counts.py`` counts the calls).
``repro serve --events PATH`` installs one for the duration of a serve
run. Worker processes never install a journal — every emission site
lives on the coordinator, where transitions are decided.

Sessions run as threads of one coordinator process, so events carry the
session id of the emitting thread's run scope
(:func:`repro.obs.metrics.session_scope`): one journal, per-tenant
attribution. The epoch-scoped kinds are emitted by the transitions of
:class:`repro.obs.lifecycle.Lives`, from the values they record.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Dict, List, Optional

from repro.obs import metrics as obs_metrics

#: event kinds (one place to see the taxonomy); the epoch-scoped ones
#: are emitted by the transitions of ``repro.obs.lifecycle.Lives`` only
KINDS = (
    "options",             # run entry: the resolved runtime options
    "epoch-commit",        # lives: one epoch folded into the recording
    "divergence",          # lives: epoch result rejected, log pruned
    "recovery",            # lives: forward recovery re-execution done
    "fault-contained",     # lives: worker crash/timeout/task-error observed
    "fault-retry",         # lives: blamed unit retried on a fresh pool
    "serial-fallback",     # lives: unit re-run serially on the coordinator
    "flight-window-slide", # durable log: manifest window slid forward
    "segment-gc",          # durable log: dead sealed segment deleted
    "pack-compaction",     # durable log: blob pack rewritten survivors-only
    "partial-close",       # durable log: crash path sealed committed prefix
    "session-admitted",    # service: tenant got an admission slot
    "session-completed",   # service: tenant finished (ok or failed)
)


class EventJournal:
    """A thread-safe, stamping appender of JSON-lines events."""

    def __init__(self, sink_path: str):
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._sink = open(sink_path, "a", buffering=1)
        #: monotonic clock origin: event ``t`` is seconds since install
        self.origin = time.perf_counter()

    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields) -> None:
        sid = obs_metrics.scope().sid
        with self._lock:
            if self._sink is None:
                return  # a late emitter behind close()
            event: Dict[str, object] = {
                "seq": next(self._seq),
                "t": round(time.perf_counter() - self.origin, 6),
                "kind": kind,
            }
            if sid is not None:
                event["sid"] = sid
            event.update(fields)
            try:
                self._sink.write(json.dumps(event, sort_keys=True) + "\n")
            except (OSError, TypeError):
                pass  # telemetry must never fail the run

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                try:
                    self._sink.close()
                finally:
                    self._sink = None


# ----------------------------------------------------------------------
# Process-wide installation.
# ----------------------------------------------------------------------
_journal: Optional[EventJournal] = None


def journal() -> Optional[EventJournal]:
    """The installed journal, or None (the disabled fast path)."""
    return _journal


def install_journal(sink_path: str) -> EventJournal:
    """Install (and return) a fresh process-wide journal appending to
    ``sink_path``."""
    global _journal
    if _journal is not None:
        _journal.close()
    _journal = EventJournal(sink_path)
    return _journal


def uninstall_journal() -> Optional[EventJournal]:
    """Detach and return the journal (closing its sink)."""
    global _journal
    detached, _journal = _journal, None
    if detached is not None:
        detached.close()
    return detached


def emit(kind: str, **fields) -> None:
    """Emit one event if a journal is installed (free when not)."""
    active = _journal
    if active is None:
        return
    active.emit(kind, **fields)


# ----------------------------------------------------------------------
# Reading (``repro events tail``).
# ----------------------------------------------------------------------
def read_events(path: str, count: Optional[int] = None) -> List[Dict[str, object]]:
    """Read the last ``count`` events from a JSON-lines sink.

    ``path`` may be the sink file itself or a directory holding an
    ``events.jsonl`` (the service's default layout).
    """
    import os

    if os.path.isdir(path):
        path = os.path.join(path, "events.jsonl")
    events: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn tail line from a crashed writer
            if isinstance(event, dict):  # (anything else is no event)
                events.append(event)
    if count is not None:
        events = events[-count:]
    return events


def format_event(event: Dict[str, object]) -> str:
    """One human line per event (``repro events tail`` output)."""
    seq = event.get("seq", "?")
    t = event.get("t", 0.0)
    kind = event.get("kind", "?")
    sid = event.get("sid")
    rest = {
        key: value
        for key, value in event.items()
        if key not in ("seq", "t", "kind", "sid")
    }
    detail = " ".join(f"{key}={value}" for key, value in sorted(rest.items()))
    label = f" [{sid}]" if sid else ""
    return f"{seq:>6}  {t:>10.6f}  {kind:<20}{label} {detail}".rstrip()
