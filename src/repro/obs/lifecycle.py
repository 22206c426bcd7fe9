"""One record per epoch: a fact is written once, everything else is derived.

DoublePlay's unit of everything is the epoch — cut, run in parallel,
compared, committed or thrown away and recovered. An :class:`EpochLife`
holds what happened to one, and a run's :class:`Lives` is the only thing
the record / replay path writes telemetry into: each stage transition is
one method that fills one field with raw ``perf_counter`` stamps (one
system-wide clock: a worker's stamps need no handshake) and, when a
journal is installed, emits that transition's line from the same values.
Always on, O(epochs), never per guest op.

Derived from the lives: ``RecordResult.host`` / ``ReplayResult.host``
(:meth:`Lives.host_summary`), the ``histo`` group's wall-clock and size
histograms (:meth:`Lives.distributions`), the service's per-session and
fleet-wide pool accounting (:func:`lane_summary`), the Chrome trace
(:attr:`repro.obs.spans.Tracer.spans`) and the journal's epoch-scoped
kinds (the transitions). Counters (:func:`repro.obs.metrics.process_stats`)
stay O(1) sums that are not facts about one epoch; they ride home on
:attr:`UnitTiming.metrics` and fold in where the timing is attached, so
a result nobody consumed leaves neither a counter nor an execution.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.histo import bucket_key

#: a raw ``perf_counter`` interval
Interval = Tuple[float, float]

#: fates of a unit the merge obtained a value for (see ``EpochLife.fate``)
_MERGED = ("accepted", "invalidated", "lost")


@dataclass
class UnitTiming:
    """Where, and for how long, one attempt executed: filled in the
    process that ran it, attached to its :class:`Attempt` when the
    coordinator consumes the result."""

    #: wall-clock / CPU seconds executing the unit (on an oversubscribed
    #: host wall includes time-slicing against sibling workers)
    wall: float = 0.0
    cpu: float = 0.0
    #: referenced digests already cached / read from the scratch pack
    blob_cache_hits: int = 0
    blob_cache_misses: int = 0
    #: pid that ran the unit (0: it failed before anything ran)
    worker_pid: int = 0
    #: raw instants digest resolution and the body began
    decode_started: float = 0.0
    started: float = 0.0
    #: the running process's counter delta for this unit, as sorted
    #: ``(name, amount)`` pairs (see :mod:`repro.obs.metrics`)
    metrics: Tuple[Tuple[str, int], ...] = ()


@dataclass
class Attempt:
    """One try at executing an epoch."""

    #: ``record`` / ``replay`` / ``replay-seq``; ``-serial`` marks the
    #: coordinator's fallback for a unit the pool could not finish
    kind: str
    #: a free attempt pushed ahead of the merge (never a fault), as
    #: opposed to a counted one or a run on the coordinator
    pushed: bool = False
    #: building, pickling and writing (or queueing) the dispatch, all on
    #: the submitting thread — a solo run's or a service tenant's alike
    #: (None: it never left this process)
    dispatch: Optional[Interval] = None
    #: blobs / bytes the dispatch newly put into the scratch pack
    blobs: int = 0
    bytes: int = 0
    #: blobs / bytes it named that the pack already held from another
    #: run (the service's cross-session dedup)
    found: int = 0
    found_bytes: int = 0
    #: the execution, once its result was consumed; a dropped result
    #: (cancelled behind a divergence, crashed) never gets one
    timing: Optional[UnitTiming] = None
    #: the contained fault that ended a counted attempt
    failure: Optional[Exception] = None


@dataclass
class EpochLife:
    """Everything that happened to one epoch of one segment (or replay)."""

    epoch: int
    #: position within its segment: the key the merge and the pool use
    position: int
    #: the thread-parallel run's slice that produced it (record only)
    tp: Optional[Interval] = None
    attempts: List[Attempt] = field(default_factory=list)
    #: what became of the unit last pushed to the pool — ``accepted``,
    #: ``invalidated`` (by what was logged after its cut), ``lost`` (to
    #: a host fault), ``discarded`` (never reached by the merge) — or
    #: ``inline`` when the coordinator ran it instead (every position at
    #: ``jobs=1``; at any ``jobs``, a verdict judged at the boundary that
    #: first cut it); None when the epoch-parallel side never ran it (a
    #: squashed future)
    fate: Optional[str] = None
    commit: Optional[Interval] = None
    #: why its result was rejected, and the log pruning that followed
    reason: str = ""
    divergence: Optional[Interval] = None
    recovery: Optional[Interval] = None
    #: simulated cycles of the committed (or recovered) execution
    cycles: int = 0


class Lives:
    """One run's epoch lives, in the order the epochs were cut."""

    def __init__(self) -> None:
        self.all: List[EpochLife] = []
        #: index of the current segment's position 0
        self._base = 0

    def __getitem__(self, position: int) -> EpochLife:
        return self.all[self._base + position]

    # ------------------------------------------------------------------
    # Transitions: one call, one field, one journal line.
    # ------------------------------------------------------------------
    def segment(self) -> None:
        """Positions count from here: a new thread-parallel segment."""
        self._base = len(self.all)

    def cut(self, epoch: int, tp: Optional[Interval] = None) -> int:
        """The next position (returned) exists: a record boundary was
        reached, or a replay took up the epoch."""
        life = EpochLife(epoch, len(self.all) - self._base, tp)
        self.all.append(life)
        return life.position

    def dispatched(
        self, position: int, kind: str, pushed: bool, start: float, end: float,
        blobs: int, size: int, found: int = 0, found_size: int = 0,
    ) -> None:
        life = self[position]
        if pushed:
            # A pushed unit's fate is its own, whatever an earlier
            # verdict of the position (an inline one) settled.
            life.fate = None
        elif life.attempts and life.attempts[-1].failure is not None:
            obs_events.emit("fault-retry", position=position)
        life.attempts.append(
            Attempt(kind, pushed, (start, end), blobs, size, found, found_size)
        )

    def executed(self, position: int, timing: UnitTiming) -> None:
        """The latest dispatch's result came home and was consumed."""
        self[position].attempts[-1].timing = timing

    def ran(self, position: int, kind: str, timing: UnitTiming) -> None:
        """It executed in this process: inline, or the serial fallback."""
        if kind.endswith("-serial"):
            obs_events.emit("serial-fallback", position=position)
        else:
            self[position].fate = "inline"
        self[position].attempts.append(Attempt(kind, timing=timing))

    @contextlib.contextmanager
    def here(self, position: int, kind: str) -> Iterator[None]:
        """Time a block as ``position``'s inline execution."""
        timing = UnitTiming(worker_pid=os.getpid(), started=time.perf_counter())
        try:
            yield
        finally:
            timing.wall = time.perf_counter() - timing.started
            self.ran(position, kind, timing)

    def failed(self, position: int, failure) -> None:
        """A counted attempt crashed, hung or raised: contained."""
        self[position].attempts[-1].failure = failure
        obs_events.emit(
            "fault-contained", fault=failure.kind,
            position=failure.position, attempt=failure.attempt,
        )

    def fate(self, position: int, fate: str) -> None:
        """The first verdict on a pushed unit (or an inline run) stands."""
        life = self[position]
        life.fate = life.fate or fate

    def diverged(self, position: int, reason: str, start: float, end: float) -> None:
        life = self[position]
        life.reason, life.divergence = reason, (start, end)
        obs_events.emit("divergence", epoch=life.epoch, reason=reason)

    def recovered(self, position: int, start: float, end: float, cycles: int) -> None:
        life = self[position]
        life.recovery, life.cycles = (start, end), cycles
        obs_events.emit("recovery", epoch=life.epoch, cycles=cycles)

    def committed(self, position: int, start: float, end: float, cycles: int) -> None:
        life = self[position]
        life.commit, life.cycles = (start, end), cycles
        obs_events.emit(
            "epoch-commit", epoch=life.epoch, cycles=cycles,
            **({"recovered": True} if life.recovery else {}),
        )

    # ------------------------------------------------------------------
    # Derived views.
    # ------------------------------------------------------------------
    def _units(self) -> List[EpochLife]:
        """The lives the merge obtained a value for: a unit's timing is
        its last attempt's, its bytes every attempt's."""
        return [life for life in self.all if life.fate in _MERGED]

    def host_summary(self, jobs: int) -> dict:
        """Host-cost accounting: ``RecordResult.host`` / ``ReplayResult.host``.

        The speculation counts are counts of fates, so they partition
        the lives handed to the pool.
        """
        units = self._units()
        timings = [life.attempts[-1].timing for life in units]
        unit_bytes = [sum(a.bytes for a in life.attempts) for life in units]
        attempts = [a for life in self.all for a in life.attempts]
        failures = [a.failure for a in attempts if a.failure is not None]
        fates = [life.fate for life in self.all]
        return {
            "jobs": jobs,
            "units": len(units),
            "unit_wall": [round(t.wall, 6) for t in timings],
            "unit_cpu": [round(t.cpu, 6) for t in timings],
            "unit_pids": [t.worker_pid for t in timings],
            "dispatch_wall": round(
                sum(a.dispatch[1] - a.dispatch[0] for a in attempts if a.dispatch), 6
            ),
            "faults": {
                "crashes": sum(f.kind == "crash" for f in failures),
                "timeouts": sum(f.kind == "timeout" for f in failures),
                "task_errors": sum(f.kind == "task-error" for f in failures),
                "retries": sum(
                    failed.failure is not None and bool(retry.dispatch)
                    for life in self.all
                    for failed, retry in zip(life.attempts, life.attempts[1:])
                ),
                "serial_fallbacks": sum(a.kind.endswith("-serial") for a in attempts),
            },
            "fault_events": [
                {"kind": f.kind, "position": f.position, "attempt": f.attempt,
                 "error": str(f)}
                for f in failures
            ],
            "speculation": {
                "dispatched": sum(f in _MERGED or f == "discarded" for f in fates),
                "accepted": fates.count("accepted"),
                "invalidated": fates.count("invalidated"),
                "discarded": fates.count("lost") + fates.count("discarded"),
            },
            "wire": {
                "bytes_shipped": sum(unit_bytes),
                "blobs_sent": sum(a.blobs for life in units for a in life.attempts),
                "blob_cache_hits": sum(t.blob_cache_hits for t in timings),
                "blob_cache_misses": sum(t.blob_cache_misses for t in timings),
                # Nothing is ever sent twice: constant until a benchmark
                # PR drops the row benchmarks/e2e reads it into.
                "blob_resends": 0,
                "unit_bytes": unit_bytes,
            },
        }

    def distributions(self) -> Dict[str, int]:
        """The ``histo`` group's wall-clock and size histograms, counter-encoded."""
        units = self._units()
        samples = {
            "unit_wall_s": [life.attempts[-1].timing.wall for life in units],
            "unit_bytes": [sum(a.bytes for a in life.attempts) for life in units],
            "commit_wall_s": [
                life.commit[1] - life.commit[0] for life in self.all if life.commit
            ],
        }
        return Counter(
            bucket_key(name, value) for name, values in samples.items() for value in values
        )


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0 if empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def _in_flight(life: EpochLife) -> bool:
    """Its latest attempt went to the pool and has neither come home, nor
    failed, nor been dropped with its position."""
    if not life.attempts:
        return False
    last = life.attempts[-1]
    return (
        last.dispatch is not None and last.timing is None and last.failure is None
        and (life.fate is None or not last.pushed)
    )


def _most_overlapping(spans: List[Interval]) -> int:
    edges = sorted(
        [(start, 1) for start, _ in spans] + [(end, -1) for _, end in spans]
    )
    most = now = 0
    for _, step in edges:
        now += step
        most = max(most, now)
    return most


def lane_summary(runs: Sequence[Lives]) -> Dict[str, float]:
    """What the pool did for a service session's runs — or, given every
    session's, for the service: the ``service`` metrics group, the
    ``/sessions`` lane view and the fleet report.

    A unit is a pool attempt whose execution came home; its latency runs
    from the start of its dispatch to the end of its execution in the
    worker, on the one ``perf_counter`` clock, and ``queue_high_water``
    is the most of those intervals that overlapped. Every crash or
    timeout abandoned the pool, so ``pool_rebuilds`` counts them.
    """
    lives = [life for run in runs for life in run.all]
    attempts = [a for life in lives for a in life.attempts if a.dispatch]
    spans = [
        (a.dispatch[0], a.timing.started + a.timing.wall)
        for a in attempts if a.timing is not None
    ]
    latencies = sorted(end - start for start, end in spans)
    kinds = [a.failure.kind for a in attempts if a.failure is not None]
    return {
        "units": len(spans),
        "inflight": sum(map(_in_flight, lives)),
        "queue_high_water": _most_overlapping(spans),
        "unit_latency_p50": round(_percentile(latencies, 0.50), 6),
        "unit_latency_p99": round(_percentile(latencies, 0.99), 6),
        # The pool has no lane credits and no fair-share cap, so nothing
        # waits on either: constant until a benchmark PR drops the rows
        # benchmarks/e2e reads them into.
        "backpressure_wait": 0.0,
        "fair_share_deficits": 0,
        "pool_rebuilds": kinds.count("crash") + kinds.count("timeout"),
        "blobs_shipped": sum(a.blobs for a in attempts),
        "bytes_shipped": sum(a.bytes for a in attempts),
        "cross_session_hits": sum(a.found for a in attempts),
        "cross_session_bytes_saved": sum(a.found_bytes for a in attempts),
    }


def fleet_summary(sessions: Sequence[Sequence[Lives]]) -> Dict[str, object]:
    """:func:`lane_summary` over every session's runs: ``ServiceReport.fleet``."""
    summary = lane_summary([run for runs in sessions for run in runs])
    wire = {
        key: summary.pop(key) for key in (
            "blobs_shipped", "bytes_shipped",
            "cross_session_hits", "cross_session_bytes_saved",
        )
    }
    return {"sessions": len(sessions), **summary, "wire": wire}


def begin() -> Lives:
    """A run starts; a trace, and a service session, collecting on this
    thread take it."""
    lives = Lives()
    here = obs_metrics.scope()
    if here.trace is not None:
        here.trace.runs.append(lives)
    if here.runs is not None:
        here.runs.append(lives)
    return lives
