"""The fleet scheduler: N sessions' epoch units, one worker pool.

One :class:`FleetScheduler` owns the coordinator-wide ``shared_pool()``
on behalf of every concurrent record/replay session. Each session
registers a *lane* and receives a :class:`SessionDispatcher` — the
object that slots into ``HostExecutor``'s submission seam (see
``repro.host.executor._DirectDispatcher``). Instead of submitting straight
into the worker pool, a session's dispatch lands in its lane's FIFO
queue; an asyncio *pump* task drains the lanes into the pool and the
same loop reads the pool's replies (``loop.add_reader`` on the worker
pipes): the fleet is the pool's single caller, on one thread, with:

* **fair-share scheduling** — deficit round-robin over lanes with
  queued work, with a per-lane in-flight cap of its fair share of the
  pool (work-conserving: leftover capacity goes to whoever has work),
  so one session with many epochs cannot starve the others' heads;
* **bounded backpressure** — a per-lane credit semaphore caps each
  session's outstanding units; a session thread that submits past the
  bound blocks until its own completions free credits (admission
  control at the unit level, measured and surfaced per session);
* **a fleet in-flight bound** — at most ``max_inflight`` units occupy
  the pool at once (the default is what its workers' windows hold), so
  a divergence exit cancels queued proxies before they ship.

**Isolation.** Containment stays per session: each session keeps its
own ``HostExecutor`` (its own retry counters, serial fallback, fault
specs), and the fleet only routes futures. A worker crash fails the
units in that worker's window and the rebuild that follows takes the
rest of the pool with it — inherent to sharing — but each session's
containment then retries *its own* units; other tenants lose
wall-clock, never correctness. Proxy futures returned to sessions are
plain ``concurrent.futures.Future`` objects, so the executor's merge
loop (`result(timeout)`, `cancel()`, harvesting) works unchanged.

**Cross-session dedup accounting.** Every session's dispatches put
their blobs into the same scratch pack (:mod:`repro.host.blobs`), so a
page one session put is never written again for another. Each dispatch
arrives with what building it cost the pack; a blob the pack already
held before the lane ever named it is a cross-session hit, and its
bytes are bytes the fleet never had to write.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.host.pool import _scratch_packs, invalidate_shared_pool, shared_pool
from repro.obs import events as obs_events


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


@dataclass
class _Ticket:
    """One queued unit submission: the real work plus its proxy future."""

    fn: object
    dispatch: object
    proxy: Future
    lane: "_Lane"
    t_submit: float


@dataclass(eq=False)
class _Lane:
    """One session's queue state inside the fleet, and every number the
    fleet keeps about it (the fleet-wide ones are sums over lanes)."""

    sid: str
    #: admission credits: one per outstanding (queued or in-flight)
    #: unit; acquire blocks the session thread at the bound
    credit: threading.Semaphore
    pending: Deque[_Ticket] = field(default_factory=deque)
    inflight: int = 0
    submitted: int = 0
    completed: int = 0
    backpressure_wait: float = 0.0
    backpressure_hits: int = 0
    deficit: int = 0
    latencies: List[float] = field(default_factory=list)
    queue_high_water: int = 0
    cross_hits: int = 0
    cross_bytes_saved: int = 0
    bytes_shipped: int = 0


class SessionDispatcher:
    """One session's handle into the fleet (the executor's dispatcher).

    Implements the submission-path protocol ``HostExecutor`` expects:
    ``submit``/``abandon``. Slot it into a recorder via
    ``DoublePlayConfig(host_dispatcher=...)`` or a replayer via
    ``replay_parallel(dispatcher=...)``.
    """

    def __init__(self, fleet: "FleetScheduler", lane: _Lane):
        self._fleet = fleet
        self._lane = lane

    @property
    def session_id(self) -> str:
        return self._lane.sid

    @property
    def jobs(self) -> int:
        return self._fleet.jobs

    def submit(self, fn, dispatch) -> Future:
        return self._fleet.submit(self._lane, fn, dispatch)

    def abandon(self, kill: bool) -> None:
        self._fleet.rebuild_pool(kill)

    def session_summary(self) -> Dict[str, object]:
        """This session's queueing/wire numbers (for per-session metrics)."""
        return self._fleet.lane_summary(self._lane)


class FleetScheduler:
    """Multiplexes every session's epoch units over one shared pool."""

    def __init__(
        self,
        jobs: int,
        queue_depth: Optional[int] = None,
        max_inflight: Optional[int] = None,
    ):
        self.jobs = max(1, int(jobs))
        #: per-session outstanding-unit bound (admission control); the
        #: default matches the executor's own submission window so a
        #: lone session is never throttled below its solo behavior
        self.queue_depth = max(1, queue_depth or max(2 * self.jobs, 2))
        #: fleet-wide in-flight bound: a shallow pool queue keeps
        #: cancellation effective and fairness decisions meaningful
        self.max_inflight = max(1, max_inflight or max(2 * self.jobs, 2))
        self._lock = threading.Lock()
        self._lanes: Dict[str, _Lane] = {}
        #: released sessions' lanes: the fleet-wide numbers are sums over
        #: every lane there ever was, each kept once, on its lane
        self._retired: List[_Lane] = []
        self._rr: Deque[str] = deque()
        self._inflight = 0
        self._pending_total = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._pump_task: Optional[asyncio.Task] = None
        #: the pool whose pipes the loop reads, and their descriptors
        self._watched = None
        self._fds: List[int] = []
        # ---- fleet-wide accounting with no per-lane twin ----
        self._blobs_shipped = 0
        self._queue_high_water = 0
        self._sessions_registered = 0
        self._rebuilds = 0

    # ------------------------------------------------------------------
    # Lifecycle (called from the service's event loop).
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running loop, start the workers and the pump."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        # Returns once the workers are started: they import and say hello
        # while the first sessions build their programs.
        self._watch(shared_pool(self.jobs))
        self._pump_task = self._loop.create_task(self._pump())

    async def stop(self) -> None:
        """Stop the pump (sessions must already be drained) and delete
        the scratch packs the service's sessions filled."""
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        self._watch(None)
        _scratch_packs.close()

    def register(self, sid: str) -> SessionDispatcher:
        """Create a lane for session ``sid`` and return its dispatcher."""
        with self._lock:
            if sid in self._lanes:
                raise ValueError(f"session id {sid!r} already registered")
            lane = _Lane(sid, threading.Semaphore(self.queue_depth))
            self._lanes[sid] = lane
            self._rr.append(sid)
            self._sessions_registered += 1
        return SessionDispatcher(self, lane)

    def release(self, sid: str) -> None:
        """Retire a finished session's lane; cancel anything still queued."""
        with self._lock:
            lane = self._lanes.pop(sid, None)
            if lane is None:
                return
            self._retired.append(lane)
            try:
                self._rr.remove(sid)
            except ValueError:
                pass
            stale = list(lane.pending)
            lane.pending.clear()
            self._pending_total -= len(stale)
        for ticket in stale:
            ticket.proxy.cancel()
            lane.credit.release()

    # ------------------------------------------------------------------
    # Session-thread entry points (via SessionDispatcher).
    # ------------------------------------------------------------------
    def submit(self, lane: _Lane, fn, dispatch) -> Future:
        """Queue one unit; returns a proxy future. Blocks at the bound."""
        if not lane.credit.acquire(blocking=False):
            # Admission control: this session already has queue_depth
            # units outstanding. Block until one of *its own* completions
            # frees a credit, and account the wait.
            t0 = time.perf_counter()
            lane.credit.acquire()
            wait = time.perf_counter() - t0
            lane.backpressure_hits += 1
            lane.backpressure_wait += wait
            obs_events.emit(
                "session-backpressure", wait=round(wait, 6),
            )
        proxy: Future = Future()
        ticket = _Ticket(
            fn=fn,
            dispatch=dispatch,
            proxy=proxy,
            lane=lane,
            t_submit=time.perf_counter(),
        )
        blobs, size, cross_hits, cross_size = dispatch.placed
        with self._lock:
            lane.bytes_shipped += size
            lane.cross_hits += cross_hits
            lane.cross_bytes_saved += cross_size
            self._blobs_shipped += blobs
            lane.pending.append(ticket)
            lane.submitted += 1
            self._pending_total += 1
            depth = len(lane.pending) + lane.inflight
            if depth > lane.queue_high_water:
                lane.queue_high_water = depth
            total = self._pending_total + self._inflight
            if total > self._queue_high_water:
                self._queue_high_water = total
        self._wake_pump()
        return proxy

    def rebuild_pool(self, kill: bool) -> None:
        """A session's containment abandoned the pool: rebuild for all.

        The shared pool's own lock serializes concurrent rebuild
        requests; a second caller finds the pool already gone and the
        invalidate is a no-op. Other sessions' in-flight units die with
        the pool and resurface as crash failures in *their* containment
        — collateral wall-clock, never shared blame.
        """
        with self._lock:
            self._rebuilds += 1
        invalidate_shared_pool(kill=kill)
        self._wake_pump()

    # ------------------------------------------------------------------
    # The pump: drain lanes into the pool, fairly.
    # ------------------------------------------------------------------
    def _wake_pump(self) -> None:
        loop, wake = self._loop, self._wake
        if loop is None or wake is None:
            return
        try:
            loop.call_soon_threadsafe(wake.set)
        except RuntimeError:
            pass  # loop already closed (a late completion raced stop)

    async def _pump(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            self._drain()

    def _watch(self, pool) -> None:
        """Read ``pool``'s replies from the event loop, and no other pool's.
        The old pool's descriptors go first, closed or not: a rebuilt
        pool's pipes reuse their numbers, and a reader left registered
        under one would shadow the new pipe."""
        if pool is self._watched:
            return
        for fd in self._fds:
            self._loop.remove_reader(fd)
        self._watched = pool
        self._fds = pool.filenos() if pool is not None else []
        for fd in self._fds:
            self._loop.add_reader(fd, pool.pump)

    def _drain(self) -> None:
        """Submit queued tickets until the fleet bound or the queues empty."""
        while True:
            with self._lock:
                ticket = self._next_ticket_locked()
            if ticket is None:
                return
            proxy = ticket.proxy
            if not proxy.set_running_or_notify_cancel():
                # Cancelled while queued (a divergence exit) — drop it.
                self._finish_ticket(ticket, record_latency=False)
                continue
            try:
                pool = shared_pool(self.jobs)
                self._watch(pool)
                real = pool.submit(ticket.fn, ticket.dispatch)
            except Exception as exc:
                # Pool unbuildable or shutting down: the session's
                # containment turns this into a crash failure.
                try:
                    proxy.set_exception(exc)
                except InvalidStateError:
                    pass
                self._finish_ticket(ticket, record_latency=False)
                continue
            real.add_done_callback(
                lambda f, t=ticket: self._on_real_done(t, f)
            )

    def _next_ticket_locked(self) -> Optional[_Ticket]:
        """Pick the next lane's head ticket under deficit round-robin."""
        if self._inflight >= self.max_inflight or self._pending_total == 0:
            return None
        active = sum(1 for lane in self._lanes.values() if lane.pending)
        if active == 0:
            return None
        fair_cap = max(1, self.max_inflight // active)
        chosen: Optional[_Lane] = None
        passed_over: List[_Lane] = []
        # First pass honors each lane's fair share of the pool; the
        # second is work-conserving (leftover capacity goes to whoever
        # still has work, cap or not).
        for honor_cap in (True, False):
            for _ in range(len(self._rr)):
                sid = self._rr[0]
                self._rr.rotate(-1)
                lane = self._lanes[sid]
                if not lane.pending:
                    continue
                if honor_cap and lane.inflight >= fair_cap:
                    passed_over.append(lane)
                    continue
                chosen = lane
                break
            if chosen is not None:
                break
        if chosen is None:
            return None
        for lane in passed_over:
            if lane is not chosen:
                # A fairness deficit: this lane had work queued but was
                # held at its fair-share cap while another lane won the
                # slot. Surfaced per session and fleet-wide.
                lane.deficit += 1
        ticket = chosen.pending.popleft()
        chosen.inflight += 1
        self._inflight += 1
        self._pending_total -= 1
        return ticket

    def _finish_ticket(self, ticket: _Ticket, record_latency: bool) -> None:
        lane = ticket.lane
        with self._lock:
            lane.inflight -= 1
            self._inflight -= 1
            lane.completed += 1
            if record_latency:
                lane.latencies.append(time.perf_counter() - ticket.t_submit)
        lane.credit.release()
        self._wake_pump()

    def _on_real_done(self, ticket: _Ticket, real: Future) -> None:
        """Copy the pool future's outcome onto the session's proxy."""
        result = exc = None
        if real.cancelled():
            # Still queued at another session's rebuild: the unit never
            # ran. Surface an Exception (not CancelledError, which would
            # escape the executor's containment) so the owning session
            # retries it like any crash casualty.
            exc = RuntimeError("fleet pool was rebuilt while this unit was queued")
        else:
            exc = real.exception()
            if exc is None:
                result = real.result()
        try:
            if exc is not None:
                ticket.proxy.set_exception(exc)
            else:
                ticket.proxy.set_result(result)
        except InvalidStateError:
            pass  # proxy already resolved/cancelled; outcome is dropped
        self._finish_ticket(ticket, record_latency=True)

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------
    def lane_summary(self, lane: _Lane) -> Dict[str, object]:
        with self._lock:
            return self._lane_summary_locked(lane)

    def _lane_summary_locked(self, lane: _Lane) -> Dict[str, object]:
        latencies = sorted(lane.latencies)
        return {
            "units": lane.completed,
            "inflight": lane.inflight,
            "pending": len(lane.pending),
            "queue_high_water": lane.queue_high_water,
            "backpressure_hits": lane.backpressure_hits,
            "backpressure_wait": round(lane.backpressure_wait, 6),
            "fair_share_deficits": lane.deficit,
            "unit_latency_p50": round(_percentile(latencies, 0.50), 6),
            "unit_latency_p99": round(_percentile(latencies, 0.99), 6),
            "bytes_shipped": lane.bytes_shipped,
            "cross_session_hits": lane.cross_hits,
            "cross_session_bytes_saved": lane.cross_bytes_saved,
        }

    def live_summary(self) -> Dict[str, Dict[str, object]]:
        """Every registered lane's current state (the ``/sessions`` feed)."""
        with self._lock:
            return {
                sid: self._lane_summary_locked(lane)
                for sid, lane in self._lanes.items()
            }

    def summary(self) -> Dict[str, object]:
        """Fleet-wide queueing and wire accounting (service report)."""
        with self._lock:
            lanes = [*self._retired, *self._lanes.values()]
            latencies = sorted(t for lane in lanes for t in lane.latencies)
            return {
                "jobs": self.jobs,
                "queue_depth": self.queue_depth,
                "max_inflight": self.max_inflight,
                "sessions": self._sessions_registered,
                "units": len(latencies),
                "unit_latency_p50": round(_percentile(latencies, 0.50), 6),
                "unit_latency_p99": round(_percentile(latencies, 0.99), 6),
                "queue_high_water": self._queue_high_water,
                "backpressure_wait": round(
                    sum(lane.backpressure_wait for lane in lanes), 6
                ),
                "fair_share_deficits": sum(lane.deficit for lane in lanes),
                "pool_rebuilds": self._rebuilds,
                "wire": {
                    "bytes_shipped": sum(lane.bytes_shipped for lane in lanes),
                    "blobs_shipped": self._blobs_shipped,
                    "cross_session_hits": sum(lane.cross_hits for lane in lanes),
                    "cross_session_bytes_saved": sum(
                        lane.cross_bytes_saved for lane in lanes
                    ),
                },
            }
