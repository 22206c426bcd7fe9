"""Record-as-a-service: N concurrent sessions, one shared worker pool.

:class:`RecordService` is an admission semaphore plus a thread per
admitted session, on an asyncio loop that also serves the telemetry
endpoint. Each session:

1. waits for an **admission slot** (``max_active`` sessions run at
   once; the wait is measured and reported);
2. runs the ordinary blocking record/replay path on a thread of its own
   inside one private run scope (:func:`repro.obs.metrics.session_scope`:
   its session id, its own counter registry, its own — or no — tracer,
   and the list its runs' epoch lives are collected in), so interleaved
   sessions never bleed counters, journal lines or spans into each
   other. Its units reach the coordinator-wide
   :func:`~repro.host.pool.shared_pool` the way a solo run's do; the
   pool gives each submitting thread a lane and serves the lanes in
   turn, so a session is a lane of it and needs no other scheduler;
3. reports the ``service`` group of its metrics, derived from its lives
   (:func:`repro.obs.lifecycle.lane_summary`), as the fleet report is
   from every session's.

**Determinism contract.** The service changes *where* epoch units
execute and *when* they are admitted — never what they compute. Every
session's recording is bit-identical to the same workload recorded
solo at ``jobs=1`` (the tier-1 parity matrix pins this), including
when fault directives (:mod:`repro.host.faults`) are injected into one
tenant: faults are scoped per session via
``DoublePlayConfig.host_faults``, so one tenant's crashing unit
exercises only that session's retry/serial-fallback containment.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import options
from repro.core.config import DoublePlayConfig
from repro.core.recorder import DoublePlayRecorder
from repro.core.replayer import Replayer
from repro.host.pool import _scratch_packs, shared_pool
from repro.machine.config import MachineConfig
from repro.obs import events as obs_events
from repro.obs import health as obs_health
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.expo import SessionRecord, TelemetryHub, TelemetryServer
from repro.obs.lifecycle import fleet_summary, lane_summary
from repro.workloads import build_workload


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs (the pool's size and the admission bound)."""

    #: worker processes in the shared pool
    jobs: int = 2
    #: sessions allowed to run concurrently (admission control); the
    #: rest wait in the admission queue with their wait time measured
    max_active: int = 8
    #: serve ``/metrics`` + ``/sessions`` + ``/healthz`` on this port
    #: (0 = an ephemeral port, reported on the service after start;
    #: None = no HTTP endpoint)
    telemetry_port: Optional[int] = None
    #: keep the telemetry endpoint up this many seconds after the last
    #: session completes (scrape window for smoke tests / operators;
    #: :meth:`RecordService.end_linger` closes it sooner)
    telemetry_linger: float = 0.0
    #: append the event journal as JSON lines here (``repro events tail``);
    #: None = no journal
    events_path: Optional[str] = None


@dataclass(frozen=True)
class SessionRequest:
    """One tenant's record (or replay) job."""

    #: session id (unique per service run)
    sid: str
    #: workload name (``repro.workloads.build_workload``)
    workload: str = "fft"
    workers: int = 2
    scale: int = 1
    seed: int = 0
    #: ``record`` or ``replay``
    kind: str = "record"
    #: explicit epoch length; None = derive from a native run as
    #: ``max(native.duration // epoch_divisor, 500)``
    epoch_cycles: Optional[int] = None
    epoch_divisor: int = 12
    #: per-tenant fault directives (:mod:`repro.host.faults` grammar).
    #: None = the service's own ``host_faults`` runtime option; ``""`` =
    #: explicitly no injection for this tenant
    faults: Optional[str] = None
    #: collect a per-session span trace (isolated from other sessions)
    trace: bool = False
    #: for ``kind="replay"``: the recording to replay, as the plain
    #: dict from ``Recording.to_plain()``
    recording_plain: Optional[dict] = None


@dataclass
class SessionResult:
    """What one session produced, plus its service-level accounting."""

    sid: str
    kind: str
    ok: bool
    error: Optional[str] = None
    #: the recording as a plain dict (record sessions) — the parity
    #: surface: bit-identical to a solo jobs=1 recording
    recording_plain: Optional[dict] = None
    #: replay sessions: did the replay verify against the recording?
    verified: Optional[bool] = None
    epochs: int = 0
    #: seconds spent waiting for an admission slot
    admission_wait: float = 0.0
    #: wall-clock seconds inside the session body (after admission)
    duration: float = 0.0
    #: the run's merged metrics snapshot (includes the ``service`` group)
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: per-session span trace (only when the request asked for one)
    tracer: Optional[obs_spans.Tracer] = None


@dataclass
class ServiceReport:
    """One service run: every session's result plus the pool's accounting."""

    results: List[SessionResult]
    fleet: Dict[str, object]
    elapsed: float
    #: the health verdict at end of run (``/healthz`` shape)
    health: Optional[Dict[str, object]] = None
    #: bound telemetry port when the run served HTTP endpoints
    telemetry_port: Optional[int] = None

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def healthy(self) -> bool:
        return self.health is None or self.health.get("status") == "ok"

    def sessions_per_sec(self) -> float:
        return len(self.results) / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> Dict[str, object]:
        waits = sorted(result.admission_wait for result in self.results)
        mid = waits[len(waits) // 2] if waits else 0.0
        summary: Dict[str, object] = {
            "sessions": len(self.results),
            "ok": sum(1 for result in self.results if result.ok),
            "elapsed": round(self.elapsed, 6),
            "sessions_per_sec": round(self.sessions_per_sec(), 3),
            "admission_wait_p50": round(mid, 6),
            "admission_wait_max": round(waits[-1] if waits else 0.0, 6),
            "fleet": self.fleet,
        }
        if self.health is not None:
            summary["health"] = self.health
        return summary


class RecordService:
    """Async coordinator: admission control and a thread per admitted session."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        #: the live telemetry — persistent across :meth:`serve` calls on
        #: one service, so a record phase followed by a replay phase
        #: exposes both through one ``/metrics`` history
        self.hub = TelemetryHub()
        self._linger_over = threading.Event()

    # ------------------------------------------------------------------
    # Entry points.
    # ------------------------------------------------------------------
    def end_linger(self) -> None:
        """Close this serve's scrape window now, or skip it if it has not
        opened yet (any thread)."""
        self._linger_over.set()

    def run(self, requests: Sequence[SessionRequest]) -> ServiceReport:
        """Synchronous wrapper: serve every request, return the report."""
        return asyncio.run(self.serve(requests))

    async def serve(self, requests: Sequence[SessionRequest]) -> ServiceReport:
        """Run every session concurrently over one shared pool.

        Raises ``ValueError`` before anything runs when two requests
        share a session id.
        """
        config = self.config
        sids = [request.sid for request in requests]
        if len(set(sids)) < len(sids):
            raise ValueError(f"duplicate session ids in {sids}")
        jobs = max(1, config.jobs)
        # Cross-session dedup needs a pool and two tenants that put the
        # same program's blobs into it.
        programs = {
            (request.workload, request.workers, request.scale, request.seed)
            for request in requests
        }
        self.hub.policy = obs_health.HealthPolicy(
            check_dedup=jobs > 1 and len(programs) < len(requests)
        )
        #: session id -> its record, from its admission on
        records: Dict[str, SessionRecord] = {}
        self.hub.attach(records)
        if config.events_path is not None:
            obs_events.install_journal(config.events_path)
        server: Optional[TelemetryServer] = None
        bound_port: Optional[int] = None
        if config.telemetry_port is not None:
            server = TelemetryServer(self.hub, port=config.telemetry_port)
            bound_port = await server.start()
        if jobs > 1:
            # Returns once the workers are started: they import and say
            # hello while the first sessions build their programs. At
            # jobs=1 every session runs inline and no pool is started.
            shared_pool(jobs)
        loop = asyncio.get_running_loop()
        admission = asyncio.Semaphore(max(1, config.max_active))
        # Session bodies are blocking (the ordinary record/replay path);
        # each admitted one runs on a thread of this pool.
        threads = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, config.max_active),
            thread_name_prefix="repro-session",
        )
        t0 = time.perf_counter()
        elapsed = 0.0
        try:
            with options.run(host_jobs=jobs):
                results = await asyncio.gather(
                    *(
                        self._session(request, records, admission, loop, threads)
                        for request in requests
                    )
                )
            # The scrape window below is idle time, not session work:
            # stop the throughput clock before lingering.
            elapsed = time.perf_counter() - t0
            if server is not None and config.telemetry_linger > 0:
                # Scrape window: sessions are done but the endpoint stays
                # up so operators/smoke tests can read the final state,
                # until the time is up or the owner calls end_linger().
                await loop.run_in_executor(
                    threads, self._linger_over.wait, config.telemetry_linger
                )
        finally:
            if not elapsed:
                elapsed = time.perf_counter() - t0
            self._linger_over.set()  # a cancelled serve must not wait it out
            threads.shutdown(wait=True)
            _scratch_packs.close()  # what the service's sessions filled
            self._linger_over.clear()
            if server is not None:
                await server.stop()
            health = self.hub.evaluate().to_plain()
            self.hub.close()
            if config.events_path is not None:
                obs_events.uninstall_journal()
        return ServiceReport(
            results=list(results),
            fleet=fleet_summary([record.runs for record in records.values()]),
            elapsed=elapsed,
            health=health,
            telemetry_port=bound_port,
        )

    # ------------------------------------------------------------------
    # One session.
    # ------------------------------------------------------------------
    async def _session(
        self,
        request: SessionRequest,
        records: Dict[str, SessionRecord],
        admission: asyncio.Semaphore,
        loop: asyncio.AbstractEventLoop,
        threads: concurrent.futures.ThreadPoolExecutor,
    ) -> SessionResult:
        t_arrive = time.perf_counter()
        async with admission:
            record = records[request.sid] = SessionRecord(
                request.sid, time.perf_counter() - t_arrive
            )
            obs_events.emit(
                "session-admitted", sid=request.sid,
                wait=round(record.admission_wait, 6),
            )
            # copy_context: every session thread inherits the options
            # resolved once for the service run, as asyncio.to_thread would.
            result = await loop.run_in_executor(
                threads, contextvars.copy_context().run,
                self._session_body, request, record.runs,
            )
            result.admission_wait = record.admission_wait
            record.result = result
            obs_events.emit(
                "session-completed", sid=request.sid, ok=result.ok,
                epochs=result.epochs, duration=round(result.duration, 6),
                lane=result.metrics.get("service") or {}, error=result.error,
            )
            return result

    def _session_body(self, request: SessionRequest, runs: list) -> SessionResult:
        """The blocking session body (runs on a session thread)."""
        t0 = time.perf_counter()
        result = SessionResult(sid=request.sid, kind=request.kind, ok=False)
        result.tracer = obs_spans.Tracer() if request.trace else None
        # One private run scope: this thread's counters, the session id
        # on every line it journals (epoch commits, contained faults),
        # its tracer — explicitly none unless asked, so nothing bleeds
        # into another session or the caller's trace — and its lives.
        with obs_metrics.session_scope(request.sid, result.tracer, runs):
            try:
                if request.kind == "record":
                    self._run_record(request, result)
                elif request.kind == "replay":
                    self._run_replay(request, result)
                else:
                    raise ValueError(f"unknown session kind {request.kind!r}")
                result.ok = result.error is None
            except Exception as exc:  # a failed tenant, not a failed service
                result.error = f"{type(exc).__name__}: {exc}"
        if result.metrics:
            result.metrics["service"] = lane_summary(runs)
        result.duration = time.perf_counter() - t0
        return result

    def _build(self, request: SessionRequest):
        instance = build_workload(
            request.workload,
            workers=request.workers,
            scale=request.scale,
            seed=request.seed,
        )
        machine = MachineConfig(cores=request.workers)
        epoch_cycles = request.epoch_cycles
        if epoch_cycles is None:
            from repro.baselines import run_native

            native = run_native(instance.image, instance.setup, machine)
            epoch_cycles = max(
                native.duration // max(request.epoch_divisor, 1), 500
            )
        return instance, machine, epoch_cycles

    def _run_record(self, request: SessionRequest, result: SessionResult) -> None:
        instance, machine, epoch_cycles = self._build(request)
        config = DoublePlayConfig(
            machine=machine,
            epoch_cycles=epoch_cycles,
            host_faults=request.faults,
        )
        record = DoublePlayRecorder(instance.image, instance.setup, config).record()
        result.recording_plain = record.recording.to_plain()
        result.epochs = record.recording.epoch_count()
        result.metrics = record.metrics.snapshot()

    def _run_replay(self, request: SessionRequest, result: SessionResult) -> None:
        if request.recording_plain is None:
            raise ValueError("replay session requires recording_plain")
        instance, machine, _ = self._build(request)
        from repro.record.recording import Recording

        recording = Recording.load_plain(
            request.recording_plain, instance.image, instance.setup, machine
        )
        replayer = Replayer(instance.image, machine)
        replayer.materialize_checkpoints(recording)
        outcome = replayer.replay_parallel(
            recording,
            jobs=options.current().host_jobs,
            fault_specs=request.faults,
        )
        result.verified = outcome.verified
        result.epochs = recording.epoch_count()
        result.metrics = outcome.metrics.snapshot()
        if not outcome.verified:
            result.error = f"replay diverged: {outcome.details}"
