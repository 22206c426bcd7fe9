"""Live metrics exposition: the telemetry hub and its HTTP endpoints.

:class:`TelemetryHub` is the mutable, thread-safe state behind the
service's live telemetry. It has one feed, the **event journal**
(:mod:`repro.obs.events`): the hub subscribes as a listener and derives
per-session state — admission wait, epoch commit counts, inter-commit
intervals, contained-fault counts, the completion verdict and the
lane's final summary — from the same stream an operator tails, so there
is one source of truth. A running session's lane (units in flight,
queue high water, unit latency) and the fleet totals are derived from
the epoch lives the sessions' run scopes collect
(:func:`~repro.obs.lifecycle.lane_summary`) whenever a snapshot is
taken, so an unscraped hub does no aggregation work.

:class:`TelemetryServer` exposes the hub over HTTP on the service's
own asyncio loop (stdlib only, no framework):

* ``GET /metrics`` — Prometheus text exposition: fleet counters and
  gauges, admission-wait as a cumulative-bucket histogram, and
  per-session epoch/unit latency quantiles;
* ``GET /sessions`` — per-lane JSON (status, inflight, queue high
  water, latency quantiles) plus the fleet summary — the payload
  ``repro top`` renders;
* ``GET /healthz`` — the :mod:`repro.obs.health` verdict; HTTP 200
  when ok, 503 when degraded.

Nothing here may ever influence an execution: the hub observes
transitions that already happened, and the server reads hub snapshots.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import health as obs_health
from repro.obs.histo import LogHistogram
from repro.obs.lifecycle import fleet_summary, lane_summary

_QUANTILES = (0.50, 0.90, 0.99)


@dataclass
class _SessionView:
    """One session's accumulated telemetry (hub-internal)."""

    sid: str
    admitted_t: float
    status: str = "running"
    admission_wait: float = 0.0
    completed_t: Optional[float] = None
    ok: Optional[bool] = None
    epochs: int = 0
    last_commit_t: Optional[float] = None
    #: recent inter-commit gaps (the stall detector's baseline)
    commit_intervals: deque = field(default_factory=lambda: deque(maxlen=32))
    interval_hist: LogHistogram = field(default_factory=LogHistogram)
    faults: int = 0
    serial_fallbacks: int = 0
    duration: float = 0.0
    #: the lane's final queueing/wire summary (set at completion)
    summary: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None

    def to_plain(self) -> Dict[str, object]:
        return {
            "sid": self.sid,
            "status": self.status,
            "admission_wait": round(self.admission_wait, 6),
            "epochs": self.epochs,
            "last_commit_t": self.last_commit_t,
            "commit_intervals": [round(gap, 6) for gap in self.commit_intervals],
            "epoch_interval": {
                label: round(value, 6)
                for label, value in self.interval_hist.quantiles(_QUANTILES).items()
            },
            "faults": self.faults,
            "serial_fallbacks": self.serial_fallbacks,
            "duration": round(self.duration, 6),
            "ok": self.ok,
            "error": self.error,
        }


class TelemetryHub:
    """Thread-safe aggregation of fleet + per-session telemetry."""

    def __init__(self, policy: Optional[obs_health.HealthPolicy] = None):
        self.policy = policy or obs_health.HealthPolicy()
        self._lock = threading.RLock()
        self._sessions: Dict[str, _SessionView] = {}
        #: the current serve's session id -> the lives its runs began
        self._lanes: Dict[str, list] = {}
        self.origin = time.perf_counter()
        self.admission_hist = LogHistogram()

    def now(self) -> float:
        return time.perf_counter() - self.origin

    # ------------------------------------------------------------------
    # Feeding (service + journal).
    # ------------------------------------------------------------------
    def attach_lanes(self, lanes: Dict[str, list]) -> None:
        self._lanes = lanes

    def _view(self, sid: str) -> _SessionView:
        view = self._sessions.get(sid)
        if view is None:
            view = self._sessions[sid] = _SessionView(sid, self.now())
        return view

    def ingest_event(self, event: Dict[str, object]) -> None:
        """Journal listener: derive live state from the event stream."""
        kind = event.get("kind")
        sid = event.get("sid")
        if sid is None:
            return
        with self._lock:
            view = self._view(str(sid))
            if kind == "epoch-commit":
                now = self.now()
                if view.last_commit_t is not None:
                    gap = now - view.last_commit_t
                    view.commit_intervals.append(gap)
                    view.interval_hist.observe(gap)
                view.last_commit_t = now
                view.epochs += 1
            elif kind == "fault-contained":
                view.faults += 1
            elif kind == "serial-fallback":
                view.serial_fallbacks += 1
            elif kind == "session-admitted":
                view.admission_wait = event["wait"]
                self.admission_hist.observe(event["wait"])
            elif kind == "session-completed":
                view.status = "completed" if event["ok"] else "failed"
                view.completed_t = self.now()
                view.ok = event["ok"]
                # A replay commits nothing: its epochs are the recording's.
                view.epochs = event["epochs"]
                view.duration = event["duration"]
                view.summary = dict(event["lane"])
                view.error = event["error"]

    # ------------------------------------------------------------------
    # Reading (endpoints, health, ``repro top``).
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        lanes = dict(self._lanes)
        with self._lock:
            sessions = []
            for sid in sorted(self._sessions):
                view = self._sessions[sid]
                plain = view.to_plain()
                running = view.status == "running" and sid in lanes
                plain["lane"] = (
                    lane_summary(lanes[sid]) if running else dict(view.summary)
                )
                sessions.append(plain)
            status = [view.status for view in self._sessions.values()]
            return {
                "now": self.now(),
                "sessions": sessions,
                "registered": len(status),
                "running": status.count("running"),
                "completed": status.count("completed"),
                "failed": status.count("failed"),
                "admission_wait": {
                    label: round(value, 6)
                    for label, value in self.admission_hist.quantiles(
                        _QUANTILES
                    ).items()
                },
                "fleet": fleet_summary(list(lanes.values())) if lanes else {},
            }

    def evaluate(self) -> obs_health.HealthReport:
        return obs_health.evaluate(self.snapshot(), self.policy)

    # ------------------------------------------------------------------
    def prometheus_text(self) -> str:
        """Render the current snapshot in Prometheus text exposition."""
        snap = self.snapshot()
        lines: List[str] = []

        def metric(name: str, kind: str, help_text: str) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        metric("repro_up", "gauge", "telemetry endpoint liveness")
        lines.append("repro_up 1")
        metric(
            "repro_sessions_registered_total", "counter",
            "sessions ever registered with the service",
        )
        lines.append(f"repro_sessions_registered_total {snap['registered']}")
        metric(
            "repro_sessions_completed_total", "counter",
            "sessions finished successfully",
        )
        lines.append(f"repro_sessions_completed_total {snap['completed']}")
        metric(
            "repro_sessions_failed_total", "counter", "sessions that failed"
        )
        lines.append(f"repro_sessions_failed_total {snap['failed']}")
        metric("repro_sessions_running", "gauge", "sessions currently running")
        lines.append(f"repro_sessions_running {snap['running']}")

        metric(
            "repro_admission_wait_seconds", "histogram",
            "seconds sessions waited for an admission slot",
        )
        with self._lock:
            cumulative = list(self.admission_hist.cumulative_buckets())
            total = self.admission_hist.count
        for upper, count in cumulative:
            lines.append(
                f'repro_admission_wait_seconds_bucket{{le="{upper:.6g}"}} {count}'
            )
        lines.append(f'repro_admission_wait_seconds_bucket{{le="+Inf"}} {total}')
        lines.append(f"repro_admission_wait_seconds_count {total}")

        fleet = snap.get("fleet") or {}
        if fleet:
            wire = fleet.get("wire", {}) or {}
            metric("repro_fleet_units_total", "counter", "units the fleet ran")
            lines.append(f"repro_fleet_units_total {fleet.get('units', 0)}")
            metric(
                "repro_fleet_pool_rebuilds_total", "counter",
                "shared-pool rebuilds after contained faults",
            )
            lines.append(
                f"repro_fleet_pool_rebuilds_total {fleet.get('pool_rebuilds', 0)}"
            )
            metric(
                "repro_fleet_bytes_shipped_total", "counter",
                "blob bytes put into the scratch pack for workers",
            )
            lines.append(
                f"repro_fleet_bytes_shipped_total {wire.get('bytes_shipped', 0)}"
            )
            metric(
                "repro_fleet_cross_session_hits_total", "counter",
                "dispatch blobs the scratch pack held from another session",
            )
            lines.append(
                "repro_fleet_cross_session_hits_total "
                f"{wire.get('cross_session_hits', 0)}"
            )
            metric(
                "repro_fleet_unit_latency_seconds", "summary",
                "fleet-wide unit dispatch-to-complete latency",
            )
            for q in ("p50", "p99"):
                value = fleet.get(f"unit_latency_{q}", 0.0)
                lines.append(
                    f'repro_fleet_unit_latency_seconds{{quantile="0.{q[1:]}"}} '
                    f"{value}"
                )

        metric(
            "repro_session_epochs_total", "counter",
            "epochs committed per session",
        )
        metric(
            "repro_session_faults_total", "counter",
            "contained worker faults attributed to the session",
        )
        metric(
            "repro_session_inflight", "gauge",
            "units the session has in flight",
        )
        metric(
            "repro_session_unit_latency_seconds", "summary",
            "per-session unit dispatch-to-complete latency",
        )
        metric(
            "repro_session_epoch_interval_seconds", "summary",
            "per-session wall seconds between epoch commits",
        )
        for session in snap["sessions"]:
            sid = session["sid"]
            lane = session.get("lane") or {}
            lines.append(
                f'repro_session_epochs_total{{session="{sid}"}} '
                f"{session['epochs']}"
            )
            lines.append(
                f'repro_session_faults_total{{session="{sid}"}} '
                f"{session['faults']}"
            )
            lines.append(
                f'repro_session_inflight{{session="{sid}"}} '
                f"{lane.get('inflight', 0)}"
            )
            for q_label, q_key in (("0.5", "unit_latency_p50"), ("0.99", "unit_latency_p99")):
                lines.append(
                    f'repro_session_unit_latency_seconds{{session="{sid}",'
                    f'quantile="{q_label}"}} {lane.get(q_key, 0.0)}'
                )
            interval = session.get("epoch_interval", {})
            for q_label, q_key in (("0.5", "p50"), ("0.99", "p99")):
                lines.append(
                    f'repro_session_epoch_interval_seconds{{session="{sid}",'
                    f'quantile="{q_label}"}} {interval.get(q_key, 0.0)}'
                )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The HTTP endpoint (asyncio, stdlib only).
# ----------------------------------------------------------------------
class TelemetryServer:
    """Serves ``/metrics``, ``/sessions`` and ``/healthz`` for one hub."""

    def __init__(self, hub: TelemetryHub, port: int = 0, host: str = "127.0.0.1"):
        self.hub = hub
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> int:
        """Bind and start serving; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def _route(self, path: str):
        """``(status, content_type, body)`` for one request path."""
        if path == "/metrics":
            return 200, "text/plain; version=0.0.4", self.hub.prometheus_text()
        if path == "/sessions":
            return (
                200,
                "application/json",
                json.dumps(self.hub.snapshot(), sort_keys=True) + "\n",
            )
        if path == "/healthz":
            report = self.hub.evaluate()
            status = 200 if report.ok else 503
            return (
                status,
                "application/json",
                json.dumps(report.to_plain(), sort_keys=True) + "\n",
            )
        return 404, "text/plain", "not found\n"

    async def _handle(self, reader, writer) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5)
            parts = request_line.decode("latin-1").split()
            # Drain headers; telemetry requests carry no bodies.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5)
                if not line.strip():
                    break
            if len(parts) < 2 or parts[0] != "GET":
                status, ctype, body = 405, "text/plain", "method not allowed\n"
            else:
                status, ctype, body = self._route(parts[1].split("?", 1)[0])
            reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed",
                      503: "Service Unavailable"}.get(status, "OK")
            payload = body.encode()
            writer.write(
                (
                    f"HTTP/1.1 {status} {reason}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + payload
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass  # a hung or vanished scraper must never hurt the service
        finally:
            try:
                writer.close()
            except Exception:
                pass


def http_get(url: str, timeout: float = 5.0) -> str:
    """Fetch one telemetry URL (``repro top`` / smoke tooling)."""
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as response:
        return response.read().decode()
