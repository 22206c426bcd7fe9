"""Live metrics exposition: the telemetry hub and its HTTP endpoints.

:class:`TelemetryHub` derives the service's live telemetry, whenever a
snapshot is taken, from one :class:`SessionRecord` per admitted session
of the current serve — the epoch lives its runs began, its admission
wait and, once done, its ``SessionResult``: epoch commits and the
inter-commit intervals from ``EpochLife.commit``, contained faults and
serial fallbacks from the attempts, the lane (units in flight, queue
high water, unit latency) and the fleet totals from
:func:`~repro.obs.lifecycle.lane_summary`. So an unscraped hub does no
work, and it holds no second copy of anything: a session of an earlier
serve is kept as the plain row of the snapshot taken at that serve's
end, and no lives outlive their serve.

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

Nothing here may ever influence an execution: the hub reads
transitions that already happened, and the server reads hub snapshots.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import health as obs_health
from repro.obs.histo import LogHistogram, bucket_index
from repro.obs.lifecycle import Lives, fleet_summary, lane_summary

_QUANTILES = (0.50, 0.90, 0.99)
#: inter-commit intervals a row carries (the stall detector's window)
_RECENT_INTERVALS = 32


@dataclass
class SessionRecord:
    """One admitted session of the current serve: all its row derives from."""

    sid: str
    #: seconds it waited for an admission slot
    admission_wait: float
    #: the epoch lives its runs have begun so far
    runs: List[Lives] = field(default_factory=list)
    #: its ``SessionResult``, once the session is done
    result: Optional[object] = None


def _quantiles(histogram: LogHistogram) -> Dict[str, float]:
    return {
        label: round(value, 6)
        for label, value in histogram.quantiles(_QUANTILES).items()
    }


def _histogram(values) -> LogHistogram:
    return LogHistogram(Counter(map(bucket_index, values)))


def _label(value: str) -> str:
    """A Prometheus label value, escaped as the text format requires."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class TelemetryHub:
    """Per-session and fleet telemetry, derived when read."""

    def __init__(self) -> None:
        #: the SLOs ``/healthz`` judges by (the service sets it per serve)
        self.policy = obs_health.HealthPolicy()
        #: the current serve's admitted sessions, by id
        self._records: Dict[str, SessionRecord] = {}
        #: earlier serves' sessions: the rows of each one's final snapshot
        self._rows: Dict[str, Dict[str, object]] = {}
        self.origin = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self.origin

    # ------------------------------------------------------------------
    # The serve's lifetime.
    # ------------------------------------------------------------------
    def attach(self, records: Dict[str, SessionRecord]) -> None:
        """A serve starts: its sessions are admitted into ``records``."""
        self._records = records

    def close(self) -> Dict[str, object]:
        """The serve is over: return its final snapshot, keep that
        snapshot's rows and let go of the serve's lives."""
        snapshot = self.snapshot()
        self._rows.update((row["sid"], row) for row in snapshot["sessions"])
        self._records = {}
        return snapshot

    # ------------------------------------------------------------------
    # Reading (endpoints, health, ``repro top``).
    # ------------------------------------------------------------------
    def _row(self, record: SessionRecord) -> Dict[str, object]:
        lives = [life for run in record.runs for life in run.all]
        commits = sorted(life.commit[1] for life in lives if life.commit)
        gaps = [later - earlier for earlier, later in zip(commits, commits[1:])]
        attempts = [attempt for life in lives for attempt in life.attempts]
        result = record.result
        status = "running" if result is None else (
            "completed" if result.ok else "failed"
        )
        replayed = result is not None and result.kind == "replay"
        return {
            "sid": record.sid,
            "status": status,
            "admission_wait": round(record.admission_wait, 6),
            # A replay commits nothing: its epochs are the recording's.
            "epochs": result.epochs if replayed else len(commits),
            "last_commit_t": commits[-1] - self.origin if commits else None,
            "commit_intervals": [
                round(gap, 6) for gap in gaps[-_RECENT_INTERVALS:]
            ],
            "epoch_interval": _quantiles(_histogram(gaps)),
            "faults": sum(a.failure is not None for a in attempts),
            "serial_fallbacks": sum(a.kind.endswith("-serial") for a in attempts),
            "duration": round(result.duration, 6) if result else 0.0,
            "ok": result.ok if result else None,
            "error": result.error if result else None,
            "lane": lane_summary(record.runs),
        }

    def snapshot(self) -> Dict[str, object]:
        records = dict(self._records)
        rows = dict(self._rows)
        rows.update((sid, self._row(record)) for sid, record in records.items())
        sessions = [rows[sid] for sid in sorted(rows)]
        status = [row["status"] for row in sessions]
        waits = _histogram(row["admission_wait"] for row in sessions)
        return {
            "now": self.now(),
            "sessions": sessions,
            "registered": len(status),
            "running": status.count("running"),
            "completed": status.count("completed"),
            "failed": status.count("failed"),
            "admission_wait": _quantiles(waits),
            "fleet": (
                fleet_summary([record.runs for record in records.values()])
                if records else {}
            ),
        }

    def evaluate(self) -> obs_health.HealthReport:
        """The health verdict on the current serve's sessions: rows kept
        from earlier serves are listed, never judged again."""
        snapshot = self.snapshot()
        snapshot["sessions"] = [
            row for row in snapshot["sessions"] if row["sid"] in self._records
        ]
        return obs_health.evaluate(snapshot, self.policy)

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
        waits = _histogram(row["admission_wait"] for row in snap["sessions"])
        total = waits.count
        for upper, count in waits.cumulative_buckets():
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
            sid = _label(session["sid"])
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
