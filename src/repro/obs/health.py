"""Health/SLO evaluation for the record service.

Always-on recording lives or dies by cheap health signals: an operator
must see a stalled lane or a serial-fallback spike *while it happens*,
not in a post-mortem trace. :func:`evaluate` is a pure function from a
telemetry snapshot (produced by
:class:`repro.obs.expo.TelemetryHub.snapshot`) and a
:class:`HealthPolicy` to a :class:`HealthReport` — pure so every
detector is unit-testable on synthetic snapshots, with no service or
clock behind it.

Detectors:

* **stalled-lane** — a running session with at least
  ``min_commits_for_stall`` commits whose time since the last epoch
  commit exceeds ``stall_factor`` × its median inter-commit interval.
  Self-scaling: a slow workload with slow epochs isn't stalled, a fast
  one that went quiet is.
* **admission-wait** — a session waited longer than
  ``max_admission_wait`` seconds for its slot (the service is
  saturated beyond its queueing budget).
* **fault-rate** — contained worker faults (crashes, timeouts, task
  errors) exceed ``fault_budget``. Containment means correctness
  survived, but every fault burned a pool rebuild and wall-clock —
  an unhealthy fleet even when every answer is right.
* **serial-fallback** — serial fallbacks exceed ``fallback_budget``:
  the parallel plane is degrading to jobs=1 behavior.
* **dedup-regression** — with ``check_dedup`` set (the service sets
  it when its units go to a pool and two tenants run the same program)
  and at least ``dedup_min_sessions`` completed, zero cross-session
  cache hits means the fleet-wide blob dedup broke: every tenant is
  re-putting bytes the scratch pack already holds.

The report drives the ``/healthz`` endpoint (200 ok / 503 degraded)
and, for organic degradation — not deliberately injected faults — a
non-zero ``repro serve --verify`` exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"


@dataclass(frozen=True)
class HealthPolicy:
    """SLO thresholds (the defaults are deliberately strict: a clean
    run has zero faults, zero fallbacks, and every lane commits)."""

    #: a lane is stalled past ``factor × median inter-commit interval``
    stall_factor: float = 8.0
    #: ignore lanes with fewer commits (no baseline to judge against)
    min_commits_for_stall: int = 3
    #: a stall verdict needs at least this much absolute silence, so
    #: microsecond-epoch workloads don't flag scheduler jitter
    min_stall_seconds: float = 0.25
    #: admission-wait SLO in seconds (None disables the detector)
    max_admission_wait: Optional[float] = None
    #: contained worker faults allowed before the fleet is degraded
    fault_budget: int = 0
    #: serial fallbacks allowed before the fleet is degraded
    fallback_budget: int = 0
    #: evaluate the dedup detector at all (the service sets it when its
    #: units go to a pool and two tenants run the same program)
    check_dedup: bool = False
    #: completed sessions needed before zero cross-hits means regression
    dedup_min_sessions: int = 4


@dataclass
class HealthReport:
    """One evaluation: overall status plus every firing detector."""

    status: str = STATUS_OK
    problems: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def add(self, detector: str, detail: str, **data) -> None:
        self.status = STATUS_DEGRADED
        problem: Dict[str, object] = {"detector": detector, "detail": detail}
        problem.update(data)
        self.problems.append(problem)

    def to_plain(self) -> Dict[str, object]:
        return {"status": self.status, "problems": list(self.problems)}


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0.0


def evaluate(
    snapshot: Dict[str, object], policy: Optional[HealthPolicy] = None
) -> HealthReport:
    """Judge one telemetry snapshot against the policy (pure)."""
    policy = policy or HealthPolicy()
    report = HealthReport()
    now = float(snapshot.get("now", 0.0))
    sessions = snapshot.get("sessions", [])

    total_faults = 0
    total_fallbacks = 0
    for session in sessions:
        sid = session.get("sid", "?")
        total_faults += int(session.get("faults", 0))
        total_fallbacks += int(session.get("serial_fallbacks", 0))

        wait = float(session.get("admission_wait", 0.0))
        if (
            policy.max_admission_wait is not None
            and wait > policy.max_admission_wait
        ):
            report.add(
                "admission-wait",
                f"session {sid} waited {wait:.3f}s for admission "
                f"(SLO {policy.max_admission_wait:.3f}s)",
                sid=sid,
                wait=round(wait, 6),
            )

        if session.get("status") != "running":
            continue
        intervals = list(session.get("commit_intervals", ()))
        last_commit = session.get("last_commit_t")
        if (
            last_commit is None
            or len(intervals) < policy.min_commits_for_stall
        ):
            continue
        median = _median(intervals)
        silence = now - float(last_commit)
        limit = max(policy.stall_factor * median, policy.min_stall_seconds)
        if silence > limit:
            report.add(
                "stalled-lane",
                f"session {sid}: no epoch commit for {silence:.3f}s "
                f"(median interval {median:.3f}s, limit {limit:.3f}s)",
                sid=sid,
                silence=round(silence, 6),
                median_interval=round(median, 6),
            )

    if total_faults > policy.fault_budget:
        report.add(
            "fault-rate",
            f"{total_faults} contained worker fault(s) exceed the "
            f"budget of {policy.fault_budget}",
            faults=total_faults,
        )
    if total_fallbacks > policy.fallback_budget:
        report.add(
            "serial-fallback",
            f"{total_fallbacks} serial fallback(s) exceed the budget "
            f"of {policy.fallback_budget}",
            serial_fallbacks=total_fallbacks,
        )

    if policy.check_dedup:
        completed = sum(
            1 for session in sessions if session.get("status") == "completed"
        )
        fleet = snapshot.get("fleet", {}) or {}
        wire = fleet.get("wire", {}) or {}
        cross_hits = int(wire.get("cross_session_hits", 0))
        if completed >= policy.dedup_min_sessions and cross_hits == 0:
            report.add(
                "dedup-regression",
                f"{completed} identical sessions completed with zero "
                "cross-session cache hits — fleet blob dedup is not "
                "engaging",
                completed=completed,
            )
    return report
