"""Unified observability: one epoch-lifecycle record, and views over it.

DoublePlay's value proposition is a *timeline* claim — epochs recorded
in parallel, offset in time, stitched back into one sequential
execution — and its unit of everything is the epoch. The contract here
is: *a fact about an epoch is written once, at the transition that
creates it; everything an operator or a benchmark reads is derived.*

* :mod:`repro.obs.lifecycle` — the write side. One ``EpochLife`` per
  (segment, position), filled by one call per stage transition in the
  recorder, the replayer, the host executor and (through the
  ``UnitTiming`` a unit result carries home) the workers; always on,
  O(epochs). Host accounting (``RecordResult.host``), the wall-clock
  histograms, the journal's epoch-scoped lines and the service's live
  per-session rows are derived there.
* :mod:`repro.obs.spans` — the span view of the lives plus the switch
  (``start_trace`` / ``stop_trace``, ``--trace PATH``) that says "export
  a timeline at the end"; nothing on the run path writes a span.
* :mod:`repro.obs.metrics` — the thread's run scope (session id,
  counter registry, tracer) and the mergeable run-wide counters: O(1)
  sums that are not facts about one epoch. Workers drain theirs into
  unit results; a run's counters, host accounting and histograms form
  one :class:`RunMetrics` snapshot on ``RecordResult.metrics`` /
  ``ReplayResult.metrics``.
* :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``; one track per worker pid plus a
  coordinator track) plus schema validation and the ``repro trace
  summarize`` analysis (overlap ratio, top-N slowest epochs, straggler
  attribution).
* :mod:`repro.obs.histo` — mergeable log-bucketed histograms, encoded
  as dotted counters (p50/p90/p99 via ``RunMetrics.histogram``).
* :mod:`repro.obs.events` — the structured event journal: stamped
  events appended to a JSON-lines sink, installed by ``repro serve
  --events``; ``repro events tail`` reads it. Nothing in the process
  reads it back.
* :mod:`repro.obs.expo` — the live telemetry hub, which derives every
  session row from the session's epoch lives and its result when
  scraped, and its HTTP endpoints (``/metrics`` Prometheus text,
  ``/sessions`` JSON, ``/healthz``) behind ``repro serve
  --telemetry-port``.
* :mod:`repro.obs.health` — pure SLO evaluation (stalled lanes,
  admission-wait breach, fault/fallback budgets, dedup regression)
  driving ``/healthz`` and the service ``--verify`` exit.
* :mod:`repro.obs.summary` — the table-driven CLI summary renderer
  over :class:`RunMetrics` groups and histograms.

Nothing here may ever influence an execution: recordings and replay
verdicts are bit-identical with telemetry on or off, at any jobs count.
"""

from repro.obs.export import (
    chrome_trace,
    load_trace,
    summarize_trace,
    validate_trace,
    write_chrome_trace,
)
from repro.obs.health import HealthPolicy, HealthReport
from repro.obs.health import evaluate as evaluate_health
from repro.obs.histo import LogHistogram
from repro.obs.metrics import RunMetrics, build_run_metrics, process_stats
from repro.obs.lifecycle import EpochLife, Lives
from repro.obs.spans import SpanRecord, Tracer, enabled, start_trace, stop_trace

__all__ = [
    "EpochLife",
    "HealthPolicy",
    "HealthReport",
    "Lives",
    "LogHistogram",
    "RunMetrics",
    "SpanRecord",
    "Tracer",
    "build_run_metrics",
    "chrome_trace",
    "enabled",
    "evaluate_health",
    "load_trace",
    "process_stats",
    "start_trace",
    "stop_trace",
    "summarize_trace",
    "validate_trace",
    "write_chrome_trace",
]
