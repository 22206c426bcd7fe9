"""Unified observability: epoch-span tracing, run metrics, timeline export.

DoublePlay's value proposition is a *timeline* claim — epochs recorded
in parallel, offset in time, stitched back into one sequential
execution — and this package is how we see it:

* :mod:`repro.obs.spans` — a near-zero-overhead span tracer. Disabled
  (the default) it is a module-level ``None`` check on every
  instrumentation site; enabled (``--trace PATH``) it records
  epoch-lifecycle spans on the coordinator and, piggybacked on the
  ``UnitTiming`` result path, inside worker processes, re-basing worker
  timestamps onto the coordinator clock.
* :mod:`repro.obs.metrics` — a hierarchical, mergeable run-wide counter
  registry. Workers drain their process-local counters into unit
  results; the coordinator merges them with its own and with the host
  executor's wire/fault accounting into one :class:`RunMetrics`
  snapshot exposed on ``RecordResult.metrics`` / ``ReplayResult.metrics``.
* :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``; one track per worker pid plus a
  coordinator track) plus schema validation and the ``repro trace
  summarize`` analysis (overlap ratio, top-N slowest epochs, straggler
  attribution).
* :mod:`repro.obs.histo` — mergeable log-bucketed latency/size
  histograms, encoded as dotted counters so they ride the worker
  round-trip unchanged (p50/p90/p99 via ``RunMetrics.histogram``).
* :mod:`repro.obs.events` — a bounded structured event journal (ring +
  optional JSON-lines sink) emitted at every load-bearing transition;
  ``repro events tail`` reads it.
* :mod:`repro.obs.expo` — the live telemetry hub and its HTTP
  endpoints (``/metrics`` Prometheus text, ``/sessions`` JSON,
  ``/healthz``) behind ``repro serve --telemetry-port``.
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
from repro.obs.spans import (
    SpanRecord,
    Tracer,
    current,
    enabled,
    span,
    start_trace,
    stop_trace,
)

__all__ = [
    "HealthPolicy",
    "HealthReport",
    "LogHistogram",
    "RunMetrics",
    "SpanRecord",
    "Tracer",
    "build_run_metrics",
    "chrome_trace",
    "current",
    "enabled",
    "evaluate_health",
    "load_trace",
    "process_stats",
    "span",
    "start_trace",
    "stop_trace",
    "summarize_trace",
    "validate_trace",
    "write_chrome_trace",
]
