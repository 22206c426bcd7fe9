"""Table-driven rendering of a run's :class:`RunMetrics` summary.

One declarative row table drives every host-accounting line the CLI
prints after a record or replay — fault containment, wire traffic,
durable-log and flight-recorder accounting. Adding a line of accounting
means adding a row here, not a function in ``cli.py``; both ``record``
and ``replay`` (and the service driver) render through the same
:func:`render_metric_lines`.

Histogram rows render for free: every latency/size distribution in the
run's ``histo`` metrics group (:mod:`repro.obs.histo` — observed where
an epoch executes, or derived from the epoch lives) gets a
``p50/p90/p99`` line, labelled and unit-formatted by
:data:`HISTOGRAM_LABELS` with a plain fallback for names nobody
registered.
"""

from __future__ import annotations

from typing import List

#: One entry per counter-accounting line: a title, the (group, counter)
#: gates that decide whether the line prints at all, and the cells —
#: ``(format, group, counter)`` — it renders from the run's RunMetrics.
SUMMARY_ROWS = (
    {
        "title": "host faults contained",
        "gate": (
            ("faults", "crashes"),
            ("faults", "timeouts"),
            ("faults", "task_errors"),
            ("faults", "retries"),
            ("faults", "serial_fallbacks"),
        ),
        "cells": (
            ("{} crash(es), ", "faults", "crashes"),
            ("{} timeout(s), ", "faults", "timeouts"),
            ("{} task error(s); ", "faults", "task_errors"),
            ("{} retried, ", "faults", "retries"),
            ("{} serial fallback(s)", "faults", "serial_fallbacks"),
        ),
        "suffix": " — recording/verdict unaffected",
    },
    {
        "title": "host wire",
        "gate": (("wire", "blobs_sent"), ("wire", "blob_cache_hits")),
        "cells": (
            ("{} bytes in ", "wire", "bytes_shipped"),
            ("{} blob(s) across ", "wire", "blobs_sent"),
            ("{} unit(s); ", "host", "units"),
            ("{} cache hit(s), ", "wire", "blob_cache_hits"),
            ("{} resend(s)", "wire", "blob_resends"),
        ),
        "suffix": "",
    },
    {
        "title": "durable log",
        "gate": (("durable", "epochs"),),
        "cells": (
            ("{} epoch(s), ", "durable", "epochs"),
            ("{} shard byte(s) -> ", "durable", "shard_bytes"),
            ("{} on disk; ", "durable", "segment_bytes"),
            ("{} group commit(s), ", "durable", "group_commits"),
            ("{} fsync(s), ", "durable", "fsyncs"),
            ("{} blob(s) stored", "durable", "blobs_written"),
        ),
        "suffix": "",
    },
    {
        "title": "flight recorder",
        "gate": (
            ("durable", "window_slides"),
            ("durable", "segments_deleted"),
            ("durable", "pack_compactions"),
        ),
        "cells": (
            ("{} window slide(s) dropped ", "durable", "window_slides"),
            ("{} epoch(s); ", "durable", "window_epochs_dropped"),
            ("{} segment(s) deleted, ", "durable", "segments_deleted"),
            ("{} pack compaction(s); ", "durable", "pack_compactions"),
            ("{} segment + ", "durable", "segment_bytes_reclaimed"),
            ("{} pack byte(s) reclaimed", "durable", "pack_bytes_reclaimed"),
        ),
        "suffix": "",
    },
    {
        "title": "metrics dropped",
        "gate": (("obs", "metrics_dropped"),),
        "cells": (
            ("{} non-numeric value(s) dropped merging worker payloads "
             "(schema drift?)", "obs", "metrics_dropped"),
        ),
        "suffix": "",
    },
)

#: histogram name → (display label, unit) for the quantile lines;
#: unknown names fall back to the raw name and unitless formatting.
HISTOGRAM_LABELS = {
    "epoch_cycles": ("epoch length", "cycles"),
    "unit_wall_s": ("unit latency", "s"),
    "commit_wall_s": ("commit latency", "s"),
    "unit_bytes": ("unit ship size", "bytes"),
}


def _format_value(value: float, unit: str) -> str:
    if unit == "s":
        return f"{value * 1e3:.2f}ms"
    if unit == "bytes":
        if value >= 1024:
            return f"{value / 1024:.1f}KiB"
        return f"{value:.0f}B"
    if unit == "cycles":
        return f"{value:.0f}"
    return f"{value:.4g}"


def render_metric_lines(metrics) -> List[str]:
    """Every summary line the run's metrics justify, in display order."""
    lines: List[str] = []
    for row in SUMMARY_ROWS:
        if not any(metrics.get(group, key) for group, key in row["gate"]):
            continue
        cells = "".join(
            fmt.format(metrics.get(group, key))
            for fmt, group, key in row["cells"]
        )
        lines.append(f"{row['title']}: {cells}{row['suffix']}")
    for name in metrics.histogram_names():
        histogram = metrics.histogram(name)
        if not histogram:
            continue
        label, unit = HISTOGRAM_LABELS.get(name, (name, ""))
        quantiles = histogram.quantiles((0.50, 0.90, 0.99))
        cells = " ".join(
            f"{q}={_format_value(value, unit)}"
            for q, value in quantiles.items()
        )
        lines.append(f"{label}: {cells} (n={histogram.count})")
    return lines


def print_summary(metrics, out, indent: str = "  ") -> None:
    """Render and print (the CLI's one call site per command)."""
    for line in render_metric_lines(metrics):
        print(f"{indent}{line}", file=out)
