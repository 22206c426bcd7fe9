"""Chrome trace-event export, schema validation, and timeline analysis.

The exported payload is the `Trace Event Format`_ ``{"traceEvents":
[...]}`` JSON that Perfetto and ``chrome://tracing`` load directly:

* one ``"M"`` (metadata) pair per track naming the process
  ("coordinator" / "worker <pid>") and pinning the sort order
  (coordinator on top, workers below in first-seen order);
* one ``"X"`` (complete) event per span, ``ts``/``dur`` in
  microseconds on the coordinator clock, with the span's annotations
  (epoch index, bytes shipped, resend counts…) under ``args``.

``ts`` and ``dur`` are derived from the *same* rounded endpoints
(``dur = round(end) - round(start)``), so the flat-span invariant —
per-track spans are monotonic and non-overlapping — survives rounding,
and :func:`validate_trace` asserts it without an epsilon: it rounds
``ts + dur`` back to the nanosecond, which gives ``round(end)`` exactly
(the float sum itself can miss it by one ulp).

.. _Trace Event Format: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.spans import CAT_EPOCH, Tracer

#: an ``"X"`` event must carry exactly these keys (plus optional args)
_REQUIRED_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")


def _us(seconds: float) -> float:
    """Microseconds, rounded to the nanosecond (Perfetto's resolution)."""
    return round(seconds * 1e6, 3)


def chrome_trace(tracer: Tracer, counters: Optional[dict] = None) -> dict:
    """The tracer's spans as a Chrome trace-event payload (plain dict).

    ``counters`` (optional, ``{group: {key: value}}``) rides along under
    ``otherData["counters"]`` — run-scoped execution counters (fused
    superblock ops, total ops retired) that ``repro trace summarize``
    reports beside the timeline.
    """
    events: List[dict] = []
    track_order: List[int] = []
    spans = tracer.spans  # derived on access: once
    for record in spans:
        if record.track not in track_order:
            track_order.append(record.track)
    # The coordinator track leads regardless of which span came first.
    if tracer.pid in track_order:
        track_order.remove(tracer.pid)
    track_order.insert(0, tracer.pid)
    for sort_index, pid in enumerate(track_order):
        name = "coordinator" if pid == tracer.pid else f"worker {pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
        events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": sort_index},
            }
        )
    for record in spans:
        start_us = _us(record.start)
        events.append(
            {
                "name": record.name,
                "cat": record.cat,
                "ph": "X",
                "ts": start_us,
                "dur": _us(record.end) - start_us,
                "pid": record.track,
                "tid": 0,
                "args": dict(record.args),
            }
        )
    other: dict = {
        "tool": "repro",
        "coordinator_pid": tracer.pid,
    }
    if counters:
        other["counters"] = counters
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    tracer: Tracer, path: str, counters: Optional[dict] = None
) -> dict:
    """Export the tracer to ``path``; returns the payload written."""
    payload = chrome_trace(tracer, counters=counters)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return payload


def load_trace(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def validate_trace(payload) -> List[str]:
    """Schema-check a trace payload; returns a list of problems (empty = ok).

    Checks the container shape, every event's required fields, and the
    flat-span invariant: within each ``(pid, tid)`` track, ``"X"``
    events sorted by start must not overlap.
    """
    problems: List[str] = []
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        return ["payload is not a dict with a traceEvents list"]
    tracks: Dict[tuple, List[dict]] = {}
    for position, event in enumerate(payload["traceEvents"]):
        if not isinstance(event, dict):
            problems.append(f"event {position} is not an object")
            continue
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase != "X":
            problems.append(f"event {position} has unsupported ph {phase!r}")
            continue
        for key in _REQUIRED_EVENT_KEYS:
            if key not in event:
                problems.append(f"event {position} missing {key!r}")
        ts, dur = event.get("ts"), event.get("dur")
        if isinstance(ts, (int, float)) and ts < 0:
            problems.append(f"event {position} has negative ts {ts}")
        if isinstance(dur, (int, float)) and dur < 0:
            problems.append(f"event {position} has negative dur {dur}")
        if isinstance(ts, (int, float)) and isinstance(dur, (int, float)):
            tracks.setdefault((event.get("pid"), event.get("tid")), []).append(
                event
            )
    for (pid, tid), events in tracks.items():
        events.sort(key=lambda e: (e["ts"], e["ts"] + e["dur"]))
        previous_end = None
        previous_name = ""
        for event in events:
            if previous_end is not None and event["ts"] < previous_end:
                problems.append(
                    f"track pid={pid}: span {event['name']!r} at "
                    f"{event['ts']}us overlaps preceding "
                    f"{previous_name!r} ending at {previous_end}us"
                )
            previous_end = round(event["ts"] + event["dur"], 3)
            previous_name = event["name"]
    return problems


def _merged_extent(intervals: List[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cursor_start = cursor_end = None
    for start, end in sorted(intervals):
        if cursor_end is None or start > cursor_end:
            if cursor_end is not None:
                total += cursor_end - cursor_start
            cursor_start, cursor_end = start, end
        else:
            cursor_end = max(cursor_end, end)
    if cursor_end is not None:
        total += cursor_end - cursor_start
    return total


def summarize_trace(payload: dict, top: int = 5) -> dict:
    """Timeline analysis of a trace payload.

    ``overlap_ratio`` is the sum of all epoch-execute span durations
    divided by the length of their union on the timeline: 1.0 means the
    epochs ran strictly one after another, N means N epochs were in
    flight at once on average — the visible measure of uniparallelism.
    """
    track_names: Dict[int, str] = {}
    executes: List[dict] = []
    spans = 0
    for event in payload.get("traceEvents", ()):
        if event.get("ph") == "M":
            if event.get("name") == "process_name":
                track_names[event["pid"]] = event["args"]["name"]
            continue
        if event.get("ph") != "X":
            continue
        spans += 1
        if event.get("cat") == CAT_EPOCH:
            executes.append(event)
    intervals = [(e["ts"], e["ts"] + e["dur"]) for e in executes]
    busy = sum(e["dur"] for e in executes)
    union = _merged_extent(intervals)
    tracks: Dict[int, dict] = {}
    for event in executes:
        row = tracks.setdefault(
            event["pid"],
            {
                "name": track_names.get(event["pid"], f"pid {event['pid']}"),
                "execute_spans": 0,
                "busy_us": 0.0,
            },
        )
        row["execute_spans"] += 1
        row["busy_us"] = round(row["busy_us"] + event["dur"], 3)

    def _epoch_row(event: dict) -> dict:
        args = event.get("args") or {}
        return {
            "epoch": args.get("epoch"),
            "kind": args.get("kind", ""),
            "track": track_names.get(event["pid"], f"pid {event['pid']}"),
            "dur_us": event["dur"],
            "bytes_shipped": args.get("bytes_shipped", 0),
            "blobs_sent": args.get("blobs_sent", 0),
        }

    slowest = sorted(executes, key=lambda e: e["dur"], reverse=True)[:top]
    straggler: Optional[dict] = None
    if executes:
        last = max(executes, key=lambda e: e["ts"] + e["dur"])
        straggler = dict(
            _epoch_row(last), finish_us=round(last["ts"] + last["dur"], 3)
        )
    counters = (payload.get("otherData") or {}).get("counters") or {}
    superblocks: Optional[dict] = None
    if counters.get("superblock") or counters.get("exec", {}).get("ops_executed"):
        sb = counters.get("superblock", {})
        ops = counters.get("exec", {}).get("ops_executed", 0)
        fused_ops = sb.get("fused_ops", 0)
        superblocks = {
            "blocks_compiled": sb.get("blocks_compiled", 0),
            "fused_calls": sb.get("fused_calls", 0),
            "fused_ops": fused_ops,
            "fallback_exits": sb.get("fallback_exits", 0),
            "ops_executed": ops,
            "fused_share": round(fused_ops / ops, 3) if ops else 0.0,
        }
    durable: Optional[dict] = None
    if counters.get("durable"):
        dc = counters["durable"]
        shard_bytes = dc.get("shard_bytes", 0)
        segment_bytes = dc.get("segment_bytes", 0)
        durable = {
            "epochs": dc.get("epochs", 0),
            "shard_bytes": shard_bytes,
            "segment_bytes": segment_bytes,
            "compression": (
                round(shard_bytes / segment_bytes, 2) if segment_bytes else 0.0
            ),
            "group_commits": dc.get("group_commits", 0),
            "fsyncs": dc.get("fsyncs", 0),
            "blobs_written": dc.get("blobs_written", 0),
        }
    return {
        "spans": spans,
        "epochs": len(executes),
        "busy_us": round(busy, 3),
        "wall_us": round(union, 3),
        "overlap_ratio": round(busy / union, 3) if union else 0.0,
        "tracks": {pid: tracks[pid] for pid in sorted(tracks)},
        "top_epochs": [_epoch_row(e) for e in slowest],
        "straggler": straggler,
        "superblocks": superblocks,
        "durable": durable,
    }


def render_summary(summary: dict) -> str:
    """``repro trace summarize``'s human-readable report."""
    lines = [
        f"{summary['epochs']} epoch span(s) across {len(summary['tracks'])} "
        f"track(s), {summary['spans']} span(s) total",
        f"epoch busy time {summary['busy_us']:.0f}us over a "
        f"{summary['wall_us']:.0f}us execute window — "
        f"overlap ratio {summary['overlap_ratio']:.2f}",
    ]
    for pid in summary["tracks"]:
        row = summary["tracks"][pid]
        lines.append(
            f"  {row['name']:<16} {row['execute_spans']:>3} epoch(s), "
            f"busy {row['busy_us']:.0f}us"
        )
    if summary["top_epochs"]:
        lines.append("slowest epochs:")
        for row in summary["top_epochs"]:
            lines.append(
                f"  epoch {row['epoch']} [{row['kind']}] on {row['track']}: "
                f"{row['dur_us']:.0f}us, {row['bytes_shipped']} wire byte(s)"
            )
    if summary["straggler"]:
        row = summary["straggler"]
        lines.append(
            f"straggler: epoch {row['epoch']} on {row['track']} finished "
            f"last at {row['finish_us']:.0f}us"
        )
    superblocks = summary.get("superblocks")
    if superblocks:
        lines.append(
            f"superblocks: {superblocks['fused_ops']} of "
            f"{superblocks['ops_executed']} op(s) fused "
            f"({superblocks['fused_share']:.0%}) in "
            f"{superblocks['fused_calls']} call(s), "
            f"{superblocks['blocks_compiled']} block(s) compiled, "
            f"{superblocks['fallback_exits']} fallback exit(s)"
        )
    durable = summary.get("durable")
    if durable:
        lines.append(
            f"durable log: {durable['epochs']} epoch(s), "
            f"{durable['shard_bytes']} shard byte(s) -> "
            f"{durable['segment_bytes']} on disk "
            f"({durable['compression']:.2f}x) in "
            f"{durable['group_commits']} group commit(s), "
            f"{durable['fsyncs']} fsync(s)"
        )
    return "\n".join(lines)
