"""The observability layer: epoch lives, mergeable metrics, Perfetto export.

The layer's contract is one-way glass — it may observe everything and
influence nothing — and one write per fact: a run fills its epoch lives,
everything read is derived. These tests cover the pieces in isolation
(the span view's clock re-basing, RunMetrics merging, export schema,
timeline analysis) and the cross-process plumbing end to end: worker
counters survive the round-trip, serial and parallel runs report
identical execution metrics, every executed unit is attributable to a
real pid, every view of a run counts the same commits, and the CLI
round-trips a trace through ``record --trace`` / ``trace summarize``.
"""

import io
import json
import os

import pytest

from repro.baselines import run_native
from repro.cli import main as cli_main
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.machine.config import MachineConfig
from repro.obs import events as obs_events
from repro.obs import export as obs_export
from repro.obs import lifecycle
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.lifecycle import UnitTiming
from repro.obs.metrics import RunMetrics, build_run_metrics
from repro.sim.stats import StatsRegistry
from repro.workloads import build_workload
from tests import parity


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """No test may leak an active tracer into the next."""
    yield
    assert not obs_spans.enabled(), "test leaked an active tracer"
    obs_spans.stop_trace()


def _record(name="pbzip", workers=2, jobs=1, scale=2, seed=11, **overrides):
    instance = build_workload(name, workers=workers, scale=scale, seed=seed)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
        host_jobs=jobs,
        **overrides,
    )
    return (
        DoublePlayRecorder(instance.image, instance.setup, config).record(),
        instance,
        machine,
    )


# ---------------------------------------------------------------------------
# StatsRegistry / RunMetrics
# ---------------------------------------------------------------------------


def test_stats_registry_clear():
    registry = StatsRegistry()
    registry.add("a")
    registry.add("b", 5)
    registry.clear()
    assert registry.snapshot() == {}


def test_run_metrics_merge_and_flat():
    left = RunMetrics()
    left.add("exec", "epochs", 3)
    left.add("wire", "bytes_shipped", 100)
    right = RunMetrics()
    right.add("exec", "epochs", 2)
    right.add("faults", "crashes", 1)
    left.merge(right)
    assert left.snapshot() == {
        "exec": {"epochs": 5},
        "faults": {"crashes": 1},
        "wire": {"bytes_shipped": 100},
    }
    assert left.flat() == {
        "exec.epochs": 5,
        "faults.crashes": 1,
        "wire.bytes_shipped": 100,
    }
    assert left.get("exec", "epochs") == 5
    assert left.get("exec", "missing", default=-1) == -1
    assert RunMetrics.from_snapshot(left.snapshot()).snapshot() == left.snapshot()


def test_merge_group_keeps_only_numeric_scalars():
    metrics = RunMetrics()
    metrics.merge_group(
        "host",
        {"jobs": 4, "units": 7, "unit_pids": [1, 2], "wire": {"x": 1},
         "flag": True},
    )
    # Unexpected non-numerics are dropped *visibly*: each one counts
    # under obs.metrics_dropped so worker-payload schema drift shows up.
    assert metrics.snapshot() == {
        "host": {"jobs": 4, "units": 7},
        "obs": {"metrics_dropped": 3},
    }


def test_merge_group_ignore_list_suppresses_drop_counter():
    metrics = RunMetrics()
    metrics.merge_group(
        "host",
        {"jobs": 4, "unit_pids": [1, 2], "wire": {"x": 1}, "flag": True},
        ignore=("unit_pids", "wire"),
    )
    # Named structural keys are expected; only the stray bool counts.
    assert metrics.snapshot() == {
        "host": {"jobs": 4},
        "obs": {"metrics_dropped": 1},
    }


def test_build_run_metrics_host_structural_keys_not_counted_as_drops():
    metrics = build_run_metrics(
        {},
        host={
            "jobs": 2,
            "unit_wall": [0.1],
            "unit_cpu": [0.1],
            "unit_pids": [11],
            "fault_events": [],
            "speculation": {"pushed": 0},
            "wire": {"bytes_shipped": 1, "unit_bytes": [1]},
            "faults": {"crashes": 0},
        },
    )
    assert metrics.get("obs", "metrics_dropped") == 0


def test_build_run_metrics_groups_dotted_names_and_host():
    metrics = build_run_metrics(
        {"exec.epochs": 2, "exec.epoch_cycles": 900, "stray": 1},
        host={
            "jobs": 2,
            "units": 2,
            "wire": {"bytes_shipped": 10, "blobs_sent": 1},
            "faults": {"crashes": 0},
        },
        record={"epochs": 2, "fault_message": "not a number"},
    )
    snap = metrics.snapshot()
    assert snap["exec"] == {"epochs": 2, "epoch_cycles": 900}
    assert snap["misc"] == {"stray": 1}
    assert snap["host"] == {"jobs": 2, "units": 2}
    assert snap["wire"] == {"bytes_shipped": 10, "blobs_sent": 1}
    assert snap["record"] == {"epochs": 2}


def test_delta_since_reports_only_growth():
    stats = obs_metrics.process_stats()
    baseline = stats.snapshot()
    stats.add("obs_test.counter", 3)
    delta = obs_metrics.delta_since(baseline)
    assert delta["obs_test.counter"] == 3
    assert all(key == "obs_test.counter" or value for key, value in delta.items())


# ---------------------------------------------------------------------------
# Tracer: the span view of the epoch lives
# ---------------------------------------------------------------------------


def test_tracer_records_and_clamps():
    tracer = obs_spans.start_trace()
    try:
        lives = lifecycle.begin()
    finally:
        obs_spans.stop_trace()
    unseen = lifecycle.begin()  # begun with the switch off: never exported
    unseen.cut(99)
    origin = tracer.origin
    position = lives.cut(7, (origin + 1.0, origin + 2.0))
    with lives.here(position, "record"):
        pass
    # A commit whose clock ran backwards: spans never end before they start.
    lives.committed(position, origin + 3.0, origin + 2.5, cycles=5)
    assert tracer.runs == [lives]
    tp, execute, commit = tracer.spans
    assert [s.name for s in (tp, execute, commit)] == ["tp-epoch", "execute", "commit"]
    assert (tp.start, tp.end) == (pytest.approx(1.0), pytest.approx(2.0))
    assert execute.args == {"epoch": 7, "position": 0, "kind": "record"}
    assert execute.track == tracer.pid
    assert 0.0 <= execute.start <= execute.end
    assert commit.start == pytest.approx(3.0) and commit.duration == 0.0


def test_ingest_rebases_worker_spans_onto_coordinator_clock():
    tracer = obs_spans.start_trace()
    lives = lifecycle.begin()
    obs_spans.stop_trace()
    origin = tracer.origin
    position = lives.cut(3)
    lives.dispatched(
        position, "record", True, origin + 0.1, origin + 0.2, blobs=4, size=99
    )
    # The worker ships raw perf_counter stamps: one system-wide clock.
    lives.executed(position, UnitTiming(
        wall=0.25, worker_pid=4242, blob_cache_hits=1, blob_cache_misses=3,
        decode_started=origin - 5.0, started=origin + 0.5,
    ))
    dispatch, decode, execute = tracer.spans
    assert dispatch.track == tracer.pid
    assert dispatch.args == {"position": 0, "bytes": 99, "speculative": True}
    assert execute.track == decode.track == 4242
    assert execute.start == pytest.approx(0.5)
    assert execute.end == pytest.approx(0.75)
    # the unit's wire cost lands on epoch spans only
    assert execute.args == {
        "epoch": 3, "position": 0, "kind": "record",
        "bytes_shipped": 99, "blobs_sent": 4,
    }
    assert decode.args == {"position": 0, "cache_hits": 1, "cache_misses": 3}
    # a pathological pre-origin stamp clamps to the trace start
    assert decode.start == 0.0 and decode.end == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Export / validation / analysis
# ---------------------------------------------------------------------------


def _crafted_tracer():
    """One segment cut on the coordinator, two epochs executing on two
    workers at overlapping times, the first committed."""
    tracer = obs_spans.start_trace()
    lives = lifecycle.begin()
    obs_spans.stop_trace()
    origin = tracer.origin
    lives.cut(0, (origin, origin + 0.005))
    lives.cut(1)
    for position, pid, start, wall, size in (
        (0, 101, 0.010, 0.020, 10), (1, 102, 0.012, 0.016, 20),
    ):
        lives.dispatched(
            position, "record", True, origin + start - 0.002,
            origin + start - 0.001, blobs=1, size=size,
        )
        lives.executed(position, UnitTiming(
            wall=wall, worker_pid=pid, decode_started=origin + start - 0.001,
            started=origin + start,
        ))
    lives.committed(0, origin + 0.030, origin + 0.031, cycles=1)
    return tracer


def test_chrome_trace_structure(tmp_path):
    tracer = _crafted_tracer()
    path = tmp_path / "trace.json"
    payload = obs_export.write_chrome_trace(tracer, str(path))
    assert obs_export.load_trace(str(path)) == payload
    assert obs_export.validate_trace(payload) == []

    meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    names = {e["pid"]: e["args"]["name"] for e in meta
             if e["name"] == "process_name"}
    assert names[tracer.pid] == "coordinator"
    assert names[101] == "worker 101" and names[102] == "worker 102"
    sort_index = {e["pid"]: e["args"]["sort_index"] for e in meta
                  if e["name"] == "process_sort_index"}
    assert sort_index[tracer.pid] == 0  # coordinator track on top

    events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in events] == [
        "tp-epoch", "dispatch", "wire-decode", "execute", "commit",
        "dispatch", "wire-decode", "execute",
    ]
    execute = next(e for e in events if e["pid"] == 101 and e["name"] == "execute")
    assert execute["ts"] == pytest.approx(10000.0)
    assert execute["dur"] == pytest.approx(20000.0)
    assert execute["args"]["bytes_shipped"] == 10
    assert payload["otherData"]["coordinator_pid"] == tracer.pid


def test_validate_trace_catches_overlap_and_bad_events():
    tracer = obs_spans.start_trace()
    lives = lifecycle.begin()
    obs_spans.stop_trace()
    for epoch, started in enumerate((0.0, 0.005)):  # the second overlaps the first
        lives.ran(lives.cut(epoch), "record", UnitTiming(
            wall=0.010, worker_pid=7, started=tracer.origin + started,
        ))
    payload = obs_export.chrome_trace(tracer)
    problems = obs_export.validate_trace(payload)
    assert any("overlaps" in problem for problem in problems)

    assert obs_export.validate_trace([]) != []
    broken = {"traceEvents": [{"ph": "X", "name": "x"}]}
    assert any("missing" in p for p in obs_export.validate_trace(broken))
    negative = {"traceEvents": [
        {"name": "x", "cat": "epoch", "ph": "X", "ts": -1, "dur": 1,
         "pid": 1, "tid": 0},
    ]}
    assert any("negative ts" in p for p in obs_export.validate_trace(negative))


def test_summarize_trace_overlap_ratio():
    payload = obs_export.chrome_trace(_crafted_tracer())
    summary = obs_export.summarize_trace(payload, top=1)
    assert summary["epochs"] == 2
    assert summary["spans"] == 8
    # busy 20ms + 16ms over a 20ms union: 1.8x overlap
    assert summary["overlap_ratio"] == pytest.approx(1.8)
    assert summary["tracks"][101]["execute_spans"] == 1
    assert len(summary["top_epochs"]) == 1
    assert summary["top_epochs"][0]["epoch"] == 0
    assert summary["straggler"]["epoch"] == 0  # finishes last at 30ms
    rendered = obs_export.render_summary(summary)
    assert "overlap ratio 1.80" in rendered
    assert "slowest epochs:" in rendered
    assert "straggler:" in rendered


# ---------------------------------------------------------------------------
# End-to-end: worker metrics round-trip, pid attribution, CLI
# ---------------------------------------------------------------------------


def test_worker_metrics_match_serial_metrics():
    program = parity.Program("pbzip", 2)
    parallel = parity.observe(program, jobs=4)
    # Worker counters ride home on unit results, so the execution groups
    # are the jobs=1 oracle's — losing them (the old behaviour) would
    # zero these.
    parity.assert_parity(parallel)
    serial = parity.oracle(program).result
    assert serial.metrics.get("exec", "epochs") > 0
    assert serial.metrics.get("exec", "epoch_cycles") > 0
    # and the parallel run additionally reports its wire traffic
    assert parallel.result.metrics.get("wire", "bytes_shipped") > 0
    assert parallel.result.metrics.get("host", "jobs") == 4


def test_replay_metrics_round_trip():
    result, instance, machine = _record(jobs=1)
    replayer = Replayer(instance.image, machine)
    sequential = replayer.replay_sequential(result.recording)
    assert sequential.verified
    assert sequential.metrics.get("replay", "epochs") == (
        result.recording.epoch_count()
    )
    # jobs=1 and jobs=2 run the same fresh-engine strategy, so worker
    # counters merged from unit results must equal the in-process ones.
    # (Sequential counts continuous-engine deltas — a different strategy
    # with different boundary costs — so only its epoch count is pinned.)
    replayer.materialize_checkpoints(result.recording)
    serial = replayer.replay_parallel(result.recording, jobs=1)
    parallel = replayer.replay_parallel(result.recording, jobs=2)
    assert parallel.verified
    assert parallel.metrics.get("replay", "epochs") == (
        result.recording.epoch_count()
    )
    assert parallel.metrics.get("replay", "epoch_cycles") == (
        serial.metrics.get("replay", "epoch_cycles")
    )


def test_every_unit_attributed_to_a_real_pid():
    result, _, _ = _record(jobs=2)
    pids = result.host["unit_pids"]
    assert len(pids) == result.host["units"]
    assert all(pid > 0 for pid in pids)
    assert all(pid != os.getpid() for pid in pids)  # pool units, not serial


def test_serial_fallback_units_attributed_to_coordinator(monkeypatch):
    # A persistent crash on unit 1 exhausts the retry and lands on the
    # serial fallback, which must stamp the coordinator's own pid — the
    # bug was a 0 placeholder left in place on exactly these paths.
    monkeypatch.setenv("REPRO_FAULT", "crash:unit1")
    result, _, _ = _record(name="fft", jobs=2)
    assert result.host["faults"]["serial_fallbacks"] >= 1
    pids = result.host["unit_pids"]
    assert all(pid > 0 for pid in pids)
    assert os.getpid() in pids


@pytest.mark.parametrize("sink", ["memory", "log_dir"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_every_view_counts_the_same_commits(tmp_path, jobs, sink):
    """One record per epoch, so the views cannot disagree: on a run that
    recovers most of its epochs the ``commit`` spans, the
    ``commit_wall_s`` histogram, the journal's ``epoch-commit`` lines and
    ``stats["epochs"]`` are one number — recovered commits included.
    (At the parent a recovered commit, sink write and all, was wrapped
    by neither the span nor the histogram.)"""
    overrides = {"log_dir": str(tmp_path / "log")} if sink == "log_dir" else {}
    events = str(tmp_path / "events.jsonl")
    obs_events.install_journal(events)
    tracer = obs_spans.start_trace()
    try:
        result, _, _ = _record("racy-counter", jobs=jobs, scale=8, **overrides)
    finally:
        obs_spans.stop_trace()
        obs_events.uninstall_journal()
    epochs = result.stats["epochs"]
    assert result.stats["recoveries"] >= 3 and epochs > result.stats["recoveries"]
    commits = [s for s in tracer.spans if s.name == "commit"]
    lines = [e for e in obs_events.read_events(events) if e["kind"] == "epoch-commit"]
    assert len(commits) == len(lines) == epochs
    assert result.metrics.histogram("commit_wall_s").count == epochs
    assert sum(1 for e in lines if e.get("recovered")) == result.stats["recoveries"]
    assert [s.args["epoch"] for s in commits] == [e["epoch"] for e in lines]
    if sink == "log_dir":
        assert result.metrics.get("durable", "epochs") == epochs


def test_cli_record_trace_and_summarize(tmp_path, monkeypatch):
    trace_path = tmp_path / "out.json"
    out = io.StringIO()
    rc = cli_main(
        ["record", "pbzip", "--scale", "2", "--jobs", "2",
         "--trace", str(trace_path)],
        out=out,
    )
    assert rc == 0
    text = out.getvalue()
    assert f"wrote trace to {trace_path}" in text
    assert "host wire:" in text
    assert not obs_spans.enabled()  # CLI stopped its trace

    payload = obs_export.load_trace(str(trace_path))
    assert obs_export.validate_trace(payload) == []

    out = io.StringIO()
    rc = cli_main(["trace", "summarize", str(trace_path), "--top", "3"], out=out)
    assert rc == 0
    rendered = out.getvalue()
    assert "overlap ratio" in rendered
    assert "worker" in rendered  # epochs ran on pool workers, not inline

    # an invalid trace is reported, not summarized
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [{"ph": "X", "name": "x"}]}))
    out = io.StringIO()
    assert cli_main(["trace", "summarize", str(bad)], out=out) == 1
    assert "invalid trace" in out.getvalue()
