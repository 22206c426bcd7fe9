"""The fleet telemetry plane: histograms, journal, exposition, health.

Four layers, tested bottom-up:

* **Histograms** (:mod:`repro.obs.histo`) — log-bucketed and counter-
  encoded. Merging must be associative and commutative (that is what
  makes partition-independent quantiles possible at all), and the
  worker round-trip must leave the deterministic ``epoch_cycles``
  distribution bit-identical between ``jobs=1`` and ``jobs=4``.
* **Event journal** (:mod:`repro.obs.events`) — the JSON-lines sink
  (global, monotonic sequence numbers), per-thread session attribution,
  and the disabled-is-free contract.
* **Exposition** (:mod:`repro.obs.expo`) — the hub derives every
  session row from its epoch lives and its result, and agrees with the
  service's report; ``/metrics`` is Prometheus text with per-session
  latency quantiles; ``/healthz`` answers 200/503.
* **Health** (:mod:`repro.obs.health`) — each detector judged on
  synthetic snapshots (pure function, no service behind it), then the
  end-to-end flip: a service run with an injected ``crash:`` fault
  reports a degraded verdict while a clean run reports ok.
"""

import asyncio
import gc
import io
import json
import os
import re
import signal
import socket
import threading
import time
import types
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from repro.baselines import run_native
from repro.cli import main as cli_main
from repro.core import DoublePlayConfig, DoublePlayRecorder
from repro.errors import WorkerCrashError
from repro.machine.config import MachineConfig
from repro.obs import events as obs_events
from repro.obs import health as obs_health
from repro.obs import histo as obs_histo
from repro.obs import metrics as obs_metrics
from repro.obs.expo import SessionRecord, TelemetryHub, TelemetryServer, http_get
from repro.obs.histo import LogHistogram
from repro.obs.lifecycle import Lives, UnitTiming
from repro.obs.metrics import build_run_metrics
from repro.obs.summary import render_metric_lines
from repro.service import RecordService, ServiceConfig, SessionRequest, SessionResult
from repro.workloads import build_workload


@pytest.fixture(autouse=True)
def _no_leaked_journal():
    """No test may leak a process-global journal or a session scope."""
    yield
    obs_events.uninstall_journal()
    assert obs_metrics.scope().sid is None, "test leaked a session scope"


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Histograms: bucketing, quantiles, merge algebra, counter encoding.
# ---------------------------------------------------------------------------


def _histogram_of(values):
    histogram = LogHistogram()
    for value in values:
        histogram.observe(value)
    return histogram


SAMPLE = [0.0001, 0.0005, 0.002, 0.002, 0.04, 0.04, 0.9, 1.8, 30.0, 500.0]


def test_bucket_index_is_monotonic_and_floors_tiny_values():
    values = [1e-12, 0.0, 1e-9, 1e-3, 1.0, 2.5, 99.0, 1e6]
    indices = [obs_histo.bucket_index(v) for v in values]
    assert indices == sorted(indices)
    # Zero and negative observations land in the smallest bucket, never
    # crash the log.
    assert obs_histo.bucket_index(0.0) == obs_histo.bucket_index(-5.0)
    for value in (0.003, 1.7, 420.0):
        index = obs_histo.bucket_index(value)
        assert value < obs_histo.bucket_upper_bound(index)
        assert obs_histo.bucket_mid(index) < obs_histo.bucket_upper_bound(index)


def test_quantiles_bracket_the_sample():
    histogram = _histogram_of(SAMPLE)
    assert histogram.count == len(SAMPLE)
    q = histogram.quantiles((0.50, 0.90, 0.99))
    assert set(q) == {"p50", "p90", "p99"}
    assert q["p50"] <= q["p90"] <= q["p99"]
    # Bucket-midpoint estimates stay within a bucket width of the truth.
    assert 0.01 < q["p50"] < 0.1
    assert q["p99"] > 100
    assert LogHistogram().quantile(0.99) == 0.0


def test_merge_is_associative_and_commutative():
    a = _histogram_of(SAMPLE[:3])
    b = _histogram_of(SAMPLE[3:7])
    c = _histogram_of(SAMPLE[7:])
    left = LogHistogram().merge(a).merge(b).merge(c)
    right = LogHistogram().merge(c).merge(LogHistogram().merge(b).merge(a))
    monolithic = _histogram_of(SAMPLE)
    assert left == right == monolithic
    assert left.quantiles() == monolithic.quantiles()


def test_counter_encoding_round_trips():
    histogram = _histogram_of(SAMPLE)
    counters = histogram.to_counters("unit_wall_s")
    assert all(key.startswith("unit_wall_s.b") for key in counters)
    assert LogHistogram.from_counters("unit_wall_s", counters) == histogram
    # Foreign keys are ignored, not crashed on.
    counters["other_hist.b3"] = 7
    counters["unit_wall_s.bogus"] = 1
    assert LogHistogram.from_counters("unit_wall_s", counters) == histogram
    assert obs_histo.histogram_names(counters) == (
        "other_hist", "unit_wall_s",
    )


def test_observe_writes_scoped_counters():
    with obs_metrics.session_scope() as scope:
        obs_histo.observe("t", 0.5)
        obs_histo.observe("t", 0.5)
        snap = scope.registry.snapshot()
    key = f"histo.t.b{obs_histo.bucket_index(0.5)}"
    assert snap == {key: 2}


def test_run_metrics_reconstructs_histograms():
    histogram = _histogram_of(SAMPLE)
    delta = {
        f"histo.{key}": value
        for key, value in histogram.to_counters("commit_wall_s").items()
    }
    delta["exec.epochs"] = 3
    metrics = build_run_metrics(delta)
    assert metrics.histogram_names() == ("commit_wall_s",)
    assert metrics.histogram("commit_wall_s") == histogram
    assert not metrics.histogram("never_observed")
    lines = render_metric_lines(metrics)
    assert any("commit latency" in line for line in lines)


# ---------------------------------------------------------------------------
# Worker round-trip parity: jobs=1 and jobs=4 distributions identical.
# ---------------------------------------------------------------------------


def _record_metrics(jobs: int):
    instance = build_workload("fft", workers=2, scale=1, seed=3)
    machine = MachineConfig(cores=2)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 10, 500),
        host_jobs=jobs,
    )
    result = DoublePlayRecorder(instance.image, instance.setup, config).record()
    return result.metrics


def test_epoch_cycles_histogram_identical_across_jobs():
    serial, pooled = _record_metrics(jobs=1), _record_metrics(jobs=4)
    # Only the pool's per-unit families are new at jobs>1, and the
    # commit distribution is there at any jobs.
    names = set(serial.histogram_names())
    assert {"epoch_cycles", "commit_wall_s"} <= names
    assert names <= set(pooled.histogram_names()) <= names | {"unit_wall_s", "unit_bytes"}
    solo, fleet = serial.histogram("epoch_cycles"), pooled.histogram("epoch_cycles")
    assert solo.count >= 2
    # Guest cycles are deterministic and merged-results-only ingestion
    # drops speculative/divergence tails, so the distributions are
    # bucket-for-bucket identical at any jobs count.
    assert solo == fleet
    assert solo.quantiles() == fleet.quantiles()


# ---------------------------------------------------------------------------
# Event journal: ring, sink, attribution, disabled-is-free.
# ---------------------------------------------------------------------------


def test_emit_without_journal_is_a_noop():
    assert obs_events.journal() is None
    obs_events.emit("epoch-commit", epoch=1)  # must not raise


def test_jsonl_sink_and_read_events(tmp_path):
    sink = tmp_path / "events.jsonl"
    journal = obs_events.install_journal(sink_path=str(sink))
    for i in range(6):
        journal.emit("epoch-commit", epoch=i)
    obs_events.uninstall_journal()
    journal.emit("epoch-commit", epoch=6)  # a late emitter: dropped
    events = obs_events.read_events(str(sink))
    assert [event["epoch"] for event in events] == list(range(6))
    assert [event["seq"] for event in events] == list(range(6))
    # Directory form resolves the default layout, and a torn tail line
    # (crashed writer) is tolerated.
    with open(sink, "a") as handle:
        handle.write('{"seq": 99, "kind": "divergen')
    assert len(obs_events.read_events(str(tmp_path))) == 6
    assert len(obs_events.read_events(str(sink), count=2)) == 2


def test_events_carry_thread_session_context(tmp_path):
    sink = str(tmp_path / "events.jsonl")
    obs_events.install_journal(sink)

    def tenant(sid):
        with obs_metrics.session_scope(sid):
            obs_events.emit("epoch-commit", epoch=0)

    threads = [
        threading.Thread(target=tenant, args=(f"s{i}",)) for i in range(3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    obs_events.emit("flight-window-slide", dropped=1)  # main thread: no sid
    obs_events.uninstall_journal()
    seen = obs_events.read_events(sink)
    assert sorted(e["sid"] for e in seen if "sid" in e) == ["s0", "s1", "s2"]
    assert "sid" not in seen[-1]
    line = obs_events.format_event(seen[0])
    assert "epoch-commit" in line and "epoch=0" in line


# ---------------------------------------------------------------------------
# Health: every detector, on synthetic snapshots.
# ---------------------------------------------------------------------------


def _session(**overrides):
    base = {
        "sid": "s0",
        "status": "completed",
        "admission_wait": 0.0,
        "faults": 0,
        "serial_fallbacks": 0,
        "commit_intervals": [],
        "last_commit_t": None,
    }
    base.update(overrides)
    return base


def test_clean_snapshot_is_ok():
    report = obs_health.evaluate({"now": 1.0, "sessions": [_session()]})
    assert report.ok
    assert report.to_plain() == {"status": "ok", "problems": []}


def test_stalled_lane_detector_scales_with_median():
    running = _session(
        status="running",
        commit_intervals=[0.01, 0.01, 0.012, 0.011],
        last_commit_t=1.0,
    )
    # Silent for 5s against a ~10ms median: stalled.
    report = obs_health.evaluate({"now": 6.0, "sessions": [running]})
    assert not report.ok
    assert report.problems[0]["detector"] == "stalled-lane"
    # The same silence is fine for a workload whose epochs take seconds.
    slow = dict(running, commit_intervals=[2.0, 2.0, 2.1, 1.9])
    assert obs_health.evaluate({"now": 6.0, "sessions": [slow]}).ok
    # Below the absolute floor nothing flags (scheduler jitter guard).
    jitter = dict(running, last_commit_t=5.9)
    assert obs_health.evaluate({"now": 6.0, "sessions": [jitter]}).ok
    # Too few commits: no baseline, no verdict.
    fresh = dict(running, commit_intervals=[0.01])
    assert obs_health.evaluate({"now": 6.0, "sessions": [fresh]}).ok


def test_admission_wait_detector_needs_opt_in():
    waiting = _session(admission_wait=2.0)
    assert obs_health.evaluate({"now": 3.0, "sessions": [waiting]}).ok
    policy = obs_health.HealthPolicy(max_admission_wait=0.5)
    report = obs_health.evaluate({"now": 3.0, "sessions": [waiting]}, policy)
    assert [p["detector"] for p in report.problems] == ["admission-wait"]


def test_fault_and_fallback_budgets():
    faulty = _session(faults=2, serial_fallbacks=1)
    report = obs_health.evaluate({"now": 1.0, "sessions": [faulty]})
    detectors = {p["detector"] for p in report.problems}
    assert detectors == {"fault-rate", "serial-fallback"}
    lenient = obs_health.HealthPolicy(fault_budget=2, fallback_budget=1)
    assert obs_health.evaluate({"now": 1.0, "sessions": [faulty]}, lenient).ok


def test_dedup_regression_detector():
    sessions = [_session(sid=f"s{i}") for i in range(4)]
    policy = obs_health.HealthPolicy(check_dedup=True)
    snapshot = {
        "now": 1.0,
        "sessions": sessions,
        "fleet": {"wire": {"cross_session_hits": 0}},
    }
    report = obs_health.evaluate(snapshot, policy)
    assert [p["detector"] for p in report.problems] == ["dedup-regression"]
    snapshot["fleet"]["wire"]["cross_session_hits"] = 5
    assert obs_health.evaluate(snapshot, policy).ok
    # Too few sessions: zero hits is not yet evidence.
    small = {"now": 1.0, "sessions": sessions[:2], "fleet": snapshot["fleet"]}
    small["fleet"]["wire"]["cross_session_hits"] = 0
    assert obs_health.evaluate(small, policy).ok


# ---------------------------------------------------------------------------
# Exposition: the hub and its HTTP endpoints.
# ---------------------------------------------------------------------------


def _hub_of(sid, lives, duration, wait=0.0):
    """A hub whose serve admitted one record session, now completed,
    that ran (and committed) ``lives``."""
    hub = TelemetryHub()
    result = SessionResult(
        sid=sid, kind="record", ok=True, epochs=len(lives.all), duration=duration
    )
    hub.attach({sid: SessionRecord(sid, wait, [lives], result)})
    return hub


def _fed_hub():
    """Four pushed epochs committed 0.1 s apart; position 1's first
    attempt crashed and was retried; position 3's unit took 0.02 s, the
    others 0.01 s."""
    lives, t0 = Lives(), time.perf_counter()
    for position in range(4):
        start = t0 + 0.1 * position
        lives.cut(position)
        lives.dispatched(position, "record", True, start, start, 1, 64)
        if position == 1:
            lives.failed(position, WorkerCrashError("worker died", position))
            lives.dispatched(position, "record", False, start, start, 0, 0)
        wall = 0.02 if position == 3 else 0.01
        lives.executed(position, UnitTiming(wall=wall, started=start))
        lives.fate(position, "accepted")
        lives.committed(position, start + 0.05, start + 0.06, cycles=900)
    return _hub_of("s0", lives, duration=0.5, wait=0.001)


def test_hub_derives_session_state_from_the_lives():
    hub = _fed_hub()
    snap = hub.snapshot()
    assert snap["completed"] == 1 and snap["failed"] == 0
    (session,) = snap["sessions"]
    assert session["sid"] == "s0"
    assert session["epochs"] == 4
    assert session["faults"] == 1
    assert len(session["commit_intervals"]) == 3
    assert session["lane"]["unit_latency_p99"] == 0.02
    assert session["admission_wait"] == 0.001 and session["duration"] == 0.5
    assert snap["admission_wait"]["p50"] > 0
    # One fault against a zero budget: degraded.
    assert not hub.evaluate().ok


def test_prometheus_text_has_per_session_quantiles():
    text = _fed_hub().prometheus_text()
    assert "# TYPE repro_sessions_completed_total counter" in text
    assert "repro_sessions_completed_total 1" in text
    assert (
        'repro_session_unit_latency_seconds{session="s0",quantile="0.99"} 0.02'
        in text
    )
    assert 'repro_session_epochs_total{session="s0"} 4' in text
    assert "repro_admission_wait_seconds_bucket" in text
    assert 'le="+Inf"} 1' in text


def _serve_hub(hub):
    """Run a TelemetryServer for ``hub`` on its own loop thread."""
    loop = asyncio.new_event_loop()
    server = TelemetryServer(hub, port=0)
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)

        async def boot():
            await server.start()
            started.set()

        loop.run_until_complete(boot())
        loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(timeout=10)

    def shutdown():
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)

    return server, shutdown


def test_endpoints_serve_metrics_sessions_and_health():
    hub = _fed_hub()
    server, shutdown = _serve_hub(hub)
    try:
        metrics_text = http_get(f"{server.url}/metrics")
        assert "repro_sessions_completed_total 1" in metrics_text
        sessions = json.loads(http_get(f"{server.url}/sessions"))
        assert sessions["sessions"][0]["sid"] == "s0"
        # The fed hub carries one contained fault: healthz must be 503.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_get(f"{server.url}/healthz")
        assert excinfo.value.code == 503
        body = json.loads(excinfo.value.read().decode())
        assert body["status"] == "degraded"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_get(f"{server.url}/nope")
        assert excinfo.value.code == 404
    finally:
        shutdown()


#: one Prometheus sample line: name, optional escaped labels, value
_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_]\w*="(?:[^"\\\n]|\\[\\"n])*"'
    r'(,[a-zA-Z_]\w*="(?:[^"\\\n]|\\[\\"n])*")*\})? \S+$'
)


def test_prometheus_label_values_are_escaped():
    text = _hub_of('a"b\nc\\d', Lives(), duration=0.1).prometheus_text()
    samples = [line for line in text.splitlines() if not line.startswith("#")]
    assert [line for line in samples if not _SAMPLE.match(line)] == []
    assert 'repro_session_epochs_total{session="a\\"b\\nc\\\\d"} 0' in samples


def test_healthz_is_200_when_clean():
    lives = Lives()
    for position in range(2):
        lives.cut(position)
        lives.ran(position, "record", UnitTiming())
        lives.committed(position, 0.0, 0.0, cycles=900)
    hub = _hub_of("s0", lives, duration=0.1)
    server, shutdown = _serve_hub(hub)
    try:
        body = json.loads(http_get(f"{server.url}/healthz"))
        assert body == {"status": "ok", "problems": []}
    finally:
        shutdown()


# ---------------------------------------------------------------------------
# End to end: the service under fault injection, and the live endpoint.
# ---------------------------------------------------------------------------


def _requests(count, faults_for=None, fault="crash:unit1"):
    return [
        SessionRequest(
            sid=f"s{i}",
            workload="fft",
            workers=2,
            scale=1,
            seed=0,
            faults=(fault if i == faults_for else ""),
        )
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def two_serves():
    """One service, two serves: two tenants with ``crash:unit1`` in
    ``s0``, then one clean tenant ``t0``. Every session is traced, so
    its runs' lives can be told apart. Returns the service, both
    reports and the hub's rows between the serves."""
    service = RecordService(ServiceConfig(jobs=2, max_active=2))
    first = service.run(
        [replace(r, trace=True) for r in _requests(2, faults_for=0)]
    )
    rows = service.hub.snapshot()["sessions"]
    second = service.run([replace(_requests(1)[0], sid="t0", trace=True)])
    return service, first, rows, second


def _reachable(root):
    """Every object reachable from ``root`` through instances and
    containers (not through classes, modules or code)."""
    skip = (type, types.ModuleType, types.FunctionType, types.MethodType,
            types.BuiltinFunctionType, types.CodeType)
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_service_health_flips_degraded_under_injected_crash(two_serves):
    _, report, rows, _ = two_serves
    assert report.ok, [r.error for r in report.results]
    assert report.health is not None
    assert not report.healthy
    detectors = {p["detector"] for p in report.health["problems"]}
    assert "fault-rate" in detectors
    # The hub attributed contained faults to the injected tenant. (The
    # clean tenant may also record collateral faults: a crash kills a
    # shared fleet worker, and its in-flight units die and retry too.)
    views = {s["sid"]: s for s in rows}
    assert views["s0"]["faults"] >= 1


def test_hub_rows_agree_with_the_session_results(two_serves):
    _, report, rows, _ = two_serves
    views = {s["sid"]: s for s in rows}
    assert set(views) == {"s0", "s1"}
    for result in report.results:
        faults = result.metrics["faults"]
        view = views[result.sid]
        assert view["faults"] == (
            faults["crashes"] + faults["timeouts"] + faults["task_errors"]
        )
        assert view["serial_fallbacks"] == faults["serial_fallbacks"]
        assert view["epochs"] == result.epochs > 0


def test_a_later_serve_is_judged_on_its_own_sessions(two_serves):
    """Regression: a serve's health judged every row the hub listed, so
    a clean serve read ``degraded`` after one whose tenant crashed."""
    _, first, _, second = two_serves
    assert not first.healthy
    assert second.ok and second.health == {"status": "ok", "problems": []}


def test_a_later_serve_keeps_rows_not_lives(two_serves):
    service, first, rows, second = two_serves
    listed = {s["sid"]: s for s in service.hub.snapshot()["sessions"]}
    assert set(listed) == {"s0", "s1", "t0"}
    assert [listed[s["sid"]] for s in rows] == rows
    assert listed["t0"]["status"] == "completed"
    earlier = {id(run) for r in first.results for run in r.tracer.runs}
    current = {id(run) for r in second.results for run in r.tracer.runs}
    reachable = {
        id(obj) for obj in _reachable(service.hub) if isinstance(obj, Lives)
    }
    assert earlier and not reachable & earlier
    assert reachable <= current


def test_a_serve_without_events_installs_no_journal(monkeypatch):
    def installed(*_, **__):
        raise AssertionError("the serve installed a journal")

    monkeypatch.setattr(obs_events, "install_journal", installed)
    service = RecordService(ServiceConfig(jobs=1, max_active=1))
    report = service.run(_requests(1))
    assert report.ok and report.healthy
    (view,) = service.hub.snapshot()["sessions"]
    assert view["status"] == "completed"
    assert view["epochs"] == report.results[0].epochs > 0


def test_service_health_ok_when_clean():
    service = RecordService(ServiceConfig(jobs=2, max_active=2))
    report = service.run(_requests(2))
    assert report.ok and report.healthy
    assert report.summary()["health"]["status"] == "ok"


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_live_endpoint_during_service_run(tmp_path):
    port = _free_port()
    events_path = tmp_path / "events.jsonl"
    service = RecordService(
        ServiceConfig(
            jobs=2,
            max_active=2,
            telemetry_port=port,
            telemetry_linger=8.0,
            events_path=str(events_path),
        )
    )
    outcome = {}

    def run():
        outcome["report"] = service.run(_requests(2))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 60
    text = ""
    try:
        # Poll until both sessions show completed on the live endpoint
        # (the linger window keeps it up after the work finishes).
        while time.monotonic() < deadline:
            try:
                text = http_get(f"http://127.0.0.1:{port}/metrics", timeout=2)
            except OSError:
                time.sleep(0.05)
                continue
            if "repro_sessions_completed_total 2" in text:
                break
            time.sleep(0.05)
        assert "repro_sessions_completed_total 2" in text
        assert 'quantile="0.99"' in text
        health = json.loads(http_get(f"http://127.0.0.1:{port}/healthz"))
        assert health["status"] == "ok"
        sessions = json.loads(http_get(f"http://127.0.0.1:{port}/sessions"))
        assert {s["sid"] for s in sessions["sessions"]} == {"s0", "s1"}
        # repro top renders the same payload.
        code, text_out = run_cli(
            "top", "--url", f"http://127.0.0.1:{port}", "--once"
        )
        assert code == 0
        assert "2 completed" in text_out
    finally:
        service.end_linger()  # scraped: no need to wait the window out
        thread.join(timeout=120)
    assert not thread.is_alive()
    report = outcome["report"]
    assert report.ok and report.healthy
    assert report.telemetry_port == port
    # The journal sink recorded the run's transitions.
    kinds = {e["kind"] for e in obs_events.read_events(str(events_path))}
    assert "epoch-commit" in kinds
    assert "session-admitted" in kinds and "session-completed" in kinds


# ---------------------------------------------------------------------------
# CLI: events tail, metrics diff, serve summary surface.
# ---------------------------------------------------------------------------


def test_cli_events_tail(tmp_path):
    sink = tmp_path / "events.jsonl"
    journal = obs_events.install_journal(sink_path=str(sink))
    with obs_metrics.session_scope("s7"):
        for i in range(5):
            journal.emit("epoch-commit", epoch=i)
    obs_events.uninstall_journal()
    code, text = run_cli("events", "tail", str(tmp_path), "-n", "2")
    assert code == 0
    lines = [line for line in text.splitlines() if line.strip()]
    assert len(lines) == 2
    assert "epoch-commit" in lines[0] and "[s7]" in lines[0]
    assert "epoch=4" in lines[-1]


def test_cli_metrics_diff(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(
        {"metrics": {"exec": {"epochs": 10, "ops": 100}, "wire": {"b": 5}}}
    ))
    b.write_text(json.dumps(
        {"metrics": {"exec": {"epochs": 10, "ops": 150}, "wire": {"b": 5},
                     "histo": {"x.b1": 2}}}
    ))
    code, text = run_cli("metrics", "diff", str(a), str(b))
    assert code == 0
    assert "exec.ops" in text and "+50.0%" in text
    assert "histo.x.b1" in text and "new" in text
    assert "exec.epochs" not in text  # unchanged rows hidden by default
    code, _ = run_cli(
        "metrics", "diff", str(a), str(b), "--threshold", "0.4", "--check"
    )
    assert code == 1
    code, _ = run_cli(
        "metrics", "diff", str(a), str(a), "--check"
    )
    assert code == 0


def test_cli_record_metrics_out_and_histogram_summary(tmp_path):
    out_path = tmp_path / "metrics.json"
    code, text = run_cli(
        "record", "fft", "--scale", "1",
        "--metrics-out", str(out_path),
    )
    assert code == 0
    assert "epoch length" in text  # the histogram quantile summary line
    payload = json.loads(out_path.read_text())
    assert payload["workload"]["name"] == "fft"
    assert any(key.startswith("epoch_cycles.b")
               for key in payload["metrics"]["histo"])
    # The exported snapshot round-trips through metrics diff.
    code, text = run_cli(
        "metrics", "diff", str(out_path), str(out_path), "--check"
    )
    assert code == 0
    assert "0 metric(s) differ" in text


def test_cli_serve_prints_health_and_events(tmp_path):
    events_path = tmp_path / "events.jsonl"
    code, text = run_cli(
        "serve", "fft", "--scale", "1", "--sessions", "2", "--jobs", "2",
        "--events", str(events_path),
    )
    assert code == 0
    assert "health: ok" in text
    assert events_path.exists()
    code, text = run_cli("events", "tail", str(events_path))
    assert code == 0
    assert "session-completed" in text


def test_cli_serve_without_a_pool_expects_no_dedup():
    """Units that never leave the coordinator can have no cross-session
    hits: four same-program tenants at ``--jobs 1`` are healthy."""
    code, text = run_cli(
        "serve", "fft", "--scale", "1", "--sessions", "4", "--jobs", "1",
        "--verify",
    )
    assert code == 0, text
    assert "health: ok" in text and "dedup-regression" not in text


def test_cli_serve_sigterm_closes_the_linger_window():
    """The CI smoke's shape: scrape the lingering endpoint, then SIGTERM —
    the window closes, the report and the exit code still follow."""
    port = _free_port()
    stray = []

    def not_the_clis(*_):
        stray.append("SIGTERM reached the test's handler")

    def scrape_then_terminate():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                text = http_get(f"http://127.0.0.1:{port}/metrics", timeout=2)
                if "repro_sessions_completed_total 2" in text:
                    break
            except OSError:
                pass
            time.sleep(0.05)
        os.kill(os.getpid(), signal.SIGTERM)

    previous = signal.signal(signal.SIGTERM, not_the_clis)
    scraper = threading.Thread(target=scrape_then_terminate, daemon=True)
    try:
        scraper.start()
        started = time.monotonic()
        code, text = run_cli(
            "serve", "fft", "--scale", "1", "--sessions", "2", "--jobs", "2",
            "--telemetry-port", str(port), "--linger", "30",
        )
        waited = time.monotonic() - started
        assert signal.getsignal(signal.SIGTERM) is not_the_clis  # restored
    finally:
        signal.signal(signal.SIGTERM, previous)
        scraper.join(timeout=90)
    assert code == 0 and "health: ok" in text
    assert not stray and waited < 20
