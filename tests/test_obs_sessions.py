"""Per-session observability isolation (the service's run scope).

The service runs many record/replay sessions on concurrent threads of
one process, so each session thread enters one private run scope
(``obs_metrics.session_scope``): its own counter registry, its session
id on every journal line, and its own — or explicitly no — tracer.
These tests pin the isolation contract at both levels:

* unit level — the scope itself: it is per-thread, a session that did
  not ask for a trace has none even while another thread traces, and
  leaving the scope restores the process's;
* service level — interleaved sessions report the same execution
  counters a solo run does, traced sessions collect exactly their own
  spans, and nothing ever lands in another session's (or the main
  thread's) trace.
"""

import json
import threading

import pytest

from repro.obs import lifecycle
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.service import RecordService, ServiceConfig, SessionRequest


@pytest.fixture(autouse=True)
def _no_leaked_scope():
    """No test may leak a session scope or a process-wide trace."""
    yield
    assert not obs_spans.enabled(), "test leaked an active tracer"
    assert obs_metrics.scope().sid is None, "test leaked a session scope"
    obs_spans.stop_trace()


# ---------------------------------------------------------------------------
# Unit level: the run scope.
# ---------------------------------------------------------------------------


def test_session_registry_is_thread_scoped():
    baseline = obs_metrics.process_stats().snapshot()
    results = {}
    ready = threading.Barrier(2)

    def session(name, bumps):
        with obs_metrics.session_scope(name) as scope:
            ready.wait(timeout=10)
            for _ in range(bumps):
                obs_metrics.process_stats().add(f"{name}.counter")
            results[name] = scope.registry.snapshot()

    threads = [
        threading.Thread(target=session, args=("a", 3)),
        threading.Thread(target=session, args=("b", 5)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)

    # Each thread saw only its own counters...
    assert results["a"] == {"a.counter": 3}
    assert results["b"] == {"b.counter": 5}
    # ...and the process-global registry saw none of them.
    assert obs_metrics.process_stats().snapshot() == baseline


def test_deactivated_registry_falls_back_to_process_global():
    with obs_metrics.session_scope():
        obs_metrics.process_stats().add("scoped.only")
    assert "scoped.only" not in obs_metrics.process_stats().snapshot()


def test_session_tracer_override_is_thread_scoped():
    global_tracer = obs_spans.start_trace()
    try:
        outcomes = {}

        def silent_session():
            # No tracer asked for: this session must not see (or feed)
            # the main thread's live trace.
            with obs_metrics.session_scope("silent"):
                outcomes["silent_enabled"] = obs_spans.enabled()
                lifecycle.begin().cut(0)

        def traced_session():
            mine = obs_spans.Tracer()
            with obs_metrics.session_scope("traced", mine):
                lifecycle.begin().cut(7, (mine.origin, mine.origin + 1.0))
            outcomes["own_spans"] = [(s.name, s.args["epoch"]) for s in mine.spans]

        threads = [
            threading.Thread(target=silent_session),
            threading.Thread(target=traced_session),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)

        assert outcomes["silent_enabled"] is False
        assert outcomes["own_spans"] == [("tp-epoch", 7)]
        # The main thread's trace never saw either session.
        assert global_tracer.runs == []
        # And the main thread itself still traces.
        assert obs_metrics.scope().trace is global_tracer
    finally:
        obs_spans.stop_trace()


# ---------------------------------------------------------------------------
# Service level: interleaved sessions.
# ---------------------------------------------------------------------------


def _session_requests(count, **kwargs):
    return [
        SessionRequest(sid=f"s{i}", workload="fft", scale=1, seed=13, **kwargs)
        for i in range(count)
    ]


def test_interleaved_sessions_report_solo_execution_metrics():
    service = RecordService(ServiceConfig(jobs=2, max_active=3))
    solo = service.run(_session_requests(1))
    assert solo.ok, [r.error for r in solo.results]
    interleaved = service.run(_session_requests(3))
    assert interleaved.ok, [r.error for r in interleaved.results]

    reference = solo.results[0].metrics
    for result in interleaved.results:
        # Deterministic execution counters match the solo run exactly —
        # no bleed-in from neighbours, no bleed-out to them. (Host/wire
        # groups legitimately differ: they describe the shared fleet.)
        for group in ("exec", "record"):
            assert result.metrics.get(group) == reference.get(group), (
                f"{result.sid}: {group} counters drifted under interleaving"
            )


def test_traced_session_collects_only_its_own_spans():
    service = RecordService(ServiceConfig(jobs=2, max_active=3))
    report = service.run(
        [
            SessionRequest(sid="traced0", workload="fft", scale=1, seed=13,
                           trace=True),
            SessionRequest(sid="dark", workload="fft", scale=1, seed=13),
            SessionRequest(sid="traced1", workload="fft", scale=1, seed=13,
                           trace=True),
        ]
    )
    assert report.ok, [r.error for r in report.results]
    by_sid = {r.sid: r for r in report.results}

    assert by_sid["dark"].tracer is None
    for sid in ("traced0", "traced1"):
        tracer = by_sid[sid].tracer
        assert tracer is not None and tracer.spans, f"{sid} collected nothing"
        # Exactly one execute span per executed epoch — the count the
        # run's own merged counters report, nothing from neighbours.
        executes = [s for s in tracer.spans if s.name == "execute"]
        epochs = by_sid[sid].metrics["exec"]["epochs"]
        assert len(executes) == epochs, (
            f"{sid}: {len(executes)} execute spans vs {epochs} epochs"
        )
    # Identical sessions collect identical span shapes.
    shape0 = sorted(
        (s.name, s.cat) for s in by_sid["traced0"].tracer.spans
    )
    shape1 = sorted(
        (s.name, s.cat) for s in by_sid["traced1"].tracer.spans
    )
    assert shape0 == shape1
    # The service never leaks a trace into the caller's thread.
    assert not obs_spans.enabled()


def test_sessions_never_touch_the_callers_global_trace():
    global_tracer = obs_spans.start_trace()
    try:
        service = RecordService(ServiceConfig(jobs=2, max_active=2))
        report = service.run(_session_requests(2))
        assert report.ok, [r.error for r in report.results]
        # The caller's trace saw no session spans: a session without
        # trace=True runs in a scope with no tracer, not the process's.
        assert global_tracer.spans == []
    finally:
        obs_spans.stop_trace()


def test_session_recordings_unaffected_by_tracing():
    service = RecordService(ServiceConfig(jobs=2, max_active=2))
    untraced = service.run(_session_requests(1))
    traced = service.run(_session_requests(1, trace=True))
    assert untraced.ok and traced.ok
    assert json.dumps(
        untraced.results[0].recording_plain, sort_keys=True
    ) == json.dumps(traced.results[0].recording_plain, sort_keys=True)
