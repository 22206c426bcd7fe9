"""Record-as-a-service: multi-session coordination over one worker pool.

Covers the service's four contracts:

1. **Determinism** — every session's recording is bit-identical to the
   same workload recorded solo at ``jobs=1`` (its cached oracle in
   ``tests/parity.py``), no matter how many tenants interleave over the
   shared pool (the golden-pinned slice lives in
   ``test_integration_matrix.py``).
2. **Isolation** — faults injected into one tenant exercise only that
   session's containment; other tenants' counters stay zero and their
   recordings stay identical. A pool-breaking crash costs neighbours
   wall-clock, never correctness.
3. **Flow control** — the admission semaphore bounds concurrently-running
   sessions, and the pool's windows bound the units in its pipes however
   many tenants push (each tenant is a lane of the pool: see
   ``tests/test_host_pool.py``).
4. **Fleet economics** — digest-identical pages ship once fleet-wide;
   later tenants' dispatches omit what an earlier tenant shipped, and
   the accounting — derived from the sessions' epoch lives — attributes
   the saved bytes.

Plus the regression test for the ``shared_pool`` module-global race:
concurrent ``shared_pool()`` / ``invalidate_shared_pool()`` callers
must never tear the same pool down twice or leak an orphan.
"""

import os
import threading

import pytest

from repro.host import executor as host_executor
from repro.host import pool as host_pool
from repro.service import RecordService, ServiceConfig, SessionRequest
from tests import parity
from tests.parity import Program


def _assert_solo(program, results, fault=None):
    """Every session of ``results`` recorded ``program`` as its solo
    ``jobs=1`` oracle did (and a ``fault`` injected into it fired)."""
    for result in results:
        parity.assert_parity(parity.served(program, result, fault))


# ---------------------------------------------------------------------------
# Determinism.
# ---------------------------------------------------------------------------


def test_concurrent_sessions_bit_identical_to_solo():
    combos = [("fft", 2, 1, 0), ("pbzip", 2, 1, 3), ("racy-counter", 2, 1, 7)]
    service = RecordService(ServiceConfig(jobs=2, max_active=len(combos)))
    requests = [
        SessionRequest(sid=f"s{i}", workload=n, workers=w, scale=sc, seed=sd)
        for i, (n, w, sc, sd) in enumerate(combos)
    ]
    report = service.run(requests)
    assert report.ok, [r.error for r in report.results]
    for result, (name, workers, scale, seed) in zip(report.results, combos):
        _assert_solo(Program(name, workers, scale=scale, seed=seed), [result])
        assert result.epochs >= 1
        assert result.metrics["service"]["units"] >= 1


def test_identical_tenants_identical_recordings():
    service = RecordService(ServiceConfig(jobs=2, max_active=4))
    requests = [
        SessionRequest(sid=f"s{i}", workload="fft", scale=1, seed=5)
        for i in range(4)
    ]
    report = service.run(requests)
    assert report.ok, [r.error for r in report.results]
    _assert_solo(Program("fft", 2, scale=1, seed=5), report.results)


def test_replay_sessions_verify_recorded_sessions():
    service = RecordService(ServiceConfig(jobs=2, max_active=2))
    recorded = service.run(
        [SessionRequest(sid="rec", workload="pbzip", scale=1, seed=2)]
    )
    assert recorded.ok, [r.error for r in recorded.results]
    replayed = service.run(
        [
            SessionRequest(
                sid=f"rep{i}", workload="pbzip", scale=1, seed=2,
                kind="replay",
                recording_plain=recorded.results[0].recording_plain,
            )
            for i in range(2)
        ]
    )
    assert replayed.ok, [r.error for r in replayed.results]
    for result in replayed.results:
        assert result.verified is True
        assert result.epochs == recorded.results[0].epochs


def test_unknown_session_kind_fails_that_session_only():
    service = RecordService(ServiceConfig(jobs=2, max_active=2))
    report = service.run(
        [
            SessionRequest(sid="bad", workload="fft", scale=1, kind="bogus"),
            SessionRequest(sid="good", workload="fft", scale=1),
        ]
    )
    bad, good = report.results
    assert not bad.ok and "bogus" in bad.error
    assert good.ok and good.recording_plain is not None
    assert not report.ok


# ---------------------------------------------------------------------------
# Per-tenant fault isolation.
# ---------------------------------------------------------------------------


def test_fault_scoped_to_one_tenant_leaves_others_untouched():
    service = RecordService(ServiceConfig(jobs=2, max_active=3))
    report = service.run(
        [
            SessionRequest(sid="clean0", workload="fft", scale=1, seed=1,
                           faults=""),
            SessionRequest(sid="faulty", workload="fft", scale=1, seed=1,
                           faults="error:unit1"),
            SessionRequest(sid="clean1", workload="fft", scale=1, seed=1,
                           faults=""),
        ]
    )
    assert report.ok, [r.error for r in report.results]
    by_sid = {r.sid: r for r in report.results}
    program = Program("fft", 2, scale=1, seed=1)
    _assert_solo(program, [by_sid["faulty"]], fault="error:unit1")
    for sid in ("clean0", "clean1"):
        counters = by_sid[sid].metrics["faults"]
        assert not any(counters.values()), (
            f"{sid} saw fault counters {counters} from another tenant"
        )
    _assert_solo(program, [by_sid["clean0"], by_sid["clean1"]])


def test_pool_breaking_crash_in_one_tenant_is_survivable_by_all():
    host_pool.shutdown_shared_pool()
    try:
        service = RecordService(ServiceConfig(jobs=2, max_active=3))
        report = service.run(
            [
                SessionRequest(sid="clean0", workload="fft", scale=1, seed=4,
                               faults=""),
                SessionRequest(sid="crasher", workload="fft", scale=1, seed=4,
                               faults="crash:unit1"),
                SessionRequest(sid="clean1", workload="fft", scale=1, seed=4,
                               faults=""),
            ]
        )
        assert report.ok, [r.error for r in report.results]
        by_sid = {r.sid: r for r in report.results}
        program = Program("fft", 2, scale=1, seed=4)
        # crash + retry-crash + serial fallback is the worst case; at
        # minimum the injected crash fired and containment absorbed it.
        _assert_solo(program, [by_sid["crasher"]], fault="crash:unit1")
        assert by_sid["crasher"].metrics["faults"]["serial_fallbacks"] >= 1
        # Recordings are the solo one regardless of which tenant crashed.
        _assert_solo(program, [by_sid["clean0"], by_sid["clean1"]])
        # Neighbours have nothing attributed: a unit of theirs in a window
        # of the pool that crashed is collateral, dispatched again
        # uncounted, and what they had queued moves to the rebuilt pool —
        # no crash, no retry, no serial fallback.
        for sid in ("clean0", "clean1"):
            counters = by_sid[sid].metrics["faults"]
            assert counters["serial_fallbacks"] == 0
            assert not any(counters.values()), (sid, counters)
    finally:
        host_pool.shutdown_shared_pool()


# ---------------------------------------------------------------------------
# Flow control: the pool's windows and admission control.
# ---------------------------------------------------------------------------


def test_fleet_holds_at_burst_size(monkeypatch):
    """Fifty sessions through two slots: nothing drifts, leaks or overruns.

    Each session pushes more units than the pool's windows hold, so both
    tenants' lanes queue for the whole burst — and at every push no more
    than ``jobs x _WINDOW`` units sit in the workers' pipes.
    """
    in_pipes = []
    push = host_executor.SpeculativeSession.push

    def watched(session, unit):
        push(session, unit)
        pool = host_pool.shared_pool(2)
        in_pipes.append(sum(len(worker.window) for worker in pool._workers))

    monkeypatch.setattr(host_executor.SpeculativeSession, "push", watched)
    service = RecordService(ServiceConfig(jobs=2, max_active=2))
    report = service.run(
        [SessionRequest(sid=f"s{i}", workload="fft", scale=1, seed=7)
         for i in range(50)]
    )
    assert report.ok, [r.error for r in report.results if not r.ok]
    _assert_solo(Program("fft", 2, scale=1, seed=7), report.results)
    assert min(r.epochs for r in report.results) > 2
    assert len(in_pipes) >= sum(r.epochs for r in report.results)
    assert max(in_pipes) <= 2 * host_pool._WINDOW
    assert report.fleet["sessions"] == 50
    assert report.fleet["units"] == sum(r.epochs for r in report.results)


def test_admission_semaphore_bounds_active_sessions_and_measures_wait():
    service = RecordService(ServiceConfig(jobs=2, max_active=1))
    report = service.run(
        [SessionRequest(sid=f"s{i}", workload="fft", scale=1, seed=8)
         for i in range(3)]
    )
    assert report.ok, [r.error for r in report.results]
    waits = sorted(r.admission_wait for r in report.results)
    # With one admission slot, at least the last session queued behind
    # the full duration of an earlier one.
    assert waits[-1] > 0.0
    summary = report.summary()
    assert summary["admission_wait_max"] >= round(waits[-1], 6) - 1e-6
    assert summary["sessions"] == 3 and summary["ok"] == 3


def test_a_jobs1_serve_starts_no_pool(monkeypatch):
    """Regression: ``serve`` called ``shared_pool(jobs)`` at ``jobs=1``
    too, spawning a worker that no session ever gave a unit."""
    host_pool.shutdown_shared_pool()
    spawned = []
    monkeypatch.setattr(host_pool, "WorkerPool", spawned.append)
    report = RecordService(ServiceConfig(jobs=1, max_active=2)).run(
        [SessionRequest(sid=f"s{i}", workload="fft", scale=1, seed=8)
         for i in range(2)]
    )
    assert report.ok, [r.error for r in report.results]
    assert spawned == [] and host_pool._shared_pool is None


# ---------------------------------------------------------------------------
# Fleet economics: cross-session blob dedup.
# ---------------------------------------------------------------------------


def test_cross_session_dedup_cuts_shipped_bytes():
    host_pool.shutdown_shared_pool()
    try:
        service = RecordService(ServiceConfig(jobs=2, max_active=1))
        # max_active=1 serializes the sessions, so the second tenant's
        # dispatches run strictly after the first shipped its pages.
        report = service.run(
            [SessionRequest(sid=f"s{i}", workload="fft", scale=1, seed=9)
             for i in range(2)]
        )
        assert report.ok, [r.error for r in report.results]
        first, second = (r.metrics["service"] for r in report.results)
        assert second["cross_session_hits"] >= 1, (
            "identical tenant never hit the fleet-wide blob cache"
        )
        assert second["cross_session_bytes_saved"] > 0
        assert second["bytes_shipped"] <= first["bytes_shipped"] / 1.5
        wire = report.fleet["wire"]
        assert wire["cross_session_hits"] >= second["cross_session_hits"]
        assert wire["cross_session_bytes_saved"] >= (
            second["cross_session_bytes_saved"]
        )
    finally:
        host_pool.shutdown_shared_pool()


def test_fleet_totals_are_sums_over_its_lanes():
    """Each number is derived once, from the sessions' epoch lives: a burst
    of 8 sessions through 3 slots, and every fleet-wide count equals the
    sum of what the tenants were told — finished sessions included."""
    service = RecordService(ServiceConfig(jobs=2, max_active=3))
    report = service.run(
        [SessionRequest(sid=f"s{i}", workload="fft", scale=1, seed=9)
         for i in range(8)]
    )
    assert report.ok, [r.error for r in report.results]
    lanes = [r.metrics["service"] for r in report.results]
    fleet, wire = report.fleet, report.fleet["wire"]
    assert fleet["sessions"] == 8
    assert fleet["units"] == sum(lane["units"] for lane in lanes) > 8
    for total, key in (
        (wire["bytes_shipped"], "bytes_shipped"),
        (wire["cross_session_hits"], "cross_session_hits"),
        (wire["cross_session_bytes_saved"], "cross_session_bytes_saved"),
        (fleet["fair_share_deficits"], "fair_share_deficits"),
    ):
        assert total == sum(lane[key] for lane in lanes), key
    assert fleet["pool_rebuilds"] == sum(lane["pool_rebuilds"] for lane in lanes)
    assert wire["cross_session_hits"] > 0


def test_a_long_lived_service_keeps_no_state_per_tenant_page(monkeypatch):
    """Regression: the fleet remembered who first shipped every digest,
    for ever — a ``repro serve`` leaked coordinator memory per tenant page.

    Twelve identical sessions, with the scratch-pack cap shrunk so packs
    are replaced mid-segment all along: the recordings stay the solo
    one, the only coordinator state keyed by digest is the current
    pack's index — bounded by the cap plus one dispatch's puts — and
    what is left on disk is the current pack and those still named in
    flight. When the service stops, that goes too.
    """
    from repro.host import blobs as host_blobs
    from repro.record.pack import BlobStore

    cap = 2 << 10
    monkeypatch.setattr(host_blobs, "SCRATCH_PACK_BYTES", cap)
    packs = host_pool._scratch_packs
    flush = BlobStore.flush
    seen = {"pack_bytes": 0, "put": 0, "packs": 0, "roots": set()}

    def watched(store, fsync=False):
        # ScratchPacks.place calls this once per dispatch, under its lock
        # (and once more, with nothing buffered, to close a replaced pack).
        if store is not packs._store:
            return flush(store, fsync)
        put = sum(map(len, store._buffer))
        flush(store, fsync)
        seen["roots"].add(store.root)
        seen["put"] = max(seen["put"], put)
        seen["pack_bytes"] = max(seen["pack_bytes"], store.pack_bytes)
        on_disk = {os.path.join(packs._dir, name) for name in os.listdir(packs._dir)}
        assert on_disk <= set(packs._named) | {store.root}
        seen["packs"] = max(seen["packs"], len(on_disk))

    monkeypatch.setattr(BlobStore, "flush", watched)
    service = RecordService(ServiceConfig(jobs=2, max_active=3))
    report = service.run(
        [SessionRequest(sid=f"s{i}", workload="fft", scale=1, seed=9)
         for i in range(12)]
    )
    assert report.ok, [r.error for r in report.results]
    _assert_solo(Program("fft", 2, scale=1, seed=9), report.results)
    assert not any(
        count for r in report.results for count in r.metrics["faults"].values()
    )
    assert len(seen["roots"]) > 12, "the cap never replaced a pack mid-session"
    assert seen["pack_bytes"] <= cap + seen["put"]
    digest_keyed = [
        name for owner in (service, service.hub, host_pool.shared_pool(2))
        for name, value in vars(owner).items()
        if isinstance(value, (dict, set)) and any(
            isinstance(key, int) and key >> 64 for key in value
        )
    ]
    assert digest_keyed == []
    # Service stop: no pack, no directory, no index.
    assert packs._store is None and packs._dir is None and not packs._named
    assert not any(os.path.exists(root) for root in seen["roots"])


# ---------------------------------------------------------------------------
# Service bookkeeping.
# ---------------------------------------------------------------------------


def test_fleet_rejects_duplicate_session_ids(monkeypatch):
    """A request list naming one session id twice is refused before
    anything runs: no journal, no pool, no session."""
    def no_pool(jobs):
        raise AssertionError("the pool was brought up")

    monkeypatch.setattr("repro.service.coordinator.shared_pool", no_pool)
    service = RecordService(ServiceConfig(jobs=2, max_active=2))
    twins = [SessionRequest(sid="twin", workload="fft", scale=1)] * 2
    with pytest.raises(ValueError, match="duplicate session ids"):
        service.run(twins)
    assert service.hub.snapshot()["registered"] == 0


# ---------------------------------------------------------------------------
# Regression: the shared-pool module-global race.
# ---------------------------------------------------------------------------


class _FakePool:
    """Stands in for a ``WorkerPool`` (spawn cost: zero): what the
    module-level lifecycle touches of it is ``broken`` and ``shutdown``."""

    created = []

    def __init__(self, jobs):
        self.jobs = jobs
        self.broken = False
        self.shutdowns = 0
        self.created.append(self)

    def shutdown(self, kill=False, successor=None):
        self.shutdowns += 1


def test_shared_pool_concurrent_callers_race(monkeypatch):
    """Hammer ``shared_pool``/``invalidate_shared_pool`` from many threads.

    Before the module lock, two callers could observe the same cached
    pool, both shut it down, and both install a fresh one — leaking an
    orphaned pool whose workers are never joined. With the lock, every
    retired pool is shut down exactly once and exactly one pool is live
    at the end.
    """
    host_pool.shutdown_shared_pool()
    created = _FakePool.created = []
    monkeypatch.setattr(host_pool, "WorkerPool", _FakePool)
    errors = []
    start = threading.Barrier(8)

    def hammer(index):
        try:
            start.wait(timeout=10)
            for round_ in range(50):
                if (index + round_) % 3 == 0:
                    host_pool.invalidate_shared_pool()
                else:
                    # Growth requests force the replace path.
                    pool = host_pool.shared_pool(1 + (index + round_) % 4)
                    assert isinstance(pool, _FakePool)
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(i,), name=f"hammer-{i}")
        for i in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors

    live = [pool for pool in created if pool.shutdowns == 0]
    retired = [pool for pool in created if pool.shutdowns]
    # Exactly one pool survives (or none, if the last op invalidated),
    # and no retired pool was ever shut down twice.
    assert len(live) <= 1
    assert all(pool.shutdowns == 1 for pool in retired)
    host_pool.shutdown_shared_pool()
    assert all(pool.shutdowns <= 1 for pool in created)
