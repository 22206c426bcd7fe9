"""The parity table: however a program is recorded — ``jobs``, sink, a
host fault and the unit it strikes, solo or as a service tenant, fused
or not, traced or not, with a starved scratch pack, diverging where the
``divergence`` axis puts it — what is recorded is what ``jobs=1``
records (DESIGN.md, *One parity table*).

:func:`test_parity` runs a seeded covering set of ``parity.AXES``,
holds each run to its oracle and to the lifecycle rules (``parity``
runs ``repro.obs.lifecycle.violations`` on every run it makes), and
checks what each axis value makes the host do; the coverage test pins
which combinations the set must hold.
"""

from __future__ import annotations

import collections
import copy
import os
import time

import pytest

from repro.core import Replayer
from repro.host import executor as host_executor
from repro.host.pool import _scratch_packs, invalidate_shared_pool
from repro.host.wire import BlobRef, replay_spans
from repro.obs import export as obs_export
from repro.record.pack import PACK_NAME, BlobStore
from repro.record.shards import ShardedLogReader
from repro.workloads import WORKLOADS
from tests import parity
from tests.conftest import examples

#: pairs in tier-1; triples under the ``ci`` profile's larger budgets
STRENGTH = 2 if examples(1) == 1 else 3
CASES = parity.covering(STRENGTH)

#: every pair of axis values the hand-built row lists folded into the
#: table exercised (their 0.02 MB scratch cap, which never rotated the
#: pack, is the 2 kB one here): per pair of axes, value/value, frozen
FOLDED = """
program kind: clean/record clean/replay recovering/record recovering/replay
program jobs: clean/1 clean/2 clean/3 clean/4 recovering/2 recovering/3 recovering/4
program sink: clean/memory clean/log clean/spill clean/window recovering/memory
    recovering/log recovering/spill recovering/window
program fault: clean/none clean/crash clean/hang clean/error clean/crash-once clean/slow
    clean/needblobs clean/evicted-chunk clean/bad-magic recovering/none recovering/error
    recovering/crash-once recovering/needblobs recovering/bad-magic
program position: clean/first clean/interior clean/tail clean/in-flight recovering/first
    recovering/interior
program mode: clean/solo clean/serve recovering/solo recovering/serve
program superblocks: clean/True clean/False recovering/True recovering/False
program trace: clean/False clean/True recovering/False recovering/True
program scratch_cap: clean/None clean/0 clean/2048 recovering/None recovering/2048
kind jobs: record/1 record/2 record/3 record/4 replay/1 replay/2 replay/3 replay/4
kind sink: record/memory record/log record/spill record/window replay/memory
    replay/spill
kind fault: record/none record/crash record/hang record/error record/crash-once
    record/slow record/needblobs record/evicted-chunk record/bad-magic replay/none
    replay/crash replay/hang replay/error
kind position: record/first record/interior record/tail record/in-flight replay/first
    replay/interior replay/tail
kind mode: record/solo record/serve replay/solo
kind superblocks: record/True record/False replay/True
kind trace: record/False record/True replay/False
kind scratch_cap: record/None record/0 record/2048 replay/None replay/0 replay/2048
jobs sink: 1/memory 1/spill 2/memory 2/log 2/spill 2/window 3/memory 3/log 3/spill
    3/window 4/memory 4/spill
jobs fault: 1/none 2/none 2/crash 2/hang 2/error 2/crash-once 2/needblobs
    2/evicted-chunk 2/bad-magic 3/none 3/crash 3/needblobs 3/evicted-chunk 4/none
    4/crash 4/hang 4/error 4/crash-once 4/slow
jobs position: 1/first 2/first 2/interior 2/tail 2/in-flight 3/first 3/interior 3/tail
    3/in-flight 4/first 4/interior
jobs mode: 1/solo 2/solo 2/serve 3/solo 4/solo
jobs superblocks: 1/True 2/True 2/False 3/True 4/True 4/False
jobs trace: 1/False 1/True 2/False 3/False 4/False 4/True
jobs scratch_cap: 1/None 2/None 2/0 2/2048 3/None 4/None 4/2048
sink fault: memory/none memory/crash memory/hang memory/error memory/crash-once
    memory/slow memory/needblobs log/none log/error log/crash-once log/needblobs
    log/evicted-chunk log/bad-magic spill/none spill/crash-once spill/needblobs
    spill/evicted-chunk window/none window/needblobs
sink position: memory/first memory/interior memory/tail memory/in-flight log/first
    log/interior log/tail log/in-flight spill/first spill/interior spill/in-flight
    window/first
sink mode: memory/solo memory/serve log/solo spill/solo window/solo
sink superblocks: memory/True memory/False log/True spill/True window/True
sink trace: memory/False memory/True log/False spill/False window/False
sink scratch_cap: memory/None memory/0 memory/2048 log/None spill/None window/None
fault position: none/first crash/interior crash/tail hang/interior hang/tail error/first
    error/interior error/tail error/in-flight crash-once/interior crash-once/in-flight
    slow/interior needblobs/first needblobs/interior needblobs/tail needblobs/in-flight
    evicted-chunk/interior evicted-chunk/in-flight bad-magic/interior
    bad-magic/in-flight
fault mode: none/solo none/serve crash/solo hang/solo error/solo crash-once/solo
    slow/solo needblobs/solo evicted-chunk/solo bad-magic/solo
fault superblocks: none/True none/False crash/True hang/True error/True crash-once/True
    slow/True needblobs/True evicted-chunk/True bad-magic/True
fault trace: none/False none/True crash/False hang/False error/False crash-once/False
    slow/False needblobs/False evicted-chunk/False bad-magic/False
fault scratch_cap: none/None none/0 none/2048 crash/None hang/None error/None
    crash-once/None slow/None needblobs/None evicted-chunk/None bad-magic/None
position mode: first/solo first/serve interior/solo tail/solo in-flight/solo
position superblocks: first/True first/False interior/True tail/True in-flight/True
position trace: first/False first/True interior/False tail/False in-flight/False
position scratch_cap: first/None first/0 first/2048 interior/None tail/None
    in-flight/None
mode superblocks: solo/True solo/False serve/True
mode trace: solo/False solo/True serve/False
mode scratch_cap: solo/None solo/0 solo/2048 serve/None
superblocks trace: True/False True/True False/False
superblocks scratch_cap: True/None True/0 True/2048 False/None
trace scratch_cap: False/None False/0 False/2048 True/None
"""

#: the host fault counter each failing kind moves
COUNTER = {
    **parity._COUNTER, "crash-once": "crashes",
    **{kind: "task_errors" for kind in parity.PACK_LOSSES},
}
#: the directive of each fault a spec injects, at unit ``{}``
DIRECTIVES = {
    "crash": "crash:unit{}", "error": "error:unit{}", "hang": "hang:unit{}:30",
    "slow": "slow:unit{}:0.05", "crash-once": "crash:unit{}:once",
}
#: a hang is contained by the unit timeout
HANG_TIMEOUT = 1.0


def _unit(case, program):
    """The unit ``case.position`` names: a record's epoch position in its
    segment (the clean program runs one), a replay's span."""
    if case.position in ("first", "interior"):
        return ("first", "interior").index(case.position)
    if case.kind == "record":
        units = parity.oracle(program).result.stats["epochs"]
    else:
        epochs = parity.stored(program, case.sink).epochs
        units = len(replay_spans([epoch.duration for epoch in epochs], case.jobs))
    return units - (1 if case.position == "tail" else 2)


def _lose_pack(monkeypatch, tmp_path, kind, position):
    """Every record dispatch of ``position`` names a pack that has lost
    something (``parity.PACK_LOSSES``): outside input to the worker, so
    each loss is a task error there."""
    make_dispatch = host_executor.SpeculativeSession._make_dispatch
    packs = iter(range(1 << 30))

    def absent(ref):
        """The same blob under a digest no worker has cached and no pack
        holds, so the worker has to go to the pack for it."""
        return BlobRef(ref.digest ^ 1, ref._local)

    def lost(self, index):
        dispatch = make_dispatch(self, index)
        if self.kind != "record" or index != position:
            return dispatch
        host_executor._scratch_packs.release(dispatch.pack)
        dispatch.pack = root = str(tmp_path / f"pack-{next(packs)}")
        dispatch.unit = unit = copy.copy(dispatch.unit)
        if kind == "evicted-chunk":
            # A pack with everything the unit names but its chunks.
            assert unit.syscalls, "the unit sees no log chunk"
            store = BlobStore(root)
            for digest in dispatch.required_digests():
                store.put(digest, self.blobs[digest])
            store.close()
            unit.syscalls = tuple(absent(chunk) for chunk in unit.syscalls)
            return dispatch
        unit.signals = absent(unit.signals)
        if kind == "bad-magic":
            os.makedirs(root)
            with open(os.path.join(root, PACK_NAME), "wb") as handle:
                handle.write(b"not a blob pack, whatever it is")
        return dispatch  # "needblobs": a pack that is not there at all

    monkeypatch.setattr(host_executor.SpeculativeSession, "_make_dispatch", lost)


def _fault(case, program, monkeypatch, tmp_path):
    """The fault directive ``case`` runs under, the unit timeout, and the
    counter of the decoy: a fault at the same unit scoped to the other
    kind of run, which must never fire."""
    if case.jobs == 1:
        return None, None, None
    unit = _unit(case, program)
    other = {"record": "replay", "replay": "record"}[case.kind]
    decoy = "crash" if COUNTER.get(case.fault) == "task_errors" else "error"
    specs = [f"{other}:{decoy}:unit{unit}"]
    if case.fault in DIRECTIVES:
        specs.append(f"{case.kind}:" + DIRECTIVES[case.fault].format(unit))
    if case.fault in parity.PACK_LOSSES:
        _lose_pack(monkeypatch, tmp_path, case.fault, unit)
    if case.fault == "crash-once":
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fuses"))
    timeout = HANG_TIMEOUT if case.fault == "hang" else None
    return ",".join(specs), timeout, COUNTER[decoy]


def _assert_contained(case, host, decoy, unit):
    """What the case's fault made the host do, and nothing else."""
    faults = host["faults"]
    assert faults[decoy] == 0, f"an out-of-scope fault fired: {faults}"
    if case.fault in ("none", "slow"):
        assert not any(faults.values()), faults
    elif case.fault == "crash-once":
        # The fuse blew on the pushed attempt: a contained crash, attempt
        # 0, whose retry ran clean — never the fallback. Every unit of a
        # clean run is pushed first and merged, so its push blew it; a
        # racy run may cancel that push behind a divergence first.
        assert faults["crashes"] <= 1 and faults["serial_fallbacks"] == 0
        if case.program == "clean":
            assert faults["crashes"] == faults["retries"] == 1, faults
    else:
        # Every dispatch of the unit failed: retried, then run on the
        # coordinator.
        least = 2 if case.kind == "record" else 1
        assert faults[COUNTER[case.fault]] >= least, faults
        assert faults["retries"] >= 1 and faults["serial_fallbacks"] >= 1, faults
        events = host["fault_events"]
        fields = {"kind", "position", "attempt", "error"}
        assert events and all(set(event) == fields for event in events)
        assert {event["position"] for event in events} == {unit}, events


def _assert_class(case, got):
    """What the program's behaviour class promises of every record."""
    recording, stats = got.result.recording, got.result.stats
    boundaries, judged = got.fields["boundaries"], got.fields["judged"]
    if case.program == "clean":
        # Never diverges, so never armed: one segment, run to its end.
        assert stats["recoveries"] == 0
        assert got.tp_entries == stats["epochs"]
    if case.program == "recovering":
        # A restarted segment whose first epoch diverges is squashed at
        # its first boundary: that epoch's verdict is consumed there.
        epochs = recording.epochs
        at_once = [first for first in boundaries if first and epochs[first].recovered]
        assert len(at_once) > 1 and all(boundaries[first] == 1 for first in at_once)
        assert any(row[-1] == "squash" for row in judged)
        # Every failed attempt's cycles are waste, though the last
        # segment is clean; with no unit lost, every divergence after the
        # first was found by a consumed verdict.
        assert stats["divergences"] > 1 and stats["attempt_waste"] > 0
        assert not epochs[-1].recovered
        if case.jobs > 1 and case.fault in ("none", "slow"):
            assert got.host["speculation"]["accepted"] >= stats["recoveries"] - 1
    if case.program == "gated":
        # It diverges exactly where the case says: nowhere, or first at
        # the epoch named (and, inside the lag, at a position the
        # restarted segment judges lag boundaries later).
        named = parity.named_epochs(case.divergence)
        if not named:
            assert stats["recoveries"] == 0
        else:
            assert recording.epochs[named[0]].recovered
        if case.divergence == "lag":
            lag = parity.build(got.program).config.inflight_bound()
            assert any(0 < row[2] < lag and row[-1] == "squash" for row in judged)
    if case.program == "io-racy":
        assert stats["recoveries"] > 10
    if not parity.SINKS[case.sink].get("log_spill"):  # (spilled: not kept)
        # Checkpoint indices count the committed chain, not squashed futures.
        chain = [epoch.start_checkpoint.index for epoch in recording.epochs]
        assert chain == list(range(len(chain)))


def _assert_pack_rotated(case, got, packs, uncapped):
    """A capped pack rotated, re-putting blobs an uncapped one holds once."""
    rotations = _scratch_packs._serial - packs - 1
    assert rotations > 0, f"a {case.scratch_cap}-byte pack never rotated"
    if uncapped is not None:
        sent = got.host["wire"]["blobs_sent"]
        assert sent > uncapped.host["wire"]["blobs_sent"]
        # Once nothing is in flight any more (a future wakes its waiter
        # before it runs its callbacks), only the current pack is left.
        deadline = time.monotonic() + 5
        while _scratch_packs._named and time.monotonic() < deadline:
            time.sleep(0.01)
        with _scratch_packs._lock:  # the last release deletes under it
            left = os.listdir(_scratch_packs._dir)
        assert left == [os.path.basename(_scratch_packs._store.root)]


def _assert_trace(case, got):
    """The timeline is schema-valid and complete: one execute span per
    epoch attempt the run kept, some on a worker's track (unless a fault
    sent them all to the coordinator)."""
    payload = got.trace
    assert obs_export.validate_trace(payload) == []
    executes = [
        event for event in payload["traceEvents"]
        if event.get("ph") == "X" and event["name"] == "execute"
    ]
    assert len(executes) == got.result.metrics.get("exec", "epochs")
    if case.jobs > 1 and case.fault in ("none", "slow"):
        coordinator = payload["otherData"]["coordinator_pid"]
        assert any(event["pid"] != coordinator for event in executes)


def _assert_suffix_replays(program, sink):
    """A ``--from-epoch`` suffix of the durable log replays its epochs
    alone, to the same verified end."""
    total = parity.stored(program, sink).epoch_count()
    mid = total // 2
    reader = ShardedLogReader(parity.oracle(program, sink).log_dir)
    suffix = reader.load_recording(from_epoch=mid)
    assert [epoch.index for epoch in suffix.epochs] == list(range(mid, total))
    built = parity.build(program)
    replayed = Replayer(built.instance.image, built.machine).replay_sequential(suffix)
    assert replayed.verified, replayed.details
    assert replayed.epochs_replayed == total - mid
    whole = parity.oracle(program, kind="sequential").result
    assert replayed.total_cycles < whole.total_cycles


def _serve(case, program, spec, monkeypatch):
    """Record ``program`` as two tenants of one service: one under the
    case's fault, its neighbour clean; both are the solo oracle."""
    from repro.service import RecordService, ServiceConfig, SessionRequest

    if program.workload in parity.EXTRA:
        monkeypatch.setitem(WORKLOADS, program.workload, parity.EXTRA[program.workload])
    requests = [
        SessionRequest(
            sid=sid, workload=program.workload, workers=program.workers,
            scale=program.scale, seed=program.seed, faults=faults,
            epoch_cycles=parity.build(program).config.epoch_cycles,
        )
        for sid, faults in (("faulted", spec or ""), ("neighbour", ""))
    ]
    service = RecordService(ServiceConfig(jobs=case.jobs, max_active=2))
    with parity._running(scratch_cap=case.scratch_cap):
        report = service.run(requests)
    assert report.ok, [result.error for result in report.results]
    faulted, neighbour = sorted(report.results, key=lambda r: r.sid)
    parity.assert_parity(parity.served(program, faulted, fault=spec))
    parity.assert_parity(parity.served(program, neighbour))
    # A neighbour's unit lost with a crashed pool is collateral: sent
    # again, uncounted.
    assert not any(neighbour.metrics.get("faults", {}).values())
    assert not neighbour.fault_events
    return dict(faulted.metrics, fault_events=faulted.fault_events)


@pytest.mark.parametrize("case", CASES, ids=parity.case_id)
def test_parity(monkeypatch, tmp_path, case):
    program = parity.program_of(case)
    parity.oracle(program, case.sink)  # oracles first: no patch below meets them
    if case.kind == "replay":
        parity.oracle(program, case.sink, "parallel")
    spec, timeout, decoy = _fault(case, program, monkeypatch, tmp_path)
    if case.mode == "serve":
        host = _serve(case, program, spec, monkeypatch)
        if case.jobs > 1:
            _assert_contained(case, host, decoy, _unit(case, program))
        return
    how = dict(
        jobs=case.jobs, sink=case.sink, fault=spec, unit_timeout=timeout,
        superblocks=None if case.superblocks else False,
    )
    if case.kind == "record":
        how["trace"] = tmp_path / "trace.json" if case.trace else None
    observe = parity.observe if case.kind == "record" else parity.observe_replay
    uncapped = None
    if case.scratch_cap is not None:
        if case.fault in ("none", "slow"):
            invalidate_shared_pool()  # an empty pack: the run's puts are its own
            uncapped = observe(program, **how)
        invalidate_shared_pool()
    packs = _scratch_packs._serial
    got = observe(program, scratch_cap=case.scratch_cap, **how)
    parity.assert_parity(got)  # and the fault fired, fusion stayed off
    if case.scratch_cap is not None:
        _assert_pack_rotated(case, got, packs, uncapped)
    if case.jobs > 1:
        _assert_contained(case, got.host, decoy, _unit(case, program))
    if case.kind == "replay":
        if case.jobs > 1:
            spans = replay_spans([e.duration for e in got.recording.epochs], case.jobs)
            assert got.result.jobs == got.host["jobs"] == case.jobs
            assert got.host["units"] == len(spans)
        if case.sink in ("log", "spill"):
            _assert_suffix_replays(program, case.sink)
        return
    _assert_class(case, got)
    recording = got.result.recording
    assert "host" not in recording.stats
    if parity.SINKS[case.sink].get("log_spill"):
        assert got.result.stats["log_spilled"] == 1
    if case.trace:
        _assert_trace(case, got)
    if case.jobs == 1:
        assert got.host == {"jobs": 1}
        return
    host, speculation = got.host, got.host["speculation"]
    assert host["jobs"] == case.jobs
    assert host["units"] >= recording.epoch_count() - recording.stats["recoveries"]
    if case.fault in ("none", "slow"):
        assert speculation["dispatched"] >= 1
        if case.program == "clean":
            assert speculation["discarded"] == 0
        if case.program == "held-lock":
            # The starved verdict was consumed, then rejected at segment
            # end and its position run again.
            assert speculation["invalidated"] >= 1
    elif case.fault != "crash-once":
        assert speculation["discarded"] >= 1
    if case.program == "clean":
        # Long race-free segments: speculation engages and is accepted.
        assert speculation["accepted"] >= 1


def _folded_pairs():
    pairs = set()
    for line in FOLDED.replace("\n    ", " ").strip().splitlines():
        axes, values = line.split(": ")
        a, b = axes.split()
        named = {axis: {str(v): v for v in parity.AXES[axis]} for axis in (a, b)}
        for x, y in (pair.split("/") for pair in values.split()):
            pairs.add(((a, named[a][x]), (b, named[b][y])))
    return pairs


def test_the_table_covers_every_pair_and_needs_every_case():
    """Every pair of axis values some valid case has is in a case — the
    folded lists' pairs among them — and every case but the plain runs
    (which are there by name) holds a combination of axis values no
    other case of the table it was chosen for does (``parity.EARLIER``'s
    cases among themselves), so none can go unnoticed."""
    assert set(parity.PLAIN) <= set(CASES)
    cases = [case._asdict() for case in CASES]
    assert all(parity.valid(case) for case in cases)
    pairs = {combo for case in cases for combo in parity._tuples(case, 2)}
    assert _folded_pairs() - pairs == set()
    assert set(parity.feasible(2)) - pairs == set()
    earlier = [case for case in CASES if case.program in parity.EARLIER["program"]]
    later = [case for case in CASES if case not in earlier]
    for chosen, among in ((earlier, earlier), (later, CASES)):
        held = collections.Counter(
            combo for case in among for combo in parity._tuples(case._asdict(), STRENGTH)
        )
        assert all(
            any(held[combo] == 1 for combo in parity._tuples(case._asdict(), STRENGTH))
            for case in chosen if case not in parity.PLAIN
        )
