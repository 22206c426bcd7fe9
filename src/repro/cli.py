"""Command-line interface.

``python -m repro <command>`` drives the library end to end:

* ``list`` — the workload suite;
* ``run`` — native execution of a workload (+ validation);
* ``record`` — DoublePlay-record a workload, report overhead/log sizes,
  optionally save the recording as JSON;
* ``replay`` — replay a saved recording (sequential, parallel, or one
  epoch) and verify it;
* ``diagnose`` — replay a recording's rolled-back epochs under the race
  detector and name the racing addresses;
* ``experiment`` — regenerate one of the paper's tables/figures;
* ``trace`` — summarize a Perfetto timeline written by ``--trace``
  (overlap ratio, slowest epochs, straggler attribution).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
from typing import List, Optional

from repro.analysis import experiments
from repro.analysis.tables import render_table
from repro.baselines import run_native
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.errors import ReplayError
from repro.machine.config import MachineConfig
from repro.obs import spans as obs_spans
from repro.obs.summary import print_summary
from repro.obs.export import (
    load_trace,
    render_summary,
    summarize_trace,
    validate_trace,
    write_chrome_trace,
)
from repro.record.recording import Recording
from repro.workloads import WORKLOADS, build_workload, workload_names

EXPERIMENTS = {
    "table1": lambda args: (
        experiments.workload_characteristics(workers=args.workers),
        ["workload", "category", "threads", "instructions", "cycles",
         "syscalls", "sync_ops", "shared_pages", "races"],
    ),
    "fig5": lambda args: (
        experiments.overhead_experiment(workers=2),
        ["workload", "native", "makespan", "overhead", "epochs", "divergences"],
    ),
    "fig6": lambda args: (
        experiments.overhead_experiment(workers=4),
        ["workload", "native", "makespan", "overhead", "epochs", "divergences"],
    ),
    "fig7": lambda args: (
        experiments.overhead_experiment(workers=args.workers, spare_cores=False),
        ["workload", "native", "makespan", "overhead", "epochs"],
    ),
    "table2": lambda args: (
        experiments.log_size_experiment(workers=args.workers),
        ["workload", "schedule", "sync", "syscall", "dp_total",
         "per_mcycle", "crew", "value_log"],
    ),
    "fig8": lambda args: (
        experiments.replay_speed_experiment(workers=args.workers),
        ["workload", "native", "sequential", "seq_x", "parallel", "par_x",
         "verified"],
    ),
    "table3": lambda args: (
        experiments.divergence_experiment(workers=args.workers),
        ["workload", "racy", "sync_hints", "epochs", "divergences",
         "recoveries", "overhead", "replay_ok"],
    ),
    "fig9": lambda args: (
        experiments.epoch_length_experiment(workers=args.workers),
        ["workload", "epoch_cycles", "epochs", "overhead", "log_bytes"],
    ),
    "fig10": lambda args: (
        experiments.baseline_comparison(workers=args.workers),
        ["workload", "doubleplay", "uniproc", "crew", "valuelog"],
    ),
}


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", choices=workload_names())
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scale", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)


def _add_host_args(parser: argparse.ArgumentParser) -> None:
    """The host-side flags ``record`` and ``replay`` share."""
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="host worker processes for epoch execution (default: serial; "
             "results are bit-identical at any jobs count; on replay, "
             "more than one implies --parallel)")
    parser.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="per-unit wall-clock budget for hung host workers, from when "
             "a worker takes the unit (default: REPRO_UNIT_TIMEOUT or 60; "
             "0 disables)")
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome-trace (Perfetto) timeline of the run here")


def _build(args):
    instance = build_workload(
        args.workload, workers=args.workers, scale=args.scale, seed=args.seed
    )
    machine = MachineConfig(cores=args.workers)
    return instance, machine


def cmd_list(args, out) -> int:
    rows = [
        {
            "workload": name,
            "category": WORKLOADS[name].category,
            "racy": WORKLOADS[name].racy,
        }
        for name in workload_names()
    ]
    print(render_table(rows, ["workload", "category", "racy"]), file=out)
    return 0


def cmd_run(args, out) -> int:
    instance, machine = _build(args)
    native = run_native(instance.image, instance.setup, machine)
    valid = instance.validate(native.kernel)
    print(
        f"{args.workload}: {native.duration} cycles, {native.ops} instructions, "
        f"output={native.output}, valid={valid}",
        file=out,
    )
    return 0 if valid else 1


class _TraceScope:
    """Starts span tracing around a record/replay and writes the Chrome
    trace on the way out (even when the run raises).

    The written payload also embeds the run's interpreter counters
    (superblock fusion, ops retired) as a snapshot delta over the scope,
    so ``repro trace summarize`` can report fusion engagement without
    re-running anything.
    """

    #: dotted counters worth shipping in a timeline (keep it small: the
    #: trace is the artifact, not a metrics dump). ``superblock.`` and
    #: ``durable.`` are whole-group prefixes.
    _COUNTER_KEYS = ("superblock.", "exec.ops_executed", "durable.")

    def __init__(self, path: Optional[str]):
        self.path = path
        self._baseline: dict = {}

    def __enter__(self):
        if self.path:
            from repro.obs import metrics as obs_metrics

            self._baseline = obs_metrics.process_stats().snapshot()
            obs_spans.start_trace(self.path)
        return self

    def _counters(self) -> dict:
        """Scope-delta of the kept counters, nested ``{group: {key: n}}``."""
        from repro.obs import metrics as obs_metrics

        current = obs_metrics.process_stats().snapshot()
        delta: dict = {}
        for dotted, value in current.items():
            if not any(
                dotted == kept or (kept.endswith(".") and dotted.startswith(kept))
                for kept in self._COUNTER_KEYS
            ):
                continue
            change = value - self._baseline.get(dotted, 0)
            if change:
                group, key = dotted.split(".", 1)
                delta.setdefault(group, {})[key] = change
        return delta

    def __exit__(self, *exc):
        if self.path:
            tracer = obs_spans.stop_trace()
            if tracer is not None:
                write_chrome_trace(tracer, self.path, counters=self._counters())
        return False


def cmd_record(args, out) -> int:
    instance, machine = _build(args)
    if args.log_spill and not args.log_dir:
        print("error: --log-spill requires --log-dir", file=out)
        return 2
    if args.flight_window is not None and not args.log_dir:
        print("error: --flight-window requires --log-dir", file=out)
        return 2
    if args.flight_window is not None and args.flight_window < 1:
        print("error: --flight-window must be >= 1", file=out)
        return 2
    if args.output and args.log_spill:
        print(
            "error: --output needs the in-memory logs, which --log-spill "
            "drops; the durable log directory already holds the recording",
            file=out,
        )
        return 2
    native = run_native(instance.image, instance.setup, machine)
    # What a saved recording carries to name its program (see _rebuild).
    meta = {
        "name": args.workload,
        "workers": args.workers,
        "scale": args.scale,
        "seed": args.seed,
    }
    overrides = {}
    if args.log_dir:
        overrides["log_dir"] = args.log_dir
        overrides["log_spill"] = args.log_spill
        overrides["flight_window"] = args.flight_window
        overrides["log_meta"] = meta
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // args.epoch_divisor, 400),
        spare_cores=not args.no_spare_cores,
        use_sync_hints=not args.no_sync_hints,
        host_jobs=args.jobs,
        unit_timeout=args.unit_timeout,
        **overrides,
    )
    with _TraceScope(args.trace):
        result = DoublePlayRecorder(
            instance.image, instance.setup, config
        ).record()
    recording = result.recording
    valid = instance.validate(
        result.committed_kernel(instance.setup, instance.image.heap_base)
    )
    print(
        f"recorded {args.workload}: {recording.epoch_count()} epochs, "
        f"{recording.divergences()} divergences, "
        f"overhead {result.overhead_vs(native.duration):.1%}, "
        f"log {recording.total_log_bytes()} bytes, valid={valid}",
        file=out,
    )
    for key, value in recording.log_breakdown().items():
        print(f"  {key}: {value}", file=out)
    print_summary(result.metrics, out)
    if args.trace:
        print(f"wrote trace to {args.trace}", file=out)
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(
                {
                    "workload": {**meta, "jobs": args.jobs},
                    "metrics": result.metrics.snapshot(),
                },
                handle,
                indent=2,
                sort_keys=True,
            )
        print(f"saved metrics snapshot to {args.metrics_out}", file=out)
    if args.log_dir:
        print(f"saved durable log to {args.log_dir}", file=out)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump({"workload": meta, "recording": recording.to_plain()}, handle)
        print(f"saved recording to {args.output}", file=out)
    return 0 if valid else 1


def _tail_is_replayable(directory, out) -> bool:
    """Open a durable log for recovery: print its crash state, verify it.

    The front half of ``log recover DIR`` and ``replay DIR --tail``; a
    log that does not open at all raises :class:`ReplayError`.
    """
    from repro.record.shards import ShardedLogReader

    reader = ShardedLogReader(directory)
    state = "complete" if reader.complete else "crashed/unsealed"
    reason = f" — {reader.crash_reason}" if reader.crash_reason else ""
    print(f"{directory}: {state}{reason}", file=out)
    problems = reader.verify()
    for problem in problems:
        print(f"  {problem}", file=out)
    if problems:
        print(f"recover FAILED: {len(problems)} integrity problem(s)", file=out)
        return False
    count = reader.epoch_count()
    if not count:
        print("recover FAILED: no committed epochs survived", file=out)
        return False
    first = reader.first_epoch()
    window = (
        f", flight window {reader.flight_window}" if reader.flight_window else ""
    )
    print(
        f"  {count} committed epoch(s), {first}..{first + count - 1}{window}",
        file=out,
    )
    return True


def cmd_replay(args, out) -> int:
    single = args.epoch is not None
    parallel = not single and (args.parallel or args.jobs > 1)
    # A JSON recording holds no recorded checkpoint to start from: it
    # replays sequentially, from its initial state.
    if not os.path.isdir(args.recording):
        for flag, given in (
            ("recovering a tail", args.tail),
            ("--from-epoch", args.from_epoch is not None),
            ("--epoch", single),
            ("parallel replay", parallel),
        ):
            if given:
                raise ReplayError(
                    f"{args.recording}: {flag} needs a durable log directory"
                )
    if args.tail and not _tail_is_replayable(args.recording, out):
        return 1
    meta, instance, machine, recording = _load_recording(
        args.recording,
        # One epoch replays from its own start checkpoint alone.
        from_epoch=args.epoch if single else args.from_epoch,
        materialize=parallel,
    )
    replayer = Replayer(instance.image, machine)
    with _TraceScope(args.trace):
        if single:
            outcome = replayer.replay_epoch(recording, args.epoch)
            label = f"epoch {args.epoch}"
        elif parallel:
            outcome = replayer.replay_parallel(
                recording, workers=meta["workers"], jobs=args.jobs,
                unit_timeout=args.unit_timeout,
            )
            label = (
                f"parallel[jobs={outcome.jobs}]" if args.jobs > 1 else "parallel"
            )
        else:
            outcome = replayer.replay_sequential(recording)
            label = "sequential"
    if args.tail:
        first, last = recording.epoch_range()
        label = f"{label} tail (epochs {first}..{last})"
    elif args.from_epoch is not None:
        label = f"{label} from epoch {args.from_epoch}"
    status = "verified" if outcome.verified else "FAILED"
    print(
        f"{label} replay of {meta['name']}: {status}, "
        f"{outcome.epochs_replayed} epoch(s), makespan {outcome.makespan}",
        file=out,
    )
    for detail in outcome.details:
        print(f"  {detail}", file=out)
    print_summary(outcome.metrics, out)
    if args.trace:
        print(f"wrote trace to {args.trace}", file=out)
    return 0 if outcome.verified else 1


def _rebuild(meta, path):
    """The workload instance and machine a recording's metadata names."""
    try:
        instance = build_workload(
            meta["name"], workers=meta["workers"], scale=meta["scale"],
            seed=meta["seed"],
        )
    except (KeyError, TypeError):
        raise ReplayError(
            f"{path}: no usable workload metadata (recorded without the "
            "CLI?) — cannot rebuild the program image"
        ) from None
    return instance, MachineConfig(cores=meta["workers"])


def _load_recording(
    path, from_epoch: Optional[int] = None, materialize: bool = False
):
    """Load a recording from a JSON file or a durable log directory.

    Directory paths are sharded durable logs (``repro.record.shards``):
    the recording is rebuilt from the manifest, ``from_epoch`` selects a
    suffix whose start checkpoint materialises from the blob store, and
    ``materialize`` hydrates every epoch's checkpoint (parallel replay) —
    the recorded checkpoints, no re-execution in either case. A JSON
    recording carries no checkpoints and takes neither. ``from_epoch``
    uses ``None`` as the "not given" sentinel so epoch 0 is an explicit,
    valid target.
    """
    if os.path.isdir(path):
        from repro.record.shards import ShardedLogReader

        reader = ShardedLogReader(path)
        meta = reader.workload
        instance, machine = _rebuild(meta, path)
        recording = reader.load_recording(
            from_epoch=from_epoch, materialize=materialize
        )
        return meta, instance, machine, recording
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "recording" not in payload:
        raise ReplayError(f"{path}: not a recording saved by 'repro record -o'")
    meta = payload.get("workload")
    instance, machine = _rebuild(meta, path)
    recording = Recording.load_plain(
        payload["recording"], instance.image, instance.setup, machine
    )
    return meta, instance, machine, recording


def cmd_log(args, out) -> int:
    """Durable-log maintenance; ``recover DIR`` is ``replay DIR --tail``."""
    return cmd_replay(
        build_parser().parse_args(["replay", args.directory, "--tail"]), out
    )


def cmd_diagnose(args, out) -> int:
    from repro.analysis.diagnose import diagnose_recording

    meta, instance, machine, recording = _load_recording(args.recording)
    diagnoses = diagnose_recording(instance.image, machine, recording)
    if not diagnoses:
        print(f"{meta['name']}: no rolled-back epochs — nothing to diagnose",
              file=out)
        return 0
    for diagnosis in diagnoses:
        if diagnosis.racy:
            print(
                f"epoch {diagnosis.epoch_index}: race manifested on "
                f"address(es) {diagnosis.racy_addresses}",
                file=out,
            )
        else:
            print(
                f"epoch {diagnosis.epoch_index}: rolled back; race did not "
                f"re-manifest in the committed interleaving",
                file=out,
            )
    return 0


def cmd_experiment(args, out) -> int:
    rows, columns = EXPERIMENTS[args.name](args)
    print(render_table(rows, columns, title=args.name), file=out)
    return 0


def cmd_trace(args, out) -> int:
    payload = load_trace(args.trace)
    problems = validate_trace(payload)
    if problems:
        print(f"{args.trace}: invalid trace", file=out)
        for problem in problems:
            print(f"  {problem}", file=out)
        return 1
    summary = summarize_trace(payload, top=args.top)
    print(render_summary(summary), file=out)
    if args.min_overlap is not None and summary["overlap_ratio"] < args.min_overlap:
        print(
            f"overlap ratio {summary['overlap_ratio']:.2f} below required "
            f"{args.min_overlap:.2f}",
            file=out,
        )
        return 1
    return 0


@contextlib.contextmanager
def _sigterm_ends_linger(service, linger: float):
    """While a ``--linger`` window may open, SIGTERM closes it early —
    the report, ``--verify`` and the exit code still follow."""
    if linger <= 0:
        yield
        return
    previous = signal.signal(signal.SIGTERM, lambda *_: service.end_linger())
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def cmd_serve(args, out) -> int:
    """Multi-session service command: N tenants over one shared worker pool.

    Records (or replays) the same workload ``--sessions`` times
    concurrently through :class:`repro.service.RecordService` and
    prints per-session and fleet-wide accounting — admission waits,
    unit latency, cross-session blob dedup.
    ``--verify`` additionally checks every tenant's recording against
    a solo ``--jobs 1`` run (the service determinism contract).
    """
    import json as json_mod

    from repro.service import RecordService, ServiceConfig, SessionRequest

    config = ServiceConfig(
        jobs=args.jobs,
        max_active=args.active,
        telemetry_port=args.telemetry_port,
        telemetry_linger=args.linger,
        events_path=args.events,
    )
    service = RecordService(config)
    requests = [
        SessionRequest(
            sid=f"s{i}",
            workload=args.workload,
            workers=args.workers,
            scale=args.scale,
            seed=args.seed,
            epoch_divisor=args.epoch_divisor,
            faults=(args.fault if i == args.fault_session else ""),
            trace=args.trace_sessions,
        )
        for i in range(args.sessions)
    ]
    with _sigterm_ends_linger(service, args.linger):
        report = service.run(requests)

    if args.replay and report.ok:
        replays = [
            SessionRequest(
                sid=f"r{i}",
                workload=args.workload,
                workers=args.workers,
                scale=args.scale,
                seed=args.seed,
                kind="replay",
                epoch_divisor=args.epoch_divisor,
                recording_plain=result.recording_plain,
            )
            for i, result in enumerate(report.results)
        ]
        with _sigterm_ends_linger(service, args.linger):
            replay_report = service.run(replays)
        verified = sum(1 for r in replay_report.results if r.verified)
        print(
            f"replay: {verified}/{len(replay_report.results)} sessions "
            f"verified", file=out,
        )
        if not replay_report.ok:
            for result in replay_report.results:
                if not result.ok:
                    print(f"  {result.sid}: {result.error}", file=out)
            return 1

    rows = []
    for result in report.results:
        svc = result.metrics.get("service", {})
        rows.append({
            "session": result.sid,
            "ok": result.ok,
            "epochs": result.epochs,
            "admission_ms": round(result.admission_wait * 1e3, 2),
            "p99_unit_ms": round(svc.get("unit_latency_p99", 0.0) * 1e3, 2),
            "cross_hits": svc.get("cross_session_hits", 0),
            "kb_saved": round(svc.get("cross_session_bytes_saved", 0) / 1024, 1),
        })
    print(render_table(rows, list(rows[0].keys())), file=out)
    print(json_mod.dumps(report.summary(), indent=2, sort_keys=True), file=out)
    if report.telemetry_port is not None:
        print(f"telemetry served on port {report.telemetry_port}", file=out)
    if report.health is not None:
        status = report.health.get("status", "ok")
        print(f"health: {status}", file=out)
        for problem in report.health.get("problems", ()):
            print(f"  {problem['detector']}: {problem['detail']}", file=out)

    if not report.ok:
        for result in report.results:
            if not result.ok:
                print(f"{result.sid} failed: {result.error}", file=out)
        return 1

    if args.verify:
        instance, machine = _build(args)
        native = run_native(instance.image, instance.setup, machine)
        solo_config = DoublePlayConfig(
            machine=machine,
            epoch_cycles=max(native.duration // args.epoch_divisor, 500),
            host_jobs=1,
        )
        solo = DoublePlayRecorder(
            instance.image, instance.setup, solo_config
        ).record()
        canon = json_mod.dumps(solo.recording.to_plain(), sort_keys=True)
        drifted = [
            result.sid
            for result in report.results
            if json_mod.dumps(result.recording_plain, sort_keys=True) != canon
        ]
        if drifted:
            print(f"VERIFY FAILED: drifted from solo jobs=1: {drifted}",
                  file=out)
            return 1
        print(f"verify: all {len(report.results)} recordings bit-identical "
              f"to solo jobs=1", file=out)
        if not report.healthy and not args.fault:
            # Organic degradation (nobody injected a fault) fails the
            # verified run; deliberately injected faults are reported
            # above but are the test's business, not a service failure.
            print("VERIFY FAILED: service health degraded", file=out)
            return 1
    return 0


def cmd_top(args, out) -> int:
    """Poll a live telemetry endpoint into a refreshing terminal table."""
    import time as time_mod

    from repro.obs.expo import http_get

    url = (args.url or f"http://127.0.0.1:{args.port}").rstrip("/")
    seen = False
    try:
        while True:
            try:
                snap = json.loads(http_get(f"{url}/sessions"))
            except (OSError, ValueError) as exc:
                if seen:
                    print("telemetry endpoint gone — service finished",
                          file=out)
                    return 0
                print(f"error: cannot reach {url}/sessions: {exc}", file=out)
                return 1
            seen = True
            rows = []
            for session in snap.get("sessions", []):
                lane = session.get("lane") or {}
                rows.append({
                    "session": session.get("sid", "?"),
                    "status": session.get("status", "?"),
                    "epochs": session.get("epochs", 0),
                    "inflight": lane.get("inflight", 0),
                    "queue_hw": lane.get("queue_high_water", 0),
                    "p50_ms": round(
                        float(lane.get("unit_latency_p50", 0.0)) * 1e3, 2),
                    "p99_ms": round(
                        float(lane.get("unit_latency_p99", 0.0)) * 1e3, 2),
                    "faults": session.get("faults", 0),
                })
            if not args.once:
                # Home the cursor and clear: a refreshing top-style view.
                print("\x1b[2J\x1b[H", end="", file=out)
            print(
                f"sessions: {snap.get('running', 0)} running, "
                f"{snap.get('completed', 0)} completed, "
                f"{snap.get('failed', 0)} failed",
                file=out,
            )
            if rows:
                print(render_table(rows, list(rows[0].keys())), file=out)
            if args.once:
                return 0
            time_mod.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_events(args, out) -> int:
    """Read the tail of a JSON-lines event journal sink."""
    from repro.obs import events as obs_events

    for event in obs_events.read_events(args.path, count=args.count):
        print(obs_events.format_event(event), file=out)
    return 0


def _load_flat_metrics(path: str) -> dict:
    """Flat ``{"group.counter": value}`` from a ``--metrics-out`` file
    (or a bare ``RunMetrics.snapshot()`` JSON)."""
    with open(path) as handle:
        payload = json.load(handle)
    snapshot = payload.get("metrics", payload) if isinstance(payload, dict) else None
    if not isinstance(snapshot, dict):
        raise ReplayError(f"{path}: not a metrics snapshot")
    flat = {}
    for group, counters in snapshot.items():
        if not isinstance(counters, dict):
            continue
        for name, value in counters.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[f"{group}.{name}"] = value
    return flat


def cmd_metrics(args, out) -> int:
    """``repro metrics diff A.json B.json`` — compare two runs' metrics."""
    a = _load_flat_metrics(args.a)
    b = _load_flat_metrics(args.b)
    rows = []
    breaches = 0
    differing = 0
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, 0), b.get(key, 0)
        if va == vb and not args.all:
            continue
        if va != vb:
            differing += 1
        delta = vb - va
        if va:
            rel = delta / va
            rel_text = f"{rel:+.1%}"
            breach = abs(rel) >= args.threshold
        else:
            rel_text = "new" if delta else ""
            breach = bool(delta)
        flag = ""
        if va != vb and breach:
            flag = "*"
            breaches += 1
        rows.append({
            "metric": key,
            "a": round(va, 6),
            "b": round(vb, 6),
            "delta": round(delta, 6),
            "rel": rel_text,
            "flag": flag,
        })
    if rows:
        print(render_table(
            rows, ["metric", "a", "b", "delta", "rel", "flag"]), file=out)
    print(
        f"{differing} metric(s) differ; {breaches} beyond "
        f"{args.threshold:.0%} (flagged *)",
        file=out,
    )
    if args.check and breaches:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DoublePlay reproduction: record and replay workloads "
        "on the simulated multiprocessor.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available workloads")

    run_parser = commands.add_parser("run", help="run a workload natively")
    _add_workload_args(run_parser)

    record_parser = commands.add_parser("record", help="record with DoublePlay")
    _add_workload_args(record_parser)
    record_parser.add_argument("--epoch-divisor", type=_at_least_one, default=18,
                               help="epochs per native runtime (default 18)")
    record_parser.add_argument("--no-spare-cores", action="store_true")
    record_parser.add_argument("--no-sync-hints", action="store_true")
    _add_host_args(record_parser)
    record_parser.add_argument(
        "--log-dir", default=None, metavar="DIR",
        help="stream committed epochs to a durable sharded log here "
             "(manifest + segments + blob store); replay it with "
             "'repro replay DIR [--from-epoch N]'")
    record_parser.add_argument(
        "--log-spill", action="store_true",
        help="flight-recorder mode: drop each epoch's in-memory logs once "
             "durable, bounding resident log memory (requires --log-dir)")
    record_parser.add_argument(
        "--flight-window", type=int, default=None, metavar="K",
        help="flight-recorder window: keep only the last K epochs durable "
             "— old shard extents drop from the manifest, dead segments "
             "are deleted and the blob pack compacted, so disk stays "
             "bounded by the window (requires --log-dir)")
    record_parser.add_argument(
        "--metrics-out", default=None, metavar="PATH", dest="metrics_out",
        help="export the run's RunMetrics snapshot as JSON (compare two "
             "runs with 'repro metrics diff A.json B.json')")
    record_parser.add_argument("-o", "--output", help="save recording JSON here")

    replay_parser = commands.add_parser("replay", help="replay a saved recording")
    replay_parser.add_argument(
        "recording", help="recording JSON file or durable log directory")
    replay_parser.add_argument("--parallel", action="store_true",
                               help="parallel epoch replay")
    replay_parser.add_argument(
        "--from-epoch", type=int, default=None, metavar="N", dest="from_epoch",
        help="incremental replay: materialize epoch N's checkpoint from "
             "the durable log and replay only the suffix (directory "
             "recordings only; on a flight-recorder log N is the absolute "
             "run index and must be inside the surviving window)")
    replay_parser.add_argument(
        "--tail", action="store_true",
        help="recover a crashed/unsealed durable log: verify integrity, "
             "then replay the surviving committed tail")
    _add_host_args(replay_parser)
    replay_parser.add_argument("--epoch", type=int, default=None,
                               help="replay a single epoch index")

    serve_parser = commands.add_parser(
        "serve",
        help="record N concurrent sessions over one shared worker pool",
    )
    _add_workload_args(serve_parser)
    serve_parser.add_argument(
        "--sessions", type=_at_least_one, default=4,
        help="concurrent record sessions to run (default 4)")
    serve_parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes in the shared pool (default 2)")
    serve_parser.add_argument(
        "--active", type=int, default=8,
        help="admission bound: sessions running at once (default 8)")
    serve_parser.add_argument(
        "--epoch-divisor", type=_at_least_one, default=18,
        help="epochs per native runtime (default 18)")
    serve_parser.add_argument(
        "--fault", default="", metavar="SPEC",
        help="inject fault directives (REPRO_FAULT grammar) into ONE tenant "
             "(see --fault-session); every other tenant runs clean")
    serve_parser.add_argument(
        "--fault-session", type=int, default=0, metavar="K",
        help="index of the tenant that receives --fault (default 0)")
    serve_parser.add_argument(
        "--replay", action="store_true",
        help="after recording, replay every session's recording "
             "through the service and verify it")
    serve_parser.add_argument(
        "--verify", action="store_true",
        help="check every recording is bit-identical to a solo jobs=1 run")
    serve_parser.add_argument(
        "--trace-sessions", action="store_true",
        help="collect an isolated span trace inside each session")
    serve_parser.add_argument(
        "--telemetry-port", type=int, default=None, metavar="N",
        dest="telemetry_port",
        help="serve live telemetry over HTTP on this port: /metrics "
             "(Prometheus text), /sessions (per-lane JSON), /healthz "
             "(0 = pick an ephemeral port, printed after the run)")
    serve_parser.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep the telemetry endpoint up this long after the last "
             "session completes, or until SIGTERM (scrape window; "
             "requires --telemetry-port)")
    serve_parser.add_argument(
        "--events", default=None, metavar="PATH",
        help="append the structured event journal as JSON lines here "
             "(read it back with 'repro events tail PATH')")

    top_parser = commands.add_parser(
        "top", help="poll a live telemetry endpoint into a terminal table"
    )
    top_parser.add_argument(
        "--url", default=None,
        help="telemetry base URL (default: http://127.0.0.1:PORT)")
    top_parser.add_argument(
        "--port", type=int, default=9900,
        help="telemetry port when --url is not given (default 9900)")
    top_parser.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes (default 1)")
    top_parser.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (no screen clearing)")

    events_parser = commands.add_parser(
        "events", help="read a structured event journal"
    )
    events_sub = events_parser.add_subparsers(
        dest="events_command", required=True
    )
    tail_parser = events_sub.add_parser(
        "tail", help="print the last events of a JSON-lines journal sink"
    )
    tail_parser.add_argument(
        "path",
        help="journal sink file, or a directory holding events.jsonl")
    tail_parser.add_argument(
        "-n", "--count", type=int, default=20,
        help="how many trailing events to print (default 20)")

    metrics_parser = commands.add_parser(
        "metrics", help="work with exported RunMetrics snapshots"
    )
    metrics_sub = metrics_parser.add_subparsers(
        dest="metrics_command", required=True
    )
    diff_parser = metrics_sub.add_parser(
        "diff", help="compare two metrics snapshots with threshold "
                     "highlighting"
    )
    diff_parser.add_argument("a", help="baseline snapshot JSON")
    diff_parser.add_argument("b", help="candidate snapshot JSON")
    diff_parser.add_argument(
        "--threshold", type=float, default=0.10, metavar="REL",
        help="flag metrics whose relative change exceeds REL "
             "(default 0.10)")
    diff_parser.add_argument(
        "--all", action="store_true",
        help="also list metrics that did not change")
    diff_parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when any metric breaches the threshold")

    trace_parser = commands.add_parser(
        "trace", help="inspect a timeline written by --trace"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    summarize_parser = trace_sub.add_parser(
        "summarize",
        help="overlap ratio, slowest epochs, straggler attribution",
    )
    summarize_parser.add_argument("trace", help="Chrome-trace JSON file")
    summarize_parser.add_argument(
        "--top", type=int, default=5,
        help="how many slowest epochs to list (default 5)")
    summarize_parser.add_argument(
        "--min-overlap", type=float, default=None, metavar="RATIO",
        help="fail (exit 1) when the epoch overlap ratio is below RATIO "
             "— the CI gate for pipelined epoch commit")

    log_parser = commands.add_parser(
        "log", help="durable-log maintenance (crash recovery)"
    )
    log_sub = log_parser.add_subparsers(dest="log_command", required=True)
    recover_parser = log_sub.add_parser(
        "recover",
        help="open a crashed/unsealed durable log, verify it, and replay "
             "the surviving committed tail",
    )
    recover_parser.add_argument("directory", help="durable log directory")

    diagnose_parser = commands.add_parser(
        "diagnose", help="explain a recording's rollbacks (racing addresses)"
    )
    diagnose_parser.add_argument("recording", help="recording JSON file")

    experiment_parser = commands.add_parser(
        "experiment", help="regenerate a table/figure of the evaluation"
    )
    experiment_parser.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment_parser.add_argument("--workers", type=int, default=2)

    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "run": cmd_run,
        "record": cmd_record,
        "replay": cmd_replay,
        "log": cmd_log,
        "serve": cmd_serve,
        "top": cmd_top,
        "events": cmd_events,
        "metrics": cmd_metrics,
        "diagnose": cmd_diagnose,
        "experiment": cmd_experiment,
        "trace": cmd_trace,
    }[args.command]
    try:
        return handler(args, out)
    except (ReplayError, OSError, json.JSONDecodeError) as exc:
        # Files and directories named on the command line are outside
        # input: a missing, unreadable or malformed one is reported
        # once, here, for every command.
        print(f"error: {exc}", file=out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
