#!/usr/bin/env python3
"""e2e benchmark: record -> durable log -> replay, solo and under serve.

    python3 benchmarks/e2e/run.py                      # 4 workloads, both passes
    python3 benchmarks/e2e/run.py --workload server_sync
    python3 benchmarks/e2e/run.py --workload server_sync --trace 1
    python3 benchmarks/e2e/run.py --aa                 # A/A noise floor vs bounds
    python3 benchmarks/e2e/run.py --smoke              # tiny scales, < 20 s

One measurement is one process: ``--workload W --trace 0|1`` (what the
driver runs) measures in-process and prints one JSON object as its last
line; every other form runs those measurements as child processes, one
after the other, so peak RSS, import time and worker caches never leak
from one workload into the next. ``--trace 0`` is the untraced pass the
end-to-end numbers come from; ``--trace 1`` is the traced pass with the
per-layer numbers. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

#: the seed results are quoted at, and one never used while tuning
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: (set-up, measure) segments per untraced run; ``setup_s`` is the fastest
#: set-up (plus the one-off imports)
SEGMENTS = 3
#: shares of ``--seconds`` the traced pass gives its iterations and the
#: paired-record rounds; the one-shot probes take the rest
TRACED_ITERATION_SHARE = 0.4
TRACED_PAIRS_SHARE = 0.75

#: counts that repeat bit-for-bit on one seed: ``--aa`` requires it of the
#: end-to-end ones, the smoke test of all
EXACT = frozenset({
    "log_bytes_per_kop", "sim_overhead_pct",
    "exec.ops_executed", "exec.amplification",
    "oskernel.syscalls_per_kop", "oskernel.sync_events_per_kop",
    "checkpoint.count", "checkpoint.dirty_pages_per_epoch",
    "checkpoint.sim_cost_cycles",
    "core.recorder.epochs", "core.recorder.divergences",
    "core.recorder.recoveries", "core.recorder.attempt_waste_cycles",
    "core.pipeline.sim_makespan_cycles", "core.pipeline.sim_tp_finish_cycles",
    "record.shards.segment_bytes", "record.shards.blob_bytes",
    "record.shards.manifest_bytes", "record.shards.fsyncs",
    "record.shards.group_commits", "record.shards.buffered_peak_bytes",
    "record.shards.write_amplification",
    "record.recording.log_bytes_schedule", "record.recording.log_bytes_sync",
    "record.recording.log_bytes_syscall",
})


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def scrub_env() -> list:
    """Drop every ``REPRO_*`` variable so product defaults are measured."""
    scrubbed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    return scrubbed


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def environment(scrubbed: list, jobs: int) -> dict:
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(),
        "jobs": jobs,
        # REPRO_LOG_FSYNC is scrubbed: the product default (fsync on) is
        # what is measured; record.shards.fsyncs counts them.
        "fsync": "product-default",
        "oversubscribed": nproc < jobs,
        "scrubbed_env": scrubbed,
    }


def tail_percentile(count: int):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.90, 0.75):
        if count * (1.0 - q) >= 10:
            return q
    return None


def describe(values: list) -> str:
    """Quartiles, the reportable tail percentile and the sample count."""
    if len(values) < 2:
        return f"n={len(values)}"
    low, mid, high = quantiles(values, n=4)
    text = f"median={mid:.6g} p25={low:.6g} p75={high:.6g}"
    q = tail_percentile(len(values))
    if q is not None:
        ordered = sorted(values)
        text += f" p{int(q * 100)}={ordered[int(q * (len(ordered) - 1))]:.6g}"
    return f"{text} n={len(values)}"


def print_rows(title: str, rows: list) -> None:
    print(f"-- {title}")
    for name, value, unit, detail in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<48} {shown:>14} {unit:<8} {detail}")


def peak_rss_mb() -> float:
    """Coordinator plus the largest worker. ``ru_maxrss`` is in KiB on
    Linux; children count only once the pool is shut down and waited for."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def child_pids() -> list:
    """Live or unreaped children of this process, read from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces or ")"
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Leave no process behind: every path out of a measurement ends here.

    ``shutdown_shared_pool()`` joins the workers, but the spawn context
    also starts multiprocessing's resource tracker, which lives until the
    last process holding its pipe closes it — by default this one, at
    interpreter exit, so the tracker would outlive the run by a moment.
    Here the pipe is closed, any worker still around (a path that skipped
    a shutdown) is killed and waited for, and then the tracker, which
    unlinks what the workers leaked and exits on end-of-file, is waited for.
    """
    from multiprocessing import resource_tracker

    gc.collect()  # dead pools unregister their semaphores while they can
    tracker = resource_tracker._resource_tracker
    tracker_pid, fd = getattr(tracker, "_pid", None), getattr(tracker, "_fd", None)
    # Nothing is tracked from here on: a late finalizer that reported to
    # the tracker would start a new one.
    tracker._send = lambda *_: None
    if fd is not None:
        os.close(fd)
        tracker._fd = None
    others = [pid for pid in child_pids() if pid != tracker_pid]
    for pid in others:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in others + ([tracker_pid] if tracker_pid is not None else []):
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    if tracker_pid is not None:
        tracker._pid = None


def on_sigterm(*_) -> None:
    """A polite kill: stop the children, drop the scratch, exit at once.

    Unwinding would have to cross the service's event loop and its session
    threads, which wait on the workers; nothing is worth saving, so this
    does not unwind.
    """
    stop_children()
    for work_dir in OUT.glob(f"*-{os.getpid()}-*"):
        shutil.rmtree(work_dir, ignore_errors=True)
    os._exit(143)


def report_end_to_end(contract: dict, untraced: list, setups: list,
                      import_s: float, rss_mb: float, service: dict) -> dict:
    """Print the untraced pass; returns ``{metric: value}``."""
    # The reference box has interference episodes that slow every phase up
    # to 2x for seconds at a time and never speed one up, so a run's fastest
    # iteration repeats far better than its median (README, "Noise"); the
    # median and quartiles are printed beside it.
    values = {}
    rows = []
    for metric in contract["end_to_end"]:
        name = metric["name"]
        if name == "peak_rss_mb":
            values[name], detail = rss_mb, "after the first segment"
        elif name == "setup_s":
            # Imports happen once per process and cannot be repeated; the
            # rest of set-up is, and its fastest repeat is taken likewise.
            values[name] = import_s + min(setups)
            detail = (f"imports {import_s:.3f} + fastest of "
                      f"{' '.join(f'{wall:.3f}' for wall in setups)}")
        else:
            samples = [sample.values[name] for sample in untraced]
            values[name] = (max if metric["better"] == "higher" else min)(samples)
            detail = describe(samples)
        rows.append((name, values[name], metric["unit"], detail))
    print(f"iterations: {len(untraced)} in {len(setups)} segments")
    print_rows("end-to-end (untraced pass): fastest iteration", rows)
    if service:
        sessions = sum(len(sample.report.results) for sample in untraced)
        print_rows("service view (not bounded; see README)", [
            (name, service[name], unit, f"n={sessions} sessions")
            for name, unit in (
                ("service.sessions_per_s", "1/s"),
                ("service.session_latency_p50_s", "s"),
                ("service.session_latency_p95_s", "s"),
            )
        ])
    return values


def report_per_layer(contract: dict, layers: dict, not_applicable: set,
                     spans, trace_path: Path, header: dict) -> None:
    """Print the traced pass and write its spans."""
    print_rows("per-layer (traced pass)", [
        (m["name"], None if m["name"] in not_applicable else layers.get(m["name"]),
         m["unit"], "")
        for m in contract["per_layer"]
    ])
    print("-- spans: name, count, total s, self s")
    for name, (count, total, own) in sorted(spans.self_times().items()):
        print(f"{name:<48} {count:>6} {total:>12.6f} {own:>12.6f}")
    spans.dump(str(trace_path), {**header, "per_layer": layers})
    print(f"spans written to {trace_path.relative_to(ROOT)}")


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """One workload, one pass, in this process. Returns the exit code."""
    contract = load_contract()
    started = perf_counter()
    scrubbed = scrub_env()
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"the program under test is missing: no {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    import e2e_layers
    import e2e_scenario
    from e2e_spans import Spans
    from repro.host.pool import shutdown_shared_pool

    import_s = perf_counter() - started
    env = environment(scrubbed, e2e_scenario.JOBS)
    print(f"== e2e {name} seed={seed} seconds={seconds:g} trace={int(trace)}"
          f"{' smoke' if smoke else ''}")
    print("env: " + " ".join(f"{key}={value}" for key, value in env.items()))

    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-{os.getpid()}-", dir=OUT)
    spans = Spans()
    spans.enabled = trace
    checks = e2e_scenario.Checks()
    scenario = e2e_scenario.make_scenario(name, seed, work_dir, smoke)
    traced, untraced, setups = [], [], []
    rss_mb = None
    # Set-up and measurement alternate: each segment starts from cold
    # workers, sets up, then measures its share of ``seconds``. Spread over
    # the whole run, neither the set-up samples nor the iterations all fall
    # into one interference episode.
    segments = 1 if trace or smoke else SEGMENTS
    try:
        for _ in range(segments):
            with spans.span("setup") as setup:
                scenario.set_up(spans, checks)
            setups.append(setup.wall)

            timed = perf_counter()
            budget = seconds / segments * (TRACED_ITERATION_SHARE if trace else 1.0)
            while True:
                if trace:
                    spans.enabled = len(traced) == len(untraced)
                sample = scenario.iterate(
                    spans, checks, len(traced) + len(untraced), full=trace
                )
                (traced if spans.enabled else untraced).append(sample)
                # A traced pass stops on a traced/untraced pair.
                paired = len(traced) == len(untraced) if trace else True
                ahead = (2 if trace else 1) * sample.wall
                if paired and (smoke or perf_counter() - timed + ahead > budget):
                    break
            if trace:
                spans.enabled = True
                layers, not_applicable = e2e_layers.per_layer(
                    scenario, traced, untraced, spans, work_dir,
                    deadline=timed + (0 if smoke else TRACED_PAIRS_SHARE * seconds),
                )
            # Workers end with their segment, so the next one starts cold;
            # memory is read after the first: later set-ups only add the
            # benchmark's own repeats to the high-water mark.
            shutdown_shared_pool()
            if rss_mb is None:
                rss_mb = peak_rss_mb()
    finally:
        shutdown_shared_pool()
        shutil.rmtree(work_dir, ignore_errors=True)

    if trace:
        print(f"iterations: {len(traced)} traced + {len(untraced)} untraced")
        declared, values = contract["per_layer"], layers
        report_per_layer(
            contract, layers, not_applicable, spans,
            OUT / f"{name}.seed{seed}.trace.json",
            {"workload": name, "seed": seed, "env": env},
        )
    else:
        declared = contract["end_to_end"]
        service = (
            e2e_layers.service_metrics(untraced, scenario.cold_report)
            if untraced[0].report is not None else {}
        )
        values = report_end_to_end(contract, untraced, setups, import_s, rss_mb, service)
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise SystemExit(
            "metrics emitted and metrics declared in BENCHMARK.json differ: "
            f"{sorted(set(values) ^ set(units))}"
        )
    failed = len(checks.failures)
    print(f"failed_ops_pct: {100.0 * failed / checks.attempted:.4g} % "
          f"({failed} of {checks.attempted} checks)")
    for failure in checks.failures[:10]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }))
    return 0 if failed == 0 else 1


def run_child(name: str, args, trace: int):
    """One measurement as a child process; returns its result or None."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None:
        print(f"FAILED: {name} --trace {trace} exited {done.returncode} without a result")
    return result


def run_set(names: list, passes: list, args) -> dict:
    """Every workload × pass, one child each: ``{workload: {pass: result}}``."""
    return {
        name: {trace: run_child(name, args, trace) for trace in passes}
        for name in names
    }


def all_correct(results: dict) -> bool:
    return all(
        result is not None and result["correct"]
        for passes in results.values() for result in passes.values()
    )


def compare_aa(first: dict, second: dict, contract: dict) -> bool:
    """Two sets of the same code: every end-to-end metric within its bound."""
    ok = True
    print("== A/A: relative difference of each end-to-end metric beside its bound")
    print(f"{'workload':<16} {'metric':<24} {'A':>14} {'B':>14} {'diff':>9} {'bound':>7}")
    for name in first:
        a, b = first[name][0], second[name][0]
        if a is None or b is None:
            ok = False
            continue
        for metric in contract["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va, vb = a["metrics"][key]["value"], b["metrics"][key]["value"]
            diff = abs(vb - va) / abs(va)
            if key in EXACT:
                verdict = "exact" if va == vb else "NOT IDENTICAL"
                good = va == vb
            else:
                good = diff <= bound
                verdict = "" if good else "EXCEEDS BOUND"
            ok = ok and good
            print(f"{name:<16} {key:<24} {va:>14.6g} {vb:>14.6g} "
                  f"{100 * diff:>8.2f}% {100 * bound:>6.1f}% {verdict}")
    return ok


def parse_args(argv, contract: dict):
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="measured seconds per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced end-to-end pass, 1: traced per-layer pass "
                             "(default: both)")
    parser.add_argument("--aa", action="store_true",
                        help="run the untraced pass twice and compare against the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scales, one iteration: a self-test, not a measurement")
    return parser.parse_args(argv), names


def main(argv=None) -> int:
    contract = load_contract()
    args, names = parse_args(argv, contract)
    if args.workload and args.trace is not None and not args.aa:
        signal.signal(signal.SIGTERM, on_sigterm)
        try:
            return measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        finally:
            stop_children()

    names = [args.workload] if args.workload else names
    if args.aa:
        first = run_set(names, [0], args)
        second = run_set(names, [0], args)
        ok = compare_aa(first, second, contract) and all_correct(first) and all_correct(second)
        print(json.dumps({"aa_within_bounds": ok}))
        return 0 if ok else 1

    results = run_set(names, [0, 1] if args.trace is None else [args.trace], args)
    ok = all_correct(results)
    done = [r for passes in results.values() for r in passes.values() if r is not None]
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "workloads": {
            name: {
                ("per_layer" if trace else "end_to_end"): result and result["metrics"]
                for trace, result in passes.items()
            }
            for name, passes in results.items()
        },
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
