"""Content-addressed wire benchmark: shipped bytes per host fan-out.

The host layer no longer pickles whole checkpoints into every work unit.
Units are skeletons (contexts + per-space ``{page_no: digest}`` tables)
referencing content-addressed blobs; workers keep LRU caches of decoded
blobs and the coordinator ships only what the pool is not already
believed to hold. This bench pins the byte reduction on the replay
fan-out (the steady-state path — every epoch starts from a previously
shipped checkpoint) for two multi-epoch workloads:

* ``baseline_bytes`` — what the pre-wire protocol shipped: one pickle
  per unit of the whole payload (program image, machine config, fully
  hydrated start checkpoint with page contents, schedule/targets, and
  that unit's sliced logs);
* ``cold_bytes`` — the content-addressed dispatches for a worker that
  holds nothing: per-unit skeleton plus each blob the first time it is
  needed (intra-batch dedup only);
* ``steady_bytes`` — the dispatches once the pool holds every blob:
  skeletons alone. This is what a warm pool pays per fan-out, and the
  number the ≥5× gate compares against the baseline.

All three are exact ``len(pickle.dumps(...))`` measurements over the
real dispatch objects — nothing is estimated. A measured section runs
the actual pool (record at ``jobs=4``, then two replays) and reports the
executor's own wire accounting (``host["wire"]``), demonstrating the
cold → warm decay end to end; its totals depend on worker scheduling,
so the gate uses the deterministic single-worker model above.

Results are written to ``BENCH_host_wire.json`` at the repo root.

Usage::

    python benchmarks/bench_host_wire.py                # measure + print
    python benchmarks/bench_host_wire.py --quick        # small scale
    python benchmarks/bench_host_wire.py --write optimized
    python benchmarks/bench_host_wire.py --quick --check  # CI gate

``--check`` fails (exit 1) if the steady-state reduction factor falls
below the 5.0× floor the wire protocol promises, or more than
``BENCH_TOLERANCE`` (default 20%) below the committed numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines import run_native  # noqa: E402
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer  # noqa: E402
from repro.host.pool import shutdown_shared_pool  # noqa: E402
from repro.host.wire import (  # noqa: E402
    replay_units_for_recording,
    signal_slice,
    syscall_slice,
)
from repro.host.worker import UnitDispatch  # noqa: E402
from repro.machine.config import MachineConfig  # noqa: E402
from repro.memory.blob import blob_digest, encode_object  # noqa: E402
from repro.workloads import build_workload  # noqa: E402

WORKLOADS = ("pbzip", "fft")
JOBS = 4
EPOCH_DIVISOR = 12
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_host_wire.json"
REDUCTION_FLOOR = 5.0  # steady-state shipped bytes vs whole-object pickles


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _baseline_bytes(program, machine, recording) -> int:
    """Whole-object dispatch cost of the pre-wire protocol, per unit."""
    total = 0
    for epoch in recording.epochs:
        start = epoch.start_checkpoint
        payload = (
            program,
            machine,
            start,
            epoch.targets,
            epoch.schedule,
            epoch.sync_log.events,
            syscall_slice(recording.syscall_records, start),
            signal_slice(recording.signal_records, start),
            epoch.end_digest,
        )
        total += len(pickle.dumps(payload))
    return total


def _wire_bytes(program, machine, recording):
    """(cold, steady) dispatch bytes under the content-addressed wire."""
    batch = replay_units_for_recording(recording)
    program_blob = encode_object(program)
    program_digest = blob_digest(program_blob)
    blobs = dict(batch.blobs)
    blobs[program_digest] = program_blob

    cold = steady = 0
    held = set()  # one worker, receiving units in order, infinite cache
    for unit in batch.units:
        required = set(unit.required_digests())
        required.add(program_digest)
        ship = {d: blobs[d] for d in required - held}
        held |= required
        cold += len(
            pickle.dumps(
                UnitDispatch(
                    machine=machine,
                    unit=unit,
                    program_digest=program_digest,
                    blobs=ship,
                )
            )
        )
        steady += len(
            pickle.dumps(
                UnitDispatch(
                    machine=machine,
                    unit=unit,
                    program_digest=program_digest,
                    blobs={},
                )
            )
        )
    return cold, steady


def measure_workload(name: str, scale: int, workers: int = 2):
    machine = MachineConfig(cores=workers)
    instance = build_workload(name, workers=workers, scale=scale, seed=1)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // EPOCH_DIVISOR, 500),
    )

    serial = DoublePlayRecorder(instance.image, instance.setup, config).record()
    recording = serial.recording

    baseline = _baseline_bytes(instance.image, machine, recording)
    cold, steady = _wire_bytes(instance.image, machine, recording)

    # Measured end to end: record through a fresh pool (cold caches),
    # then replay twice — the second replay rides the warm pool.
    shutdown_shared_pool()
    t0 = time.perf_counter()
    parallel = DoublePlayRecorder(
        instance.image, instance.setup, config.replace(host_jobs=JOBS)
    ).record()
    record_wall = time.perf_counter() - t0
    assert (
        parallel.recording.final_digest == recording.final_digest
    ), f"{name}: parallel record diverged"

    replayer = Replayer(instance.image, machine)
    measured = {"record": parallel.host["wire"]}
    for key in ("replay_cold", "replay_warm"):
        outcome = replayer.replay_parallel(recording, jobs=JOBS)
        assert outcome.verified, f"{name}: parallel replay failed"
        measured[key] = outcome.host["wire"]

    return {
        "epochs": recording.epoch_count(),
        "baseline_bytes": baseline,
        "cold_bytes": cold,
        "steady_bytes": steady,
        "reduction_cold": round(baseline / cold, 3),
        "reduction_steady": round(baseline / steady, 3),
        "record_jobs4_wall_ms": round(record_wall * 1e3, 3),
        "measured": {
            phase: {
                "bytes_shipped": stats["bytes_shipped"],
                "blobs_sent": stats["blobs_sent"],
                "blob_cache_hits": stats["blob_cache_hits"],
                "blob_resends": stats["blob_resends"],
            }
            for phase, stats in measured.items()
        },
    }


def run_suite(quick: bool):
    scale = 8 if quick else 16
    per_workload = {}
    for name in WORKLOADS:
        per_workload[name] = measure_workload(name, scale=scale)
    shutdown_shared_pool()
    headline = _geomean(
        [row["reduction_steady"] for row in per_workload.values()]
    )
    return {
        "mode": "quick" if quick else "full",
        "scale": scale,
        "jobs": JOBS,
        "host_cpu_count": os.cpu_count() or 1,
        "per_workload": per_workload,
        "reduction_cold_geomean": round(
            _geomean([row["reduction_cold"] for row in per_workload.values()]), 3
        ),
        "reduction_steady_geomean": round(headline, 3),
        "headline": round(headline, 3),
    }


def _load_results():
    if RESULT_PATH.exists():
        return json.loads(RESULT_PATH.read_text())
    return {}


def _print_suite(result):
    print(
        f"host wire ({result['mode']}, scale={result['scale']}, "
        f"jobs={result['jobs']}):"
    )
    for name, row in result["per_workload"].items():
        warm = row["measured"]["replay_warm"]
        print(
            f"  {name:<8} {row['epochs']:>2} epochs"
            f"  baseline {row['baseline_bytes']:>9} B"
            f"  cold {row['cold_bytes']:>8} B ({row['reduction_cold']:.1f}x)"
            f"  steady {row['steady_bytes']:>7} B ({row['reduction_steady']:.1f}x)"
            f"  warm-replay measured {warm['bytes_shipped']} B, "
            f"{warm['blob_cache_hits']} hits"
        )
    print(
        f"  HEADLINE steady-state reduction {result['headline']:.1f}x"
        f"  (cold {result['reduction_cold_geomean']:.1f}x)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small scale")
    parser.add_argument(
        "--write", choices=("optimized",), help="store results under this key"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if the reduction regresses vs committed numbers or the 5x floor",
    )
    args = parser.parse_args(argv)

    result = run_suite(quick=args.quick)
    _print_suite(result)

    results = _load_results()
    if args.write:
        results.setdefault(args.write, {})[result["mode"]] = result
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.write}/{result['mode']} to {RESULT_PATH.name}")

    if args.check:
        committed = results.get("optimized", {}).get(result["mode"])
        if not committed:
            print("check: no committed optimized numbers for this mode", file=sys.stderr)
            return 1
        tolerance = float(os.environ.get("BENCH_TOLERANCE", "0.2"))
        floor = max(committed["headline"] * (1.0 - tolerance), REDUCTION_FLOOR)
        status = "ok" if result["headline"] >= floor else "REGRESSION"
        print(
            f"check: steady reduction {result['headline']:.1f}x vs committed "
            f"{committed['headline']:.1f}x (floor {floor:.1f}x) → {status}"
        )
        if status != "ok":
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
