"""Host fault-tolerance benchmark: what containment costs.

The host pool survives worker crashes, hangs and exceptions by retrying
the failed unit once on a fresh pool and, if that also fails, running it
serially on the coordinator (see ``repro.host.executor.HostExecutor``). The
recording is bit-identical either way; the only price is wall-clock
time. This bench measures that price for ``record --jobs 4``:

* ``clean``   — no faults injected: the containment machinery's idle
  cost (spec parsing, payload stamping, counters) on the happy path;
* ``slow``    — ``slow:unit1:0.02``: a straggling worker, no failure;
* ``crash``   — ``crash:unit1``: a worker death. The pool is rebuilt
  (workers respawned — the dominant cost), the unit retried, and the
  retry crashes again, so the unit finishes via the serial fallback;
* ``error``   — ``error:unit2``: a worker exception. Structured result,
  no pool damage, same retry-then-fallback path without respawn cost.

Each variant asserts its recording digest equals the serial (jobs=1)
digest — the benchmark doubles as an end-to-end containment check.
Results are written to ``BENCH_host_faults.json`` at the repo root.
There is no CI gate on these numbers: crash recovery cost is dominated
by process respawn, which varies too much across hosts to pin.

Usage::

    python benchmarks/bench_host_faults.py          # measure + print + write
    python benchmarks/bench_host_faults.py --quick  # small scale, 1 repeat
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines import run_native  # noqa: E402
from repro.core import DoublePlayConfig, DoublePlayRecorder  # noqa: E402
from repro.host.pool import shutdown_shared_pool  # noqa: E402
from repro.machine.config import MachineConfig  # noqa: E402
from repro.workloads import build_workload  # noqa: E402

WORKLOAD = "pbzip"  # multi-epoch pipeline: enough units for faults to land
JOBS = 4
EPOCH_DIVISOR = 12
VARIANTS = (
    ("clean", None),
    ("slow", "slow:unit1:0.02"),
    ("crash", "crash:unit1"),
    ("error", "error:unit2"),
)
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_host_faults.json"


def _record(config, scale, workers):
    instance = build_workload(WORKLOAD, workers=workers, scale=scale, seed=1)
    return DoublePlayRecorder(instance.image, instance.setup, config).record()


def run_suite(quick: bool, repeats: int, workers: int = 2):
    scale = 8 if quick else 16
    machine = MachineConfig(cores=workers)
    instance = build_workload(WORKLOAD, workers=workers, scale=scale, seed=1)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // EPOCH_DIVISOR, 500),
    )

    serial = _record(config, scale, workers)
    baseline_digest = serial.recording.final_digest
    parallel_config = config.replace(host_jobs=JOBS)

    rows = {}
    for label, spec in VARIANTS:
        if spec is None:
            os.environ.pop("REPRO_FAULT", None)
        else:
            os.environ["REPRO_FAULT"] = spec
        try:
            wall = math.inf
            # warm-up iteration pays pool spawn before the timed runs
            for _ in range(repeats + 1):
                shutdown_shared_pool()
                start = time.perf_counter()
                result = _record(parallel_config, scale, workers)
                wall = min(wall, time.perf_counter() - start)
            assert result.recording.final_digest == baseline_digest, (
                f"{label}: containment changed the recording"
            )
            rows[label] = {
                "wall_ms": round(wall * 1e3, 3),
                "faults": dict(result.host["faults"]),
            }
        finally:
            os.environ.pop("REPRO_FAULT", None)
    shutdown_shared_pool()

    clean = rows["clean"]["wall_ms"]
    for label in rows:
        rows[label]["overhead_vs_clean"] = round(
            rows[label]["wall_ms"] / clean - 1.0, 3
        )
    return {
        "mode": "quick" if quick else "full",
        "workload": WORKLOAD,
        "scale": scale,
        "jobs": JOBS,
        "repeats": repeats,
        "host_cpu_count": os.cpu_count() or 1,
        "epochs": serial.recording.epoch_count(),
        "variants": rows,
    }


def _print_suite(result):
    print(
        f"host fault containment ({result['mode']}, {result['workload']}, "
        f"scale={result['scale']}, jobs={result['jobs']}, "
        f"{result['epochs']} epochs):"
    )
    for label, row in result["variants"].items():
        counts = row["faults"]
        fired = ", ".join(f"{k}={v}" for k, v in counts.items() if v) or "none"
        print(
            f"  {label:<6} {row['wall_ms']:>9.1f}ms"
            f"  ({row['overhead_vs_clean']:+.1%} vs clean)  faults: {fired}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small scale, 1 repeat")
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    repeats = args.repeats or (1 if args.quick else 3)
    result = run_suite(quick=args.quick, repeats=repeats)
    _print_suite(result)

    existing = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    existing[result["mode"]] = result
    RESULT_PATH.write_text(json.dumps(existing, indent=2) + "\n")
    print(f"wrote {result['mode']} to {RESULT_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
