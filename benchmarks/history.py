#!/usr/bin/env python3
"""Append end-to-end numbers to BENCH_history.jsonl: one line per (commit, workload).

    python3 benchmarks/history.py 51c3881=/root/scratch/parent pr17=. [--workload W ...] [--seed 7]

Each LABEL=CHECKOUT runs its own ``benchmarks/e2e/run.py --workload W --trace 0``
(untraced, end to end); the checkouts take turns, the order flipping every pass,
so drift on the box lands on both. Only run.py's last line, its JSON result, is
read; a run that fails its own checks ends this script with an error. Append-only:
the trajectory is the file's lines in order. Each workload also prints a table of
medians, every later side beside the first with its relative change. Every
line carries, beside its label, the checkout's ``git rev-parse --short HEAD``
(``"sha"``) and whether its files differ from that commit (``"dirty"``), both
null for a directory that is not the top of a git checkout (an export), so a
row can be placed on the trajectory whatever its label says.

After the untraced passes each side runs one ``--trace 1`` pass, appended as a
second kind of line (``"kind": "per_layer"``, one value per metric, no quartiles:
it is one run) so the layer shares have a trajectory too. Lines without a
``kind`` are the end-to-end ones.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent
PASSES = 5  # runs per side and workload; quartiles need at least two


def measure(checkout: str, workload: str, trace: int = 0, seed: int = None) -> dict:
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
               "--trace", str(trace)]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: {workload} failed its own checks: {result}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def revision(checkout: str) -> dict:
    """The checkout's short HEAD and whether its files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    top = git("rev-parse", "--show-toplevel")
    if top.returncode or Path(top.stdout.strip()).resolve() != Path(checkout).resolve():
        return {"sha": None, "dirty": None}  # an export, not a checkout of its own
    head = git("rev-parse", "--short", "HEAD")
    return {"sha": head.stdout.strip(), "dirty": bool(git("status", "--porcelain").stdout.strip())}


def table(workload: str, lines: list, contract: dict) -> str:
    """Medians per end-to-end metric: the first side, then each other side
    with its change relative to the first (+ is a larger number)."""
    first, *others = lines
    width = max(14, *(len(line["commit"]) + 2 for line in lines))
    header = f"{workload:<30}{first['commit']:>{width}}" + "".join(
        f"{line['commit']:>{width}}{'change':>9}" for line in others
    )
    rows = [header]
    for metric in contract["end_to_end"]:
        name = metric["name"]
        base = first["metrics"][name]["median"]
        row = f"{name + ' (' + metric['unit'] + ')':<30}{base:>{width}.4g}"
        for line in others:
            median = line["metrics"][name]["median"]
            change = f"{100.0 * (median / base - 1.0):+.1f}%" if base else "n/a"
            row += f"{median:>{width}.4g}{change:>9}"
        rows.append(row)
    return "\n".join(rows)


if __name__ == "__main__":
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="+", metavar="LABEL=CHECKOUT")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="measure only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int,
                        help="input seed for run.py (default: its own; 7 is held out)")
    args = parser.parse_args()
    if not all("=" in side for side in args.sides):
        parser.error("each side is LABEL=CHECKOUT")
    sides = [side.split("=", 1) for side in args.sides]
    revisions = {label: revision(checkout) for label, checkout in sides}
    stamp = {"nproc": os.cpu_count(), "python": sys.version.split()[0], "passes": PASSES}
    if args.seed is not None:
        stamp["seed"] = args.seed
    for workload in args.workload or workloads:
        runs = {label: [] for label, _ in sides}
        for turn in range(PASSES):
            for label, checkout in sides[::-1] if turn % 2 else sides:
                runs[label].append(measure(checkout, workload, seed=args.seed))
        lines = []
        for label, _ in sides:
            line = {"commit": label, **revisions[label], "workload": workload, **stamp,
                    "metrics": {}}
            for metric in contract["end_to_end"]:
                values = sorted(run[metric["name"]] for run in runs[label])
                q1, middle, q3 = quantiles(values, n=4, method="inclusive")
                fastest = values[-1] if metric["better"] == "higher" else values[0]
                line["metrics"][metric["name"]] = {
                    "fastest": fastest, "median": middle, "q1": q1, "q3": q3}
            with open(ROOT / "BENCH_history.jsonl", "a") as history:
                history.write(json.dumps(line) + "\n")
            lines.append(line)
        print(table(workload, lines, contract), flush=True)
        for label, checkout in sides:
            layers = {"commit": label, **revisions[label], "workload": workload,
                      "kind": "per_layer",
                      **stamp, "passes": 1,
                      "metrics": measure(checkout, workload, trace=1, seed=args.seed)}
            with open(ROOT / "BENCH_history.jsonl", "a") as history:
                history.write(json.dumps(layers) + "\n")
