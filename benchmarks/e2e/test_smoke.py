"""Self-test of the e2e benchmark at smoke scale.

Run explicitly — ``pytest benchmarks/e2e`` — it is outside ``testpaths``,
so tier-1 time is unchanged. Two full ``--smoke`` runs (every workload,
both passes) are compared, and one measurement is checked to leave no
process behind.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from run import EXACT  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def smoke_run() -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=180,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    return smoke_run(), smoke_run()


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_correct_and_every_declared_metric_emitted_with_its_unit(runs, contract):
    for result in runs:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["workloads"]) == {w["name"] for w in contract["workloads"]}
        for passes in result["workloads"].values():
            for group in ("end_to_end", "per_layer"):
                declared = {m["name"]: m["unit"] for m in contract[group]}
                emitted = {name: m["unit"] for name, m in passes[group].items()}
                assert emitted == declared
                assert all(
                    isinstance(m["value"], (int, float)) for m in passes[group].values()
                )


def test_metric_and_workload_names_use_the_allowed_characters(contract):
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)


def test_end_to_end_metrics_are_never_zero(runs):
    for result in runs:
        for passes in result["workloads"].values():
            assert all(m["value"] != 0 for m in passes["end_to_end"].values())


def test_phases_sum_to_the_iteration_wall(runs):
    for result in runs:
        for passes in result["workloads"].values():
            layers = passes["per_layer"]
            phases = sum(
                m["value"] for name, m in layers.items() if name.startswith("phase.")
            )
            assert phases == pytest.approx(layers["bench.iteration_s"]["value"], rel=1e-6)


def test_exact_metrics_repeat_bit_for_bit(runs):
    first, second = runs
    for workload, passes in first["workloads"].items():
        for group, metrics in passes.items():
            for name in EXACT & set(metrics):
                again = second["workloads"][workload][group][name]["value"]
                assert metrics[name]["value"] == again, (workload, name)


def session_members(sid: int) -> list:
    """``(pid, command line)`` of every process in session ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
            with open(f"/proc/{entry}/cmdline") as handle:
                command = handle.read().replace("\0", " ")
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append((int(entry), command))
    return found


@pytest.mark.parametrize("workload", ["compute_clean", "serve_mixed"])
def test_a_measurement_leaves_no_process_behind(workload):
    # The spawn-context pool starts multiprocessing's resource tracker,
    # which by default exits only after its parent has: looked for the
    # moment the run ends, in the session the run was given.
    done = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", "0", "--smoke"],
        stdout=subprocess.DEVNULL, cwd=ROOT, start_new_session=True,
    )
    assert done.wait(timeout=180) == 0
    assert session_members(done.pid) == []
