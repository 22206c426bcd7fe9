"""Runtime options: one table, one precedence rule, one read site.

Every surviving ``REPRO_*`` variable is tabled here (unset / valid / junk
/ out-of-range -> field value); the precedence rule (explicit argument >
``DoublePlayConfig`` field > environment > default) is checked for the
fields that have more than one source; a hygiene walk keeps
``os.environ`` out of every other module under ``src/repro``.
"""

from __future__ import annotations

import dataclasses
import pathlib
import pickle
import re

import pytest

import repro
from repro import options
from repro.core import DoublePlayConfig, DoublePlayRecorder
from repro.host.executor import HostExecutor
from repro.host.faults import FaultSpec
from repro.host.worker import UnitDispatch
from repro.machine.config import MachineConfig
from repro.obs import events as obs_events
from repro.obs.lifecycle import Lives
from repro.options import RuntimeOptions
from repro.workloads import build_workload

DEFAULTS = RuntimeOptions()

#: variable -> (field, [(raw value or None for unset, expected field value)])
TABLE = {
    "REPRO_TEST_JOBS": ("host_jobs", [
        (None, 1), ("", 1), ("3", 3), ("not-a-number", 1), ("0", 1), ("-2", 1),
    ]),
    "REPRO_UNIT_TIMEOUT": ("unit_timeout", [
        (None, 60.0), ("2.5", 2.5), ("not-a-number", 60.0), ("-3", 0.0), ("0", 0.0),
    ]),
    "REPRO_SUPERBLOCKS": ("superblocks", [
        (None, True), ("0", False), ("1", True), ("junk", True),
    ]),
    "REPRO_FAULT": ("host_faults", [
        (None, ""), ("crash:unit1", "crash:unit1"), ("nonsense", "nonsense"),
    ]),
    "REPRO_FAULT_STATE": ("fault_state", [(None, ""), ("/tmp/fuses", "/tmp/fuses")]),
    "REPRO_LOG_GROUP_KB": ("log_group_bytes", [
        (None, 32 * 1024), ("1", 1024), ("0.5", 512), ("0", 1), ("-4", 1),
        ("junk", 32 * 1024),
    ]),
    "REPRO_LOG_FSYNC": ("log_fsync", [
        (None, True), ("0", False), ("1", True), ("junk", True),
    ]),
}

#: deleted in favour of the route that already existed (flag / field / API)
DELETED = {
    "REPRO_LOG_COMPACT_KB": "1",
    "REPRO_HISTOGRAMS": "0",
    "REPRO_FLIGHT_WINDOW": "5",
    "REPRO_LOG_COMPRESS": "zlib6",
    "REPRO_TRACE": "/tmp/trace.json",
    # the worker cache budget and the scratch-pack cap are constants
    "REPRO_BLOB_CACHE_MB": "0",
    # units are always pushed: the held-unit arm is gone
    "REPRO_PIPELINE": "0",
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in list(TABLE) + list(DELETED):
        monkeypatch.delenv(name, raising=False)


def test_table_is_every_variable_the_program_reads():
    assert {name: field for name, field, _ in options.VARIABLES} == {
        name: field for name, (field, _) in TABLE.items()
    }


@pytest.mark.parametrize(
    "name,field,raw,expected",
    [
        (name, field, raw, expected)
        for name, (field, rows) in TABLE.items()
        for raw, expected in rows
    ],
)
def test_variable_parses_and_clamps(monkeypatch, name, field, raw, expected):
    if raw is not None:
        monkeypatch.setenv(name, raw)
    resolved = options.from_env()
    assert getattr(resolved, field) == expected
    assert type(getattr(resolved, field)) is type(expected)
    # ...and touches nothing else.
    assert resolved == dataclasses.replace(DEFAULTS, **{field: expected})


def test_defaults_are_the_product_defaults():
    assert DEFAULTS == RuntimeOptions(
        host_jobs=1, unit_timeout=60.0, superblocks=True,
        host_faults="", fault_state="",
        log_group_bytes=32 * 1024, log_fsync=True,
        flight_window=None,
    )
    assert len(dataclasses.fields(RuntimeOptions)) == 8
    assert options.from_env() == DEFAULTS


def test_deleted_variables_are_inert(monkeypatch):
    for name, value in DELETED.items():
        monkeypatch.setenv(name, value)
    assert options.from_env() == DEFAULTS
    assert options.resolve(DoublePlayConfig()) == DEFAULTS
    # ...REPRO_PIPELINE=0 included: every position is still pushed.
    instance = build_workload("fft", workers=2, scale=2, seed=11)
    config = DoublePlayConfig(
        machine=MachineConfig(cores=2), epoch_cycles=500, host_jobs=2
    )
    result = DoublePlayRecorder(instance.image, instance.setup, config).record()
    assert result.host["speculation"]["dispatched"] == result.stats["epochs"] > 2


# ----------------------------------------------------------------------
# explicit argument > config field > environment > default
# ----------------------------------------------------------------------
def test_precedence_unit_timeout(monkeypatch):
    assert options.resolve(DoublePlayConfig()).unit_timeout == 60.0
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "2.5")
    assert DoublePlayConfig().unit_timeout is None  # not frozen at construction
    assert options.resolve(DoublePlayConfig()).unit_timeout == 2.5
    config = DoublePlayConfig(unit_timeout=7)
    assert options.resolve(config).unit_timeout == 7.0
    assert options.resolve(config, unit_timeout=1.25).unit_timeout == 1.25
    assert options.resolve(config, unit_timeout=None).unit_timeout == 7.0
    assert options.resolve(unit_timeout=-1).unit_timeout == 0.0
    executor = HostExecutor(options.resolve(host_jobs=2, unit_timeout=1.25), Lives())
    assert executor.unit_timeout == 1.25


def test_precedence_faults(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_FAULT", "crash:unit1")
    assert options.resolve(DoublePlayConfig()).host_faults == "crash:unit1"
    # "" in the config explicitly disables injection; None defers.
    assert options.resolve(DoublePlayConfig(host_faults="")).host_faults == ""
    config = DoublePlayConfig(host_faults="error:unit2")
    assert options.resolve(config).host_faults == "error:unit2"
    assert options.resolve(config, host_faults="slow:unit0").host_faults == "slow:unit0"
    executor = HostExecutor(options.resolve(config, host_jobs=2), Lives())
    assert executor._fault_specs == (FaultSpec(kind="error", position=2),)
    # Junk still raises, where the executor is built; `once` still needs
    # the fuse directory.
    with pytest.raises(ValueError):
        HostExecutor(options.resolve(host_jobs=2, host_faults="nonsense"), Lives())
    with pytest.raises(ValueError, match="REPRO_FAULT_STATE"):
        HostExecutor(
            options.resolve(host_jobs=2, host_faults="crash:unit1:once"), Lives()
        )
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path))
    (spec,) = HostExecutor(
        options.resolve(host_jobs=2, host_faults="crash:unit1:once"), Lives()
    )._fault_specs
    assert spec.once and spec.state_dir == str(tmp_path)


def test_config_fields_that_set_an_option():
    shared = {f.name for f in dataclasses.fields(RuntimeOptions)} & {
        f.name for f in dataclasses.fields(DoublePlayConfig)
    }
    assert shared == {
        "host_jobs", "unit_timeout", "host_faults", "flight_window"
    }
    # ...and each is "not set here" until a caller sets it.
    assert all(getattr(DoublePlayConfig(), name) is None for name in shared)


def test_precedence_flight_window():
    assert options.resolve(DoublePlayConfig()).flight_window is None
    config = DoublePlayConfig(flight_window=4)
    assert options.resolve(config).flight_window == 4
    assert options.resolve(config, flight_window=2).flight_window == 2


def test_nested_run_inherits_instead_of_rereading_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SUPERBLOCKS", "0")
    with options.run(host_jobs=3) as outer:
        assert options.current() is outer and not outer.superblocks
        monkeypatch.setenv("REPRO_SUPERBLOCKS", "1")
        with options.run(DoublePlayConfig(unit_timeout=5)) as inner:
            assert inner == dataclasses.replace(outer, unit_timeout=5.0)
        assert options.current() is outer
    assert options.current().superblocks


# ----------------------------------------------------------------------
# What reaches workers, and what the journal shows.
# ----------------------------------------------------------------------
def test_dispatch_carries_non_default_options_across_pickle():
    shipped = RuntimeOptions(superblocks=False, host_jobs=2)
    dispatch = UnitDispatch(
        machine=MachineConfig(cores=2), unit=None, program_digest=7,
        options=shipped, _local_program=object(),
    )
    clone = pickle.loads(pickle.dumps(dispatch))
    assert clone.options == shipped and clone.options != DEFAULTS
    assert clone._local_program is None
    assert UnitDispatch(None, None, 0).options == DEFAULTS


def test_each_run_journals_its_resolved_options(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_LOG_FSYNC", "0")
    instance = build_workload("fft", workers=2, scale=2, seed=11)
    config = DoublePlayConfig(
        machine=MachineConfig(cores=2), epoch_cycles=2000,
        host_jobs=1, unit_timeout=9,
    )
    sink = str(tmp_path / "events.jsonl")
    obs_events.install_journal(sink)
    try:
        DoublePlayRecorder(instance.image, instance.setup, config).record()
    finally:
        obs_events.uninstall_journal()
    events = obs_events.read_events(sink)
    assert [e["kind"] for e in events].count("options") == 1
    first = events[0]
    assert first["kind"] == "options"
    expected = dataclasses.replace(
        DEFAULTS, log_fsync=False, unit_timeout=9.0
    )
    assert {k: first[k] for k in vars(expected)} == vars(expected)


# ----------------------------------------------------------------------
# Hygiene: the next knob cannot grow a second read site.
# ----------------------------------------------------------------------
def test_only_options_reads_the_environment():
    root = pathlib.Path(repro.__file__).parent
    #: options.py by design; host/pool.py only scopes PYTHONPATH for spawn
    allowed = {"options.py", "host/pool.py"}
    pattern = re.compile(r"os\.environ|os\.getenv|\bgetenv\b|\benviron\b")
    offenders = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if pattern.search(path.read_text())
        and path.relative_to(root).as_posix() not in allowed
    )
    assert offenders == []
    pool = (root / "host" / "pool.py").read_text()
    assert "REPRO_" not in pool
