"""Command-line interface tests."""

import io
import json
import shutil

import pytest

from repro.cli import main
from tests.conftest import BLOB_CORRUPTIONS, edit_pack


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_workloads(self):
        code, text = run_cli("list")
        assert code == 0
        for name in ("pbzip", "apache", "radix", "racy-counter"):
            assert name in text


class TestRun:
    def test_runs_and_validates(self):
        code, text = run_cli("run", "pfscan", "--scale", "2")
        assert code == 0
        assert "valid=True" in text

    def test_worker_count_respected(self):
        code, text = run_cli("run", "fft", "--workers", "4", "--scale", "2")
        assert code == 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "nope")


class TestRecordReplay:
    def test_record_reports_stats(self):
        code, text = run_cli("record", "pbzip", "--scale", "4")
        assert code == 0
        assert "divergences" in text
        assert "schedule_bytes" in text

    def test_record_flags(self):
        code, text = run_cli(
            "record", "fft", "--scale", "2", "--no-sync-hints",
            "--epoch-divisor", "8",
        )
        assert code == 0

    def test_record_then_replay_round_trip(self, tmp_path):
        path = tmp_path / "rec.json"
        code, _ = run_cli("record", "mysql", "--scale", "4", "-o", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["workload"]["name"] == "mysql"

        code, text = run_cli("replay", str(path))
        assert code == 0
        assert "verified" in text

        code, text = run_cli("replay", str(path), "--parallel")
        assert code == 0
        assert "verified" in text

        code, text = run_cli("replay", str(path), "--epoch", "1")
        assert code == 0
        assert "verified" in text

    def test_racy_recording_replays_from_disk(self, tmp_path):
        path = tmp_path / "racy.json"
        code, text = run_cli(
            "record", "racy-counter", "--scale", "2", "--workers", "3",
            "-o", str(path),
        )
        assert code == 0
        code, text = run_cli("replay", str(path))
        assert code == 0
        assert "verified" in text


class TestDurableLogCli:
    def _record_durable(self, log_dir, *extra):
        return run_cli(
            "record", "pbzip", "--scale", "4",
            "--log-dir", str(log_dir), *extra,
        )

    def test_from_epoch_zero_is_explicit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_FSYNC", "0")
        log_dir = tmp_path / "log"
        code, _ = self._record_durable(log_dir)
        assert code == 0
        # Regression: `--from-epoch 0` used to be indistinguishable from
        # "not given" — it must be an explicit, valid suffix target.
        code, text = run_cli(
            "replay", str(log_dir), "--from-epoch", "0"
        )
        assert code == 0
        assert "from epoch 0" in text and "verified" in text
        # ...and on a JSON recording it must error, even at 0.
        json_path = tmp_path / "rec.json"
        code, _ = run_cli(
            "record", "pbzip", "--scale", "4", "-o", str(json_path)
        )
        assert code == 0
        code, text = run_cli(
            "replay", str(json_path), "--from-epoch", "0"
        )
        assert code == 2
        assert "needs a durable log directory" in text

    def test_flight_window_requires_log_dir(self):
        code, text = run_cli("record", "pbzip", "--flight-window", "3")
        assert code == 2
        assert "--flight-window requires --log-dir" in text
        code, text = run_cli(
            "record", "pbzip", "--log-dir", "/tmp/x", "--flight-window", "0"
        )
        assert code == 2
        assert "must be >= 1" in text

    def test_flight_window_record_and_recover(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_FSYNC", "0")
        monkeypatch.setenv("REPRO_LOG_GROUP_KB", "1")
        log_dir = tmp_path / "log"
        code, text = self._record_durable(
            log_dir, "--log-spill", "--flight-window", "2",
            "--epoch-divisor", "24",
        )
        assert code == 0
        manifest = json.loads((log_dir / "manifest.json").read_text())
        assert manifest["flight_window"] == 2
        assert len(manifest["epochs"]) <= 2
        # One routine behind two spellings: same report, same verdict.
        for argv in (("log", "recover", str(log_dir)), ("replay", str(log_dir), "--tail")):
            code, text = run_cli(*argv)
            assert code == 0
            assert f"{log_dir}: complete" in text and "flight window 2" in text
            assert "tail" in text and "verified" in text

    def test_tail_needs_directory(self, tmp_path):
        json_path = tmp_path / "rec.json"
        json_path.write_text("{}")
        code, text = run_cli("replay", str(json_path), "--tail")
        assert code == 2
        assert "needs a durable log directory" in text

    def test_recover_rejects_missing_log(self, tmp_path):
        code, text = run_cli("log", "recover", str(tmp_path))
        assert code == 2
        assert "no durable log manifest" in text

    def test_recover_reports_integrity_problems(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_FSYNC", "0")
        log_dir = tmp_path / "log"
        code, _ = self._record_durable(log_dir)
        assert code == 0
        (log_dir / "blobs" / "pack.dppack").unlink()
        for argv in (("log", "recover", str(log_dir)), ("replay", str(log_dir), "--tail")):
            code, text = run_cli(*argv)
            assert code == 1
            assert "FAILED" in text and "integrity problem" in text

    def test_malformed_manifest_is_reported_not_raised(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_FSYNC", "0")
        log_dir = tmp_path / "log"
        code, _ = self._record_durable(log_dir)
        assert code == 0
        manifest = json.loads((log_dir / "manifest.json").read_text())
        manifest["epochs"][1]["checkpoint"] = "zz"
        (log_dir / "manifest.json").write_text(json.dumps(manifest))
        for argv in (
            ("log", "recover", str(log_dir)),
            ("replay", str(log_dir), "--tail"),
            ("replay", str(log_dir)),
        ):
            code, text = run_cli(*argv)
            assert code == 2
            assert text.startswith("error: ") and "malformed manifest" in text


class TestOutsideInput:
    """A bad path or file named on the command line: one ``error:`` line, exit 2."""

    @pytest.mark.parametrize("argv", [
        ("replay", "MISSING"),
        ("replay", "MISSING", "--tail"),
        ("log", "recover", "MISSING"),
        ("diagnose", "MISSING"),
        ("trace", "summarize", "MISSING"),
        ("metrics", "diff", "MISSING", "MISSING"),
        ("events", "tail", "MISSING"),
    ], ids=" ".join)
    def test_missing_path(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, text = run_cli(*argv)
        assert code == 2
        assert text.startswith("error: ") and text.count("\n") == 1

    @pytest.mark.parametrize(
        "content", ["{not json", "{}", "[]", '{"workload": {}, "recording": {}}']
    )
    def test_replay_of_a_file_that_is_no_recording(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        code, text = run_cli("replay", str(path))
        assert code == 2
        assert text.startswith("error: ") and text.count("\n") == 1

    @pytest.mark.parametrize("content", ["[1, 2]", '{"metrics": [1]}'])
    def test_metrics_diff_of_a_file_that_is_no_snapshot(self, tmp_path, content):
        path = tmp_path / "m.json"
        path.write_text(content)
        code, text = run_cli("metrics", "diff", str(path), str(path))
        assert code == 2
        assert text.startswith("error: ") and text.count("\n") == 1

    def test_events_tail_skips_a_line_that_is_no_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('[1]\n{"seq": 1, "kind": "epoch-commit", "epoch": 3}\n7\n')
        code, text = run_cli("events", "tail", str(path))
        assert code == 0
        assert text.count("\n") == 1 and "epoch=3" in text

    @pytest.fixture(scope="class")
    def durable_log(self, tmp_path_factory):
        log_dir = str(tmp_path_factory.mktemp("cli") / "log")
        code, _ = run_cli(
            "record", "pbzip", "--scale", "4", "--seed", "11", "--log-dir", log_dir
        )
        assert code == 0
        return log_dir

    @pytest.mark.parametrize("suffix", [(), ("--from-epoch", "1")], ids=["all", "from-1"])
    @pytest.mark.parametrize("corruption", BLOB_CORRUPTIONS)
    def test_replay_of_a_log_with_a_blob_that_does_not_decode(
        self, durable_log, tmp_path, corruption, suffix
    ):
        log_dir = str(tmp_path / "log")
        shutil.copytree(durable_log, log_dir)
        assert edit_pack(log_dir, BLOB_CORRUPTIONS[corruption])
        code, text = run_cli("replay", log_dir, *suffix)
        assert code == 2
        assert text.startswith("error: blob ") and text.count("\n") == 1

    def test_replay_epoch_out_of_range(self, tmp_path):
        path = tmp_path / "rec.json"
        run_cli("record", "fft", "--scale", "2", "-o", str(path))
        code, text = run_cli("replay", str(path), "--epoch", "99")
        assert (code, text) == (2, "error: recording has no epoch 99\n")

    def test_serve_needs_at_least_one_session(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("serve", "fft", "--sessions", "0")
        assert exit_info.value.code == 2
        assert "--sessions: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["record", "serve"])
    @pytest.mark.parametrize("divisor", ["0", "-3"])
    def test_epoch_divisor_must_be_positive(self, capsys, command, divisor):
        # Regression: 0 died in a ZeroDivisionError (record, and serve's
        # --verify after every session had run); a negative divisor made
        # serve --verify report a correct recording as drifted.
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, "fft", "--scale", "2", "--epoch-divisor", divisor)
        assert exit_info.value.code == 2
        assert "--epoch-divisor: must be >= 1" in capsys.readouterr().err


class TestExperiment:
    def test_table1(self):
        code, text = run_cli("experiment", "table1")
        assert code == 0
        assert "races" in text
        assert "pbzip" in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("experiment", "fig99")


class TestDiagnose:
    def test_diagnose_racy_recording(self, tmp_path):
        path = tmp_path / "racy.json"
        code, _ = run_cli(
            "record", "racy-counter", "--workers", "3", "--scale", "2",
            "-o", str(path),
        )
        assert code == 0
        code, text = run_cli("diagnose", str(path))
        assert code == 0
        assert "epoch" in text

    def test_diagnose_clean_recording(self, tmp_path):
        path = tmp_path / "clean.json"
        run_cli("record", "fft", "--scale", "2", "-o", str(path))
        code, text = run_cli("diagnose", str(path))
        assert code == 0
        assert "nothing to diagnose" in text
