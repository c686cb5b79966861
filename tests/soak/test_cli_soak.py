"""The `mocket soak` verb: exit codes, the JSON envelope, schedule
record/replay files, and trace/summarize integration."""

import json

import pytest

from repro.cli import main


def run_soak(extra, capsys):
    code = main(["soak", "raftkv", "--ops", "2000", "--soak-seed", "t",
                 "--shards", "2", "--rate", "400"] + extra)
    return code, capsys.readouterr()


class TestExitCodes:
    def test_clean_soak_exits_zero(self, capsys):
        code, captured = run_soak([], capsys)
        assert code == 0
        assert "soak raftkv: 2 shard(s), 2000 ops" in captured.out
        assert "divergences: none" in captured.out
        assert "simulated ops/sec" in captured.out

    def test_bug_soak_exits_one(self, capsys):
        code, captured = run_soak(["--bug", "bug_skip_apply"], capsys)
        assert code == 1
        assert "fingerprint_mismatch" in captured.out

    def test_bad_target_exits_two(self, capsys):
        assert main(["soak", "toycache", "--ops", "10"]) == 2
        assert "soak:" in capsys.readouterr().err

    def test_bad_ops_exits_two(self, capsys):
        assert main(["soak", "raftkv", "--ops", "0"]) == 2
        assert "ops" in capsys.readouterr().err


class TestJsonEnvelope:
    def test_json_report_shape(self, capsys):
        code, captured = run_soak(["--format", "json"], capsys)
        assert code == 0
        report = json.loads(captured.out)
        assert report["version"] == 1
        assert report["kind"] == "soak"
        assert report["seed"] == "t"
        assert report["shards"] == 2
        assert len(report["shard_reports"]) == 2
        assert report["totals"]["acked"] == 2000
        # canonical artifact: wall-clock and worker count never appear
        assert "workers" not in captured.out
        assert "wall" not in captured.out


class TestScheduleFiles:
    def test_record_then_replay_is_byte_identical(self, capsys, tmp_path):
        sched = str(tmp_path / "schedule.json")
        code, recorded = run_soak(
            ["--faults", "--format", "json", "--schedule-out", sched],
            capsys)
        assert code == 0
        doc = json.loads(open(sched).read())
        assert doc["format"] == "mocket-soak-schedule/1"
        assert doc["faults"] is True
        assert len(doc["events"]) == 2

        code, replayed = run_soak(["--schedule", sched, "--format", "json"],
                                  capsys)
        assert code == 0
        assert replayed.out == recorded.out

    def test_missing_schedule_exits_two(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["soak", "raftkv", "--ops", "10",
                     "--schedule", missing]) == 2
        assert "no such soak schedule" in capsys.readouterr().err

    def test_wrong_format_exits_two(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"format": "something-else"}))
        assert main(["soak", "raftkv", "--ops", "10",
                     "--schedule", str(bogus)]) == 2
        assert "mocket-soak-schedule/1" in capsys.readouterr().err

    @pytest.mark.parametrize("event", [
        {"at": 5.0, "op": "crash", "node": "n9"},
        {"at": 5.0, "op": "delay", "src": "n1", "dst": "n9", "count": 3},
        {"at": 5.0, "op": "hang", "node": "n1"},
        {"at": "5", "op": "heal"},
        {"at": 5.0, "op": "partition"},
    ], ids=["unknown-node", "unknown-link-end", "unknown-op", "text-time",
            "missing-node"])
    def test_unplayable_event_exits_two(self, event, capsys, tmp_path):
        sched = tmp_path / "schedule.json"
        sched.write_text(json.dumps({"format": "mocket-soak-schedule/1",
                                     "events": [[event]]}))
        assert main(["soak", "raftkv", "--ops", "10",
                     "--schedule", str(sched)]) == 2
        assert capsys.readouterr().err.count("\n") == 1


class TestTraceIntegration:
    def test_trace_records_soak_events_with_sim_field(self, capsys,
                                                      tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        code, _ = run_soak(["--trace", trace], capsys)
        assert code == 0
        names = {}
        sim_stamped = 0
        for line in open(trace, encoding="utf-8"):
            record = json.loads(line)
            names[record["name"]] = names.get(record["name"], 0) + 1
            if "sim" in record.get("fields", {}):
                sim_stamped += 1
        assert names.get("soak.shard") == 2
        assert names.get("soak.done") == 1
        assert names.get("soak.snapshot", 0) >= 2
        assert names.get("soak.run") == 1
        assert sim_stamped >= 2  # snapshots carry virtual timestamps

    def test_summarize_reports_soak_digest(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        code, _ = run_soak(["--trace", trace], capsys)
        assert code == 0
        code = main(["trace", "summarize", trace])
        captured = capsys.readouterr()
        assert code == 0
        assert "soak:" in captured.out
