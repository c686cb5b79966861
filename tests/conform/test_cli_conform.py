"""``mocket conform`` and the conform additions to ``trace summarize``."""

import json

import pytest

from repro.cli import main

from .conftest import write_walk_log


@pytest.fixture()
def toycache_log(tmp_path):
    from repro.systems.catalog import kit

    from .conftest import canonical_graph

    spec, _mapping, _factory = kit("toycache")
    graph = canonical_graph(spec)
    path = tmp_path / "walk.jsonl"
    records = write_walk_log(path, graph, sessions=2, steps=6)
    return path, records


class TestConformCommand:
    def test_conforming_log_exits_zero(self, toycache_log, capsys):
        path, _records = toycache_log
        assert main(["conform", str(path), "--spec", "toycache"]) == 0
        out = capsys.readouterr().out
        assert "conformance: conforms" in out
        assert "2 sessions" in out

    def test_diverging_log_exits_one_with_line(self, toycache_log, capsys):
        path, records = toycache_log
        victim = len(records) // 2
        records[victim]["fields"]["action"] = "Bogus"
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in records))
        assert main(["conform", str(path), "--spec", "toycache"]) == 1
        out = capsys.readouterr().out
        assert f"first divergence at line {victim + 1}" in out

    def test_json_envelope(self, toycache_log, capsys):
        path, _records = toycache_log
        assert main(["conform", str(path), "--spec", "toycache",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["verdict"] == "conforms"
        assert payload["adapter"] == "obs"

    def test_bare_model_target(self, tmp_path, capsys):
        from .conftest import canonical_graph
        from repro.systems.catalog import get_model

        graph = canonical_graph(get_model("example")())
        path = tmp_path / "walk.jsonl"
        write_walk_log(path, graph, sessions=1, steps=4)
        assert main(["conform", str(path), "--spec", "example"]) == 0

    def test_stream_mode_reports_progress(self, toycache_log, capsys):
        path, _records = toycache_log
        assert main(["conform", str(path), "--spec", "toycache",
                     "--stream", "--progress", "5"]) == 0
        err = capsys.readouterr().err
        assert "... 5 events" in err and "frontier" in err

    def test_missing_log_exits_two(self, capsys):
        assert main(["conform", "/nonexistent/x.jsonl",
                     "--spec", "toycache"]) == 2
        assert "no such 'obs' log" in capsys.readouterr().err

    def test_unknown_adapter_exits_two(self, toycache_log, capsys):
        path, _records = toycache_log
        assert main(["conform", str(path), "--spec", "toycache",
                     "--adapter", "nope"]) == 2
        assert "unknown log adapter" in capsys.readouterr().err

    def test_unknown_target_rejected(self, toycache_log):
        path, _records = toycache_log
        with pytest.raises(SystemExit, match="unknown conform target"):
            main(["conform", str(path), "--spec", "nosuch"])

    def test_malformed_log_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        assert main(["conform", str(path), "--spec", "toycache"]) == 2
        assert "garbage.jsonl:1" in capsys.readouterr().err

    def test_jsonl_adapter_end_to_end(self, tmp_path, capsys):
        # a foreign log: plain {"action": ...} lines against the bare
        # example model
        path = tmp_path / "foreign.jsonl"
        path.write_text(
            '{"action": "Request", "params": {"data": 1}, "session": 1}\n'
            '{"action": "Respond", "session": 1}\n')
        assert main(["conform", str(path), "--spec", "example",
                     "--adapter", "jsonl"]) == 0


class TestConformObsIntegration:
    def test_trace_records_conform_events(self, toycache_log, tmp_path,
                                          capsys):
        path, _records = toycache_log
        trace = tmp_path / "conform-trace.jsonl"
        assert main(["conform", str(path), "--spec", "toycache",
                     "--trace", str(trace), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "conform.matched" in out and "conform.events" in out
        names = set()
        with open(trace) as handle:
            for line in handle:
                names.add(json.loads(line)["name"])
        assert {"conform.match", "conform.done"} <= names

    def test_summarize_digests_conform_run(self, toycache_log, tmp_path,
                                           capsys):
        path, records = toycache_log
        victim = len(records) // 2
        records[victim]["fields"]["action"] = "Bogus"
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in records))
        trace = tmp_path / "conform-trace.jsonl"
        assert main(["conform", str(path), "--spec", "toycache",
                     "--trace", str(trace)]) == 1
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "conformance: diverged" in out
        assert f"first divergence at line {victim + 1}" in out


class TestSummarizeJson:
    def test_summary_envelope(self, tmp_path, capsys):
        # record a real testbed trace, then summarize it as JSON
        trace = tmp_path / "run.jsonl"
        assert main(["test", "toycache", "--cases", "2",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["records"] > 0
        assert payload["cases"]["total"] == 2
        assert payload["cases"]["divergent"] == 0
        shown = payload["cases"]["shown"]
        assert len(shown) == 2
        assert all(step["outcome"] == "ok"
                   for case in shown for step in case["steps"])
        # steps recorded since the conform subsystem landed carry params
        reader_steps = [s for case in shown for s in case["steps"]]
        assert reader_steps

    def test_summary_json_caps_cases(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["test", "toycache", "--cases", "3",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace), "--cases", "1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"]["total"] == 3
        assert len(payload["cases"]["shown"]) == 1

    def test_recorded_steps_carry_params(self, tmp_path):
        # the runner now logs the full action binding, which is what
        # lets `mocket conform` discriminate parametrized transitions
        trace = tmp_path / "run.jsonl"
        assert main(["test", "toycache", "--cases", "1",
                     "--trace", str(trace)]) == 0
        with open(trace) as handle:
            steps = [json.loads(line) for line in handle
                     if '"runner.step"' in line]
        assert steps
        assert all("params" in s["fields"] for s in steps)
        assert any(s["fields"]["params"] for s in steps)
