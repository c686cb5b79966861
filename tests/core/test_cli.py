"""Tests for the ``mocket`` command line."""

import json

import pytest

from repro.cli import main
from repro.obs import METRICS, TRACER, TraceReader


@pytest.fixture(autouse=True)
def clean_obs():
    TRACER.reset()
    METRICS.reset()
    yield
    TRACER.reset()
    METRICS.reset()


class TestCheck:
    def test_check_example(self, capsys):
        assert main(["check", "example"]) == 0
        out = capsys.readouterr().out
        assert "13 states" in out

    def test_check_dot_dump(self, tmp_path, capsys):
        dot = tmp_path / "space.dot"
        assert main(["check", "example", "--dot", str(dot)]) == 0
        from repro.tlaplus import read_dot

        graph = read_dot(str(dot))
        assert graph.num_states == 13

    def test_unknown_model_exits(self):
        with pytest.raises(SystemExit):
            main(["check", "nope"])


class TestTestgen:
    def test_testgen_example(self, capsys):
        assert main(["testgen", "example", "--show", "1"]) == 0
        out = capsys.readouterr().out
        assert "PathEC:" in out
        assert "PathEC+POR:" in out
        assert "#0:" in out


class TestControlledTest:
    def test_correct_toycache_passes(self, capsys):
        assert main(["test", "toycache"]) == 0
        assert "0 divergent" in capsys.readouterr().out

    def test_buggy_toycache_fails(self, capsys):
        code = main(["test", "toycache", "--bug", "bug_wrong_max",
                     "--stop-on-bug"])
        assert code == 1
        assert "Inconsistent state" in capsys.readouterr().out

    def test_unknown_bug_flag_exits(self):
        with pytest.raises(SystemExit, match="unknown bug"):
            main(["test", "toycache", "--bug", "bug_nope"])

    def test_unknown_target_exits(self):
        with pytest.raises(SystemExit):
            main(["test", "nopesystem"])

    def test_no_por_flag(self, capsys):
        assert main(["test", "toycache", "--no-por", "--cases", "2"]) == 0


class TestObservabilityFlags:
    def test_check_metrics_table(self, capsys):
        assert main(["check", "example", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "-- metrics" in out
        assert "checker.states          13" in out
        assert "checker.states_per_sec" in out

    def test_check_trace_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "check.jsonl"
        assert main(["check", "example", "--trace", str(trace)]) == 0
        assert "trace written to" in capsys.readouterr().out
        records = [json.loads(line)
                   for line in trace.read_text().strip().splitlines()]
        names = {record["name"] for record in records}
        assert "checker.run" in names and "checker.bfs_level" in names

    def test_obs_disabled_after_command(self, tmp_path):
        main(["check", "example", "--trace", str(tmp_path / "t.jsonl")])
        assert not TRACER.enabled

    def test_testgen_metrics(self, capsys):
        assert main(["testgen", "example", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "testgen.edge_coverage_pct" in out

    def test_test_trace_and_metrics_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["test", "toycache", "--trace", str(trace),
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "0 divergent" in out
        assert "divergence.missing_action" in out    # pre-registered at 0
        assert "runner.step_seconds" in out
        timelines = TraceReader.from_file(str(trace)).case_timelines()
        assert len(timelines) == 4
        for line in timelines.values():
            assert line.passed and line.step_count > 0

    def test_system_flag_is_a_target_alias(self, capsys):
        assert main(["test", "--system", "toycache", "--cases", "1"]) == 0
        assert "toycache" in capsys.readouterr().out

    def test_test_without_target_exits(self):
        with pytest.raises(SystemExit, match="name a target"):
            main(["test"])


class TestTraceSummarize:
    def test_summarize_reconstructs_cases(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["test", "toycache", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "records by name:" in out
        assert "cases: 4 (0 divergent)" in out
        assert "case #0:" in out

    def test_summarize_cases_cap(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(["test", "toycache", "--trace", str(trace)])
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace), "--cases", "1"]) == 0
        out = capsys.readouterr().out
        assert "case #0:" in out and "case #1:" not in out


class TestArtifactsFailClosed:
    """A missing or malformed artifact file ends the verb with exit
    code 2 and one line on stderr, never a traceback."""

    @pytest.mark.parametrize("make_argv", [
        pytest.param(lambda tmp: ["soak", "raftkv", "--schedule", _file(
            tmp, {"format": "mocket-soak-schedule/1", "seed": "1"})],
            id="soak-schedule-without-events"),
        pytest.param(lambda tmp: ["faults", "replay", "toycache",
                                  "--plan", str(tmp / "nope.json")],
                     id="replay-plan-missing"),
        pytest.param(lambda tmp: ["faults", "shrink", "toycache", "--plan",
                                  _file(tmp, {"format": "nope/1"})],
                     id="shrink-plan-wrong-format"),
        pytest.param(lambda tmp: ["test", "toycache",
                                  "--suite", str(tmp / "nope.json")],
                     id="test-suite-missing"),
        pytest.param(lambda tmp: ["trace", "summarize",
                                  str(tmp / "nope.jsonl")],
                     id="trace-missing"),
    ])
    def test_exits_two_with_one_line(self, make_argv, tmp_path, capsys):
        argv = make_argv(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mocket {argv[0]}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, body, line", [
        (["conform", "{f}", "--spec", "toycache"], None,
         "no such 'obs' log: {f}"),
        (["conform", "{f}", "--spec", "toycache", "--adapter", "jsonl"],
         "not json", "{f}:1: not a 'jsonl' log record: "
                     "Expecting value: line 1 column 1 (char 0)"),
        (["fuzz", "toycache", "--budget", "1", "--seed-plan", "{f}"], None,
         "no such fault plan: {f}"),
        (["soak", "raftkv", "--schedule", "{f}"], None,
         "no such soak schedule: {f}"),
        (["soak", "raftkv", "--schedule", "{f}"], '{"format": "other/1"}',
         "{f} is not a mocket-soak-schedule/1 file"),
    ])
    def test_lines_older_than_the_helper_keep_their_wording(
            self, argv, body, line, tmp_path, capsys):
        path = tmp_path / "artifact"
        if body is not None:
            path.write_text(body)
        argv = [arg.format(f=path) for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"mocket {argv[0]}: {line.format(f=path)}\n")


def _file(directory, document) -> str:
    path = directory / "artifact.json"
    path.write_text(json.dumps(document))
    return str(path)


class TestBugsCommand:
    def test_replays_all_nine(self, capsys):
        assert main(["bugs"]) == 0
        out = capsys.readouterr().out
        # exactly the nine Table 2 rows, in Table 2 order: implementation
        # bugs system by system, then the official-spec bugs
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "xraft-bug1", "xraft-bug2", "xraft-bug3",
            "raftkv-bug1", "raftkv-bug2", "zk-1419", "zk-1653",
            "raft-spec-bug-missing-reply", "raft-spec-bug-update-term"]
        assert "NOT DETECTED" not in out
