"""The `mocket fuzz` verb: exit codes, the JSON envelope, corpus
directories on disk, and trace/summarize integration."""

import json

import pytest

from repro.cli import main
from repro.obs.reader import TraceReader


def run_fuzz(extra, capsys):
    code = main(["fuzz", "toycache", "--budget", "2", "--cases", "2",
                 "--fuzz-seed", "5"] + extra)
    return code, capsys.readouterr()


class TestExitCodes:
    def test_clean_campaign_exits_zero(self, capsys):
        code, captured = run_fuzz([], capsys)
        assert code == 0
        assert "fuzzing toycache (guided): budget 2" in captured.out
        assert "coverage:" in captured.out
        assert "corpus (in-memory):" in captured.out

    def test_bug_found_exits_one(self, capsys):
        code, captured = run_fuzz(["--bug", "bug_wrong_max"], capsys)
        assert code == 1
        assert "bug dv-" in captured.out

    def test_budget_below_one_exits_two(self, capsys):
        assert main(["fuzz", "toycache", "--budget", "0",
                     "--cases", "2"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_missing_seed_plan_exits_two(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["fuzz", "toycache", "--budget", "1", "--cases", "2",
                     "--seed-plan", missing]) == 2
        assert "no such fault plan" in capsys.readouterr().err


class TestCorpusDirectory:
    def test_corpus_lands_on_disk_and_resumes(self, capsys, tmp_path):
        corpus = str(tmp_path / "corpus")
        code, captured = run_fuzz(["--corpus", corpus], capsys)
        assert code == 0
        assert f"corpus at {corpus}:" in captured.out
        index = json.loads((tmp_path / "corpus" / "corpus.json")
                           .read_text())
        assert index["format"] == "mocket-fuzz-corpus/1"
        assert index["runs"] == 2
        # resuming continues the same stream with the same settings
        code, captured = run_fuzz(["--corpus", corpus], capsys)
        assert code == 0
        assert "run   2" in captured.out

    def test_meta_mismatch_exits_two(self, capsys, tmp_path):
        corpus = str(tmp_path / "corpus")
        assert run_fuzz(["--corpus", corpus], capsys)[0] == 0
        assert main(["fuzz", "toycache", "--budget", "1", "--cases", "2",
                     "--fuzz-seed", "9", "--corpus", corpus]) == 2
        assert "fuzz_seed" in capsys.readouterr().err


class TestJsonEnvelope:
    def test_json_format_is_a_stable_v1_envelope(self, capsys):
        code, captured = run_fuzz(["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["version"] == 1
        assert payload["target"] == "toycache"
        assert payload["guided"] is True
        assert payload["runs"] == payload["budget"] == 2
        assert len(payload["trajectory"]) == 2
        coverage = payload["coverage"]
        assert 0 < coverage["states"] <= coverage["graph_states"]
        assert 0 < coverage["edges"] <= coverage["graph_edges"]
        assert payload["bugs"] == {}

    def test_unguided_arm_is_marked(self, capsys):
        code, captured = run_fuzz(["--unguided", "--format", "json"],
                                  capsys)
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["guided"] is False
        assert payload["entries"] == 0


class TestObservability:
    def test_trace_summarize_reports_fuzz_and_coverage(self, capsys,
                                                       tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        code, _captured = run_fuzz(["--trace", trace], capsys)
        assert code == 0
        digest = TraceReader.from_file(trace).summarize()
        assert "fuzz: 2 runs (guided)" in digest
        assert "coverage:" in digest and "edges visited" in digest

    def test_trace_summarize_json_carries_coverage_and_fuzz(
            self, capsys, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        code, _captured = run_fuzz(["--trace", trace], capsys)
        assert code == 0
        assert main(["trace", "summarize", trace,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        coverage = payload["coverage"]
        assert 0 < coverage["states"] <= coverage["graph_states"]
        assert 0 < coverage["edges"] <= coverage["graph_edges"]
        fuzz = payload["fuzz"]
        assert fuzz["runs"] == 2
        assert fuzz["guided"] is True
        assert fuzz["target"] == "toycache"
