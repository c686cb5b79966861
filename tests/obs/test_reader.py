"""TraceReader tests: JSONL round-trip and timeline reconstruction."""

import pytest

from repro.obs import TRACER, TraceReader


def write_fake_run(sink_path):
    """Emit a small, realistic two-case run through the real tracer."""
    TRACER.configure(enabled=True, sink=str(sink_path))
    with TRACER.span("runner.suite", cases=2):
        with TRACER.span("runner.case", case=0, actions=2) as case_span:
            with TRACER.span("runner.step", case=0, step=0,
                             action="Request", outcome="ok"):
                TRACER.emit("scheduler.notification", name="Request", node="n1")
            with TRACER.span("runner.step", case=0, step=1,
                             action="Respond", outcome="ok"):
                pass
            case_span.add(outcome="pass", executed=2)
        with TRACER.span("runner.case", case=1, actions=2) as case_span:
            with TRACER.span("runner.step", case=1, step=0,
                             action="Request", outcome="missing_action"):
                pass
            TRACER.emit("runner.divergence", case=1, kind="missing_action",
                        step=0, action="Request")
            case_span.add(outcome="missing_action", executed=0)
    TRACER.disable()


class TestRoundTrip:
    def test_jsonl_round_trip_matches_buffer(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_fake_run(path)
        buffered = TRACER.events()
        reader = TraceReader.from_file(str(path))
        assert len(reader) == len(buffered)
        for loaded, original in zip(reader.events, buffered):
            assert loaded.seq == original.seq
            assert loaded.name == original.name
            assert loaded.kind == original.kind
            assert loaded.ts == pytest.approx(original.ts, abs=1e-9)

    def test_bad_line_reports_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "ts": 0.1, "name": "x"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            TraceReader.from_file(str(path)).events

    def test_from_file_is_lazy_and_streams(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_fake_run(path)
        reader = TraceReader.from_file(str(path))
        assert reader._events is None          # no I/O until consumed
        streamed = list(reader.iter_events())
        assert reader._events is None          # streaming did not materialize
        assert [e.seq for e in streamed] == sorted(e.seq for e in streamed)
        assert len(reader.events) == len(streamed)   # now materialized
        assert reader._events is not None


class TestTimelines:
    def test_case_timelines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_fake_run(path)
        timelines = TraceReader.from_file(str(path)).case_timelines()
        assert sorted(timelines) == [0, 1]
        passing = timelines[0]
        assert passing.step_count == 2
        assert [s.action for s in passing.steps] == ["Request", "Respond"]
        assert passing.passed and passing.outcome == "pass"
        failing = timelines[1]
        assert failing.step_count == 1
        assert not failing.passed and failing.outcome == "missing_action"
        assert failing.steps[0].outcome == "missing_action"

    def test_names_and_duration(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_fake_run(path)
        reader = TraceReader.from_file(str(path))
        counts = reader.names()
        assert counts["runner.case"] == 2
        assert counts["runner.step"] == 3
        assert reader.duration() > 0

    def test_summarize_text(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_fake_run(path)
        text = TraceReader.from_file(str(path)).summarize()
        assert "cases: 2 (1 divergent)" in text
        assert "case #0: 2 steps, pass" in text
        assert "case #1: 1 steps, missing_action" in text
        assert "[0] Request" in text

    def test_summarize_caps_cases(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_fake_run(path)
        text = TraceReader.from_file(str(path)).summarize(max_cases=1)
        assert "case #0" in text and "case #1" not in text
        assert "1 more cases" in text

    def test_summarize_check_line_has_memo_hit_ratio(self, tmp_path):
        from repro.specs import build_example_spec
        from repro.tlaplus import check

        path = tmp_path / "check.jsonl"
        TRACER.configure(enabled=True, sink=str(path))
        try:
            check(build_example_spec())
        finally:
            TRACER.disable()
        text = TraceReader.from_file(str(path)).summarize()
        assert ("check: 1 run(s), 13 states, 18 edges; memo 11 hits / "
                "15 misses (42.3% hit), 15 entries") in text

    def test_empty_trace(self):
        reader = TraceReader([])
        assert reader.case_timelines() == {}
        assert reader.duration() == 0.0
        assert "0 records" in reader.summarize()
