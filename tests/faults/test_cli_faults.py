"""The `mocket faults` verb and the `--faults` family on `mocket test`.

toycache keeps these fast: a 13-state model whose mapping has no fault
actions, so plans carry only transparent chaos injections — which a
correct implementation must shrug off (heal-on-retry), making exit
codes and triage output easy to pin down.
"""

import copy
import json
import re

import pytest

from repro.cli import main
from repro.faults import FaultPlan, all_chaos_scenarios


class TestFaultsPlan:
    def test_plan_writes_canonical_json(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert main(["faults", "plan", "toycache", "--fault-seed", "5",
                     "--out", str(out)]) == 0
        plan = FaultPlan.load(str(out))
        assert plan.seed == "5"
        assert len(plan) > 0
        # canonical bytes: a second run reproduces the file exactly
        again = tmp_path / "again.json"
        assert main(["faults", "plan", "toycache", "--fault-seed", "5",
                     "--out", str(again)]) == 0
        assert out.read_bytes() == again.read_bytes()

    def test_plan_without_out_prints_json(self, capsys):
        assert main(["faults", "plan", "toycache", "--fault-seed", "5"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["format"] == "mocket-fault-plan/1"


class TestFaultsRunAndReplay:
    def test_run_passes_and_triages_clean(self, capsys):
        assert main(["faults", "run", "toycache", "--fault-seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "fault plan:" in out
        assert "0 unattributed" in out
        # the visited-fingerprint digest that lets a chaos run's results
        # seed a fuzz corpus
        assert "coverage:" in out and "edges visited" in out

    def test_replay_reuses_a_saved_plan(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert main(["faults", "plan", "toycache", "--fault-seed", "5",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["faults", "replay", "toycache", "--plan",
                     str(out)]) == 0
        assert "0 unattributed" in capsys.readouterr().out

    def test_replay_rejects_a_foreign_plan(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"format": "nope"}))
        assert main(["faults", "replay", "toycache",
                     "--plan", str(bogus)]) == 2
        assert "is not a mocket-fault-plan/1 file" in capsys.readouterr().err


class TestTestFaultFlags:
    def test_test_with_faults_is_deterministic(self, capsys):
        assert main(["test", "toycache", "--faults",
                     "--fault-seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["test", "toycache", "--faults",
                     "--fault-seed", "9"]) == 0
        second = capsys.readouterr().out

        def stable(text):
            return [line for line in text.splitlines()
                    if "wall clock" not in line and " cases, " not in line]

        assert stable(first) == stable(second)
        assert "fault plan:" in first
        assert "fault triage" in first

    def test_chaos_flag_implies_faults(self, capsys):
        assert main(["test", "toycache", "--chaos", "--fault-seed", "9",
                     "--cases", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos" in out


class TestMaxFaultsFlag:
    def test_k3_plans_more_and_wider_than_k1(self, capsys):
        assert main(["faults", "plan", "toycache", "--fault-seed", "1",
                     "--chaos"]) == 0
        k1 = capsys.readouterr().out
        assert main(["faults", "plan", "toycache", "--fault-seed", "1",
                     "--chaos", "--max-faults", "3"]) == 0
        k3 = capsys.readouterr().out
        plan1 = json.loads(k1[k1.index("{"):])
        plan3 = json.loads(k3[k3.index("{"):])
        assert len(plan3["injections"]) > len(plan1["injections"])
        assert {i["kind"] for i in plan3["injections"]} > \
            {i["kind"] for i in plan1["injections"]}

    def test_max_faults_zero_is_rejected(self):
        with pytest.raises(ValueError, match="max_faults_per_case"):
            main(["faults", "plan", "toycache", "--max-faults", "0"])


class TestShrinkVerb:
    def failing_plan(self, tmp_path):
        out = tmp_path / "plan.json"
        assert main(["faults", "plan", "toycache", "--fault-seed", "1",
                     "--out", str(out)]) == 0
        return str(out)

    def test_shrink_proves_fault_independence(self, tmp_path, capsys):
        plan = self.failing_plan(tmp_path)
        capsys.readouterr()
        minimal = tmp_path / "minimal.json"
        log = tmp_path / "shrink.jsonl"
        assert main(["faults", "shrink", "toycache", "--bug", "bug_wrong_max",
                     "--plan", plan, "--cases", "4",
                     "--out", str(minimal), "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "shrunk 4 -> 0 injections" in out
        assert "fault-independent" in out
        assert json.loads(minimal.read_text())["injections"] == []
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert records[0]["name"] == "shrink.start"
        assert records[-1]["name"] == "shrink.done"

    def test_shrink_log_feeds_trace_summarize(self, tmp_path, capsys):
        plan = self.failing_plan(tmp_path)
        log = tmp_path / "shrink.jsonl"
        assert main(["faults", "shrink", "toycache", "--bug", "bug_wrong_max",
                     "--plan", plan, "--cases", "4", "--log", str(log)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(log)]) == 0
        out = capsys.readouterr().out
        assert "shrink: 4 -> 0 injections" in out

    def test_shrink_rejects_a_plan_that_does_not_fail(self, tmp_path):
        plan = self.failing_plan(tmp_path)
        with pytest.raises(SystemExit, match="does not fail"):
            main(["faults", "shrink", "toycache", "--plan", plan,
                  "--cases", "4"])

    def test_test_verb_shrinks_on_failure(self, capsys):
        assert main(["test", "toycache", "--bug", "bug_wrong_max",
                     "--faults", "--fault-seed", "1", "--cases", "4",
                     "--shrink-on-failure"]) == 1
        out = capsys.readouterr().out
        assert "unattributed" in out
        assert "shrunk 4 -> 0 injections" in out

    def test_without_the_flag_no_shrink_runs(self, capsys):
        assert main(["test", "toycache", "--bug", "bug_wrong_max",
                     "--faults", "--fault-seed", "1", "--cases", "4"]) == 1
        assert "shrunk" not in capsys.readouterr().out


class TestScenariosVerb:
    def test_bundled_scenarios_match_expectations(self, capsys):
        assert main(["faults", "scenarios"]) == 0
        out = capsys.readouterr().out
        assert "[as expected]" in out
        assert "UNEXPECTED" not in out
        assert "pyxraft-modeled-message-faults" in out
        assert "minizk-crash-restart" in out

    def test_json_envelope_is_stable_v1(self, capsys):
        assert main(["faults", "scenarios", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["total"] == len(payload["scenarios"])
        # exactly the bundled scenarios, in order, each as it expects
        bundled = [build() for build in all_chaos_scenarios()]
        assert [(row["name"], row["target"], row["outcome"])
                for row in payload["scenarios"]] == [
            (s.name, s.target, s.expected_kind) for s in bundled]
        assert len(bundled) == 5
        for row in payload["scenarios"]:
            assert set(row) == {"name", "target", "expected", "outcome",
                                "ok", "detail"}
            assert row["ok"] is True


def _rename_chaos_nodes(doc):
    for injection in doc["injections"]:
        if injection["mode"] == "chaos":
            injection["params"] = re.sub(r"'n\d'", "'n9'",
                                         injection["params"])


def _chaos_steps_to_999(doc):
    for injection in doc["injections"]:
        if injection["mode"] == "chaos":
            injection["step_index"] = 999


def _modeled_edge_to_99999(doc):
    next(injection for injection in doc["injections"]
         if injection["mode"] == "modeled")["edge"]["dst"] = 99999


def _planned_for_toycache(doc):
    doc["target"] = "toycache"


class TestSavedPlanMustFit:
    """``faults replay|shrink`` check a plan read from disk against the
    target's canonical graph, base suite and cluster before running it:
    a hand-edited plan exits 2 with its first violation."""

    @pytest.fixture(scope="class")
    def plan(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("plan") / "plan.json"
        assert main(["faults", "plan", "raftkv", "--fault-seed", "1",
                     "--chaos", "--out", str(out)]) == 0
        return json.loads(out.read_text())

    @pytest.mark.parametrize("verb", ["replay", "shrink"])
    @pytest.mark.parametrize("edit, reason", [
        (_rename_chaos_nodes, "isolate='n9' is not a cluster node"),
        (_chaos_steps_to_999, "step 999 outside [1, "),
        (_modeled_edge_to_99999, "s99999"),
        (_planned_for_toycache, "it was planned for 'toycache'"),
    ], ids=["unknown-node", "step-out-of-range", "edge-not-in-graph",
            "other-target"])
    def test_hand_edited_plan_exits_two(self, plan, verb, edit, reason,
                                        tmp_path, capsys):
        doc = copy.deepcopy(plan)
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["faults", verb, "raftkv", "--plan", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mocket faults: fault plan {path} does not "
                              f"fit raftkv: ")
        assert reason in err and err.count("\n") == 1
