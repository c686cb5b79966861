"""End-to-end tests for ``mocket lint``: exit codes, JSON schema,
and the bundled targets staying clean."""

import json

import pytest

from repro.analysis import LintContext
from repro.analysis import targets as targets_mod
from repro.analysis.targets import all_targets
from repro.cli import main
from repro.core.mapping import SpecMapping
from repro.systems.catalog import TARGETS
from .test_conformance_rules import make_spec


class TestExitCodes:
    @pytest.mark.parametrize("system", TARGETS)
    def test_bundled_systems_pass_fail_on_error(self, system, capsys):
        assert main(["lint", system, "--fail-on", "error"]) == 0

    def test_all_passes_fail_on_warning(self, capsys):
        assert main(["lint", "all", "--fail-on", "warning"]) == 0
        out = capsys.readouterr().out
        for name in all_targets():
            assert f"{name}:" in out

    def test_unknown_target_exits_with_message(self, capsys):
        with pytest.raises(SystemExit, match="unknown lint target"):
            main(["lint", "nosuch"])

    def test_defective_target_fails_and_none_disables(self, monkeypatch, capsys):
        spec = make_spec()
        broken = LintContext("broken", spec, SpecMapping(spec))
        monkeypatch.setattr(targets_mod, "resolve", lambda name: broken)
        assert main(["lint", "broken"]) == 1              # default: error
        assert main(["lint", "broken", "--fail-on", "none"]) == 0
        out = capsys.readouterr().out
        assert "MCK101" in out and "MCK103" in out

    def test_warning_threshold(self, monkeypatch, capsys):
        from repro.tlaplus.spec import Specification

        spec = Specification("warnful")
        spec.add_variable("n")
        spec.add_variable("ghost")

        @spec.init
        def init(const):
            return {"n": 0, "ghost": 0}

        @spec.action()
        def Incr(state, const):
            return {"n": state.n + 1}

        monkeypatch.setattr(targets_mod, "resolve",
                            lambda name: LintContext("warnful", spec))
        assert main(["lint", "warnful"]) == 0               # MCK001 is a warning
        assert main(["lint", "warnful", "--fail-on", "warning"]) == 1


class TestJsonReport:
    def test_schema_is_stable(self, capsys):
        assert main(["lint", "toycache", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["target"] == "toycache"
        assert set(document) == {"version", "target", "rules_run",
                                 "findings", "summary"}
        assert set(document["summary"]) == {"errors", "warnings",
                                            "suppressed", "total"}

    def test_findings_carry_full_shape(self, capsys):
        # raftkv has one (suppressed) MCK204 finding to exercise the shape
        assert main(["lint", "raftkv", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        [finding] = [f for f in document["findings"] if f["code"] == "MCK204"]
        assert set(finding) == {"code", "severity", "message", "file",
                                "line", "object", "suppressed"}
        assert finding["suppressed"] is True
        assert finding["severity"] == "warning"
        assert finding["file"].endswith("node.py")

    def test_text_report_mentions_suppression(self, capsys):
        assert main(["lint", "raftkv"]) == 0
        out = capsys.readouterr().out
        assert "(suppressed)" in out
        assert "1 suppressed" in out

    def test_summary_line_reports_catalogue_size(self, capsys):
        from repro.analysis import all_rules

        total = len(all_rules())
        assert main(["lint", "raftkv"]) == 0
        out = capsys.readouterr().out
        # systems run the full catalogue ...
        assert f"raftkv: 0 error(s), 0 warning(s), 1 suppressed " \
               f"({total} of {total} rules)" in out
        # ... spec-only targets visibly run a subset of it
        assert main(["lint", "example"]) == 0
        out = capsys.readouterr().out
        assert f"(12 of {total} rules)" in out


class TestSarifReport:
    def _document(self, capsys, argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_single_aggregated_run(self, capsys):
        document = self._document(
            capsys, ["lint", "all", "--format", "sarif"])
        assert document["version"] == "2.1.0"
        assert "sarif-schema" in document["$schema"]
        [run] = document["runs"]
        assert run["tool"]["driver"]["name"] == "mocket-lint"

    def test_rules_are_reporting_descriptors(self, capsys):
        from repro.analysis import all_rules

        document = self._document(
            capsys, ["lint", "toycache", "--format", "sarif"])
        descriptors = document["runs"][0]["tool"]["driver"]["rules"]
        assert [d["id"] for d in descriptors] == \
            [r.code for r in all_rules()]
        for descriptor in descriptors:
            assert descriptor["name"]
            assert descriptor["shortDescription"]["text"]
            assert descriptor["defaultConfiguration"]["level"] in (
                "error", "warning", "note")

    def test_findings_become_sarif_results(self, capsys):
        # raftkv's suppressed MCK204 exercises every result feature
        document = self._document(
            capsys, ["lint", "raftkv", "--format", "sarif"])
        run = document["runs"][0]
        [result] = [r for r in run["results"] if r["ruleId"] == "MCK204"]
        assert result["level"] == "warning"
        assert result["message"]["text"].startswith("[raftkv] ")
        assert result["suppressions"] == [{"kind": "inSource"}]
        rule_index = result["ruleIndex"]
        assert run["tool"]["driver"]["rules"][rule_index]["id"] == "MCK204"
        [location] = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"].endswith("node.py")
        assert physical["region"]["startLine"] > 0

    def test_sarif_exit_code_still_honours_fail_on(self, monkeypatch, capsys):
        spec = make_spec()
        broken = LintContext("broken", spec, SpecMapping(spec))
        monkeypatch.setattr(targets_mod, "resolve", lambda name: broken)
        assert main(["lint", "broken", "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["results"]

    def test_json_envelope_is_unchanged_by_the_sarif_reporter(self, capsys):
        # the v1 JSON schema is frozen; SARIF is a separate format, not
        # a mutation of it
        assert main(["lint", "toycache", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"version", "target", "rules_run",
                                 "findings", "summary"}
