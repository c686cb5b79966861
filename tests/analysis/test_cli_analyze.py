"""End-to-end tests for ``mocket analyze``: effect tables, the JSON
envelope, and the DOT dependency graph."""

import json

import pytest

from repro.analysis.targets import all_targets
from repro.cli import main


class TestTextReport:
    def test_spec_target_effect_table(self, capsys):
        assert main(["analyze", "xraft"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("xraft-model:")
        # every action row carries the full footprint triple and a flag
        assert "reads={" in out and "writes={" in out and "consts={" in out
        assert "[ok]" in out
        assert "statically independent pairs:" in out
        # one hand-checked pair: Timeout only writes state/votes*,
        # DropMessage only touches the message bag
        assert "DropMessage || Timeout" in out

    def test_system_target_resolves_through_lint_targets(self, capsys):
        assert main(["analyze", "toycache"]) == 0
        assert "action(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("target", all_targets())
    def test_bundled_targets_are_fully_certified(self, target, capsys):
        # the published independence certificates lean on this: no
        # unknown footprints and no purity violations anywhere in the
        # bundled specs
        assert main(["analyze", target]) == 0
        out = capsys.readouterr().out
        assert "?" not in out
        assert "violation" not in out

    def test_unknown_target_exits_with_message(self, capsys):
        with pytest.raises(SystemExit, match="unknown lint target"):
            main(["analyze", "nosuch"])


class TestJsonReport:
    def test_envelope_shape(self, capsys):
        assert main(["analyze", "zab", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["spec"] == "zab-model"
        assert set(document) == {"version", "spec", "actions",
                                 "independent_pairs", "dependencies",
                                 "invariant_reads"}

    def test_action_entries_have_stable_keys(self, capsys):
        assert main(["analyze", "example", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        for action in document["actions"]:
            assert set(action) >= {"name", "reads", "writes", "const_reads",
                                   "certifiable"}
            assert action["certifiable"] is True

    def test_pairs_and_dependencies_partition_the_action_pairs(self, capsys):
        assert main(["analyze", "zab", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        names = [a["name"] for a in document["actions"]]
        independent = {frozenset(p) for p in document["independent_pairs"]}
        dependent = {frozenset((d["a"], d["b"]))
                     for d in document["dependencies"]}
        assert not independent & dependent
        total = len(names) * (len(names) - 1) // 2
        assert len(independent) + len(dependent) == total
        for dep in document["dependencies"]:
            assert dep["vars"], dep  # every dependency names its conflict


class TestDotOutput:
    def test_dot_file_is_written(self, tmp_path, capsys):
        dot = tmp_path / "deps.dot"
        assert main(["analyze", "zab", "--dot", str(dot)]) == 0
        assert f"written to {dot}" in capsys.readouterr().out
        text = dot.read_text()
        assert text.startswith('graph "zab-model-dependencies" {')
        assert text.rstrip().endswith("}")
        # fully certified spec: no dashed (uncertifiable) nodes
        assert "style=dashed" not in text
        assert '"Crash" -- "HandleVote"' in text  # Crash writes 'online'
        assert '"HandleLeaderInfo" -- "HandleVote"' not in text

    def test_dot_edges_match_json_dependencies(self, tmp_path, capsys):
        dot = tmp_path / "deps.dot"
        assert main(["analyze", "xraft", "--format", "json",
                     "--dot", str(dot)]) == 0
        out = capsys.readouterr().out
        document = json.loads(out[:out.rindex("}") + 1])
        text = dot.read_text()
        edges = [line for line in text.splitlines() if " -- " in line]
        assert len(edges) == len(document["dependencies"])
