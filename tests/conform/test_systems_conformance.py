"""Conformance accept/reject fixtures for every bundled target.

For each of the five bundled targets (four systems with event-bound
mappings plus the bare example model) we render deterministic graph
walks as obs JSONL logs and assert:

* a valid behaviour log conforms,
* a log with one corrupted action diverges at exactly that line,
* a truncated log (partial observation of an unfinished run) conforms.
"""

import json

import pytest

from repro.conform import ConformanceMonitor, conform_log
from repro.systems.catalog import get_model, kit

from .conftest import canonical_graph, write_walk_log

TARGETS = ("toycache", "pyxraft", "raftkv", "minizk", "example")


def target_kit(name):
    """(canonical graph, mapping-or-None) for one conform target.

    The xraft/zab models run to 5k/12k states; a truncated prefix keeps
    per-test monitor construction fast while still exercising real
    multi-thousand-edge graphs (walks and conformance use the *same*
    truncated graph, so every walk stays a valid behaviour of it).
    """
    if name == "example":
        return canonical_graph(get_model("example")()), None
    spec, mapping, _factory = kit(name)
    return canonical_graph(spec, max_states=1200), mapping


@pytest.fixture(scope="module")
def kits():
    return {name: target_kit(name) for name in TARGETS}


@pytest.mark.parametrize("name", TARGETS)
class TestBundledTargets:
    def test_valid_log_conforms(self, kits, tmp_path, name):
        graph, mapping = kits[name]
        path = tmp_path / f"{name}.jsonl"
        write_walk_log(path, graph, sessions=3, steps=6)
        report = conform_log(graph, mapping, str(path))
        assert report.ok, report.first_divergence
        assert report.sessions == 3

    def test_corrupted_action_diverges_at_that_line(self, kits, tmp_path,
                                                    name):
        graph, mapping = kits[name]
        path = tmp_path / f"{name}-bad.jsonl"
        records = write_walk_log(path, graph, sessions=2, steps=6)
        # corrupt one mid-log step to an action that cannot fire there
        victim = len(records) // 2
        records[victim]["fields"]["action"] = "NoSuchConformAction"
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in records))
        report = conform_log(graph, mapping, str(path))
        assert not report.ok
        div = report.first_divergence
        assert div.line == victim + 1
        assert div.reason == "unbound-event"
        # only the corrupted session diverges; the other still checks out
        assert report.diverged_sessions == 1 and report.sessions == 2

    def test_truncated_log_conforms(self, kits, tmp_path, name):
        graph, mapping = kits[name]
        path = tmp_path / f"{name}-trunc.jsonl"
        records = write_walk_log(path, graph, sessions=2, steps=6)
        # cut the log mid-session: a prefix of a behaviour must conform
        cut = records[: len(records) - len(records) // 3]
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in cut))
        report = conform_log(graph, mapping, str(path))
        assert report.ok, report.first_divergence

    def test_wrong_param_diverges(self, kits, tmp_path, name):
        graph, mapping = kits[name]
        path = tmp_path / f"{name}-param.jsonl"
        records = write_walk_log(path, graph, sessions=1, steps=6)
        # corrupt the *parameters* of a step whose action has some:
        # same action name, impossible binding
        victim = None
        for index, record in enumerate(records):
            if record["fields"]["params"]:
                victim = index
                break
        if victim is None:
            pytest.skip(f"{name}: no parametrized actions in the walk")
        records[victim]["fields"]["params"] = {"__bogus__": "not-a-binding",
                                               **{k: "bogus-value" for k in
                                                  records[victim]["fields"]
                                                  ["params"]}}
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in records))
        report = conform_log(graph, mapping, str(path))
        assert not report.ok
        assert report.first_divergence.line == victim + 1
        assert report.first_divergence.reason == "no-transition"


class TestEventBindings:
    @pytest.mark.parametrize("name", ("toycache", "pyxraft", "raftkv",
                                      "minizk"))
    def test_bundled_mappings_bind_every_action(self, name):
        _spec, mapping, _factory = kit(name)
        assert mapping.events, f"{name} mapping has no event bindings"
        assert mapping.bound_actions() == set(mapping.spec.actions)
