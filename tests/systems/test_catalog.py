"""The target catalog: every row builds, the ``--bug`` flags are the
config's ``bug_*`` parameters, lint checks the model that is tested,
and nothing outside ``repro.cli`` reaches for its private names."""

import ast
import inspect
import pathlib

import pytest

from repro.analysis import targets
from repro.cli import main
from repro.faults import all_chaos_scenarios
from repro.systems.catalog import (
    MODELS, TARGETS, UnknownName, get_model, get_target, kit,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", TARGETS)
class TestEveryTarget:
    def test_kit_builds_and_mapping_validates(self, name):
        spec, mapping, cluster_factory = kit(name)
        mapping.validate()
        assert spec.name == mapping.spec.name
        assert spec.constants == get_model(get_target(name).model)().constants
        assert cluster_factory().node_ids

    def test_bug_flags_are_the_config_bug_parameters(self, name):
        target = get_target(name)
        for parameter in inspect.signature(target.config).parameters:
            if parameter.startswith("bug_"):
                kit(name, [parameter])
            else:  # e.g. raftkv's instrument_update_term is not a bug
                with pytest.raises(UnknownName, match="unknown bug"):
                    kit(name, [parameter])

    def test_unknown_bug_flag_keeps_its_message(self, name):
        known = sorted(get_target(name).bug_flags())
        with pytest.raises(SystemExit) as excinfo:
            main(["test", name, "--bug", "bug_nope"])
        assert str(excinfo.value) == (
            f"unknown bug 'bug_nope' for {name}; known: {known}")

    def test_scenarios_run_on_their_target(self, name):
        for build in get_target(name).scenarios:
            scenario = build()
            _spec, mapping, _factory = kit(
                name, spec=scenario.spec, config=scenario.buggy_config,
                servers=scenario.servers)
            assert mapping.spec is scenario.spec


def test_table2_is_nine_bugs_and_two_spec_bugs():
    scenarios = [build() for target in TARGETS.values()
                 for build in target.scenarios]
    assert len(scenarios) == 9
    assert sum(scenario.is_spec_bug for scenario in scenarios) == 2


def test_chaos_scenarios_name_catalog_targets():
    for build in all_chaos_scenarios():
        assert get_target(build().target).scenarios


@pytest.mark.parametrize("name", targets.all_targets())
def test_lint_checks_the_model_that_is_tested(name):
    # fails at the parent commit for minizk/zab: lint built
    # ZabSpecOptions() defaults while `mocket test minizk` ran zab-model
    model = get_target(name).model if name in TARGETS else name
    tested = get_model(model)()
    linted = targets.resolve(name).spec
    assert (linted.name, linted.constants) == (tested.name, tested.constants)


def test_names_and_their_order_are_pinned():
    # `lint all` prints in this order; `check` accepts these models
    assert targets.all_targets() == ["toycache", "pyxraft", "raftkv",
                                     "minizk", "example", "xraft", "zab"]
    assert list(MODELS) == ["example", "xraft", "raftkv", "zab"]


def test_unknown_names_are_one_error_type():
    for lookup in (get_target, get_model, kit, targets.resolve):
        with pytest.raises(UnknownName, match="nosuch"):
            lookup("nosuch")


def test_nothing_imports_private_names_from_the_cli():
    offenders = []
    for directory in ("tests", "benchmarks"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.ImportFrom)
                        and node.module == "repro.cli"):
                    offenders += [f"{path.relative_to(ROOT)}: {alias.name}"
                                  for alias in node.names
                                  if alias.name.startswith("_")]
    assert offenders == []
