"""Shared fixtures for the fuzz-subsystem tests: one canonical
toycache kit (cheap to explore, real clusters to run) per session."""

import pytest

from repro.core import generate_test_cases
from repro.engine import canonicalize
from repro.systems.catalog import kit
from repro.tlaplus import check

@pytest.fixture(scope="session")
def toykit():
    """(mapping, cluster_factory, graph, suite) for clean toycache."""
    spec, mapping, cluster_factory = kit("toycache")
    graph = canonicalize(check(spec, max_states=2000, truncate=True).graph)
    suite = generate_test_cases(graph, por=True, seed=0)
    return mapping, cluster_factory, graph, suite


@pytest.fixture(scope="session")
def buggy_toykit():
    """Same kit with the bug_wrong_max implementation bug seeded."""
    spec, mapping, cluster_factory = kit("toycache", ["bug_wrong_max"])
    graph = canonicalize(check(spec, max_states=2000, truncate=True).graph)
    suite = generate_test_cases(graph, por=True, seed=0)
    return mapping, cluster_factory, graph, suite
