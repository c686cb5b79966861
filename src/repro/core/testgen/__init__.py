"""Test-case generation from model-checked state graphs (Section 4.2)."""

from .endstates import (
    EndStates,
    node_ids,
    reached_by,
    state_matching,
    terminal_only,
    union,
)
from .generator import generate_test_cases
from .por import Diamond, diamond_stats, find_diamonds, por_excluded_edges
from .scenario import Scenario, ScenarioError, label, scenario_case
from .testcase import TestCase, TestStep, TestSuite
from .traversal import TraversalResult, edge_coverage_paths, node_coverage_paths

__all__ = [
    "Diamond",
    "EndStates",
    "TestCase",
    "TestStep",
    "TestSuite",
    "TraversalResult",
    "diamond_stats",
    "edge_coverage_paths",
    "find_diamonds",
    "generate_test_cases",
    "label",
    "node_coverage_paths",
    "node_ids",
    "ScenarioError",
    "Scenario",
    "scenario_case",
    "por_excluded_edges",
    "reached_by",
    "state_matching",
    "terminal_only",
    "union",
]
