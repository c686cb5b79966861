"""docs/TUTORIAL.md is executable documentation: every fenced ``bash``
block is run here, in order, in one scratch directory, and the printed
output must match the expected output under the wildcard rules the
tutorial states (``...`` inside a line matches anything on that line; a
line that is only ``...`` matches any run of lines).
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import main

TUTORIAL = Path(__file__).resolve().parents[2] / "docs" / "TUTORIAL.md"


def parse_blocks(text):
    """Yield (command_argv, expected_lines) pairs from ``bash`` fences."""
    steps = []
    for block in re.findall(r"```bash\n(.*?)```", text, re.DOTALL):
        for line in block.splitlines():
            if line.startswith("$ "):
                argv = shlex.split(line[2:])
                assert argv[0] == "mocket", f"non-mocket command: {line}"
                steps.append((argv[1:], []))
            elif line.strip():
                assert steps, f"output before any command: {line!r}"
                steps[-1][1].append(line)
    return steps


def match_lines(expected, actual):
    """Match with per-line ``...`` wildcards and ``...`` skip-lines."""

    def line_pattern(raw):
        return re.compile(re.escape(raw).replace(r"\.\.\.", ".*") + r"\Z")

    memo = {}

    def go(i, j):
        key = (i, j)
        if key not in memo:
            if i == len(expected):
                memo[key] = j == len(actual)
            elif expected[i].strip() == "...":
                memo[key] = any(go(i + 1, k)
                                for k in range(j, len(actual) + 1))
            else:
                memo[key] = bool(
                    j < len(actual)
                    and line_pattern(expected[i]).match(actual[j])
                    and go(i + 1, j + 1))
        return memo[key]

    return go(0, 0)


def test_tutorial_blocks_run_verbatim(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = parse_blocks(TUTORIAL.read_text())
    assert len(steps) >= 5, "tutorial lost its command blocks"
    for argv, expected in steps:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, f"mocket {' '.join(argv)} exited {code}:\n{out}"
        actual = out.splitlines()
        while actual and not actual[-1].strip():
            actual.pop()
        assert match_lines(expected, actual), (
            "output mismatch for: mocket %s\n--- expected ---\n%s\n"
            "--- actual ---\n%s" % (" ".join(argv), "\n".join(expected),
                                    "\n".join(actual)))


def test_tutorial_mentions_every_pipeline_stage():
    text = TUTORIAL.read_text()
    for verb in ("mocket check", "mocket testgen", "mocket test",
                 "mocket lint", "mocket analyze", "mocket trace summarize",
                 "--faults", "--fault-seed", "--workers"):
        assert verb in text, f"tutorial no longer covers {verb}"
