"""Every on-disk artifact fails closed under damage.

Each kind of file a ``mocket`` verb reads — suite, fault plan, corpus
index and corpus plan file, soak schedule, checkpoint, obs trace, and
both conform log formats — is written once by the verb that makes it,
then damaged three ways: seeded truncations, seeded bit flips and
wrong-shape documents (``[]``, ``5``, a list where an object belongs).
The verb that reads it runs in-process on every damaged copy and must
either exit 2 with exactly one line on stderr or finish as an ordinary
run (exit 0 or 1).  It may never raise.  A trace whose folded fields
have the wrong type (:data:`FIELD_EDITS`) must exit 2, naming the file
and the line.
"""

import json
import random
import shutil

import pytest

from repro.cli import main

SEED = 7
MUTATIONS = 25          # alternating bit flips and truncations


def _mutations(data: bytes):
    rng = random.Random(SEED)
    damaged = []
    for number in range(MUTATIONS):
        if number % 2:
            damaged.append(data[:rng.randrange(len(data))])
        else:
            bit = rng.randrange(len(data) * 8)
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            damaged.append(bytes(flipped))
    return damaged


def _first_object_to_list(value):
    """``value`` with its first nested object replaced by a list."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        if isinstance(child, dict):
            value[key] = []
            return True
        if _first_object_to_list(child):
            return True
    return False


def _wrong_shapes(data: bytes, jsonl: bool):
    shapes = [b"[]\n", b"5\n"]
    lines = data.decode("utf-8").splitlines()
    if jsonl:
        records = [json.loads(line) for line in lines]
        for record in records:
            _first_object_to_list(record)
        shapes.append("".join(json.dumps(record) + "\n"
                              for record in records).encode("utf-8"))
    else:
        doc = json.loads(data)
        assert _first_object_to_list(doc)
        shapes.append(json.dumps(doc).encode("utf-8"))
    return shapes


#: kind -> (record name, field, wrong-typed value): one edited record each
FIELD_EDITS = {
    "trace": [("runner.step", "case", [1]), ("runner.step", "step", "x"),
              ("runner.quiesce", "waited_s", "x"),
              ("runner.case", "case", {"a": 1}),
              ("runner.step", "src_fp", [1])],
}


def _field_edits(data: bytes, edits):
    """One copy of a JSONL file per edit, its first ``name`` record's
    ``field`` set to ``value``."""
    edited = []
    for name, field, value in edits:
        records = [json.loads(line)
                   for line in data.decode("utf-8").splitlines()]
        record = next(r for r in records if r["name"] == name)
        record["fields"][field] = value
        edited.append("".join(json.dumps(r) + "\n"
                              for r in records).encode("utf-8"))
    return edited


def _outcome(argv, capsys, refuse=None):
    """None for an acceptable run, else what went wrong.  With
    ``refuse`` (the damaged file), only an exit 2 naming it passes."""
    capsys.readouterr()
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # any escape is the failure
        return f"raised {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code == 2:
        if refuse is not None and f"{refuse}:" not in err:
            return f"exit 2 without naming {refuse}: {err!r}"
        return None if err.count("\n") == 1 and err.endswith("\n") else (
            f"exit 2 with stderr {err!r}")
    if refuse is not None:
        return f"exit {code}, not a refusal"
    return None if code in (0, 1) else f"exit {code}"


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """One good artifact of every kind, written by the verb that makes it."""
    root = tmp_path_factory.mktemp("artifacts")
    run = [
        ["testgen", "example", "--out", str(root / "suite.json")],
        ["faults", "plan", "toycache", "--fault-seed", "1", "--chaos",
         "--out", str(root / "plan.json")],
        ["fuzz", "toycache", "--budget", "2", "--cases", "2",
         "--corpus", str(root / "corpus")],
        ["soak", "raftkv", "--ops", "20000", "--shards", "1", "--faults",
         "--schedule-out", str(root / "schedule.json")],
        ["check", "example", "--checkpoint", str(root / "ck")],
        ["test", "toycache", "--cases", "2",
         "--trace", str(root / "trace.jsonl")],
    ]
    for argv in run:
        assert main(argv) == 0, argv
    steps = [json.loads(line) for line
             in (root / "trace.jsonl").read_text().splitlines()]
    (root / "log.jsonl").write_text("".join(
        json.dumps({"action": rec["fields"]["action"],
                    "params": rec["fields"].get("params", {}),
                    "session": rec["fields"]["case"]}) + "\n"
        for rec in steps if rec["name"] == "runner.step"))
    return root


#: kind -> (file to damage, is it JSONL, the verb that reads it)
KINDS = {
    "suite": ("suite.json", False,
              ["test", "toycache", "--suite", "{f}"]),
    "plan": ("plan.json", False,
             ["faults", "replay", "toycache", "--plan", "{f}"]),
    "corpus-index": ("corpus/corpus.json", False,
                     ["fuzz", "toycache", "--budget", "1", "--cases", "2",
                      "--corpus", "{d}"]),
    "corpus-plan": ("corpus/plans/0000.json", False,
                    ["fuzz", "toycache", "--budget", "1", "--cases", "2",
                     "--corpus", "{d}"]),
    "schedule": ("schedule.json", False,
                 ["soak", "raftkv", "--ops", "20000", "--schedule", "{f}"]),
    "checkpoint": ("ck/checkpoint.json", False,
                   ["check", "example", "--checkpoint", "{d}", "--resume"]),
    "trace": ("trace.jsonl", True, ["trace", "summarize", "{f}"]),
    "obs-log": ("trace.jsonl", True,
                ["conform", "{f}", "--spec", "toycache"]),
    "jsonl-log": ("log.jsonl", True,
                  ["conform", "{f}", "--spec", "toycache",
                   "--adapter", "jsonl"]),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_damaged_artifact_fails_closed(kind, made, tmp_path, capsys):
    name, jsonl, argv = KINDS[kind]
    good = made / name
    top = name.split("/")[0]
    failures = []
    data = good.read_bytes()
    damaged = _mutations(data) + _wrong_shapes(data, jsonl)
    edited = _field_edits(data, FIELD_EDITS.get(kind, ()))
    for number, data in enumerate(damaged + edited):
        work = tmp_path / str(number)
        work.mkdir()
        if "/" in name:
            shutil.copytree(made / top, work / top)
        target = work / name
        target.write_bytes(data)
        argv_n = [arg.format(f=target, d=work / top) for arg in argv]
        refuse = target if number >= len(damaged) else None
        problem = _outcome(argv_n, capsys, refuse)
        if problem is not None:
            failures.append(f"mutation {number}: {problem}")
    assert not failures, "\n".join(failures)
