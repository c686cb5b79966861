"""Checkpoint store: atomic snapshots, validation, history."""

import json
import os

import pytest

from repro.artifact import ArtifactError
from repro.engine import CheckpointError, CheckpointStore


def _payload(**overrides):
    base = {
        "spec": "demo",
        "level": 3,
        "complete": False,
        "states": [[1, "s"], [2, "t"]],
        "frontier": [2],
        "stats": {"elapsed_seconds": 0.5},
    }
    base.update(overrides)
    return base


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save(_payload())
        loaded = store.load("demo")
        assert loaded["level"] == 3
        assert loaded["states"] == [[1, "s"], [2, "t"]]
        assert loaded["format"] == "mocket-checkpoint/1"

    def test_save_replaces_previous(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save(_payload(level=1))
        store.save(_payload(level=2))
        assert store.load()["level"] == 2

    def test_no_temp_files_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save(_payload())
        leftovers = [name for name in os.listdir(store.directory)
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_history_appends_one_line_per_save(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        for level in range(4):
            store.save(_payload(level=level))
        with open(store.history_path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert [line["level"] for line in lines] == [0, 1, 2, 3]
        assert lines[-1]["states"] == 2


class TestValidation:
    def test_missing_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path / "nope")
        assert not store.exists()
        with pytest.raises(CheckpointError, match="no checkpoint found"):
            store.load()

    def test_corrupt_json(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        os.makedirs(store.directory)
        with open(store.path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        with pytest.raises(ArtifactError, match="cannot read checkpoint"):
            store.load()

    def test_wrong_format(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        os.makedirs(store.directory)
        with open(store.path, "w", encoding="utf-8") as handle:
            json.dump({"format": "something-else/9"}, handle)
        with pytest.raises(ArtifactError, match="not a mocket-checkpoint/1"):
            store.load()

    def test_spec_mismatch(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save(_payload(spec="raft"))
        with pytest.raises(CheckpointError, match="is for spec 'raft'"):
            store.load("zab")

    def test_spec_match_not_required_when_unnamed(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save(_payload(spec="raft"))
        assert store.load()["spec"] == "raft"
