"""The one explorer (``tlaplus.checker``) with a checkpoint attached:
parity with the plain run, budgets, violations, snapshots and resume."""

import json
import multiprocessing
import shutil
from pathlib import Path

import pytest

from repro.engine import CheckpointError, CheckpointStore, graphs_equivalent
from repro.engine import fingerprint as fingerprint_module
from repro.specs import build_example_spec
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.tlaplus import check
from repro.tlaplus.dot import to_dot
from repro.tlaplus.errors import CheckingBudgetExceeded
from repro.tlaplus.spec import Specification, VarKind

FIXTURES = Path(__file__).parent / "fixtures"


def _raftkv_spec():
    return build_raft_spec(RaftSpecOptions(
        max_term=1, max_client_requests=0, candidates=("n1",),
        enable_drop=False, enable_duplicate=False, name="raftkv-model"))


MODELS = {"example": build_example_spec, "raftkv": _raftkv_spec}


def _counter_spec(limit=6, bad=None):
    """A two-branch counter; ``bad`` marks one value as a violation."""
    spec = Specification("counter", constants={"Limit": limit, "Bad": bad})
    spec.add_variable("n", kind=VarKind.STATE)
    spec.add_variable("tag", kind=VarKind.AUXILIARY)

    @spec.init
    def init(const):
        return {"n": 0, "tag": "even"}

    @spec.action()
    def Incr(state, const):
        if state.n >= const["Limit"]:
            return None
        return {"n": state.n + 1, "tag": "even" if state.n % 2 else "odd"}

    @spec.action()
    def Reset(state, const):
        if state.n == 0:
            return None
        return {"n": 0, "tag": "even"}

    @spec.invariant()
    def NotBad(state, const):
        return const["Bad"] is None or state.n != const["Bad"]

    return spec


class _Killed(Exception):
    pass


class _KillAfterLevel(CheckpointStore):
    """A store that dies right after it has written level ``level``."""

    def __init__(self, directory, level):
        super().__init__(directory)
        self.level = level

    def save(self, payload):
        super().save(payload)
        if payload["level"] == self.level and not payload["complete"]:
            raise _Killed


def _identical(left, right):
    """Bit-identical graphs: ids, edge order and DOT bytes."""
    return (to_dot(left) == to_dot(right)
            and [e.key() for e in left.edges()]
            == [e.key() for e in right.edges()]
            and left.initial_ids == right.initial_ids)


class TestParity:
    def test_matches_serial_checker(self, tmp_path):
        spec = build_example_spec()
        plain = check(spec)
        checkpointed = check(spec, checkpoint=tmp_path / "ck")
        assert checkpointed.states_explored == plain.states_explored
        assert checkpointed.edges_explored == plain.edges_explored
        assert checkpointed.diameter == plain.diameter
        assert checkpointed.complete
        assert _identical(plain.graph, checkpointed.graph)

    def test_worker_count_is_invisible(self, monkeypatch):
        # check() keeps ``workers`` only for the frozen benchmark: it
        # must neither start a process nor change a byte of the graph
        def no_processes(*args, **kwargs):
            raise AssertionError("check() started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            no_processes)
        spec = build_example_spec()
        serial = check(spec).graph
        for workers in (1, 2, 4):
            assert _identical(serial, check(spec, workers=workers).graph)

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_no_fingerprinting_without_a_checkpoint(self, monkeypatch,
                                                    tmp_path, model):
        class Touched(Exception):
            pass

        def forbidden(*args, **kwargs):
            raise Touched

        for name in ("encode_canonical", "canonical_value", "canonical_state",
                     "fingerprint_value", "fingerprint_state"):
            monkeypatch.setattr(fingerprint_module, name, forbidden)
        assert check(MODELS[model]()).complete
        # the patch does bite where fingerprints are legitimately used
        with pytest.raises(Touched):
            check(MODELS[model](), checkpoint=tmp_path / "ck")


class TestViolations:
    def test_violation_found_and_traced(self, tmp_path):
        spec = _counter_spec(limit=6, bad=4)
        result = check(spec, checkpoint=tmp_path / "ck")
        assert not result.ok
        assert result.violation.invariant_name == "NotBad"
        label, final = result.violation.trace[-1]
        assert final.n == 4
        # the trace starts at Init and each step is a real transition
        first_label, first_state = result.violation.trace[0]
        assert first_label is None and first_state.n == 0

    def test_same_invariant_as_serial(self, tmp_path):
        # a run stopped by a violation leaves its last clean level on
        # disk; resuming walks into the same violation, same trace
        spec = _counter_spec(limit=6, bad=3)
        plain = check(spec)
        store = CheckpointStore(tmp_path / "ck")
        check(spec, checkpoint=store)
        assert store.load()["complete"] is False
        resumed = check(spec, checkpoint=store, resume=True)
        assert plain.violation.invariant_name == \
            resumed.violation.invariant_name
        assert plain.violation.trace == resumed.violation.trace
        assert not resumed.complete

    def test_continue_after_violation(self, tmp_path):
        spec = _counter_spec(limit=6, bad=3)
        store = CheckpointStore(tmp_path / "ck")
        result = check(spec, stop_on_violation=False, checkpoint=store)
        assert not result.ok
        assert result.complete
        # full space: n in 0..6
        assert result.states_explored == 7
        # the snapshot carries the violation: a resume reports it too
        resumed = check(spec, stop_on_violation=False, checkpoint=store,
                        resume=True)
        assert resumed.violation.trace == result.violation.trace

    def test_first_discovered_violation_wins(self):
        # n=2 and n=4 both violate; BFS meets n=2 first
        spec = _counter_spec(limit=6, bad=None)

        @spec.invariant()
        def NotEven(state, const):
            return state.n in (0, 1, 3, 5)

        result = check(spec, stop_on_violation=False)
        assert result.violation.state.n == 2


class TestBudgets:
    def test_budget_raises_without_truncate(self, tmp_path):
        spec = _counter_spec(limit=50)
        with pytest.raises(CheckingBudgetExceeded):
            check(spec, max_states=10, checkpoint=tmp_path / "ck")

    def test_budget_refuses_per_state(self, tmp_path):
        spec = _counter_spec(limit=50)
        store = CheckpointStore(tmp_path / "ck")
        result = check(spec, max_states=10, truncate=True, checkpoint=store)
        assert not result.complete
        assert result.states_explored == 10
        assert result.refused_successors == 1
        # snapshots stop at the first refusal: the last clean level stays
        assert store.load()["level"] == 9

    def test_exact_fit_is_complete(self, tmp_path):
        spec = _counter_spec(limit=6)   # exactly 7 states
        result = check(spec, max_states=7, truncate=True,
                       checkpoint=tmp_path / "ck")
        assert result.complete
        assert result.states_explored == 7


class TestCheckpointResume:
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_kill_at_every_level_then_resume(self, tmp_path, model):
        build = MODELS[model]
        fresh = check(build())
        assert fresh.complete
        for level in range(fresh.diameter + 1):
            directory = tmp_path / f"ck-{level}"
            with pytest.raises(_Killed):
                check(build(), checkpoint=_KillAfterLevel(directory, level))
            resumed = check(build(), checkpoint=directory, resume=True)
            assert resumed.complete and resumed.diameter == fresh.diameter
            assert _identical(fresh.graph, resumed.graph), f"level {level}"

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_parent_commit_checkpoint_resumes(self, tmp_path, model):
        # written by the sharded explorer (workers=4, truncated) at the
        # commit before it was deleted: the format must keep loading
        directory = tmp_path / "ck"
        shutil.copytree(FIXTURES / f"parent-w4-{model}", directory)
        before = CheckpointStore(directory).load()
        assert before["workers"] == 4 and before["complete"] is False
        fresh = check(MODELS[model]())
        resumed = check(MODELS[model](), checkpoint=directory, resume=True)
        assert resumed.complete
        assert resumed.states_explored > len(before["states"])
        assert _identical(fresh.graph, resumed.graph)

    def test_resume_after_truncation_reaches_full_graph(self, tmp_path):
        spec = _counter_spec(limit=30)
        full = check(spec)
        store = CheckpointStore(tmp_path / "ck")
        partial = check(spec, max_states=8, truncate=True, checkpoint=store)
        assert not partial.complete
        resumed = check(spec, checkpoint=store, resume=True)
        assert resumed.complete
        assert _identical(full.graph, resumed.graph)

    def test_resume_of_complete_checkpoint_short_circuits(self, tmp_path):
        spec = _counter_spec(limit=10)
        store = CheckpointStore(tmp_path / "ck")
        full = check(spec, checkpoint=store)
        assert full.complete
        # a fresh spec whose actions blow up: resume must not explore
        poisoned = _counter_spec(limit=10)

        def boom(*args, **kwargs):
            raise AssertionError("resume re-explored a complete checkpoint")

        poisoned.enabled = boom
        resumed = check(poisoned, checkpoint=store, resume=True)
        assert resumed.complete
        assert graphs_equivalent(full.graph, resumed.graph)

    def test_resume_requires_store(self):
        with pytest.raises(ValueError, match="resume"):
            check(build_example_spec(), resume=True)

    def test_checkpoint_path_accepted_as_string(self, tmp_path):
        directory = str(tmp_path / "ck")
        result = check(build_example_spec(), checkpoint=directory)
        assert result.complete
        assert CheckpointStore(directory).exists()

    def test_final_snapshot_is_marked_complete(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        check(build_example_spec(), checkpoint=store)
        assert store.load("example")["complete"] is True

    def test_corrupted_fingerprint_is_detected(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        check(build_example_spec(), checkpoint=store)
        payload = store.load()
        payload["states"][0][0] ^= 1   # flip one fingerprint bit
        store.save(payload)
        with pytest.raises(CheckpointError, match="integrity") as excinfo:
            check(build_example_spec(), checkpoint=store, resume=True)
        assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize("damage", [
        lambda payload: payload.pop("succ"),
        lambda payload: payload["states"].pop(),
        lambda payload: payload["frontier"].append(payload["init"][0]),
        lambda payload: payload["states"][0].__setitem__(1, "('$dict', (("),
        lambda payload: payload["succ"][0][1].append(["Incr"]),
    ], ids=["missing-key", "dropped-state", "expanded-in-frontier",
            "bad-literal", "short-successor"])
    def test_malformed_record_fails_closed(self, tmp_path, damage):
        store = CheckpointStore(tmp_path / "ck")
        check(_counter_spec(limit=4), max_states=3, truncate=True,
              checkpoint=store)
        payload = store.load()
        damage(payload)
        store.save(payload)
        with pytest.raises(CheckpointError, match="malformed") as excinfo:
            check(_counter_spec(limit=4), checkpoint=store, resume=True)
        assert "\n" not in str(excinfo.value)

    def test_history_records_progress(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        check(_counter_spec(limit=12), checkpoint=store)
        with open(store.history_path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert len(lines) >= 2
        states = [line["states"] for line in lines]
        assert states == sorted(states)
        assert lines[-1]["complete"] is True
