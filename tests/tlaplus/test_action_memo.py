"""The checker's action memo replays results, and never a wrong one.

``check`` evaluates each action whose read footprint is fully known once
per distinct projection of the expanded state onto that footprint
(``RunTable`` in ``tlaplus/spec.py``).  These tests hold it to the
soundness conditions of docs/ENGINE.md: only fully known footprints are
memoized, keys match by identity, stored updates are shared through the
graph's value table, the memo lives for one run, and a partial run
stores nothing partial.  The reference is always the same check with
every footprint forced unknown, i.e. no memo at all.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.analysis import effects
from repro.engine import CheckpointStore
from repro.systems.catalog import get_model
from repro.tlaplus import Specification, check, checker, to_dot

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture
def tables(monkeypatch):
    """Every run table the checker makes, in order."""
    made = []
    original = checker.run_table

    def recording(spec, graph):
        made.append(original(spec, graph))
        return made[-1]

    monkeypatch.setattr(checker, "run_table", recording)
    return made


def _unmemoized(run, monkeypatch):
    """``run()`` with every action's footprint unknown: no memo at all."""
    with monkeypatch.context() as patch:
        patch.setattr(effects, "read_footprints", lambda spec: {})
        return run()


_DIFFERENTIAL = textwrap.dedent("""
    from repro.analysis import effects
    from repro.engine import canonicalize
    from repro.specs.raft import RaftSpecOptions, build_raft_spec
    from repro.specs.zab import ZabSpecOptions, build_zab_spec
    from repro.systems.catalog import get_model
    from repro.tlaplus import check
    from repro.tlaplus.dot import to_dot

    specs = {
        "example": get_model("example"),
        "raftkv-model": get_model("raftkv"),
        "raft-dup-model": lambda: build_raft_spec(RaftSpecOptions(
            max_term=1, max_client_requests=0, candidates=("n1",),
            enable_drop=False, enable_duplicate=True, name="raft-dup-model")),
        "xraft-model": get_model("xraft"),
        "zab-model": lambda: build_zab_spec(ZabSpecOptions(
            max_elections=1, max_crashes=0, max_restarts=0,
            starters=("n1",), name="zab-model")),
        "zab-cli-model": get_model("zab"),
    }
    footprints = effects.read_footprints
    for name, build in specs.items():
        memoized = check(build())
        effects.read_footprints = lambda spec: {}
        plain = check(build())
        effects.read_footprints = footprints
        same_dot = to_dot(memoized.graph) == to_dot(plain.graph)
        same_canon = (to_dot(canonicalize(memoized.graph))
                      == to_dot(canonicalize(plain.graph)))
        print(name, same_dot, same_canon, memoized.memo["memo_hits"] > 0,
              plain.memo["memo_hits"] + plain.memo["memo_misses"])
""")


@pytest.mark.slow
@pytest.mark.parametrize("hash_seed", ["0", "42"])
def test_memoized_check_is_byte_identical_to_unmemoized(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _DIFFERENTIAL],
                          capture_output=True, text=True, env=env,
                          check=True, timeout=600)
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == [
        "example", "raftkv-model", "raft-dup-model", "xraft-model",
        "zab-model", "zab-cli-model"]
    for name, same_dot, same_canon, memo_used, plain_pairs in rows:
        # DOT, canonical DOT, the memo really ran, the reference had none
        assert (same_dot, same_canon, memo_used, plain_pairs) == (
            "True", "True", "True", "0"), name


def _flag_spec():
    """Two initial states apart only by ``tag``, with ``flag`` 1 in one
    and True in the other; ``Copy`` reads ``flag`` and ``out``."""
    spec = Specification("flags")
    spec.add_variable("tag")
    spec.add_variable("flag")
    spec.add_variable("out")

    @spec.init
    def init(const):
        return [{"tag": "a", "flag": 1, "out": None},
                {"tag": "b", "flag": True, "out": None}]

    @spec.action()
    def Copy(state, const):
        if state.out is not None:
            return None
        return {"out": (state.flag,)}

    return spec


class TestIdentityKeys:
    def test_equal_but_not_identical_reads_do_not_share_an_entry(
            self, tables, monkeypatch):
        result = check(_flag_spec())
        # (1, None) and (True, None) are equal keys: both evaluated
        assert result.memo == {"memo_hits": 0, "memo_misses": 4,
                               "memo_entries": 4}
        [table] = tables
        stored = [entry for slot in table._memos["Copy"].slots.values()
                  for entry in (slot if type(slot) is list else [slot])]
        assert len(stored) == 4
        outs = {state.tag: state.out for _, state in result.graph.states()
                if state.out is not None}
        assert type(outs["a"][0]) is int and outs["b"][0] is True
        text = to_dot(result.graph)
        assert "(1,)" in text and "(True,)" in text
        plain = _unmemoized(lambda: check(_flag_spec()), monkeypatch)
        assert to_dot(plain.graph) == text

    def test_identical_reads_replay_without_calling_the_action(self):
        calls = []
        spec = _counter_spec(calls)
        result = check(spec)
        assert result.states_explored == 12          # x in 0..3, y in 0..2
        # Incr reads x only: one call per distinct x, not per state
        assert calls.count("Incr") == 4
        assert result.memo["memo_hits"] > 0


def _counter_spec(calls, peek=False):
    spec = Specification("counters")
    spec.add_variable("x")
    spec.add_variable("y")

    @spec.init
    def init(const):
        return {"x": 0, "y": 0}

    @spec.action()
    def Incr(state, const):
        calls.append("Incr")
        return {"x": state.x + 1} if state.x < 3 else None

    @spec.action()
    def IncrY(state, const):
        return {"y": state.y + 1} if state.y < 2 else None

    if peek:
        @spec.action()
        def Peek(state, const):
            calls.append("Peek")
            getattr(state, "x")     # a read the analysis cannot name
            return None

    return spec


class TestUnknownFootprints:
    def test_unknown_footprint_is_called_on_every_expansion(self, tables):
        calls = []
        result = check(_counter_spec(calls, peek=True))
        assert "Peek" not in tables[0]._memos
        assert calls.count("Peek") == result.states_explored == 12
        assert calls.count("Incr") == 4

    def test_no_table_means_no_memo(self):
        calls = []
        spec = _counter_spec(calls)
        for state in spec.initial_states() * 3:
            list(spec.enabled(state))
        assert calls.count("Incr") == 3


class TestLifetime:
    def test_second_check_shares_no_memo_entry(self, tables):
        spec = get_model("raftkv")()
        first, second = check(spec), check(spec)
        assert first.memo == second.memo and first.memo["memo_hits"] > 0
        one, other = tables

        def entries(table):
            return {id(entry): entry
                    for memo in table._memos.values()
                    for slot in memo.slots.values()
                    for entry in (slot if type(slot) is list else [slot])}

        assert one is not other
        assert not entries(one).keys() & entries(other).keys()
        # stored updates are the graph's own representatives
        shared = [value for entry in entries(one).values()
                  for _, updates in entry[1] for value in updates.values()]
        values = first.graph.values
        assert all(values.intern(value) is value for value in shared)


def _violating_spec():
    """``Set(i)`` for i in 1..3 from x == 0; x == 2 violates ``NotTwo``."""
    spec = Specification("violating")
    spec.add_variable("x")

    @spec.init
    def init(const):
        return {"x": 0}

    @spec.action(params={"i": (1, 2, 3)})
    def Set(state, const, i):
        return {"x": i} if state.x == 0 else None

    @spec.invariant()
    def NotTwo(state, const):
        return state.x != 2

    return spec


class TestPartialRuns:
    def test_stop_on_violation_mid_action_stores_nothing(self, monkeypatch):
        result = check(_violating_spec())
        assert result.violation.invariant_name == "NotTwo"
        # Set left mid-bindings at x == 0: evaluated, never stored
        assert result.memo == {"memo_hits": 0, "memo_misses": 1,
                               "memo_entries": 0}
        plain = _unmemoized(lambda: check(_violating_spec()), monkeypatch)
        assert to_dot(result.graph) == to_dot(plain.graph)
        assert ([repr(label) for label, _ in result.violation.trace]
                == [repr(label) for label, _ in plain.violation.trace])

    def test_truncated_run_matches_unmemoized(self, monkeypatch):
        def run():
            return check(get_model("xraft")(), max_states=400, truncate=True)

        memoized = run()
        plain = _unmemoized(run, monkeypatch)
        assert not memoized.complete
        assert memoized.refused_successors == plain.refused_successors
        assert to_dot(memoized.graph) == to_dot(plain.graph)

    def test_checkpoint_resume_is_byte_identical(self, tmp_path, tables):
        class KillMidway(CheckpointStore):
            def save(self, payload):
                super().save(payload)
                if payload["level"] == 4:
                    raise KeyboardInterrupt

        build = get_model("raftkv")
        whole = check(build())
        with pytest.raises(KeyboardInterrupt):
            check(build(), checkpoint=KillMidway(tmp_path))
        resumed = check(build(), checkpoint=tmp_path, resume=True)
        assert to_dot(resumed.graph) == to_dot(whole.graph)
        # the resumed run started from an empty memo of its own
        assert len(tables) == 3 and tables[2] is not tables[1]
        assert resumed.memo["memo_misses"] > 0
