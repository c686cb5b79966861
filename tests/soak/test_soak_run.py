"""Functional tests for the soak runner: clean, faulted, and buggy
runs over small op counts, plus the monitor and schedule units.

Everything here runs in-process on the simulated path, so even the
"soak" cases take well under a second of wall time.
"""

import pytest

from repro.soak import (
    SoakConfig,
    SoakMonitor,
    build_fault_schedule,
    build_report,
    render_text,
    run_shard,
    run_soak,
)
from repro.soak.monitor import MAX_RECORDED


def small_config(**kwargs):
    defaults = dict(ops=2000, seed="t", shards=2, workers=1, rate=400.0)
    defaults.update(kwargs)
    return SoakConfig(**defaults)


class TestSoakConfig:
    def test_shard_ops_splits_exactly(self):
        config = SoakConfig(ops=10, shards=3)
        assert config.shard_ops() == [4, 3, 3]
        assert sum(config.shard_ops()) == 10

    def test_shard_seed_is_derived(self):
        config = SoakConfig(seed="s")
        assert config.shard_seed(0) == "s:shard0"
        assert config.shard_seed(3) == "s:shard3"

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError):
            SoakConfig(target="toycache")

    def test_rejects_unknown_bug(self):
        with pytest.raises(ValueError):
            SoakConfig(bug="bug_nope")

    def test_rejects_schedule_shard_mismatch(self):
        with pytest.raises(ValueError):
            SoakConfig(shards=2, schedule=[[]])


class TestCleanRun:
    def test_every_op_acked_no_divergences(self):
        shards = run_soak(small_config())
        assert len(shards) == 2
        for shard in shards:
            assert shard["divergences"] == {}
            assert shard["submitted"] == shard["ops"]
            assert shard["acked"] == shard["ops"]
            assert shard["fault_schedule"] == []
            assert shard["snapshots"]
        # all three replicas converge to the same fingerprint
        for shard in shards:
            fps = {n["fp"] for n in shard["final"].values()}
            assert len(fps) == 1

    def test_shard_is_deterministic(self):
        a = run_shard(small_config(shards=1, ops=500), 0)
        b = run_shard(small_config(shards=1, ops=500), 0)
        assert a == b

    def test_different_seeds_differ(self):
        # the client key/value stream is seed-derived, so the final
        # state fingerprints cannot collide across seeds
        a = run_shard(small_config(shards=1, ops=500, seed="a"), 0)
        b = run_shard(small_config(shards=1, ops=500, seed="b"), 0)
        assert a["final"]["n1"]["fp"] != b["final"]["n1"]["fp"]


class TestFaultedRun:
    def test_faulted_run_converges_clean(self):
        # rate 50 gives each shard a ~60s-simulated horizon, long
        # enough for the seeded nemesis to land at least one fault
        shards = run_soak(small_config(ops=6000, rate=50.0, faults=True))
        assert any(s["fault_schedule"] for s in shards)
        for shard in shards:
            assert shard["divergences"] == {}, shard["divergence_events"]
            live_fps = {n["fp"] for n in shard["final"].values()
                        if n.get("up")}
            assert len(live_fps) == 1

    def test_replaying_recorded_schedule_is_identical(self):
        config = small_config(ops=6000, rate=50.0, faults=True)
        first = run_soak(config)
        replayed = run_soak(small_config(
            ops=6000, rate=50.0, faults=True,
            schedule=[s["fault_schedule"] for s in first]))
        assert replayed == first


class TestBugRun:
    def test_bug_skip_apply_is_caught_deterministically(self):
        config = small_config(bug="bug_skip_apply")
        shards = run_soak(config)
        assert any("fingerprint_mismatch" in s["divergences"]
                   for s in shards)
        again = run_soak(small_config(bug="bug_skip_apply"))
        assert again == shards


class TestWorkers:
    def test_worker_count_cannot_change_bytes(self):
        import json

        serial = run_soak(small_config(workers=1))
        pooled = run_soak(small_config(workers=2))
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(pooled, sort_keys=True))

    def test_missing_fork_warns_like_the_suite_executor(self, monkeypatch):
        from repro.engine import EngineFallbackWarning
        from repro.soak import runner

        monkeypatch.setattr(runner, "fork_available", lambda: False)
        with pytest.warns(EngineFallbackWarning, match="fork"):
            fallen_back = run_soak(small_config(workers=2))
        assert fallen_back == run_soak(small_config(workers=1))


class TestMonitor:
    def test_dual_leader_recorded(self):
        class FakeNode:
            def __init__(self, node_id):
                self.node_id = node_id

        mon = SoakMonitor(10)
        mon.leader_elected(FakeNode("n1"), term=3)
        mon.leader_elected(FakeNode("n2"), term=3)
        assert mon.divergence_counts == {"dual_leader": 1}

    def test_commit_regression_recorded(self):
        class FakeNode:
            node_id = "n1"

        mon = SoakMonitor(10)
        mon.commit_advanced(FakeNode(), old=5, new=3)
        assert mon.divergence_counts == {"commit_regression": 1}

    def test_stall_records_once_per_transition(self):
        mon = SoakMonitor(10)
        mon.check_stall(progressed=False, pending=4,
                        disrupted=False, all_up=True)
        mon.check_stall(progressed=False, pending=4,
                        disrupted=False, all_up=True)
        assert mon.divergence_counts == {"stalled": 1}
        mon.check_stall(progressed=True, pending=0,
                        disrupted=False, all_up=True)
        mon.check_stall(progressed=False, pending=4,
                        disrupted=False, all_up=True)
        assert mon.divergence_counts == {"stalled": 2}

    def test_no_stall_while_disrupted_or_down(self):
        mon = SoakMonitor(10)
        mon.check_stall(progressed=False, pending=4,
                        disrupted=True, all_up=True)
        mon.check_stall(progressed=False, pending=4,
                        disrupted=False, all_up=False)
        assert mon.divergence_counts == {}

    def test_recorded_events_capped_counts_exact(self):
        class FakeNode:
            node_id = "n1"

        mon = SoakMonitor(10)
        for i in range(MAX_RECORDED + 25):
            mon.commit_advanced(FakeNode(), old=i + 1, new=i)
        assert len(mon.divergences) == MAX_RECORDED
        assert mon.divergence_counts["commit_regression"] == MAX_RECORDED + 25


class TestSchedule:
    def test_schedule_is_seed_deterministic(self):
        ids = ("n1", "n2", "n3")
        a = build_fault_schedule("s", 200.0, ids)
        b = build_fault_schedule("s", 200.0, ids)
        assert a == b
        assert a != build_fault_schedule("other", 200.0, ids)

    def test_faults_pair_with_recovery(self):
        events = build_fault_schedule("s", 400.0, ("n1", "n2", "n3"))
        ops = [e["op"] for e in events]
        # heal undoes both partitions and link delays
        assert ops.count("heal") == ops.count("partition") + ops.count("delay")
        assert ops.count("crash") == ops.count("restart")
        times = [e["at"] for e in events]
        assert times == sorted(times)


class TestReport:
    def test_report_never_contains_wall_or_workers(self):
        import json

        config = small_config(ops=400)
        report = build_report(config, run_soak(config))
        blob = json.dumps(report)
        assert "workers" not in blob
        assert "wall" not in blob
        assert report["version"] == 1 and report["kind"] == "soak"

    def test_render_text_clean(self):
        config = small_config(ops=400)
        report = build_report(config, run_soak(config))
        text = render_text(report, wall_seconds=0.5)
        assert "divergences: none" in text
        assert "simulated ops/sec" in text
        assert "x real time" in text

    def test_render_text_divergent(self):
        config = small_config(ops=2000, bug="bug_skip_apply")
        report = build_report(config, run_soak(config))
        text = render_text(report)
        assert "fingerprint_mismatch=" in text
        assert "!!" in text
        assert "wall:" not in text  # no wall line without a measurement
