"""The four workloads of the pipeline benchmark (ISSUE 11).

Each workload stresses different layers, so that a gain in one layer
that costs another shows:

* ``explore-ladder``  — CPU-bound: spec evaluation, explorers, canon,
  effect analysis, POR and traversal; no testbed.
* ``pipeline-clean``  — wait-bound: the controlled testbed on bug-free
  builds of all four bundled systems.
* ``faults-bugs``     — the testbed run adversarially: verdicts that are
  driven by timeouts, retries, convergence polling and the nemesis.
* ``soak-conform``    — CPU-bound, no threads: the simulation runtime,
  the soak harness and the conformance monitor.

A workload's ``setup`` builds what ``round`` needs, ``round`` does one
fixed unit of work under :meth:`Recorder.span`, ``probes`` adds the
per-layer measurements that only a traced run pays for, and
``layer_metrics`` names what was measured.  Only names exported by the
packages' ``__all__`` are imported.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.analysis.effects import analyze_spec
from repro.conform import ConformanceMonitor, ConformanceOptions, get_adapter
from repro.core import ControlledTester, RunnerConfig, generate_test_cases
from repro.core.testgen import find_diamonds
from repro.engine import canonicalize, fingerprint_state, graphs_equivalent
from repro.faults import (
    FaultConfig, FaultRunner, all_chaos_scenarios, apply_plan, plan_faults,
    triage,
)
from repro.runtime.sim import SimNetwork, SimScheduler
from repro.soak import SoakConfig, build_report, run_soak
from repro.specs import build_example_spec
from repro.specs.raft import RaftSpecOptions, build_raft_spec
from repro.specs.zab import ZabSpecOptions, build_zab_spec
from repro.systems.minizk import (
    MiniZkConfig, build_minizk_mapping, make_minizk_cluster,
)
from repro.systems.minizk.scenarios import zk_bug_1419, zk_bug_1653
from repro.systems.pyxraft import (
    XraftConfig, build_xraft_mapping, make_xraft_cluster,
)
from repro.systems.pyxraft.scenarios import xraft_bug1, xraft_bug2, xraft_bug3
from repro.systems.raftkv import (
    RaftKvConfig, build_raftkv_mapping, make_raftkv_cluster,
)
from repro.systems.raftkv.scenarios import (
    raft_spec_bug_missing_reply, raft_spec_bug_update_term, raftkv_bug1,
    raftkv_bug2,
)
from repro.systems.toycache import (
    ToyCacheConfig, build_toycache_mapping, make_toycache_cluster,
)
from repro.tlaplus import check, thaw

from harness import Recorder

#: the CLI's runner configuration (``mocket test``)
RUNNER = RunnerConfig(match_timeout=1.0, done_timeout=1.0, quiesce_delay=0.05)
SERVERS = ("n1", "n2", "n3")
SYSTEMS = ("toycache", "raftkv", "pyxraft", "minizk")


def _raft(name: str, **options) -> Callable[[], Any]:
    return lambda: build_raft_spec(RaftSpecOptions(
        max_term=1, max_client_requests=0, candidates=("n1",), name=name,
        **options))


def _zab(name: str, starter: str) -> Callable[[], Any]:
    return lambda: build_zab_spec(ZabSpecOptions(
        max_elections=1, max_crashes=0, max_restarts=0, starters=(starter,),
        name=name))


#: model -> (spec builder, pinned (states, edges)).  ``example``,
#: ``raftkv-model``, ``xraft-model`` and ``zab-cli-model`` are the CLI's
#: models; ``raft-dup-model`` is ISSUE 11's first rung; ``zab-model`` is
#: the ZAB rung shrunk (one other starter) to fit the run-time cap.
MODELS: Dict[str, Tuple[Callable[[], Any], Tuple[int, int]]] = {
    "example": (build_example_spec, (13, 18)),
    "raftkv-model": (_raft("raftkv-model", enable_drop=False,
                           enable_duplicate=False), (329, 1020)),
    "raft-dup-model": (_raft("raft-dup-model", enable_drop=False,
                             enable_duplicate=True), (2152, 8258)),
    "xraft-model": (_raft("xraft-model"), (5004, 24431)),
    "zab-model": (_zab("zab-model", "n1"), (2282, 5324)),
    # minizk conforms only when n3 starts the election, so its row needs
    # the CLI's full model
    "zab-cli-model": (_zab("zab-cli-model", "n3"), (12092, 38624)),
}

#: system -> its model
SYSTEM_MODEL = {"toycache": "example", "raftkv": "raftkv-model",
                "pyxraft": "xraft-model", "minizk": "zab-cli-model"}

_SYSTEM_API = {
    "raftkv": (build_raftkv_mapping, make_raftkv_cluster, RaftKvConfig),
    "pyxraft": (build_xraft_mapping, make_xraft_cluster, XraftConfig),
    "minizk": (build_minizk_mapping, make_minizk_cluster, MiniZkConfig),
}

#: the Table-2 matrix of ``mocket bugs``: (scenario builder, system)
TABLE2 = (
    (xraft_bug1, "pyxraft"), (xraft_bug2, "pyxraft"), (xraft_bug3, "pyxraft"),
    (raftkv_bug1, "raftkv"), (raftkv_bug2, "raftkv"),
    (zk_bug_1419, "minizk"), (zk_bug_1653, "minizk"),
    (raft_spec_bug_missing_reply, "raftkv"),
    (raft_spec_bug_update_term, "raftkv"),
)

#: sizes per mode.  ``full`` is what BENCHMARK.json measures; ``smoke``
#: is the under-30-seconds self-test (``--smoke``).
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "ladder": ("raft-dup-model", "xraft-model", "zab-model"),
        "cases": {"toycache": 4, "raftkv": 36, "pyxraft": 16, "minizk": 16},
        "table2": tuple(range(len(TABLE2))),
        "chaos": (0, 1, 2, 3, 4),
        "fault_base_cases": 10,
        "soak_ops": 300_000,
        "conform_events": 60_000,
        "sim_events": 200_000,
        "deploy_cycles": 20,
    },
    "smoke": {
        "ladder": ("raft-dup-model",),
        "cases": {"toycache": 4, "raftkv": 10, "pyxraft": 0, "minizk": 0},
        "table2": (0, 4, 5),      # the three that need no timeout
        "chaos": (3, 4),
        "fault_base_cases": 3,
        "soak_ops": 20_000,
        "conform_events": 5_000,
        "sim_events": 20_000,
        "deploy_cycles": 3,
    },
}


def make_kit(system: str, spec, config=None, servers=SERVERS):
    """``(mapping, cluster factory)`` of one bundled system."""
    if system == "toycache":
        config = config or ToyCacheConfig()
        return build_toycache_mapping(), lambda: make_toycache_cluster(config)
    build_mapping, make_cluster, config_class = _SYSTEM_API[system]
    config = config or config_class()
    return build_mapping(spec, config), lambda: make_cluster(servers, config)


def suite_is_sound(graph, suite) -> bool:
    """Every case is a path of ``graph`` from an initial state, and the
    edges no case walks are exactly as many as the suite says POR
    excluded or cut off (none at all for a PathEC suite)."""
    edges = {edge.key() for edge in graph.edges()}
    covered = set()
    for case in suite:
        at = case.initial_id
        if at not in graph.initial_ids:
            return False
        for step in case:
            key = (step.src_id, step.dst_id, step.label)
            if step.src_id != at or key not in edges:
                return False
            covered.add(key)
            at = step.dst_id
    return (len(edges - covered)
            == suite.excluded_edges + suite.uncovered_edges)


def timed(call: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.monotonic()
    result = call()
    return result, time.monotonic() - start


class Workload:
    """One named workload; see the module docstring for the protocol."""

    name = ""               # BENCHMARK.json says why it was chosen
    load = ""               # closed or open loop, clients or rate
    setup_repeats = 3       # set-up runs this often; the fastest is reported

    def __init__(self, seed: int, mode: str, workdir: str):
        self.seed = seed
        self.sizes = SIZES[mode]
        self.workdir = workdir

    def setup(self) -> Dict[str, Any]:
        raise NotImplementedError

    def round(self, ctx: Dict[str, Any], rec: Recorder) -> None:
        raise NotImplementedError

    def probes(self, ctx: Dict[str, Any], rec: Recorder) -> None:
        """Per-layer measurements only a traced run makes."""

    def layer_metrics(self, ctx: Dict[str, Any],
                      rec: Recorder) -> Dict[str, float]:
        raise NotImplementedError


class ExploreLadder(Workload):
    name = "explore-ladder"
    load = "closed loop, 1 client (one call at a time, workers=2 for the sharded stage)"
    side = "raftkv-model"   # serial vs fork-sharded vs canon, on the CLI's model

    def setup(self):
        names = self.sizes["ladder"] + (self.side,)
        return {"specs": {name: MODELS[name][0]() for name in names}}

    def round(self, ctx, rec):
        for rung in self.sizes["ladder"]:
            spec = ctx["specs"][rung]
            with rec.span(f"tlaplus.check.{rung}"):
                graph = check(spec).graph
            rec.model(rung, graph.num_states, graph.num_edges, MODELS[rung][1])
            with rec.span(f"analysis.independence.{rung}"):
                independence = analyze_spec(spec).independence()
            with rec.span(f"testgen.por.{rung}"):
                por = generate_test_cases(graph, por=True, seed=self.seed,
                                          independence=independence)
            with rec.span(f"testgen.pathec.{rung}"):
                pathec = generate_test_cases(graph, por=False)
            rec.count("testgen.input_edges", 2 * graph.num_edges)
            rec.count("testgen.excluded_edges", por.excluded_edges)
            for kind, suite in (("por", por), ("pathec", pathec)):
                rec.exact_count(f"{rung}.{kind}_cases", len(suite))
                rec.exact_count(f"{rung}.{kind}_actions",
                                suite.total_actions())
                rec.count(f"testgen.{kind}_cases", len(suite))
                rec.count(f"testgen.{kind}_actions", suite.total_actions())
                if rec.first_round:
                    # ~20 lines of harness, not the generator, say so
                    with rec.untimed():
                        rec.verdict(suite_is_sound(graph, suite),
                                    f"{rung}: {kind} cases are graph paths "
                                    f"covering every edge POR kept")
            if rec.traced and graph.num_states >= ctx.get("probe_states", 0):
                ctx.update(probe_states=graph.num_states, probe_graph=graph,
                           probe_independence=independence)
        spec = ctx["specs"][self.side]
        with rec.span(f"tlaplus.check.{self.side}"):
            serial = check(spec).graph
        rec.model(self.side, serial.num_states, serial.num_edges,
                  MODELS[self.side][1])
        with rec.span(f"engine.sharded_w2.{self.side}"):
            sharded = check(spec, workers=2).graph
        with rec.span(f"engine.equiv.{self.side}"):
            same = graphs_equivalent(serial, sharded)
        rec.verdict(same, f"{self.side}: sharded (workers=2) == serial")
        with rec.span(f"engine.canonicalize.{self.side}"):
            canonicalize(serial)

    def probes(self, ctx, rec):
        graph = ctx["probe_graph"]
        with rec.span("engine.fingerprint"):
            for _node, state in graph.states():
                fingerprint_state(state)
        with rec.span("testgen.find_diamonds"):
            find_diamonds(graph, independence=ctx["probe_independence"])

    def layer_metrics(self, ctx, rec):
        models = rec.models
        checks = rec.stage_s("tlaplus.check")
        states = sum(size[0] for size in models.values())
        sharded = rec.stage_s("engine.sharded_w2")
        testgen = rec.stage_s("testgen.por") + rec.stage_s("testgen.pathec")
        per_round = rec.count_per_round
        metrics = {
            "tlaplus.check_s": checks,
            "tlaplus.states": states,
            "tlaplus.edges": sum(size[1] for size in models.values()),
            "tlaplus.check_states_per_s": states / checks,
            "engine.sharded_w2_s": sharded,
            "engine.sharded_w2_speedup":
                rec.stage_s(f"tlaplus.check.{self.side}") / sharded,
            "engine.canonicalize_s": rec.stage_s("engine.canonicalize"),
            "engine.equiv_s": rec.stage_s("engine.equiv"),
            "engine.fingerprint_states_per_s":
                ctx["probe_states"] / rec.probe_s("engine.fingerprint"),
            "analysis.independence_s": rec.stage_s("analysis.independence"),
            # diamond search alone, on the largest rung; por.reduce
            # below repeats it and adds the seeded filter
            "testgen.diamonds_s": rec.probe_s("testgen.find_diamonds"),
            "testgen.por_s": rec.obs_s("por.reduce"),
            "testgen.traversal_s": rec.obs_s("testgen.traversal"),
            "testgen.materialize_s": rec.obs_self_s("testgen.generate"),
            "testgen.diamonds": rec.per_round(sum(
                span["fields"].get("diamonds", 0)
                for span in rec.obs_spans("por.reduce"))),
            "testgen.edges_per_s": per_round("testgen.input_edges") / testgen,
            "testgen.por_reduction": (per_round("testgen.pathec_actions")
                                      / per_round("testgen.por_actions")),
        }
        for name in ("excluded_edges", "por_cases", "por_actions",
                     "pathec_cases", "pathec_actions"):
            metrics[f"testgen.{name}"] = per_round(f"testgen.{name}")
        for rung in SIZES["full"]["ladder"]:
            metrics[f"tlaplus.check_s.{rung}"] = rec.stage_s(
                f"tlaplus.check.{rung}")
        return metrics


class PipelineClean(Workload):
    name = "pipeline-clean"
    load = "closed loop, 1 client (one case at a time, workers=1)"
    # the cold check -> testgen of the CLI's models is 8 s of set-up:
    # it is paid once, and setup_s is an end-to-end metric
    setup_repeats = 1

    def setup(self):
        kits = {}
        for system in SYSTEMS:
            cases = self.sizes["cases"][system]
            if not cases:
                continue
            spec = MODELS[SYSTEM_MODEL[system]][0]()
            mapping, factory = make_kit(system, spec)
            graph, check_s = timed(lambda: check(spec).graph)
            suite, testgen_s = timed(lambda: generate_test_cases(
                graph, por=True, seed=self.seed,
                independence=analyze_spec(spec).independence()))
            kits[system] = {
                "mapping": mapping, "factory": factory, "graph": graph,
                "suite": suite.truncated(cases), "check_s": check_s,
                "testgen_s": testgen_s, "suite_cases": len(suite)}
        return {"kits": kits}

    def round(self, ctx, rec):
        for system, kit in ctx["kits"].items():
            graph = kit["graph"]
            rec.model(SYSTEM_MODEL[system], graph.num_states, graph.num_edges,
                      MODELS[SYSTEM_MODEL[system]][1])
            rec.exact_count(f"{system}.suite_cases", kit["suite_cases"])
            tester = ControlledTester(kit["mapping"], graph, kit["factory"],
                                      RUNNER)
            with rec.span(f"testbed.run_suite.{system}"):
                outcome = tester.run_suite(kit["suite"], workers=1)
            record_suite(rec, system, outcome)

    def probes(self, ctx, rec):
        for system, kit in ctx["kits"].items():
            def cycle(factory=kit["factory"]):
                cluster = factory()
                cluster.deploy()
                cluster.shutdown()

            with rec.span(f"runtime.deploy_shutdown.{system}"):
                cycles = [timed(cycle)[1]
                          for _ in range(self.sizes["deploy_cycles"])]
            ctx[f"deploy_ms.{system}"] = 1e3 * statistics.median(cycles)

    def layer_metrics(self, ctx, rec):
        metrics = testbed_metrics(rec)
        raftkv = "testbed.run_suite.raftkv"
        metrics["testbed.wait_share"] = (
            1.0 - rec.stage_cpu_s(raftkv) / rec.stage_s(raftkv))
        for system, kit in ctx["kits"].items():
            test_s = rec.stage_s(f"testbed.run_suite.{system}")
            metrics.update({
                f"pipeline.{system}.check_s": kit["check_s"],
                f"pipeline.{system}.testgen_s": kit["testgen_s"],
                f"pipeline.{system}.test_s": test_s,
                f"pipeline.{system}.wall_s":
                    kit["check_s"] + kit["testgen_s"] + test_s,
                f"runtime.deploy_shutdown_ms.{system}":
                    ctx[f"deploy_ms.{system}"],
            })
        return metrics


def record_suite(rec: Recorder, system: str, outcome) -> None:
    """One verdict per case, plus the testbed layer's counts and samples."""
    for result in outcome.results:
        rec.verdict(result.passed,
                    f"{system} case #{result.case.case_id} on a clean "
                    f"build: {result.divergence and result.divergence.headline()}")
        for phase, seconds in result.phase_seconds.items():
            rec.count(f"testbed.phase.{phase}", seconds)
    rec.count("testbed.cases", len(outcome.results))
    rec.count("testbed.steps", sum(r.executed_actions
                                   for r in outcome.results))
    rec.sample("testbed.case_ms", (1e3 * r.elapsed_seconds
                                   for r in outcome.results))


def testbed_metrics(rec: Recorder) -> Dict[str, float]:
    """The ``core.testbed`` layer, read from a traced run."""
    per_round = rec.count_per_round
    steps = [1e3 * (span["end"] - span["start"])
             for span in rec.obs_spans("runner.step")]
    cases = rec.samples.get("testbed.case_ms", [])
    pct = rec.percentile
    waits = rec.obs_metrics.get("scheduler.queue_wait_seconds", {})
    return {
        "testbed.deploy_s": per_round("testbed.phase.deploy"),
        "testbed.steps_s": per_round("testbed.phase.steps"),
        "testbed.endcheck_s": per_round("testbed.phase.check"),
        "testbed.teardown_s": per_round("testbed.phase.teardown"),
        "testbed.quiesce_sleep_s":
            per_round("testbed.cases") * RUNNER.quiesce_delay,
        "testbed.steps": per_round("testbed.steps"),
        "testbed.step_ms_p50": pct("testbed.step_ms_p50", steps, 0.50),
        "testbed.step_ms_p95": pct("testbed.step_ms_p95", steps, 0.95),
        "testbed.sched_wait_s": waits.get("sum", 0.0),
        "testbed.compare_s": rec.obs_s("statecheck.compare"),
        "testbed.compares": rec.per_round(
            len(rec.obs_spans("statecheck.compare"))),
        "testbed.cases_per_s":
            per_round("testbed.cases") / rec.stage_s("testbed.run_suite"),
        "testbed.case_ms_p50": pct("testbed.case_ms_p50", cases, 0.50),
        "testbed.case_ms_p90": pct("testbed.case_ms_p90", cases, 0.90),
    }


class CountingClock:
    """The wall clock, counting the seconds ``FaultRunner`` sleeps on
    it: retry backoff and convergence polling."""

    def __init__(self):
        self.slept = 0.0

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, dt: float) -> None:
        if dt > 0:
            self.slept += dt
            time.sleep(dt)


class FaultsBugs(Workload):
    name = "faults-bugs"
    load = "closed loop, 1 client (one scenario at a time)"

    def setup(self):
        table2 = []
        for index in self.sizes["table2"]:
            build, system = TABLE2[index]
            table2.append((build(), system))
        builders = all_chaos_scenarios()
        chaos = [builders[index]() for index in self.sizes["chaos"]]
        # the seeded fault run (part c) needs canonical edge indices
        spec = MODELS["raftkv-model"][0]()
        graph = canonicalize(check(spec).graph)
        suite = generate_test_cases(
            graph, por=True, seed=self.seed,
            independence=analyze_spec(spec).independence())
        mapping, factory = make_kit("raftkv", spec)
        return {"table2": table2, "chaos": chaos,
                "graph": graph, "mapping": mapping, "factory": factory,
                "base": suite.truncated(self.sizes["fault_base_cases"])}

    def round(self, ctx, rec):
        # (a) Table 2: every seeded bug yields its kind, every fix passes
        for scenario, system in ctx["table2"]:
            builds = [("buggy", scenario.buggy_config, scenario.expected_kind)]
            # a spec bug has no fixed build: the divergence is the spec's
            if not getattr(scenario, "is_spec_bug", False):
                builds.insert(0, ("fixed", getattr(scenario, "correct_config",
                                                   None), "pass"))
            for build, config, expected in builds:
                mapping, factory = make_kit(system, scenario.spec, config,
                                            scenario.servers)
                tester = ControlledTester(mapping, scenario.graph, factory,
                                          RUNNER)
                with rec.span(f"faults.table2.{scenario.name}.{build}"):
                    result = tester.run_case(scenario.case)
                self._verdict(rec, f"{scenario.name} ({build})", result,
                              expected)
        # (b) the bundled chaos scenarios, each against its expectation
        for scenario in ctx["chaos"]:
            mapping, factory = make_kit(scenario.target, scenario.spec,
                                        servers=scenario.servers)
            runner = FaultRunner(mapping, scenario.graph, factory,
                                 scenario.plan, RUNNER)
            with rec.span(f"faults.chaos.{scenario.name}"):
                result = runner.run_case(scenario.case)
            self._verdict(rec, scenario.name, result, scenario.expected_kind)

    @staticmethod
    def _verdict(rec, name, result, expected):
        outcome = "pass" if result.passed else result.divergence.kind.value
        rec.verdict(outcome == expected,
                    f"{name}: {outcome}, expected {expected}")

    def probes(self, ctx, rec):
        """(c) a seeded raftkv fault run.  Its wall is one healed stall
        (1.33 s) per unlucky case, 3 to 15 s over seeds 0-7, so it is a
        per-layer number and stays out of the rounds."""
        graph, base, mapping = ctx["graph"], ctx["base"], ctx["mapping"]
        with rec.span("faults.plan"):
            plan = plan_faults(graph, base, mapping, str(self.seed),
                               ctx["factory"]().node_ids, chaos=True,
                               target="raftkv", max_faults_per_case=2)
        with rec.span("faults.apply"):
            suite = apply_plan(base, graph, plan)
        clock = CountingClock()
        runner = FaultRunner(mapping, graph, ctx["factory"], plan, RUNNER,
                             FaultConfig(clock=clock))
        with rec.span("faults.run"):
            outcome = runner.run_suite(suite, workers=1)
        with rec.span("faults.triage"):
            payload = triage(outcome, plan, graph=graph)
        unattributed = {failure["case_id"] for failure in payload["failures"]
                        if not failure["attributed_to"]}
        for result in outcome.results:
            rec.verdict(result.case.case_id not in unattributed,
                        f"fault run case #{result.case.case_id}: "
                        f"unattributed divergence")
        rec.exact_count("faults.injections", len(plan))
        rec.exact_count("faults.plan_sha256", hashlib.sha256(
            plan.to_json().encode("utf-8")).hexdigest())
        ctx["fault_run"] = {
            "injections": len(plan), "cases": len(outcome.results),
            "clock_sleep_s": clock.slept,
            "unattributed": payload["unattributed"],
            "attributed": payload["divergent"] - payload["unattributed"]}

    def layer_metrics(self, ctx, rec):
        table2 = rec.stage_s("faults.table2")
        chaos = rec.stage_s("faults.chaos")
        run = ctx["fault_run"]
        run_s = rec.probe_s("faults.run")
        return {
            "faults.table2_s": table2,
            "faults.chaos_scenarios_s": chaos,
            "faults.scenario_wall_s": table2 + chaos,
            "faults.plan_s": rec.probe_s("faults.plan"),
            "faults.apply_s": rec.probe_s("faults.apply"),
            "faults.run_s": run_s,
            "faults.triage_s": rec.probe_s("faults.triage"),
            "faults.clock_sleep_s": run["clock_sleep_s"],
            "faults.injections": run["injections"],
            "faults.attributed": run["attributed"],
            "faults.unattributed": run["unattributed"],
            "faults.cases_per_s": run["cases"] / run_s,
        }


def write_walk_logs(graph, good: str, bad: str, events: int, seed: int,
                    corrupt_at: int) -> None:
    """A seeded walk over ``graph`` as obs-JSONL ``runner.step`` records
    (what a production tracer sink writes), and a copy whose line
    ``corrupt_at`` names an action the spec does not have."""
    rng = random.Random(f"{seed}:walk")
    line = ('{"dur": 0.0001, "fields": {"action": %s, "case": %d, "outcome": '
            '"ok", "params": %s, "step": %d}, "kind": "span", "name": '
            '"runner.step", "seq": %d, "ts": %d.0}\n')
    choices: Dict[int, List[Tuple[str, str, int]]] = {}

    def out_of(node: int):
        if node not in choices:
            edges = sorted(graph.out_edges(node),
                           key=lambda e: (e.label.name, e.dst))
            choices[node] = [
                (json.dumps(e.label.name),
                 json.dumps(thaw(e.label.params), sort_keys=True,
                            default=lambda v: sorted(v, key=repr)), e.dst)
                for e in edges]
        return choices[node]

    with open(good, "w", encoding="utf-8") as fine, \
            open(bad, "w", encoding="utf-8") as broken:
        seq = session = 0
        while seq < events:
            options, step = out_of(graph.initial_ids[0]), 0
            while seq < events and options:
                action, params, node = options[rng.randrange(len(options))]
                options = out_of(node)
                fine.write(line % (action, session, params, step, seq, seq))
                if seq + 1 == corrupt_at:
                    action = '"NoSuchAction"'
                broken.write(line % (action, session, params, step, seq, seq))
                seq += 1
                step += 1
            session += 1


class SoakConform(Workload):
    name = "soak-conform"
    load = ("soak: open loop at rate=%g simulated ops/s per shard, simulated "
            "clock, injected per-link latency %g-%g simulated s "
            "(SimNetwork defaults); conform: closed loop, 1 client")

    def __init__(self, seed, mode, workdir):
        super().__init__(seed, mode, workdir)
        self.soak = SoakConfig(ops=self.sizes["soak_ops"], shards=4,
                               workers=1, faults=True, seed=str(seed))
        network = SimNetwork(SimScheduler())
        self.load = self.load % (self.soak.rate, network.min_latency,
                                 network.max_latency)

    def setup(self):
        spec = MODELS["raftkv-model"][0]()
        graph = canonicalize(check(spec).graph)
        mapping, _factory = make_kit("raftkv", spec)
        events = self.sizes["conform_events"]
        logs = [os.path.join(self.workdir, name)
                for name in ("good.jsonl", "bad.jsonl")]
        write_walk_logs(graph, logs[0], logs[1], events, self.seed,
                        corrupt_at=events // 2)
        return {"graph": graph, "mapping": mapping, "good": logs[0],
                "bad": logs[1], "corrupt_at": events // 2}

    def _replay(self, ctx, log: str):
        monitor = ConformanceMonitor(ctx["graph"], ctx["mapping"],
                                     ConformanceOptions())
        return monitor.run(get_adapter("obs").read(log), log=log,
                           adapter="obs")

    def round(self, ctx, rec):
        graph = ctx["graph"]
        rec.model("raftkv-model", graph.num_states, graph.num_edges,
                  MODELS["raftkv-model"][1])
        with rec.span("soak.run"):
            shards = run_soak(self.soak)
            report = build_report(self.soak, shards)
        totals = report["totals"]
        for shard in shards:
            rec.verdict(not shard["divergences"]
                        and shard["submitted"] == shard["ops"],
                        f"soak shard {shard['shard']}: divergences "
                        f"{shard['divergences']}, {shard['submitted']} of "
                        f"{shard['ops']} ops submitted")
        rec.exact_count("soak.acked", totals["acked"])
        rec.exact_count("soak.applied_events", totals["applied_events"])
        rec.exact_count("soak.report_sha256", hashlib.sha256(json.dumps(
            report, sort_keys=True).encode("utf-8")).hexdigest())
        for name in ("submitted", "acked", "rejected", "applied_events",
                     "sim_time"):
            rec.count(f"soak.{name}", totals[name])
        with rec.span("conform.replay"):
            good = self._replay(ctx, ctx["good"])
        rec.verdict(good.ok and good.events == self.sizes["conform_events"],
                    f"good log: {good.verdict} after {good.events} events")
        with rec.span("conform.localize"):
            bad = self._replay(ctx, ctx["bad"])
        line = bad.first_divergence.line if bad.first_divergence else None
        rec.verdict(line == ctx["corrupt_at"],
                    f"bad log: first divergence at line {line}, "
                    f"seeded at {ctx['corrupt_at']}")
        rec.exact_count("conform.frontier_peak", good.frontier_peak)
        rec.count("conform.events", good.events)

    def probes(self, ctx, rec):
        scheduler = SimScheduler(seed=str(self.seed))
        with rec.span("sim.noop_events"):
            for index in range(self.sizes["sim_events"]):
                scheduler.schedule(index * 1e-3, int)
            dispatched = scheduler.run()
        rec.verdict(dispatched == self.sizes["sim_events"],
                    f"bare SimScheduler dispatched {dispatched} events")
        with rec.span("conform.adapter"):
            parsed = sum(1 for _ in get_adapter("obs").read(ctx["good"]))
        rec.verdict(parsed == self.sizes["conform_events"],
                    f"obs adapter parsed {parsed} events")

    def layer_metrics(self, ctx, rec):
        per_round = rec.count_per_round
        run_s = rec.stage_s("soak.run")
        replay_s = rec.stage_s("conform.replay")
        return {
            "soak.run_s": run_s,
            "soak.ops_per_s": per_round("soak.submitted") / run_s,
            "soak.time_compression": per_round("soak.sim_time") / run_s,
            "soak.sim_seconds": per_round("soak.sim_time"),
            "soak.acked": per_round("soak.acked"),
            "soak.rejected": per_round("soak.rejected"),
            "soak.applied_events": per_round("soak.applied_events"),
            "sim.events_per_s":
                self.sizes["sim_events"] / rec.probe_s("sim.noop_events"),
            "conform.adapter_s": rec.probe_s("conform.adapter"),
            "conform.replay_s": replay_s,
            "conform.localize_s": rec.stage_s("conform.localize"),
            "conform.events_per_s": per_round("conform.events") / replay_s,
            "conform.frontier_peak": rec.exact["conform.frontier_peak"],
        }


WORKLOADS = {cls.name: cls for cls in (ExploreLadder, PipelineClean,
                                       FaultsBugs, SoakConform)}
