"""``mocket`` — the command-line front end.

One verb per pipeline stage (``check``, ``testgen``, ``test``) and per
layer built on it (``faults``, ``fuzz``, ``soak``, ``conform``, ``lint``,
``analyze``, ``bugs``, ``trace``).  This module only parses arguments,
calls the library and prints: target and model names resolve through
:mod:`repro.systems.catalog`, README.md walks through the verbs,
docs/INDEX.md maps each one to its document, and ``mocket VERB --help``
lists the flags.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import namedtuple
from typing import Optional

from .artifact import ArtifactError
from .core import ControlledTester, generate_test_cases
from .obs import METRICS, TRACER, TraceReader
from .runtime.network import HangGuardTripped
from .systems.catalog import (
    BARE_MODELS, MODELS, TARGETS, UnknownName, get_model, kit,
    spec_and_mapping,
)
from .tlaplus import check, write_dot

__all__ = ["main"]

_SYSTEMS = "|".join(TARGETS)
_BARE_MODELS = "|".join(BARE_MODELS)


def _with_obs(args, command) -> int:
    """Run ``command`` with tracing/metrics armed as ``--trace`` /
    ``--metrics`` ask; print the metrics table / trace location after."""
    if not (args.trace or args.metrics):
        return command()
    TRACER.reset()
    METRICS.reset()
    TRACER.configure(enabled=True, sink=args.trace)
    try:
        return command()
    finally:
        TRACER.disable()
        if args.metrics:
            print("-- metrics " + "-" * 48)
            print(METRICS.render())
        if args.trace:
            print(f"trace written to {args.trace} "
                  f"({TRACER.emitted} records, {TRACER.dropped} dropped "
                  f"from the ring buffer)")


def _check_kwargs(args) -> dict:
    """The --checkpoint/--resume flags, as check() keywords."""
    return dict(checkpoint=args.checkpoint, resume=args.resume)


def _cmd_check(args) -> int:
    def command() -> int:
        spec = get_model(args.model)()
        result = check(spec, max_states=args.max_states, truncate=True,
                       **_check_kwargs(args))
        print(result.summary())
        if args.checkpoint:
            print(f"checkpoint directory: {args.checkpoint}")
        if args.dot:
            write_dot(result.graph, args.dot)
            print(f"state-space graph written to {args.dot}")
        return 0 if result.ok else 1

    return _with_obs(args, command)


def _cmd_testgen(args) -> int:
    def command() -> int:
        spec = get_model(args.model)()
        graph = check(spec, max_states=args.max_states, truncate=True,
                      **_check_kwargs(args)).graph
        suite_ec = generate_test_cases(graph, por=False)
        suite_por = generate_test_cases(graph, por=True, seed=args.seed)
        print(f"model: {graph.num_states} states, {graph.num_edges} edges")
        print(f"PathEC:     {len(suite_ec)} cases, "
              f"{suite_ec.total_actions()} actions")
        print(f"PathEC+POR: {len(suite_por)} cases, "
              f"{suite_por.total_actions()} actions "
              f"({suite_por.excluded_edges} edges dropped)")
        if graph.refused_ids:
            cut = sum(case.final_id in graph.refused_ids
                      for case in suite_por)
            print(f"truncated at --max-states {args.max_states}: {cut} of "
                  f"{len(suite_por)} EC+POR cases end on a state whose "
                  f"successors were cut off (no end-of-case "
                  f"unexpected-action check there)")
        if args.show:
            for case in list(suite_por)[: args.show]:
                print(f"  #{case.case_id}: {case.describe()}")
        if args.out:
            suite_por.save(args.out)
            print(f"EC+POR suite written to {args.out}")
        return 0

    return _with_obs(args, command)


# -- the testbed verbs: test, faults plan|run|replay|shrink, fuzz -----------

_Kit = namedtuple("_Kit", "mapping cluster_factory graph suite")


def _suite_kit(args, target, canonical, cases=None, **checkpoint) -> _Kit:
    """``target`` → spec → verified graph → suite (its first ``cases``).

    ``canonical`` renumbers the graph into its content-only canonical
    form: fault planning consumes graph *ordering* (edge indices,
    rng-driven edge picks), so plans and corpora are exchangeable
    between the verbs and survive a resumed or reloaded graph.
    """
    spec, mapping, cluster_factory = kit(target, args.bug)
    graph = check(spec, max_states=args.max_states, truncate=True,
                  **checkpoint).graph
    if canonical:
        from .engine import canonicalize

        graph = canonicalize(graph)
    if args.suite:
        from .core.testgen import TestSuite

        suite = TestSuite.load(args.suite)
    else:
        suite = generate_test_cases(graph, por=not args.no_por, seed=args.seed)
    return _Kit(mapping, cluster_factory, graph, suite.truncated(cases))


def _plan(args, target, kit_: _Kit):
    """The seeded fault plan for ``kit_``'s suite.  Plan over a suite
    already capped to ``--cases``, so the derived fault cases — appended
    after the base cases — still run."""
    from .faults import plan_faults

    return plan_faults(kit_.graph, kit_.suite, kit_.mapping,
                       str(args.fault_seed), kit_.cluster_factory().node_ids,
                       chaos=args.chaos, target=target,
                       max_faults_per_case=args.max_faults)


def _load_plan(args):
    from .faults import FaultPlan

    return FaultPlan.load(args.plan)


def _fitting(args, plan, kit_: _Kit):
    """``plan``, refused unless it was planned for ``args.target`` and is
    legal for ``kit_``'s graph, suite and cluster."""
    from .faults import plan_violations

    problems = plan_violations(plan, kit_.suite, graph=kit_.graph,
                               node_ids=kit_.cluster_factory().node_ids)
    if plan.target != args.target:
        problems.insert(0, f"it was planned for {plan.target!r}")
    if problems:
        raise ArtifactError(f"fault plan {args.plan} does not fit "
                            f"{args.target}: {problems[0]}")
    return plan


def _testbed(kit_: _Kit, plan=None):
    """``(suite, tester)`` for ``kit_``: its suite on the plain tester,
    or — under ``plan``'s injections — the derived suite on the fault
    runner."""
    if plan is None:
        return kit_.suite, ControlledTester(kit_.mapping, kit_.graph,
                                            kit_.cluster_factory)
    from .faults import FaultRunner, apply_plan

    print(f"fault plan: {plan.summary()}")
    return (apply_plan(kit_.suite, kit_.graph, plan),
            FaultRunner(kit_.mapping, kit_.graph, kit_.cluster_factory, plan))


def _triage(args, kit_: _Kit, plan, outcome, graph=None, shrink=False) -> int:
    """Print the triage of a faulted run (with a coverage line when
    given the ``graph``), shrink the plan if asked to; the exit code."""
    from .faults import render_triage, triage

    payload = triage(outcome, plan, graph=graph)
    print(render_triage(payload))
    if payload["unattributed"] and shrink:
        _shrink_and_report(args, kit_, plan)
    return 0 if payload["unattributed"] == 0 else 1


def _run_plan(args, kit_: _Kit, plan, max_cases=None, shrink=False) -> int:
    """``faults run|replay``: execute ``kit_``'s suite under ``plan``."""
    suite, tester = _testbed(kit_, plan)
    outcome = tester.run_suite(suite, max_cases=max_cases,
                               workers=args.workers)
    print(outcome.summary())
    return _triage(args, kit_, plan, outcome, kit_.graph, shrink)


def _shrink_and_report(args, kit_: _Kit, plan, budget=200, out=None,
                       log=None) -> int:
    """Run :func:`shrink_plan` on a failing plan and print/save results.

    ``kit_.suite`` must be the *base* suite (before ``apply_plan``); the
    shrinker re-derives fault cases for every candidate sub-plan.
    """
    from .faults import shrink_plan

    try:
        result = shrink_plan(plan, kit_.graph, kit_.suite, kit_.mapping,
                             kit_.cluster_factory, budget=budget,
                             workers=args.workers)
    except ValueError as exc:
        raise SystemExit(f"shrink: {exc}")
    print(f"shrink: {result.summary()}")
    if out:
        result.minimal.save(out)
        print(f"minimal plan written to {out}")
    else:
        print(result.minimal.to_json(), end="")
    if log:
        result.write_log(log)
        print(f"shrink log written to {log} "
              f"({len(result.log)} records; readable by 'trace summarize')")
    return 0


def _cmd_test(args) -> int:
    target = args.target or args.system
    if target is None:
        raise SystemExit("test: name a target (positional or --system)")
    faulted = args.faults or args.chaos

    def command() -> int:
        # a faulted run plans over the capped suite (see _plan); a plain
        # one generates the whole suite and stops after --cases
        kit_ = _suite_kit(args, target, canonical=faulted,
                          cases=args.cases if faulted else None,
                          **_check_kwargs(args))
        plan = _plan(args, target, kit_) if faulted else None
        max_cases = None if faulted else args.cases
        suite, tester = _testbed(kit_, plan)
        print(f"running up to {max_cases or len(suite)} of {len(suite)} cases "
              f"against {target} "
              f"({'buggy: ' + ','.join(args.bug) if args.bug else 'correct'})")
        started = time.monotonic()
        outcome = tester.run_suite(suite, stop_on_divergence=args.stop_on_bug,
                                   max_cases=max_cases, workers=args.workers)
        elapsed = time.monotonic() - started
        print(f"{outcome.summary()} ({elapsed:.1f}s wall clock)")
        if faulted:
            return _triage(args, kit_, plan, outcome,
                           shrink=args.shrink_on_failure)
        for failing in outcome.failures[:5]:
            print(f"  case #{failing.case.case_id}: "
                  f"{failing.divergence.headline()}")
            print(f"    schedule: {failing.case.describe()[:160]}")
        return 0 if outcome.passed else 1

    return _with_obs(args, command)


def _cmd_faults_plan(args) -> int:
    plan = _plan(args, args.target,
                 _suite_kit(args, args.target, canonical=True))
    print(f"fault plan: {plan.summary()}")
    if args.out:
        plan.save(args.out)
        print(f"fault plan written to {args.out}")
    else:
        print(plan.to_json(), end="")
    return 0


def _cmd_faults_run(args) -> int:
    def command() -> int:
        kit_ = _suite_kit(args, args.target, canonical=True, cases=args.cases)
        return _run_plan(args, kit_, _plan(args, args.target, kit_),
                         shrink=args.shrink_on_failure)

    return _with_obs(args, command)


def _cmd_faults_replay(args) -> int:
    def command() -> int:
        plan = _load_plan(args)
        kit_ = _suite_kit(args, args.target, canonical=True)
        return _run_plan(args, kit_, _fitting(args, plan, kit_),
                         max_cases=args.cases)

    return _with_obs(args, command)


def _cmd_faults_shrink(args) -> int:
    def command() -> int:
        plan = _load_plan(args)
        kit_ = _suite_kit(args, args.target, canonical=True)
        _fitting(args, plan, kit_)
        # legal against the whole suite, shrunk over the capped one
        kit_ = kit_._replace(suite=kit_.suite.truncated(args.cases))
        print(f"shrinking: {plan.summary()}")
        return _shrink_and_report(args, kit_, plan, budget=args.budget,
                                  out=args.out, log=args.log)

    return _with_obs(args, command)


def _cmd_faults_scenarios(args) -> int:
    from .faults import FaultRunner, all_chaos_scenarios

    rows = []
    for build in all_chaos_scenarios():
        scenario = build()
        _spec, mapping, factory = kit(scenario.target, spec=scenario.spec,
                                      servers=scenario.servers)
        result = FaultRunner(mapping, scenario.graph, factory,
                             scenario.plan).run_case(scenario.case)
        outcome = "pass" if result.passed else result.divergence.kind.value
        rows.append({
            "name": scenario.name,
            "target": scenario.target,
            "expected": scenario.expected_kind,
            "outcome": outcome,
            "ok": outcome == scenario.expected_kind,
            "detail": ("all clear" if result.passed
                       else result.divergence.headline()),
        })
    failed = sum(1 for row in rows if not row["ok"])
    if args.format == "json":
        # stable v1 envelope, like `mocket lint --format json`
        print(json.dumps({
            "version": 1,
            "scenarios": rows,
            "summary": {"total": len(rows), "failed": failed},
        }, indent=2, sort_keys=True))
    else:
        for row in rows:
            print(f"{row['name']}: {row['detail']} "
                  f"[{'as expected' if row['ok'] else 'UNEXPECTED'}]")
    return 1 if failed else 0


def _cmd_fuzz(args) -> int:
    from .faults import FaultPlan
    from .fuzz import (
        FuzzError, fuzz_campaign, render_fuzz_json, render_fuzz_text,
    )

    def command() -> int:
        seed_plans = [FaultPlan.load(path) for path in args.seed_plan]
        kit_ = _suite_kit(args, args.target, canonical=True, cases=args.cases)
        try:
            result = fuzz_campaign(
                kit_.graph, kit_.suite, kit_.mapping, kit_.cluster_factory,
                kit_.cluster_factory().node_ids,
                budget=args.budget, fuzz_seed=str(args.fuzz_seed),
                corpus_dir=args.corpus, target=args.target,
                chaos=args.chaos, max_faults=args.max_faults,
                workers=args.workers, guided=not args.unguided,
                seed_plans=seed_plans)
        except FuzzError as exc:
            print(f"fuzz: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            print(render_fuzz_json(result))
        else:
            arm = "guided" if result.guided else "unguided"
            print(f"fuzzing {args.target} ({arm}): budget {args.budget}, "
                  f"fuzz seed '{result.corpus.meta['fuzz_seed']}', "
                  f"{len(kit_.suite)} base case(s)")
            print(render_fuzz_text(result))
        return 1 if result.bugs else 0

    return _with_obs(args, command)


def _cmd_soak(args) -> int:
    from .soak import SoakConfig, build_report, render_text, run_soak
    from .soak.nemesis import read_schedule, write_schedule

    def command() -> int:
        shards, faults, schedule = args.shards, args.faults, None
        if args.schedule:
            schedule, faults = read_schedule(args.schedule)
            shards = len(schedule)
        try:
            config = SoakConfig(
                target=args.target,
                ops=args.ops,
                seed=str(args.soak_seed),
                shards=shards,
                workers=args.workers,
                rate=args.rate,
                faults=faults,
                bug=args.bug,
                snapshot_every=args.snapshot_every,
                schedule=schedule,
            )
        except ValueError as exc:
            print(f"soak: {exc}", file=sys.stderr)
            return 2
        start = time.perf_counter()
        shard_reports = run_soak(config)
        wall = time.perf_counter() - start
        report = build_report(config, shard_reports)
        if args.schedule_out:
            write_schedule(args.schedule_out, config.seed, config.faults,
                           [s["fault_schedule"] for s in shard_reports])
        if args.format == "json":
            # The canonical artifact: pure (seed, schedule) quantities,
            # no wall-clock readings — byte-identical across workers
            # and hash seeds (the determinism guard diffs exactly this).
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render_text(report, wall_seconds=wall))
            if args.schedule_out:
                print(f"fault schedule written to {args.schedule_out}")
        return 1 if report["totals"]["divergences"] else 0

    return _with_obs(args, command)


def _cmd_lint(args) -> int:
    from .analysis import Severity, lint_target, render_json, render_text
    from .analysis.targets import all_targets

    names = all_targets() if args.target == "all" else [args.target]
    worst_hit = False
    results = []
    for name in names:
        result = lint_target(name)
        results.append(result)
        if args.format == "json":
            print(render_json(result))
        elif args.format == "text":
            print(render_text(result))
        if args.fail_on != "none":
            threshold = Severity.parse(args.fail_on)
            if result.unsuppressed(threshold):
                worst_hit = True
    if args.format == "sarif":
        # one aggregated SARIF document over every linted target, for
        # GitHub code scanning upload
        from .analysis import render_sarif

        print(render_sarif(results))
    return 1 if worst_hit else 0


def _cmd_analyze(args) -> int:
    from .analysis import targets
    from .analysis.effects import analyze_spec
    from .analysis.effects_report import (
        render_effects_dot, render_effects_json, render_effects_text,
    )

    effects = analyze_spec(targets.resolve(args.target).spec)
    print(render_effects_json(effects) if args.format == "json"
          else render_effects_text(effects))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(render_effects_dot(effects))
        print(f"action-dependency graph written to {args.dot}")
    return 0


def _cmd_trace_summarize(args) -> int:
    reader = TraceReader.from_file(args.file)
    if args.format == "json":
        print(json.dumps(reader.summary_dict(max_cases=args.cases),
                         indent=2, sort_keys=True))
    else:
        print(reader.summarize(max_cases=args.cases))
    return 0


def _cmd_conform(args) -> int:
    from .conform import ConformanceMonitor, ConformanceOptions, get_adapter

    def command() -> int:
        # a system's mapping carries the event bindings that translate
        # log events into spec actions; a bare model has none and
        # assumes events name actions directly
        spec, mapping = spec_and_mapping(args.spec, "conform target")
        graph = check(spec, max_states=args.max_states, truncate=True,
                      **_check_kwargs(args)).graph
        options = ConformanceOptions(max_frontier=args.max_frontier,
                                     explain=args.explain,
                                     ignore_unknown=args.ignore_unknown)
        monitor = ConformanceMonitor(graph, mapping, options)
        try:
            adapter = get_adapter(args.adapter)
        except ValueError as exc:
            print(f"conform: {exc}", file=sys.stderr)
            return 2
        if args.log == "-":
            source, label = sys.stdin, "<stdin>"
        else:
            source, label = args.log, args.log
        events = adapter.read(source)
        if args.stream:
            # incremental mode: deterministic count-based progress
            # (never timing-based — output stays byte-identical)
            for event in events:
                monitor.feed(event)
                if args.progress and monitor.events % args.progress == 0:
                    print(f"... {monitor.events} events, frontier "
                          f"{len(monitor.frontier)}", file=sys.stderr)
            report = monitor.finish(log=label, adapter=args.adapter)
        else:
            report = monitor.run(events, log=label, adapter=args.adapter)
        print(report.to_json() if args.format == "json"
              else report.render_text())
        return 0 if report.ok else 1

    return _with_obs(args, command)


def _cmd_bugs(args) -> int:
    # Table 2 order: the implementation bugs system by system, then the
    # official-specification bugs
    scenarios = [(target.name, build()) for target in TARGETS.values()
                 for build in target.scenarios]
    scenarios.sort(key=lambda entry: entry[1].is_spec_bug)
    failures = 0
    for name, scenario in scenarios:
        _spec, mapping, factory = kit(
            name, spec=scenario.spec, config=scenario.buggy_config,
            servers=scenario.servers)
        result = ControlledTester(mapping, scenario.graph,
                                  factory).run_case(scenario.case)
        if result.passed:
            print(f"{scenario.name}: NOT DETECTED (unexpected)")
            failures += 1
        else:
            print(f"{scenario.name}: {result.divergence.headline()} "
                  f"({len(scenario.case)} actions)")
    return 1 if failures else 0


# -- argument parsing --------------------------------------------------------

#: every flag more than one verb takes *with one meaning*, stated once;
#: verbs pick by name (soak's --faults/--workers and trace's --cases mean
#: something else and are declared by those verbs)
_FLAGS = {
    "bug": dict(action="append", default=[], metavar="FLAG",
                help="seed a bug flag (repeatable)"),
    "cases": dict(type=int, default=None, metavar="N",
                  help="use only the first N cases of the suite"),
    "chaos": dict(action="store_true",
                  help="also inject disruptive spec-unmodeled faults "
                       "(bounce/crash/corrupt) with convergence-mode "
                       "checking"),
    "checkpoint": dict(metavar="DIR",
                       help="snapshot checking progress to DIR after "
                            "every BFS level"),
    "dot": dict(metavar="FILE", help="write the graph as DOT to FILE"),
    "fault-seed": dict(default="0", metavar="SEED",
                       help="nemesis seed: same seed => byte-identical "
                            "fault plan and identical reports (default: 0)"),
    "format": dict(choices=("text", "json"), default="text",
                   help="json prints the stable v1 envelope"),
    "max-faults": dict(type=int, default=1, metavar="K",
                       help="schedule up to K faults per case (default: 1; "
                            "K>1 widens the vocabulary to link cuts, "
                            "partial partitions, delays and corruption)"),
    "max-states": dict(type=int, default=100_000, metavar="N",
                       help="stop exploring after N states "
                            "(default: 100000)"),
    "metrics": dict(action="store_true",
                    help="print the metrics table after the run"),
    "no-por": dict(action="store_true",
                   help="generate the suite without partial-order reduction"),
    "out": dict(metavar="FILE",
                help="write the result (suite / plan JSON) to FILE"),
    "plan": dict(required=True, metavar="FILE",
                 help="a plan written by 'faults plan --out'"),
    "resume": dict(action="store_true",
                   help="continue checking from the latest snapshot "
                        "in --checkpoint DIR"),
    "seed": dict(type=int, default=0,
                 help="test-generation seed (POR tie-breaking)"),
    "shrink-on-failure": dict(action="store_true",
                              help="after an unattributed failure, shrink "
                                   "the plan to a minimal repro "
                                   "(docs/FAULTS.md)"),
    "suite": dict(metavar="FILE", help="use a suite saved by 'testgen --out'"),
    "trace": dict(metavar="FILE",
                  help="write a JSONL trace of the run to FILE"),
    "workers": dict(type=int, default=1, metavar="N",
                    help="run cases in N worker processes; never changes "
                         "a byte of output (default: 1)"),
}
_SUITE = ("bug", "max-states", "seed", "no-por", "suite")  # _suite_kit's
_NEMESIS = ("fault-seed", "chaos", "max-faults")           # _plan's
_CHECKPOINT = ("checkpoint", "resume")
_OBS = ("trace", "metrics")


def _verb(sub, name, func, flags=(), **kwargs):
    """One subparser running ``func``, with the named shared flags."""
    parser = sub.add_parser(name, **kwargs)
    for flag in flags:
        parser.add_argument(f"--{flag}", **_FLAGS[flag])
    parser.set_defaults(func=func)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mocket",
        description="Model checking guided testing for distributed systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _verb(sub, "check", _cmd_check,
              ("max-states", "dot", *_CHECKPOINT, *_OBS),
              help="model-check a built-in model")
    p.add_argument("model", help="|".join(MODELS))

    p = _verb(sub, "testgen", _cmd_testgen,
              ("max-states", "seed", "out", *_CHECKPOINT, *_OBS),
              help="generate test cases from a model")
    p.add_argument("model", help="|".join(MODELS))
    p.add_argument("--show", type=int, default=0,
                   help="print the first N generated cases")

    p = _verb(sub, "test", _cmd_test,
              (*_SUITE, "cases", *_NEMESIS, "shrink-on-failure",
               "workers", *_CHECKPOINT, *_OBS),
              help="controlled testing of a target")
    p.add_argument("target", nargs="?", default=None, help=_SYSTEMS)
    p.add_argument("--system", default=None,
                   help="the target system (alias for the positional)")
    p.add_argument("--stop-on-bug", action="store_true")
    p.add_argument("--faults", action="store_true",
                   help="inject modeled + transparent chaos faults "
                        "while testing (docs/FAULTS.md)")

    faults_sub = sub.add_parser(
        "faults", help="seeded fault injection (see docs/FAULTS.md)",
    ).add_subparsers(dest="faults_command", required=True)
    p_plan = _verb(faults_sub, "plan", _cmd_faults_plan,
                   (*_SUITE, *_NEMESIS, "out"),
                   help="derive a seeded fault plan from the state graph")
    p_run = _verb(faults_sub, "run", _cmd_faults_run,
                  (*_SUITE, *_NEMESIS, "shrink-on-failure", "cases",
                   "workers", *_OBS),
                  help="plan + execute fault injection, then triage")
    p_replay = _verb(faults_sub, "replay", _cmd_faults_replay,
                     (*_SUITE, "plan", "cases", "workers", *_OBS),
                     help="re-execute a saved fault plan bit-identically")
    p_shrink = _verb(faults_sub, "shrink", _cmd_faults_shrink,
                     (*_SUITE, "plan", "cases", "out", "workers", *_OBS),
                     help="minimize a failing fault plan to a minimal repro")
    p_shrink.add_argument("--budget", type=int, default=200, metavar="N",
                          help="replay budget for the shrink search "
                               "(default: 200)")
    p_shrink.add_argument("--log", metavar="FILE",
                          help="write the JSONL shrink log to FILE "
                               "(readable by 'mocket trace summarize')")
    _verb(faults_sub, "scenarios", _cmd_faults_scenarios, ("format",),
          help="replay the bundled chaos scenarios")

    p_fuzz = _verb(sub, "fuzz", _cmd_fuzz,
                   (*_SUITE, "cases", "chaos", "max-faults", "format",
                    "workers", *_OBS),
                   help="coverage-guided fuzzing of fault schedules "
                        "(see docs/FUZZING.md)")
    for p in (p_plan, p_run, p_replay, p_shrink, p_fuzz):
        p.add_argument("target", help=f"a system under test ({_SYSTEMS})")
    p = p_fuzz
    p.add_argument("--budget", type=int, default=20, metavar="N",
                   help="execute N schedules this invocation (default: 20); "
                        "re-running with --corpus resumes the same "
                        "deterministic stream")
    p.add_argument("--corpus", metavar="DIR",
                   help="keep coverage-novel schedules in DIR "
                        "(created if missing; omitted = in-memory)")
    p.add_argument("--fuzz-seed", default="0", metavar="SEED",
                   help="campaign seed: same seed => byte-identical "
                        "corpus, independent of --workers and "
                        "PYTHONHASHSEED (default: 0)")
    p.add_argument("--seed-plan", action="append", default=[], metavar="FILE",
                   help="import a plan written by 'faults plan --out' "
                        "as a corpus seed (repeatable)")
    p.add_argument("--unguided", action="store_true",
                   help="control arm: same budget, plain seeded "
                        "planner stream, no coverage feedback")

    p = _verb(sub, "soak", _cmd_soak, ("format", *_OBS),
              help="soak-scale workload on the deterministic simulation "
                   "runtime (see docs/RUNTIME.md)")
    p.add_argument("target", help="system to soak (raftkv)")
    p.add_argument("--ops", type=int, default=100_000, metavar="N",
                   help="total open-loop client operations across "
                        "all shards (default: 100000)")
    p.add_argument("--soak-seed", default="0", metavar="SEED",
                   help="run seed: same (seed, schedule) => "
                        "byte-identical report, independent of "
                        "--workers and PYTHONHASHSEED (default: 0)")
    p.add_argument("--shards", type=int, default=4, metavar="N",
                   help="fixed number of independent simulation "
                        "shards; part of the run's identity, unlike "
                        "--workers (default: 4)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="OS processes executing shards concurrently; "
                        "never changes a byte of output (default: 1)")
    p.add_argument("--faults", action="store_true",
                   help="derive and inject a seeded virtual-time "
                        "fault schedule (partitions, crashes, link "
                        "delays)")
    p.add_argument("--rate", type=float, default=200.0, metavar="OPS",
                   help="open-loop client rate per shard, in "
                        "simulated ops/second (default: 200)")
    p.add_argument("--bug", choices=("bug_skip_apply",), default=None,
                   help="enable a seeded soak bug in the simulated "
                        "system under test")
    p.add_argument("--snapshot-every", type=float, default=25.0,
                   metavar="SIMSECS",
                   help="triage snapshot cadence in simulated "
                        "seconds (default: 25)")
    p.add_argument("--schedule", metavar="FILE",
                   help="replay a saved fault schedule verbatim "
                        "instead of deriving one from the seed")
    p.add_argument("--schedule-out", metavar="FILE",
                   help="write this run's fault schedule for exact replay")

    _verb(sub, "bugs", _cmd_bugs, help="replay all Table 2 bug scenarios")

    p = _verb(sub, "lint", _cmd_lint,
              help="static conformance analysis of a bundled target")
    p.add_argument("target", help=f"a system ({_SYSTEMS}), a bare model "
                                  f"({_BARE_MODELS}), or 'all'")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text",
                   help="sarif prints one aggregated SARIF 2.1.0 "
                        "document for GitHub code scanning")
    p.add_argument("--fail-on", choices=("error", "warning", "none"),
                   default="error",
                   help="exit 1 when unsuppressed findings at/above this "
                        "severity exist (default: error)")

    p = _verb(sub, "analyze", _cmd_analyze, ("format", "dot"),
              help="static effect analysis of a target's spec actions")
    p.add_argument("target", help=f"a system ({_SYSTEMS}) or a bare model "
                                  f"({_BARE_MODELS})")

    p = _verb(sub, "conform", _cmd_conform,
              ("format", "max-states", *_CHECKPOINT, *_OBS),
              help="validate a captured log against the spec's state graph")
    p.add_argument("log", help="the log file to validate ('-' reads stdin)")
    p.add_argument("--spec", required=True, metavar="TARGET",
                   help=f"a system ({_SYSTEMS}: spec + event bindings) or "
                        f"a bare model ({_BARE_MODELS})")
    p.add_argument("--adapter", default="obs", metavar="NAME",
                   help="log format adapter: 'obs' (native JSONL traces) or "
                        "'jsonl' (one {\"action\": ...} object per line); "
                        "default: obs")
    p.add_argument("--stream", action="store_true",
                   help="incremental mode: print count-based progress to "
                        "stderr while the log is consumed")
    p.add_argument("--progress", type=int, default=100_000, metavar="N",
                   help="with --stream, report every N events "
                        "(default: 100000)")
    p.add_argument("--max-frontier", type=int, default=4096, metavar="N",
                   help="cap the tracked state set at N (TLC-style bounded "
                        "memory; lowest canonical ids kept on spill; "
                        "default: 4096)")
    p.add_argument("--explain", type=int, default=5, metavar="K",
                   help="list up to K near-miss transitions at a divergence "
                        "(default: 5)")
    p.add_argument("--ignore-unknown", action="store_true",
                   help="skip events with no spec binding instead of "
                        "diverging")

    trace_sub = sub.add_parser(
        "trace", help="work with recorded JSONL traces",
    ).add_subparsers(dest="trace_command", required=True)
    p = _verb(trace_sub, "summarize", _cmd_trace_summarize, ("format",),
              help="reconstruct per-case timelines from a trace")
    p.add_argument("file")
    p.add_argument("--cases", type=int, default=None, metavar="N",
                   help="show at most N case timelines")

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownName as exc:
        raise SystemExit(str(exc))
    except (ArtifactError, HangGuardTripped) as exc:
        # an unreadable artifact or a harness failure, never a verdict
        print(f"mocket {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
