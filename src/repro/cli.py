"""``mocket`` — the command-line front end.

Subcommands mirror the pipeline stages:

* ``mocket check MODEL``   — model-check a built-in model, optionally
  dumping the state-space graph as DOT (TLC's ``-dump dot``),
* ``mocket testgen MODEL`` — generate test cases (EC / EC+POR stats),
* ``mocket test TARGET``   — controlled testing of a system under test
  against its model, with optional seeded bugs and, via ``--faults`` /
  ``--fault-seed`` / ``--chaos``, seeded fault injection with triage
  (see docs/FAULTS.md),
* ``mocket faults``        — the nemesis front end: ``plan`` writes a
  seeded fault plan, ``run`` plans + executes, ``replay`` re-executes a
  saved plan, ``shrink`` minimizes a failing plan to a minimal repro,
  ``scenarios`` replays the bundled chaos scenarios (``--format json``
  for the stable v1 envelope),
* ``mocket fuzz TARGET``   — coverage-guided fuzzing of fault
  schedules: execute ``--budget N`` schedules, fingerprint the verified
  states/edges each run visits, keep coverage-novel schedules in the
  ``--corpus DIR``, and breed the next schedule from an energy-picked
  corpus entry (``--unguided`` for the feedback-free control arm,
  ``--format json`` for the stable v1 envelope; see docs/FUZZING.md),
* ``mocket soak TARGET``   — soak-scale workload on the deterministic
  simulation runtime: ``--ops N`` open-loop client operations over
  seeded simulation shards (virtual clock, one event loop per shard),
  optional seeded fault schedule (``--faults``), periodic triage
  snapshots and invariant monitoring; reports are byte-identical for
  any ``--workers`` and any ``PYTHONHASHSEED``, and a failing run
  replays exactly from ``(seed, schedule)`` (``--schedule-out`` /
  ``--schedule``; see docs/RUNTIME.md),
* ``mocket bugs``          — replay all nine Table 2 bug scenarios,
* ``mocket lint TARGET``   — static conformance analysis of a bundled
  system (spec + mapping + instrumented source) or bare spec; rule
  catalogue in docs/ANALYSIS.md (``--format sarif`` for GitHub code
  scanning),
* ``mocket analyze TARGET`` — static effect analysis of a target's
  spec: per-action read/write sets, purity violations and the
  statically-certified independence relation POR consumes
  (``--format json`` for the v1 envelope, ``--dot FILE`` for the
  action-dependency graph; see docs/ANALYSIS.md),
* ``mocket conform LOG --spec TARGET`` — validate an externally
  captured log (production, staging, foreign test rig) against the
  spec's verified state graph; reports the first divergent log line
  with a ranked near-miss explanation (``--format json`` for the
  stable v1 envelope, ``--stream`` for incremental progress; see
  docs/CONFORMANCE.md),
* ``mocket trace summarize FILE`` — reload a JSONL trace (streaming,
  bounded memory) and print the reconstructed per-case timelines
  (``--format json`` for the stable v1 envelope).

``check``, ``testgen`` and ``test`` all take ``--trace FILE`` (write a
JSONL trace of the run) and ``--metrics`` (print the metrics table at
the end); see docs/OBSERVABILITY.md.  ``check``, ``testgen``, ``test``
and ``conform`` take ``--checkpoint DIR`` / ``--resume`` (per-level
snapshots of the checker); ``test``, ``faults run|replay|shrink``,
``fuzz`` and ``soak`` take ``--workers N`` (processes running cases or
shards, nothing else); see docs/ENGINE.md.

Models: ``example``, ``xraft``, ``raftkv``, ``zab``.
Targets: ``toycache``, ``pyxraft``, ``raftkv``, ``minizk``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from .core import ControlledTester, RunnerConfig, generate_test_cases
from .obs import METRICS, TRACER, TraceReader
from .tlaplus import check, write_dot

__all__ = ["main"]

_RUNNER = RunnerConfig(match_timeout=1.0, done_timeout=1.0, quiesce_delay=0.05)


def _build_model(name: str):
    if name == "example":
        from .specs import build_example_spec

        return build_example_spec()
    if name == "xraft":
        from .specs.raft import RaftSpecOptions, build_raft_spec

        return build_raft_spec(RaftSpecOptions(
            max_term=1, max_client_requests=0, candidates=("n1",),
            name="xraft-model",
        ))
    if name == "raftkv":
        from .specs.raft import RaftSpecOptions, build_raft_spec

        return build_raft_spec(RaftSpecOptions(
            max_term=1, max_client_requests=0, candidates=("n1",),
            enable_drop=False, enable_duplicate=False, name="raftkv-model",
        ))
    if name == "zab":
        from .specs.zab import ZabSpecOptions, build_zab_spec

        return build_zab_spec(ZabSpecOptions(
            max_elections=1, max_crashes=0, max_restarts=0, starters=("n3",),
            name="zab-model",
        ))
    raise SystemExit(f"unknown model {name!r} (example|xraft|raftkv|zab)")


def _target_kit(name: str, bugs):
    """(spec, mapping, cluster factory) for a system under test."""
    bug_flags = set(bugs or ())

    def flags(prefix, known):
        selected = {}
        for flag in bug_flags:
            if flag not in known:
                raise SystemExit(
                    f"unknown bug {flag!r} for {name}; known: {sorted(known)}")
            selected[flag] = True
        return selected

    if name == "toycache":
        from .specs import build_example_spec
        from .systems.toycache import (
            ToyCacheConfig, build_toycache_mapping, make_toycache_cluster,
        )

        known = {"bug_wrong_max", "bug_forget_respond", "bug_double_respond"}
        config = ToyCacheConfig(**flags("toycache", known))
        spec = build_example_spec()
        return spec, build_toycache_mapping(), lambda: make_toycache_cluster(config)
    if name == "pyxraft":
        from .systems.pyxraft import (
            XraftConfig, build_xraft_mapping, make_xraft_cluster,
        )

        known = {"bug_duplicate_vote_count", "bug_votedfor_not_persisted",
                 "bug_stale_vote_grant"}
        config = XraftConfig(**flags("pyxraft", known))
        spec = _build_model("xraft")
        return (spec, build_xraft_mapping(spec, config),
                lambda: make_xraft_cluster(("n1", "n2", "n3"), config))
    if name == "raftkv":
        from .systems.raftkv import (
            RaftKvConfig, build_raftkv_mapping, make_raftkv_cluster,
        )

        known = {"bug_drop_higher_term_response", "bug_append_no_truncate"}
        config = RaftKvConfig(**flags("raftkv", known))
        spec = _build_model("raftkv")
        return (spec, build_raftkv_mapping(spec, config),
                lambda: make_raftkv_cluster(("n1", "n2", "n3"), config))
    if name == "minizk":
        from .systems.minizk import (
            MiniZkConfig, build_minizk_mapping, make_minizk_cluster,
        )

        known = {"bug_rebroadcast_on_worse_vote", "bug_epoch_mismatch_abort"}
        config = MiniZkConfig(**flags("minizk", known))
        spec = _build_model("zab")
        return (spec, build_minizk_mapping(spec, config),
                lambda: make_minizk_cluster(("n1", "n2", "n3"), config))
    raise SystemExit(f"unknown target {name!r} (toycache|pyxraft|raftkv|minizk)")


def _spec_independence(spec):
    """Static POR certificates for ``spec``; None when unavailable.

    The effect analyzer is conservative — an unanalyzable spec yields
    an empty relation, and any failure degrades to the legacy dynamic
    diamond search rather than aborting the command.
    """
    try:
        from .analysis.effects import analyze_spec

        return analyze_spec(spec).independence()
    except Exception:
        return None


def _obs_begin(args) -> bool:
    """Arm tracing/metrics for a command run; returns whether armed."""
    wanted = bool(getattr(args, "trace", None) or getattr(args, "metrics", False))
    if wanted:
        TRACER.reset()
        METRICS.reset()
        TRACER.configure(enabled=True, sink=getattr(args, "trace", None))
    return wanted


def _obs_end(args) -> None:
    """Tear down tracing, print the metrics table / trace location."""
    TRACER.disable()
    if getattr(args, "metrics", False):
        print("-- metrics " + "-" * 48)
        print(METRICS.render())
    if getattr(args, "trace", None):
        print(f"trace written to {args.trace} "
              f"({TRACER.emitted} records, {TRACER.dropped} dropped "
              f"from the ring buffer)")


def _with_obs(args, command) -> int:
    if not _obs_begin(args):
        return command()
    try:
        return command()
    finally:
        _obs_end(args)


def _check_kwargs(args) -> dict:
    """The --checkpoint/--resume flags, as check() keywords."""
    return dict(checkpoint=args.checkpoint, resume=args.resume)


def _cmd_check(args) -> int:
    def command() -> int:
        spec = _build_model(args.model)
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
        spec = _build_model(args.model)
        graph = check(spec, max_states=args.max_states, truncate=True,
                      **_check_kwargs(args)).graph
        suite_ec = generate_test_cases(graph, por=False)
        suite_por = generate_test_cases(graph, por=True, seed=args.seed,
                                        independence=_spec_independence(spec))
        print(f"model: {graph.num_states} states, {graph.num_edges} edges")
        print(f"PathEC:     {len(suite_ec)} cases, "
              f"{suite_ec.total_actions()} actions")
        print(f"PathEC+POR: {len(suite_por)} cases, "
              f"{suite_por.total_actions()} actions "
              f"({suite_por.excluded_edges} edges dropped)")
        if args.show:
            for case in list(suite_por)[: args.show]:
                print(f"  #{case.case_id}: {case.describe()}")
        if args.out:
            suite_por.save(args.out)
            print(f"EC+POR suite written to {args.out}")
        return 0

    return _with_obs(args, command)


def _load_or_generate_suite(args, graph, spec=None):
    if getattr(args, "suite", None):
        from .core.testgen import TestSuite

        return TestSuite.load(args.suite)
    independence = _spec_independence(spec) if spec is not None else None
    return generate_test_cases(graph, por=not args.no_por, seed=args.seed,
                               independence=independence)


def _cmd_test(args) -> int:
    target = args.target or args.system
    if target is None:
        raise SystemExit("test: name a target (positional or --system)")
    want_faults = args.faults or args.chaos

    def command() -> int:
        spec, mapping, cluster_factory = _target_kit(target, args.bug)
        graph = check(spec, max_states=args.max_states, truncate=True,
                      **_check_kwargs(args)).graph
        if want_faults:
            # fault planning consumes graph *ordering* (edge indices,
            # rng-driven edge picks); renumber into the content-only
            # canonical form first, so plans are exchangeable with
            # `mocket faults` and survive a resumed or reloaded graph
            from .engine import canonicalize

            graph = canonicalize(graph)
        suite = _load_or_generate_suite(args, graph, spec)
        plan = None
        base_suite = suite
        max_cases = args.cases
        if want_faults:
            from .faults import FaultRunner, apply_plan, plan_faults

            # cap the base suite *before* planning, so the appended
            # derived fault cases run even under --cases
            suite = suite.truncated(max_cases)
            base_suite = suite
            max_cases = None
            node_ids = cluster_factory().node_ids
            plan = plan_faults(graph, suite, mapping, str(args.fault_seed),
                               node_ids, chaos=args.chaos, target=target,
                               max_faults_per_case=args.max_faults)
            suite = apply_plan(suite, graph, plan)
            tester = FaultRunner(mapping, graph, cluster_factory, plan,
                                 _RUNNER)
            print(f"fault plan: {plan.summary()}")
        else:
            tester = ControlledTester(mapping, graph, cluster_factory, _RUNNER)
        print(f"running up to {max_cases or len(suite)} of {len(suite)} cases "
              f"against {target} "
              f"({'buggy: ' + ','.join(args.bug) if args.bug else 'correct'})")
        started = time.monotonic()
        outcome = tester.run_suite(suite, stop_on_divergence=args.stop_on_bug,
                                   max_cases=max_cases, workers=args.workers)
        elapsed = time.monotonic() - started
        print(f"{outcome.summary()} ({elapsed:.1f}s wall clock)")
        if plan is not None:
            from .faults import render_triage, triage

            payload = triage(outcome, plan)
            print(render_triage(payload))
            if payload["unattributed"] and args.shrink_on_failure:
                _shrink_and_report(plan, graph, base_suite, mapping,
                                   cluster_factory, args)
            return 0 if payload["unattributed"] == 0 else 1
        for failing in outcome.failures[:5]:
            print(f"  case #{failing.case.case_id}: "
                  f"{failing.divergence.headline()}")
            print(f"    schedule: {failing.case.describe()[:160]}")
        return 0 if outcome.passed else 1

    return _with_obs(args, command)


def _shrink_and_report(plan, graph, suite, mapping, cluster_factory,
                       args) -> int:
    """Run :func:`shrink_plan` on a failing plan and print/save results.

    ``suite`` must be the *base* suite (before ``apply_plan``); the
    shrinker re-derives fault cases for every candidate sub-plan.
    """
    from .faults import shrink_plan

    try:
        result = shrink_plan(
            plan, graph, suite, mapping, cluster_factory, _RUNNER,
            budget=getattr(args, "budget", 200) or 200,
            workers=getattr(args, "workers", 1) or 1)
    except ValueError as exc:
        raise SystemExit(f"shrink: {exc}")
    print(f"shrink: {result.summary()}")
    out = getattr(args, "out", None)
    if out:
        result.minimal.save(out)
        print(f"minimal plan written to {out}")
    else:
        print(result.minimal.to_json(), end="")
    log = getattr(args, "log", None)
    if log:
        result.write_log(log)
        print(f"shrink log written to {log} "
              f"({len(result.log)} records; readable by 'trace summarize')")
    return 0


def _cmd_faults(args) -> int:
    from .faults import (
        FaultPlan, FaultRunner, apply_plan, plan_faults, render_triage, triage,
    )

    def build_kit():
        from .engine import canonicalize

        spec, mapping, cluster_factory = _target_kit(args.target, args.bug)
        # canonical renumbering, as in `mocket test --faults`: plans are
        # exchangeable between the two verbs and independent of how the
        # graph was explored
        graph = canonicalize(
            check(spec, max_states=args.max_states, truncate=True).graph)
        suite = _load_or_generate_suite(args, graph, spec)
        return mapping, cluster_factory, graph, suite

    if args.faults_command == "plan":
        mapping, cluster_factory, graph, suite = build_kit()
        plan = plan_faults(graph, suite, mapping, str(args.fault_seed),
                           cluster_factory().node_ids, chaos=args.chaos,
                           target=args.target,
                           max_faults_per_case=args.max_faults)
        print(f"fault plan: {plan.summary()}")
        if args.out:
            plan.save(args.out)
            print(f"fault plan written to {args.out}")
        else:
            print(plan.to_json(), end="")
        return 0

    if args.faults_command in ("run", "replay"):
        def command() -> int:
            mapping, cluster_factory, graph, suite = build_kit()
            max_cases = args.cases
            if args.faults_command == "replay":
                plan = FaultPlan.load(args.plan)
            else:
                suite = suite.truncated(max_cases)
                max_cases = None
                plan = plan_faults(graph, suite, mapping,
                                   str(args.fault_seed),
                                   cluster_factory().node_ids,
                                   chaos=args.chaos, target=args.target,
                                   max_faults_per_case=args.max_faults)
            base_suite = suite
            suite = apply_plan(suite, graph, plan)
            print(f"fault plan: {plan.summary()}")
            tester = FaultRunner(mapping, graph, cluster_factory, plan,
                                 _RUNNER)
            outcome = tester.run_suite(suite, max_cases=max_cases,
                                       workers=args.workers)
            print(outcome.summary())
            payload = triage(outcome, plan, graph=graph)
            print(render_triage(payload))
            if (payload["unattributed"]
                    and getattr(args, "shrink_on_failure", False)):
                _shrink_and_report(plan, graph, base_suite, mapping,
                                   cluster_factory, args)
            return 0 if payload["unattributed"] == 0 else 1

        return _with_obs(args, command)

    if args.faults_command == "shrink":
        def command() -> int:
            mapping, cluster_factory, graph, suite = build_kit()
            plan = FaultPlan.load(args.plan)
            suite = suite.truncated(args.cases)
            print(f"shrinking: {plan.summary()}")
            return _shrink_and_report(plan, graph, suite, mapping,
                                      cluster_factory, args)

        return _with_obs(args, command)

    if args.faults_command == "scenarios":
        from .faults import all_chaos_scenarios

        rows = []
        for build in all_chaos_scenarios():
            scenario = build()
            if scenario.target == "pyxraft":
                from .systems.pyxraft import (
                    XraftConfig, build_xraft_mapping, make_xraft_cluster,
                )

                config = XraftConfig()
                mapping = build_xraft_mapping(scenario.spec, config)
                factory = (lambda servers=scenario.servers, cfg=config:
                           make_xraft_cluster(servers, cfg))
            elif scenario.target == "minizk":
                from .systems.minizk import (
                    MiniZkConfig, build_minizk_mapping, make_minizk_cluster,
                )

                config = MiniZkConfig()
                mapping = build_minizk_mapping(scenario.spec, config)
                factory = (lambda servers=scenario.servers, cfg=config:
                           make_minizk_cluster(servers, cfg))
            else:
                from .systems.raftkv import (
                    RaftKvConfig, build_raftkv_mapping, make_raftkv_cluster,
                )

                config = RaftKvConfig()
                mapping = build_raftkv_mapping(scenario.spec, config)
                factory = (lambda servers=scenario.servers, cfg=config:
                           make_raftkv_cluster(servers, cfg))
            tester = FaultRunner(mapping, scenario.graph, factory,
                                 scenario.plan, _RUNNER)
            result = tester.run_case(scenario.case)
            outcome = ("pass" if result.passed
                       else result.divergence.kind.value)
            detail = ("all clear" if result.passed
                      else result.divergence.headline())
            rows.append({
                "name": scenario.name,
                "target": scenario.target,
                "expected": scenario.expected_kind,
                "outcome": outcome,
                "ok": outcome == scenario.expected_kind,
                "detail": detail,
            })
        failed = sum(1 for row in rows if not row["ok"])
        if getattr(args, "format", "text") == "json":
            # stable v1 envelope, like `mocket lint --format json`
            import json

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

    raise SystemExit(f"unknown faults subcommand {args.faults_command!r}")


def _cmd_fuzz(args) -> int:
    from .engine import canonicalize
    from .faults import FaultPlan
    from .fuzz import (
        FuzzError, fuzz_campaign, render_fuzz_json, render_fuzz_text,
    )

    def command() -> int:
        spec, mapping, cluster_factory = _target_kit(args.target, args.bug)
        # canonical renumbering, as everywhere plans travel: corpora are
        # exchangeable and independent of how the graph was explored
        graph = canonicalize(
            check(spec, max_states=args.max_states, truncate=True).graph)
        suite = _load_or_generate_suite(args, graph, spec)
        suite = suite.truncated(args.cases)
        try:
            seed_plans = [FaultPlan.load(path) for path in args.seed_plan]
        except FileNotFoundError as exc:
            print(f"fuzz: no such seed plan: {exc.filename}",
                  file=sys.stderr)
            return 2
        try:
            result = fuzz_campaign(
                graph, suite, mapping, cluster_factory,
                cluster_factory().node_ids,
                budget=args.budget, fuzz_seed=str(args.fuzz_seed),
                corpus_dir=args.corpus, target=args.target,
                chaos=args.chaos, max_faults=args.max_faults,
                workers=args.workers, guided=not args.unguided,
                seed_plans=seed_plans, runner_config=_RUNNER)
        except FuzzError as exc:
            print(f"fuzz: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            print(render_fuzz_json(result))
        else:
            arm = "guided" if result.guided else "unguided"
            print(f"fuzzing {args.target} ({arm}): budget {args.budget}, "
                  f"fuzz seed '{result.corpus.meta['fuzz_seed']}', "
                  f"{len(suite)} base case(s)")
            print(render_fuzz_text(result))
        return 1 if result.bugs else 0

    return _with_obs(args, command)


def _cmd_soak(args) -> int:
    import json

    from .soak import SoakConfig, build_report, render_text, run_soak
    from .soak.nemesis import SCHEDULE_FORMAT

    def command() -> int:
        schedule = None
        if args.schedule:
            try:
                with open(args.schedule, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, ValueError) as exc:
                print(f"soak: cannot read schedule {args.schedule}: {exc}",
                      file=sys.stderr)
                return 2
            if doc.get("format") != SCHEDULE_FORMAT:
                print(f"soak: {args.schedule} is not a "
                      f"{SCHEDULE_FORMAT} file", file=sys.stderr)
                return 2
            schedule = doc["events"]
            schedule_faults = bool(doc.get("faults", any(schedule)))
        try:
            config = SoakConfig(
                target=args.target,
                ops=args.ops,
                seed=str(args.soak_seed),
                shards=len(schedule) if schedule is not None else args.shards,
                workers=args.workers,
                rate=args.rate,
                faults=schedule_faults if schedule is not None
                else args.faults,
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
            doc = {"format": SCHEDULE_FORMAT, "seed": config.seed,
                   "shards": config.shards, "faults": config.faults,
                   "events": [s["fault_schedule"] for s in shard_reports]}
            with open(args.schedule_out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
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
        try:
            result = lint_target(name)
        except ValueError as exc:
            raise SystemExit(str(exc))
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

    try:
        context = targets.resolve(args.target)
    except ValueError as exc:
        raise SystemExit(str(exc))
    effects = analyze_spec(context.spec)
    print(render_effects_json(effects) if args.format == "json"
          else render_effects_text(effects))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(render_effects_dot(effects))
        print(f"action-dependency graph written to {args.dot}")
    return 0


def _cmd_trace(args) -> int:
    if args.trace_command == "summarize":
        reader = TraceReader.from_file(args.file)
        if getattr(args, "format", "text") == "json":
            import json

            print(json.dumps(reader.summary_dict(max_cases=args.cases),
                             indent=2, sort_keys=True))
        else:
            print(reader.summarize(max_cases=args.cases))
        return 0
    raise SystemExit(f"unknown trace subcommand {args.trace_command!r}")


#: conform targets: systems resolve spec + event bindings, models are bare
_CONFORM_SYSTEMS = ("toycache", "pyxraft", "raftkv", "minizk")
_CONFORM_SPECS = ("example", "xraft", "zab")


def _conform_kit(name: str):
    """(spec, mapping-or-None) for a conform target.

    System targets carry a mapping whose event bindings translate log
    events into spec actions; bare models assume events name actions
    directly.  ``raftkv`` names both a system and a model — the system
    (with its bindings) wins, as in ``mocket test``.
    """
    if name in _CONFORM_SYSTEMS:
        spec, mapping, _factory = _target_kit(name, None)
        return spec, mapping
    if name in _CONFORM_SPECS:
        return _build_model(name), None
    known = "|".join(_CONFORM_SYSTEMS + _CONFORM_SPECS)
    raise SystemExit(f"unknown conform target {name!r} ({known})")


def _cmd_conform(args) -> int:
    from .conform import ConformanceMonitor, ConformanceOptions, get_adapter

    def command() -> int:
        spec, mapping = _conform_kit(args.spec)
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
        try:
            if args.stream:
                # incremental mode: deterministic count-based progress
                # (never timing-based — output stays byte-identical)
                for event in adapter.read(source):
                    monitor.feed(event)
                    if args.progress and monitor.events % args.progress == 0:
                        print(f"... {monitor.events} events, frontier "
                              f"{len(monitor.frontier)}", file=sys.stderr)
                report = monitor.finish(log=label, adapter=args.adapter)
            else:
                report = monitor.run(adapter.read(source), log=label,
                                     adapter=args.adapter)
        except FileNotFoundError:
            print(f"conform: no such log: {args.log}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"conform: {exc}", file=sys.stderr)
            return 2
        print(report.to_json() if args.format == "json"
              else report.render_text())
        return 0 if report.ok else 1

    return _with_obs(args, command)


def _cmd_bugs(args) -> int:
    from .systems.minizk import MiniZkConfig, build_minizk_mapping, make_minizk_cluster
    from .systems.minizk.scenarios import zk_bug_1419, zk_bug_1653
    from .systems.pyxraft import build_xraft_mapping, make_xraft_cluster
    from .systems.pyxraft.scenarios import xraft_bug1, xraft_bug2, xraft_bug3
    from .systems.raftkv import build_raftkv_mapping, make_raftkv_cluster
    from .systems.raftkv.scenarios import (
        raft_spec_bug_missing_reply, raft_spec_bug_update_term,
        raftkv_bug1, raftkv_bug2,
    )

    kits = {
        "xraft": (build_xraft_mapping, make_xraft_cluster),
        "raftkv": (build_raftkv_mapping, make_raftkv_cluster),
        "minizk": (build_minizk_mapping, make_minizk_cluster),
    }
    scenarios = [
        (xraft_bug1, "xraft"), (xraft_bug2, "xraft"), (xraft_bug3, "xraft"),
        (raftkv_bug1, "raftkv"), (raftkv_bug2, "raftkv"),
        (zk_bug_1419, "minizk"), (zk_bug_1653, "minizk"),
        (raft_spec_bug_missing_reply, "raftkv"),
        (raft_spec_bug_update_term, "raftkv"),
    ]
    failures = 0
    for build, kit in scenarios:
        scenario = build()
        build_mapping, make_cluster = kits[kit]
        tester = ControlledTester(
            build_mapping(scenario.spec, scenario.buggy_config), scenario.graph,
            lambda: make_cluster(scenario.servers, scenario.buggy_config),
            _RUNNER,
        )
        result = tester.run_case(scenario.case)
        if result.passed:
            print(f"{scenario.name}: NOT DETECTED (unexpected)")
            failures += 1
        else:
            print(f"{scenario.name}: {result.divergence.headline()} "
                  f"({len(scenario.case)} actions)")
    return 1 if failures else 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mocket",
        description="Model checking guided testing for distributed systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(p) -> None:
        p.add_argument("--trace", metavar="FILE",
                       help="write a JSONL trace of the run to FILE")
        p.add_argument("--metrics", action="store_true",
                       help="print the metrics table after the run")

    def add_fault_seed_flags(p) -> None:
        p.add_argument("--fault-seed", default="0", metavar="SEED",
                       help="nemesis seed: same seed => byte-identical "
                            "fault plan and identical reports (default: 0)")
        p.add_argument("--chaos", action="store_true",
                       help="also inject disruptive spec-unmodeled faults "
                            "(bounce/crash/corrupt) with convergence-mode "
                            "checking")
        p.add_argument("--max-faults", type=int, default=1, metavar="K",
                       help="schedule up to K faults per case (default: 1; "
                            "K>1 widens the vocabulary to link cuts, "
                            "partial partitions, delays and corruption)")

    def add_shrink_flag(p) -> None:
        p.add_argument("--shrink-on-failure", action="store_true",
                       help="after an unattributed failure, shrink the "
                            "plan to a minimal repro (docs/FAULTS.md)")

    def add_fault_flags(p) -> None:
        p.add_argument("--faults", action="store_true",
                       help="inject modeled + transparent chaos faults "
                            "while testing (docs/FAULTS.md)")
        add_fault_seed_flags(p)
        add_shrink_flag(p)

    def add_workers_flag(p) -> None:
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="run cases in N parallel worker processes "
                            "(default: 1, the serial path)")

    def add_checkpoint_flags(p) -> None:
        p.add_argument("--checkpoint", metavar="DIR",
                       help="snapshot checking progress to DIR after "
                            "every BFS level")
        p.add_argument("--resume", action="store_true",
                       help="continue checking from the latest snapshot "
                            "in --checkpoint DIR")

    p_check = sub.add_parser("check", help="model-check a built-in model")
    p_check.add_argument("model")
    p_check.add_argument("--max-states", type=int, default=100_000)
    p_check.add_argument("--dot", help="dump the state-space graph to this file")
    add_checkpoint_flags(p_check)
    add_obs_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("testgen", help="generate test cases from a model")
    p_gen.add_argument("model")
    p_gen.add_argument("--max-states", type=int, default=100_000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--show", type=int, default=0,
                       help="print the first N generated cases")
    p_gen.add_argument("--out", help="save the EC+POR suite to a JSON file")
    add_checkpoint_flags(p_gen)
    add_obs_flags(p_gen)
    p_gen.set_defaults(func=_cmd_testgen)

    p_test = sub.add_parser("test", help="controlled testing of a target")
    p_test.add_argument("target", nargs="?", default=None)
    p_test.add_argument("--system", default=None,
                        help="the target system (alias for the positional)")
    p_test.add_argument("--bug", action="append", default=[],
                        help="seed a bug flag (repeatable)")
    p_test.add_argument("--cases", type=int, default=None)
    p_test.add_argument("--max-states", type=int, default=100_000)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--no-por", action="store_true")
    p_test.add_argument("--suite", help="run a suite saved by 'testgen --out'")
    p_test.add_argument("--stop-on-bug", action="store_true")
    add_fault_flags(p_test)
    add_workers_flag(p_test)
    add_checkpoint_flags(p_test)
    add_obs_flags(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_faults = sub.add_parser(
        "faults", help="seeded fault injection (see docs/FAULTS.md)")
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)

    def add_faults_common(p) -> None:
        p.add_argument("target",
                       help="a system under test (toycache|pyxraft|raftkv|minizk)")
        p.add_argument("--bug", action="append", default=[],
                       help="seed a bug flag (repeatable)")
        p.add_argument("--max-states", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0,
                       help="test-generation seed (POR tie-breaking)")
        p.add_argument("--no-por", action="store_true")
        p.add_argument("--suite", help="use a suite saved by 'testgen --out'")

    p_fplan = faults_sub.add_parser(
        "plan", help="derive a seeded fault plan from the state graph")
    add_faults_common(p_fplan)
    add_fault_seed_flags(p_fplan)
    p_fplan.add_argument("--out", help="write the plan JSON to this file")
    p_fplan.set_defaults(func=_cmd_faults)

    p_frun = faults_sub.add_parser(
        "run", help="plan + execute fault injection, then triage")
    add_faults_common(p_frun)
    add_fault_seed_flags(p_frun)
    add_shrink_flag(p_frun)
    p_frun.add_argument("--cases", type=int, default=None)
    add_workers_flag(p_frun)
    add_obs_flags(p_frun)
    p_frun.set_defaults(func=_cmd_faults)

    p_freplay = faults_sub.add_parser(
        "replay", help="re-execute a saved fault plan bit-identically")
    add_faults_common(p_freplay)
    p_freplay.add_argument("--plan", required=True,
                           help="a plan written by 'faults plan --out'")
    p_freplay.add_argument("--cases", type=int, default=None)
    add_workers_flag(p_freplay)
    add_obs_flags(p_freplay)
    p_freplay.set_defaults(func=_cmd_faults)

    p_fshrink = faults_sub.add_parser(
        "shrink", help="minimize a failing fault plan to a minimal repro")
    add_faults_common(p_fshrink)
    p_fshrink.add_argument("--plan", required=True,
                           help="a failing plan written by 'faults plan --out'")
    p_fshrink.add_argument("--cases", type=int, default=None,
                           help="truncate the base suite as the failing "
                                "run did")
    p_fshrink.add_argument("--budget", type=int, default=200, metavar="N",
                           help="replay budget for the shrink search "
                                "(default: 200)")
    p_fshrink.add_argument("--out", help="write the minimal plan JSON here")
    p_fshrink.add_argument("--log", metavar="FILE",
                           help="write the JSONL shrink log to FILE "
                                "(readable by 'mocket trace summarize')")
    add_workers_flag(p_fshrink)
    add_obs_flags(p_fshrink)
    p_fshrink.set_defaults(func=_cmd_faults)

    p_fscen = faults_sub.add_parser(
        "scenarios", help="replay the bundled chaos scenarios")
    p_fscen.add_argument("--format", choices=("text", "json"), default="text",
                         help="json prints the stable v1 envelope")
    p_fscen.set_defaults(func=_cmd_faults, faults_command="scenarios")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided fuzzing of fault schedules "
             "(see docs/FUZZING.md)")
    add_faults_common(p_fuzz)
    p_fuzz.add_argument("--budget", type=int, default=20, metavar="N",
                        help="execute N schedules this invocation "
                             "(default: 20); re-running with --corpus "
                             "resumes the same deterministic stream")
    p_fuzz.add_argument("--corpus", metavar="DIR",
                        help="keep coverage-novel schedules in DIR "
                             "(created if missing; omitted = in-memory)")
    p_fuzz.add_argument("--fuzz-seed", default="0", metavar="SEED",
                        help="campaign seed: same seed => byte-identical "
                             "corpus, independent of --workers and "
                             "PYTHONHASHSEED (default: 0)")
    p_fuzz.add_argument("--cases", type=int, default=None,
                        help="truncate the base suite to N cases")
    p_fuzz.add_argument("--chaos", action="store_true",
                        help="let mutations also inject disruptive "
                             "spec-unmodeled faults (bounce/crash/corrupt)")
    p_fuzz.add_argument("--max-faults", type=int, default=1, metavar="K",
                        help="k-budget per case for mutated schedules "
                             "(default: 1)")
    p_fuzz.add_argument("--seed-plan", action="append", default=[],
                        metavar="FILE",
                        help="import a plan written by 'faults plan --out' "
                             "as a corpus seed (repeatable)")
    p_fuzz.add_argument("--unguided", action="store_true",
                        help="control arm: same budget, plain seeded "
                             "planner stream, no coverage feedback")
    p_fuzz.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="json prints the stable v1 envelope")
    add_workers_flag(p_fuzz)
    add_obs_flags(p_fuzz)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_soak = sub.add_parser(
        "soak",
        help="soak-scale workload on the deterministic simulation "
             "runtime (see docs/RUNTIME.md)")
    p_soak.add_argument("target", help="system to soak (raftkv)")
    p_soak.add_argument("--ops", type=int, default=100_000, metavar="N",
                        help="total open-loop client operations across "
                             "all shards (default: 100000)")
    p_soak.add_argument("--soak-seed", default="0", metavar="SEED",
                        help="run seed: same (seed, schedule) => "
                             "byte-identical report, independent of "
                             "--workers and PYTHONHASHSEED (default: 0)")
    p_soak.add_argument("--shards", type=int, default=4, metavar="N",
                        help="fixed number of independent simulation "
                             "shards; part of the run's identity, unlike "
                             "--workers (default: 4)")
    p_soak.add_argument("--workers", type=int, default=1, metavar="N",
                        help="OS processes executing shards concurrently; "
                             "never changes a byte of output (default: 1)")
    p_soak.add_argument("--rate", type=float, default=200.0, metavar="OPS",
                        help="open-loop client rate per shard, in "
                             "simulated ops/second (default: 200)")
    p_soak.add_argument("--faults", action="store_true",
                        help="derive and inject a seeded virtual-time "
                             "fault schedule (partitions, crashes, link "
                             "delays)")
    p_soak.add_argument("--bug", choices=("bug_skip_apply",), default=None,
                        help="enable a seeded soak bug in the simulated "
                             "system under test")
    p_soak.add_argument("--snapshot-every", type=float, default=25.0,
                        metavar="SIMSECS",
                        help="triage snapshot cadence in simulated "
                             "seconds (default: 25)")
    p_soak.add_argument("--schedule", metavar="FILE",
                        help="replay a saved fault schedule verbatim "
                             "instead of deriving one from the seed")
    p_soak.add_argument("--schedule-out", metavar="FILE",
                        help="write this run's fault schedule for exact "
                             "replay")
    p_soak.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="json prints the canonical v1 soak report")
    add_obs_flags(p_soak)
    p_soak.set_defaults(func=_cmd_soak)

    p_bugs = sub.add_parser("bugs", help="replay all Table 2 bug scenarios")
    p_bugs.set_defaults(func=_cmd_bugs)

    p_lint = sub.add_parser(
        "lint", help="static conformance analysis of a bundled target")
    p_lint.add_argument(
        "target",
        help="a system (toycache|pyxraft|raftkv|minizk), a bare spec "
             "(example|xraft|zab), or 'all'")
    p_lint.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="sarif prints one aggregated SARIF 2.1.0 "
                             "document for GitHub code scanning")
    p_lint.add_argument(
        "--fail-on", choices=("error", "warning", "none"), default="error",
        help="exit 1 when unsuppressed findings at/above this severity "
             "exist (default: error)")
    p_lint.set_defaults(func=_cmd_lint)

    p_analyze = sub.add_parser(
        "analyze",
        help="static effect analysis of a target's spec actions")
    p_analyze.add_argument(
        "target",
        help="a system (toycache|pyxraft|raftkv|minizk) or a bare spec "
             "(example|xraft|zab)")
    p_analyze.add_argument("--format", choices=("text", "json"),
                           default="text",
                           help="json prints the stable v1 envelope")
    p_analyze.add_argument("--dot", metavar="FILE",
                           help="write the action-dependency graph (DOT) "
                                "to FILE")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_conform = sub.add_parser(
        "conform",
        help="validate a captured log against the spec's state graph")
    p_conform.add_argument("log",
                           help="the log file to validate ('-' reads stdin)")
    p_conform.add_argument(
        "--spec", required=True, metavar="TARGET",
        help="a system (toycache|pyxraft|raftkv|minizk: spec + event "
             "bindings) or a bare model (example|xraft|zab)")
    p_conform.add_argument(
        "--adapter", default="obs", metavar="NAME",
        help="log format adapter: 'obs' (native JSONL traces) or 'jsonl' "
             "(one {\"action\": ...} object per line); default: obs")
    p_conform.add_argument("--format", choices=("text", "json"),
                           default="text",
                           help="json prints the stable v1 envelope")
    p_conform.add_argument(
        "--stream", action="store_true",
        help="incremental mode: print count-based progress to stderr "
             "while the log is consumed")
    p_conform.add_argument(
        "--progress", type=int, default=100_000, metavar="N",
        help="with --stream, report every N events (default: 100000)")
    p_conform.add_argument(
        "--max-frontier", type=int, default=4096, metavar="N",
        help="cap the tracked state set at N (TLC-style bounded memory; "
             "lowest canonical ids kept on spill; default: 4096)")
    p_conform.add_argument(
        "--explain", type=int, default=5, metavar="K",
        help="list up to K near-miss transitions at a divergence "
             "(default: 5)")
    p_conform.add_argument(
        "--ignore-unknown", action="store_true",
        help="skip events with no spec binding instead of diverging")
    p_conform.add_argument("--max-states", type=int, default=100_000)
    add_checkpoint_flags(p_conform)
    add_obs_flags(p_conform)
    p_conform.set_defaults(func=_cmd_conform)

    p_trace = sub.add_parser("trace", help="work with recorded JSONL traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_sum = trace_sub.add_parser(
        "summarize", help="reconstruct per-case timelines from a trace")
    p_sum.add_argument("file")
    p_sum.add_argument("--cases", type=int, default=None,
                       help="show at most N case timelines")
    p_sum.add_argument("--format", choices=("text", "json"), default="text",
                       help="json prints the stable v1 summary envelope")
    p_sum.set_defaults(func=_cmd_trace)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
