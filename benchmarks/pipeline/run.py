"""The repo's benchmark: one pipeline, four workloads (ISSUE 11).

Two ways to run it, both from the root of a checkout::

    python3 benchmarks/pipeline/run.py                 # every workload
    python3 benchmarks/pipeline/run.py --workload explore-ladder \\
        --seed 3 --seconds 30 --trace 0                # one, in this process

Without ``--workload`` each workload runs in its own fresh subprocess,
one after another, so imports, peak RSS and in-process caches are cold;
``--traced`` adds a traced run of each, ``--sets N`` repeats everything
N times and compares the sets against the bounds in BENCHMARK.json.

With ``--workload`` the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a ``detail`` record: the shared
header, the round walls, the exact counts and the percentile sample
counts.  Every metric is also printed by name and unit.

The exit code is non-zero when a known-answer verdict fails, or when an
exact count differs between two sets.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()     # set-up time is counted from here

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"           # logs and traces; named in .gitignore
sys.path.insert(0, str(ROOT / "src"))


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def print_metrics(metrics: Dict[str, Dict[str, Any]],
                  sample_counts: Dict[str, int]) -> None:
    for name, metric in metrics.items():
        samples = (f"   (n={sample_counts[name]} samples)"
                   if name in sample_counts else "")
        print(f"metric {name} = {metric['value']:.10g} {metric['unit']}{samples}")


def import_seconds(samples: int) -> List[float]:
    """Fresh interpreters importing what a workload imports.  Imports
    are most of a small set-up and are paid once per process, so they
    are sampled per process: this one and ``samples`` more."""
    probe = ("import sys, time; start = time.monotonic(); "
             f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
             "import workloads; print(time.monotonic() - start)")
    return [float(subprocess.run([sys.executable, "-c", probe], check=True,
                                 stdout=subprocess.PIPE, text=True).stdout)
            for _ in range(samples)]


# -- one workload, in this process ---------------------------------------------
def run_workload(args, contract: Dict[str, Any]) -> int:
    import harness
    import workloads

    import_s = min([time.monotonic() - _STARTED]
                   + import_seconds(0 if args.smoke else 3))
    traced = args.trace == 1
    mode = "smoke" if args.smoke else "full"
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, mode, workdir)
        setups = []
        for _ in range(workload.setup_repeats):
            context, seconds = workloads.timed(workload.setup)
            setups.append(seconds)
        setup_s = import_s + min(setups)     # fastest, as for the stages
        harness.log(f"{workload.name}: set up in {setup_s:.2f} s "
                    f"(imports {import_s:.2f} s), measuring for "
                    f"{args.seconds:g} s")
        kind = "traced" if traced else "plain"
        recorder = harness.Recorder(f"{workload.name}-seed{args.seed}-{kind}")
        harness.run_rounds(workload, context, recorder, args.seconds, traced)
        if traced:
            recorder.begin_round(traced=True, phase="probe")
            workload.probes(context, recorder)
            recorder.end_round()
            values = layer_values(workload, context, recorder, contract)
            spans = write_spans(recorder, args.trace_out)
            harness.log(f"{workload.name}: {len(recorder.spans)} spans "
                        f"written to {spans}")
        else:
            values = {
                "setup_s": setup_s,
                "wall_s": recorder.best_round("wall"),
                "cpu_s": recorder.best_round("cpu"),
                "peak_rss_mb": harness.peak_rss_mb(),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = contract["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    head = harness.header(workload.name, args.seed, mode, recorder.models)
    print(f"# {workload.name}: seed {args.seed}, {mode} sizes, commit "
          f"{head['commit']}, nproc {head['nproc']}, python "
          f"{head['python']}, {head['platform']}")
    why = next(w["why"] for w in contract["workloads"]
               if w["name"] == workload.name)
    print(f"# why: {why}")
    print(f"# load: {workload.load}")
    for model, (states, edges) in recorder.models.items():
        print(f"# model {model}: {states} states / {edges} edges")
    walls = [round(r["wall"], 4) for r in recorder.rounds]
    print(f"# rounds: {len(walls)}, walls {walls} s "
          f"(traced: {[r['index'] for r in recorder.rounds if r['traced']]})")
    print_metrics(metrics, recorder.sample_counts)
    for name, value in recorder.exact.items():
        print(f"exact {name} = {value}")
    for failure in recorder.failures:
        print(f"FAILED {failure}")
    failed = len(recorder.failures)
    print(json.dumps({"detail": {
        **head, "why": why, "load": workload.load, "trace": args.trace,
        "setup_s": setup_s, "round_walls_s": walls,
        "round_cpus_s": [round(r["cpu"], 4) for r in recorder.rounds],
        "exact": recorder.exact,
        "sample_counts": recorder.sample_counts,
        "failures": recorder.failures}}, sort_keys=True))
    print(json.dumps({"correct": failed == 0,
                      "attempted": recorder.attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


def layer_values(workload, context, recorder, contract) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json: what this workload's
    layers measured, and 0 for the layers it does not run."""
    measured = workload.layer_metrics(context, recorder)
    measured.update({
        "obs.traced_overhead_pct": recorder.traced_overhead_pct(),
        "obs.records": recorder.obs_records,
        "obs.dropped": recorder.obs_dropped,
        "harness.span_coverage": recorder.span_coverage(),
        "harness.rounds": len(recorder.rounds),
    })
    names = {metric["name"] for metric in contract["per_layer"]}
    unknown = sorted(set(measured) - names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {name: float(measured.get(name, 0.0)) for name in names}


def write_spans(recorder, trace_out: Optional[str]) -> str:
    """Spans are kept in memory and written when the run ends."""
    directory = Path(trace_out) if trace_out else WORK / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{recorder.run_id}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span in recorder.spans:
            handle.write(json.dumps(span, sort_keys=True, default=repr) + "\n")
    return str(path)


# -- every workload, each in a fresh subprocess -----------------------------------
def run_child(workload: str, args, trace: int) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if args.trace_out:
        command += ["--trace-out", args.trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, check=False)
    lines = done.stdout.splitlines()
    for line in lines[:-2]:
        print(line)
    if len(lines) < 2:
        raise SystemExit(f"{workload}: no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def relative_spread(values: List[float]) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / abs(middle) if middle else 0.0


def run_all(args, contract: Dict[str, Any]) -> int:
    names = [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    sets: List[Dict[str, Dict[str, Any]]] = []
    layers: Dict[str, Dict[str, Any]] = {}
    failed = 0
    for index in range(args.sets):
        print(f"== set {index + 1} of {args.sets} ==")
        results = {}
        for name in names:
            results[name] = run_child(name, args, trace=0)
            failed += results[name]["failed"]
            if args.traced and index == 0:
                layers[name] = run_child(name, args, trace=1)
                failed += layers[name]["failed"]
        sets.append(results)

    unstable = drifted = 0
    table: Dict[str, Dict[str, Any]] = {}
    print("== end-to-end metrics: value per set, spread, bound ==")
    for name in names:
        table[name] = {}
        for metric, bound in bounds.items():
            values = [s[name]["metrics"][metric]["value"] for s in sets]
            spread = relative_spread(values)
            steady = spread <= bound
            unstable += not steady
            table[name][metric] = {"values": values, "spread": spread,
                                   "bound": bound}
            shown = "  ".join(f"{value:.6g}" for value in values)
            unit = sets[0][name]["metrics"][metric]["unit"]
            print(f"{name:15s} {metric:12s} {shown} {unit:3s} spread "
                  f"{100 * spread:5.2f}%  bound {100 * bound:3.0f}%  "
                  f"{'ok' if steady else 'UNSTABLE'}")
        exact = [s[name]["detail"]["exact"] for s in sets]
        for key in sorted(set().union(*exact)):
            seen = {json.dumps(e.get(key)) for e in exact}
            if len(seen) > 1:
                drifted += 1
                print(f"{name}: exact count {key} differs between sets: "
                      f"{sorted(seen)}")
    print(f"== {failed} failed verdict(s), {unstable} unstable metric(s), "
          f"{drifted} drifting exact count(s) ==")
    if args.record:
        first = sets[0]
        record = {
            "header": {key: first[names[0]]["detail"][key] for key in (
                "commit", "nproc", "python", "platform", "seed", "sizes")},
            "run_seconds": args.seconds,
            "workloads": {},
        }
        for name in names:
            detail = first[name]["detail"]
            traced = layers.get(name, {"metrics": {}, "detail": {}})
            record["workloads"][name] = {
                "why": detail["why"], "load": detail["load"],
                "models": detail["models"],
                "attempted": [s[name]["attempted"] for s in sets],
                "failed": [s[name]["failed"] for s in sets],
                "end_to_end": table[name],
                "exact": detail["exact"],
                # the traced run: what its layers measured (0 = not run)
                "per_layer": {metric: entry["value"] for metric, entry
                              in traced["metrics"].items() if entry["value"]},
                "per_layer_sample_counts":
                    traced["detail"].get("sample_counts", {}),
                "per_layer_exact": traced["detail"].get("exact", {}),
            }
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"record written to {args.record}")
    return 1 if failed or drifted else 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        contract = load_contract()
        # the checkout's own package, never an installed one
        os.stat(ROOT / "src" / "repro" / "__init__.py")
    except OSError as error:
        print(f"pipeline benchmark: needs BENCHMARK.json and src/repro "
              f"of the checkout: {error}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]],
                        help="run this workload in-process (default: all, "
                             "each in a fresh subprocess)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: POR, fault plan, soak and "
                             "conform walk all derive from it")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="measure for this long (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced run that "
                             "prints the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: add a traced run of "
                             "every workload")
    parser.add_argument("--sets", type=int, default=1,
                        help="calibration: run everything N times and "
                             "compare the sets with the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: the self-test of the harness")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="where a traced run writes its spans as JSONL "
                             f"(default: {WORK.relative_to(ROOT)}/traces)")
    parser.add_argument("--record", metavar="FILE",
                        help="without --workload: write sets, spreads and "
                             "the per-layer table to FILE as JSON")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
