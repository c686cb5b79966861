"""Rendering fuzz campaign results (text + stable JSON v1 envelope)."""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .loop import FuzzResult

__all__ = ["render_fuzz_text", "render_fuzz_json", "fuzz_dict"]

#: JSON envelope version for ``mocket fuzz --format json``.
FUZZ_VERSION = 1


def fuzz_dict(result: FuzzResult) -> Dict[str, Any]:
    """The stable v1 envelope for ``mocket fuzz --format json``."""
    corpus = result.corpus
    return {
        "version": FUZZ_VERSION,
        "target": corpus.meta.get("target", ""),
        "fuzz_seed": corpus.meta.get("fuzz_seed", ""),
        "guided": result.guided,
        "budget": result.budget,
        "runs": corpus.runs,
        "entries": len(corpus.entries),
        "coverage": {
            "states": result.distinct_states,
            "graph_states": result.graph_states,
            "edges": result.distinct_edges,
            "graph_edges": result.graph_edges,
        },
        "bugs": {bug_id: dict(corpus.bugs[bug_id])
                 for bug_id in sorted(corpus.bugs)},
        "trajectory": [dict(record) for record in result.trajectory],
    }


def render_fuzz_json(result: FuzzResult) -> str:
    return json.dumps(fuzz_dict(result), indent=2, sort_keys=True)


def render_fuzz_text(result: FuzzResult) -> str:
    """Human-readable campaign report: one line per executed run, then
    coverage, corpus and bug totals."""
    corpus = result.corpus
    lines: List[str] = []
    for record in result.trajectory:
        gain = []
        if record["new_states"]:
            gain.append(f"+{record['new_states']} states")
        if record["new_edges"]:
            gain.append(f"+{record['new_edges']} edges")
        if record["new_bugs"]:
            gain.append(f"+{len(record['new_bugs'])} bug(s)")
        kept = (f"kept #{record['kept']}" if record["kept"] is not None
                else "discarded")
        lines.append(f"  run {record['run']:>3} {record['op']:<15} "
                     f"{record['injections']:>2} injections  "
                     f"{', '.join(gain) or 'no new coverage'}  "
                     f"[{kept}]")
    lines.append(f"coverage: {result.distinct_states} of "
                 f"{result.graph_states} states, "
                 f"{result.distinct_edges} of {result.graph_edges} "
                 f"edges visited")
    where = f" at {corpus.root}" if corpus.root else " (in-memory)"
    lines.append(f"corpus{where}: {len(corpus.entries)} entries, "
                 f"{corpus.runs} total runs, {len(corpus.bugs)} bug(s)")
    for bug_id in sorted(corpus.bugs):
        info = corpus.bugs[bug_id]
        lines.append(f"  bug {bug_id} [{info['kind']}] case "
                     f"#{info['case_id']}: {info['headline']}")
    return "\n".join(lines)
