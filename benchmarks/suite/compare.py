"""Judge change runs against parent runs.

Runs pair up by workload in file order, so alternate parent and change runs
when producing them. Per workload and end-to-end metric the verdict is:

- ``unresolved``: fewer than :data:`MIN_PAIRS` pairs, or a different number
  of runs on the two sides;
- ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  distance;
- ``unresolved``: otherwise, when the run-to-run spread (interquartile
  distance over median, on either side) exceeds the metric's bound, unless
  every change run beats (``improved``) or loses to (``regressed``) every
  parent run;
- ``regressed``: the change median is worse than the parent median by more
  than the bound;
- ``unchanged``: everything else.

Traced runs add per-layer self-time deltas.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

#: Fewest parent/change pairs a verdict other than ``unresolved`` rests on.
MIN_PAIRS = 10


def load(path: Path) -> List[Dict[str, Any]]:
    """Run documents from a JSON-lines file or every ``*.jsonl`` in a directory."""
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    return [
        json.loads(line)
        for file in files
        for line in file.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Dict[str, Any]:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) if pm and cm else float("inf")
    gain = sign * (cm - pm)
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    loses_all = max(sign * c for c in change) < min(sign * p for p in parent)
    if len(parent) != len(change) or len(pairs) < MIN_PAIRS:
        label = "unresolved"
    elif won >= 0.9 and gain > p3 - p1:
        label = "improved"
    elif spread > bound:
        label = "improved" if beats_all else "regressed" if loses_all else "unresolved"
    elif -gain > bound * abs(pm):
        label = "regressed"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "won": won,
        "spread": spread,
        "pairs": len(pairs),
    }


def _by_workload(docs: List[Dict[str, Any]], traced: bool) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for doc in docs:
        if doc["trace"] == traced:
            grouped.setdefault(doc["workload"], []).append(doc)
    return grouped


def compare(
    parent_docs: List[Dict[str, Any]],
    change_docs: List[Dict[str, Any]],
    benchmark: Dict[str, Any],
) -> Tuple[List[str], bool]:
    """Report lines, and whether every verdict is unchanged or improved."""
    lines: List[str] = []
    ok = True
    parents, changes = _by_workload(parent_docs, False), _by_workload(change_docs, False)
    for workload in sorted(set(parents) & set(changes)):
        p_runs, c_runs = parents[workload], changes[workload]
        lines.append(f"{workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [d["metrics"][name] for d in p_runs],
                [d["metrics"][name] for d in c_runs],
                metric["better"],
                metric["bound"],
            )
            ok &= row["verdict"] in ("unchanged", "improved")
            (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
            lines.append(
                f"  {name:<16} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} "
                f"[{c1:.4g}, {c3:.4g}] {metric['unit']}  won {row['won']:.0%} of "
                f"{row['pairs']}  spread {row['spread']:.1%} (bound {metric['bound']:.4g})  "
                f"{row['verdict']}"
            )
    parents, changes = _by_workload(parent_docs, True), _by_workload(change_docs, True)
    for workload in sorted(set(parents) & set(changes)):
        lines.append(f"{workload}: per-layer self time, median s (parent -> change)")
        p_layers, c_layers = _median_layers(parents[workload]), _median_layers(changes[workload])
        for name in sorted(set(p_layers) | set(c_layers), key=lambda n: -p_layers.get(n, 0.0)):
            before, after = p_layers.get(name, 0.0), c_layers.get(name, 0.0)
            lines.append(f"  {name:<28} {before:>9.4f} -> {after:>9.4f}  {after - before:+.4f}")
    return lines, ok


def _median_layers(docs: List[Dict[str, Any]]) -> Dict[str, float]:
    names = {name for doc in docs for name in doc["layers"]}
    return {
        name: statistics.median(d["layers"].get(name, {}).get("self_s", 0.0) for d in docs)
        for name in names
    }
