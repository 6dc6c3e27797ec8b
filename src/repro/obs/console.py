"""The fleet console: fold status files, event logs, and metrics snapshots
into one live text dashboard (``repro top``).

Three artifact families feed one frame:

- **Service status files** (``<root>/queue|active|done``, plus the
  drainer's atomic ``*.status.json``) give ticket-level state: what is
  queued, what a drainer is running right now, per-campaign done/total
  and ETA.
- **The event log** (``--events-out``) gives fleet dynamics: per-campaign
  completion counts, a cells/sec rate over a sliding window, store
  hit/miss traffic, retries/timeouts/failures, batch groups formed and
  dissolved.
- **Metrics snapshot files** (``--metrics-dir``) give per-worker health:
  one ``metrics-<pid>.json`` per process that ever ticked the exporter,
  with a freshness age derived from the snapshot's own timestamp.

Everything is read-only and tolerant: every source is optional, a frame
renders from whatever exists, and half-written files are skipped (the
writers are all atomic, so that only happens for foreign junk). The
gathering half (:func:`gather_fleet_state`) returns plain data and the
rendering half (:func:`render_top`) returns a string, so tests pin frames
without a terminal.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.events import read_json_lines
from repro.obs.export import read_metrics_snapshots
from repro.obs.registry import merge_registry_snapshots

#: Sliding window (seconds of event time) for the cells/sec rate.
RATE_WINDOW_S = 30.0

#: A worker snapshot older than this (seconds) renders as stale.
STALE_AFTER_S = 15.0

#: Tail size read from the event log per frame; old history beyond this is
#: irrelevant to a live dashboard and skipping it keeps frames O(1).
_TAIL_BYTES = 1 << 20


def _tail_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """The decodable events in the last ~:data:`_TAIL_BYTES` of ``path``."""
    try:
        size = os.path.getsize(path)
    except OSError:
        return []
    return read_json_lines(path, offset=max(0, size - _TAIL_BYTES))[0]


def _campaign_stats(events: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-campaign progress derived from the event tail."""
    campaigns: Dict[str, Dict[str, Any]] = {}

    def entry(name: Any) -> Dict[str, Any]:
        key = str(name) if name else "?"
        return campaigns.setdefault(
            key,
            {
                "total": None, "done": 0, "cached": 0, "failed": 0,
                "retries": 0, "timeouts": 0, "complete_ts": [],
            },
        )

    for record in events:
        kind = record.get("kind")
        if kind == "campaign.begin":
            item = entry(record.get("campaign"))
            item["total"] = record.get("total")
            # A fresh begin restarts the campaign's counters: the tail may
            # span several invocations of the same target.
            item.update(done=0, cached=0, failed=0, retries=0, timeouts=0)
            item["complete_ts"] = []
        elif kind == "cell.complete":
            item = entry(record.get("campaign"))
            item["done"] += 1
            ts = record.get("ts")
            if isinstance(ts, (int, float)):
                item["complete_ts"].append(float(ts))
        elif kind == "cell.cached":
            item = entry(record.get("campaign"))
            item["done"] += 1
            item["cached"] += 1
        elif kind == "cell.failed":
            entry(record.get("campaign"))["failed"] += 1
        elif kind == "cell.retry":
            entry(record.get("campaign"))["retries"] += 1
        elif kind == "cell.timeout":
            entry(record.get("campaign"))["timeouts"] += 1
        elif kind == "campaign.end":
            item = entry(record.get("campaign"))
            item["total"] = record.get("done", item["total"])
            item["finished"] = True

    for item in campaigns.values():
        stamps = item.pop("complete_ts")
        rate = None
        if len(stamps) >= 2:
            horizon = max(stamps) - RATE_WINDOW_S
            recent = [ts for ts in stamps if ts >= horizon]
            span = max(recent) - min(recent)
            if span > 0:
                rate = (len(recent) - 1) / span
        item["cells_per_s"] = rate
        total = item.get("total")
        if rate and isinstance(total, int) and total > item["done"]:
            item["eta_s"] = (total - item["done"]) / rate
        else:
            item["eta_s"] = None
    return campaigns


def _cluster_stats(events: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-remote-worker rollups from the coordinator's ``cluster.*`` events.

    Keyed by worker name; `last_ts` is the newest event timestamp that
    mentioned the worker, which the gatherer turns into a last-seen age.
    """
    workers: Dict[str, Dict[str, Any]] = {}

    def entry(name: Any) -> Dict[str, Any]:
        key = str(name) if name else "?"
        return workers.setdefault(
            key,
            {"jobs": None, "leased": 0, "completed": 0, "stolen": 0,
             "heartbeats": 0, "last_ts": None},
        )

    for record in events:
        kind = record.get("kind")
        if not isinstance(kind, str) or not kind.startswith("cluster."):
            continue
        if "worker" not in record:
            continue
        item = entry(record.get("worker"))
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            last = item["last_ts"]
            item["last_ts"] = float(ts) if last is None else max(last, float(ts))
        if kind == "cluster.hello":
            item["jobs"] = record.get("jobs")
        elif kind == "cluster.lease":
            item["leased"] += int(record.get("cells") or 0)
        elif kind == "cluster.result":
            item["completed"] += int(record.get("cells") or 0)
        elif kind == "cluster.steal":
            item["stolen"] += int(record.get("cells") or 0)
        elif kind == "cluster.heartbeat":
            item["heartbeats"] += 1
    return workers


def _event_counters(events: List[Dict[str, Any]]) -> Dict[str, int]:
    """Fleet-wide event-kind tallies the dashboard surfaces."""
    counts: Dict[str, int] = {}
    for record in events:
        kind = record.get("kind")
        if isinstance(kind, str):
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def _service_state(root: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The dispatcher's status report for ``root``, or None when the root
    does not exist (the console must render without a service)."""
    root = Path(root)
    if not root.is_dir():
        return None
    from repro.service import Dispatcher

    return Dispatcher(root).status()


def gather_fleet_state(
    service_root: Optional[Union[str, Path]] = None,
    events_path: Optional[Union[str, Path]] = None,
    metrics_dir: Optional[Union[str, Path]] = None,
    now: Optional[float] = None,
) -> Dict[str, Any]:
    """One frame's worth of fleet state, as plain data.

    Every source is optional; missing ones contribute ``None`` / empties.
    ``now`` pins the clock for deterministic tests.
    """
    now = time.time() if now is None else now
    state: Dict[str, Any] = {
        "now": now,
        "service_root": str(service_root) if service_root else None,
        "events_path": str(events_path) if events_path else None,
        "metrics_dir": str(metrics_dir) if metrics_dir else None,
        "service": None,
        "campaigns": {},
        "counters": {},
        "cluster": {},
        "workers": [],
        "events_seen": 0,
    }
    if service_root:
        state["service"] = _service_state(service_root)
    if events_path:
        events = _tail_events(events_path)
        state["events_seen"] = len(events)
        state["campaigns"] = _campaign_stats(events)
        state["counters"] = _event_counters(events)
        cluster = _cluster_stats(events)
        for item in cluster.values():
            last = item.pop("last_ts")
            item["age_s"] = (now - last) if last is not None else None
        state["cluster"] = cluster
        stamps = [
            record["ts"] for record in events
            if isinstance(record.get("ts"), (int, float))
        ]
        state["last_event_age_s"] = (now - max(stamps)) if stamps else None
    if metrics_dir:
        for payload in read_metrics_snapshots(metrics_dir):
            ts = payload.get("ts")
            age = (now - float(ts)) if isinstance(ts, (int, float)) else None
            state["workers"].append(
                {
                    "pid": payload.get("pid"),
                    "age_s": age,
                    "stale": age is None or age > STALE_AFTER_S,
                    "metrics": payload.get("metrics", {}),
                }
            )
        merged = merge_registry_snapshots(
            [w["metrics"] for w in state["workers"]]
        )
        state["fleet_metrics"] = merged
    return state


def _bar(done: int, total: Optional[int], width: int = 20) -> str:
    if not isinstance(total, int) or total <= 0:
        return "-" * width
    filled = min(width, int(width * done / total))
    return "#" * filled + "-" * (width - filled)


def _fmt_rate(value: Optional[float]) -> str:
    return f"{value:.1f}/s" if value else "-"


def _fmt_eta(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 90:
        return f"{value / 60:.1f}m"
    return f"{value:.1f}s"


def render_top(state: Dict[str, Any]) -> str:
    """Render one gathered frame as terminal text (no escapes, testable)."""
    lines: List[str] = ["repro top — fleet console"]
    service = state.get("service")
    if state.get("service_root"):
        if service is None:
            lines.append(f"service: {state['service_root']} (no service root yet)")
        else:
            lines.append(
                "service: {root} — {p} pending, {a} active, {d} done".format(
                    root=service.get("root"),
                    p=len(service.get("pending", ())),
                    a=len(service.get("active", ())),
                    d=len(service.get("done", ())),
                )
            )
            for item in service.get("active", ()):
                detail = f"  running #{item['ticket']:08d} {item.get('target')}"
                progress = item.get("progress") or {}
                if progress.get("total"):
                    detail += (
                        f"  [{_bar(progress.get('done', 0), progress.get('total'))}] "
                        f"{progress.get('done', 0)}/{progress.get('total')}"
                    )
                    if progress.get("eta_s") is not None:
                        detail += f"  eta {_fmt_eta(progress['eta_s'])}"
                lines.append(detail)
            for item in service.get("pending", ()):
                lines.append(
                    f"  queued  #{item['ticket']:08d} {item.get('target')}"
                )

    campaigns = state.get("campaigns") or {}
    if campaigns:
        lines.append("campaigns (from event log):")
        for name in sorted(campaigns):
            item = campaigns[name]
            total = item.get("total")
            done = item.get("done", 0)
            row = (
                f"  {name:<20} [{_bar(done, total)}] "
                f"{done}/{total if total is not None else '?'}"
                f"  {_fmt_rate(item.get('cells_per_s'))}"
                f"  eta {_fmt_eta(item.get('eta_s'))}"
            )
            extras = []
            if item.get("cached"):
                extras.append(f"{item['cached']} cached")
            if item.get("retries"):
                extras.append(f"{item['retries']} retries")
            if item.get("timeouts"):
                extras.append(f"{item['timeouts']} timeouts")
            if item.get("failed"):
                extras.append(f"{item['failed']} FAILED")
            if item.get("finished"):
                extras.append("finished")
            if extras:
                row += "  (" + ", ".join(extras) + ")"
            lines.append(row)

    counters = state.get("counters") or {}
    hits = counters.get("store.hit", 0)
    misses = counters.get("store.miss", 0)
    if hits or misses:
        rate = 100.0 * hits / (hits + misses)
        line = f"store: {hits} hits / {misses} misses ({rate:.1f}% hit rate)"
        if counters.get("store.corrupt"):
            line += f", {counters['store.corrupt']} CORRUPT"
        lines.append(line)
    groups = counters.get("batch.group", 0)
    dissolved = counters.get("batch.dissolve", 0)
    if groups or dissolved:
        lines.append(f"batch: {groups} groups formed, {dissolved} dissolved")
    degraded = counters.get("pool.degraded", 0)
    rebuilt = counters.get("pool.rebuild", 0)
    if degraded or rebuilt:
        lines.append(f"pool: {rebuilt} rebuilds, {degraded} degradations")

    fleet = state.get("fleet_metrics") or {}
    faults = {k: v for k, v in fleet.items()
              if k.startswith("faults.") and isinstance(v, int) and v}
    if faults:
        lines.append(
            "faults: " + ", ".join(f"{k.split('.', 1)[1]}={v}"
                                   for k, v in sorted(faults.items()))
        )

    cluster = state.get("cluster") or {}
    if cluster:
        lines.append(f"cluster workers ({len(cluster)}):")
        for name in sorted(cluster):
            item = cluster[name]
            age = item.get("age_s")
            shown = f"{age:.1f}s" if isinstance(age, (int, float)) else "?"
            row = (
                f"  {name:<16} jobs={item.get('jobs') or '?'}"
                f"  leased={item.get('leased', 0)}"
                f"  completed={item.get('completed', 0)}"
                f"  last seen {shown} ago"
            )
            if item.get("stolen"):
                row += f"  ({item['stolen']} STOLEN)"
            lines.append(row)
        stolen = counters.get("cluster.steal", 0)
        proto = counters.get("cluster.protocol_error", 0)
        dupes = counters.get("cluster.duplicate_result", 0)
        extras = []
        if stolen:
            extras.append(f"{stolen} steal event(s)")
        if dupes:
            extras.append(f"{dupes} duplicate result(s) dropped")
        if proto:
            extras.append(f"{proto} protocol error(s)")
        if extras:
            lines.append("cluster: " + ", ".join(extras))

    workers = state.get("workers") or []
    if workers:
        lines.append(f"workers ({len(workers)} snapshot(s)):")
        for worker in workers:
            age = worker.get("age_s")
            health = "stale" if worker.get("stale") else "ok"
            shown = f"{age:.1f}s" if isinstance(age, (int, float)) else "?"
            metrics = worker.get("metrics", {})
            ints = sum(1 for v in metrics.values() if isinstance(v, int))
            lines.append(
                f"  pid {worker.get('pid')}  {health:<5} age {shown}"
                f"  ({len(metrics)} metrics, {ints} counters)"
            )

    if state.get("events_path"):
        age = state.get("last_event_age_s")
        shown = f"{age:.1f}s ago" if isinstance(age, (int, float)) else "never"
        lines.append(
            f"events: {state.get('events_seen', 0)} record(s) in "
            f"{state['events_path']} (last {shown})"
        )
    if len(lines) == 1:
        lines.append("(no sources: pass --service-root, --events-out, or --metrics-dir)")
    return "\n".join(lines)
