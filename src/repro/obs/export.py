"""Exporters: Perfetto trace JSON, metrics JSON, and Prometheus text.

Three output surfaces share this module: the Chrome/Perfetto
``trace_event`` document (below), flat metrics JSON, and — for the fleet
scope — a Prometheus/OpenMetrics text renderer (:func:`prometheus_text`)
with an atomic per-process snapshot writer
(:func:`write_metrics_snapshot`) and a throttled periodic exporter
(:class:`MetricsExporter`, armed by ``--metrics-dir``) that leaves
``metrics-<pid>.prom`` / ``.json`` artifacts per worker.

The trace document follows the Trace Event Format (the JSON flavour both
``chrome://tracing`` and https://ui.perfetto.dev open directly):

- **Track 0 — the simulated schedule.** One process (``pid``) per captured
  run; one thread lane (``tid``) per partition plus a final IDLE lane.
  Each execution segment becomes a complete ("X") event whose ``ts``/``dur``
  are the *simulated* microseconds, so the schedule renders 1:1.
- **Scheduler-internal tracks.** Each run gets a second process holding one
  lane per span name (``decide``, ``candidacy``, ``engine.dispatch``).
  Spans anchored to simulated time (``sim_ts``) are placed at that instant;
  their ``dur`` is the measured *wall* cost converted to µs — deliberately
  mixed units, documented in ``docs/OBSERVABILITY.md``, so "where does the
  millisecond go" reads directly under the schedule. The true nanosecond
  cost rides in ``args``.

Everything is duck-typed against segment objects exposing
``start/end/partition/task`` (:class:`repro.sim.trace.Segment` fits) so this
module imports nothing from :mod:`repro.sim` and stays cycle-free.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Lane label of the imaginary idle partition in the schedule track.
IDLE_LANE = "IDLE"


def schedule_trace_events(
    segments: Iterable[Any], partitions: Sequence[str], pid: int, label: str
) -> List[Dict[str, Any]]:
    """The schedule track: one complete event per execution segment."""
    lanes = {name: tid for tid, name in enumerate(partitions)}
    idle_tid = len(partitions)
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": pid, "name": "process_name", "args": {"name": label}},
        {"ph": "M", "pid": pid, "name": "process_sort_index", "args": {"sort_index": pid}},
    ]
    for name, tid in list(lanes.items()) + [(IDLE_LANE, idle_tid)]:
        events.append(
            {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name", "args": {"name": name}}
        )
        events.append(
            {"ph": "M", "pid": pid, "tid": tid, "name": "thread_sort_index",
             "args": {"sort_index": tid}}
        )
    for segment in segments:
        if segment.end <= segment.start:
            continue
        if segment.partition is None:
            tid, name = idle_tid, "idle"
        else:
            tid = lanes.get(segment.partition, idle_tid)
            name = segment.task or segment.partition
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": segment.start,
                "dur": segment.end - segment.start,
                "name": name,
                "cat": "schedule",
            }
        )
    return events


def span_trace_events(
    spans: Iterable[Any], pid: int, label: str
) -> List[Dict[str, Any]]:
    """Scheduler-internal tracks: one lane per span name.

    Spans with a ``sim_ts`` anchor are placed on the simulated timeline;
    wall-only spans are placed relative to the first span's wall clock so
    they still render coherently. ``dur`` is wall nanoseconds expressed in
    µs (floored at 1 so zero-width spans stay visible); the exact cost is
    in ``args.wall_ns``.
    """
    spans = list(spans)
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": pid, "name": "process_name", "args": {"name": label}},
        {"ph": "M", "pid": pid, "name": "process_sort_index", "args": {"sort_index": pid}},
    ]
    lanes: Dict[str, int] = {}
    wall_origin = spans[0].wall_start_ns if spans else 0
    for span in spans:
        tid = lanes.get(span.name)
        if tid is None:
            tid = lanes[span.name] = len(lanes)
            events.append(
                {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                 "args": {"name": span.name}}
            )
        ts = (
            span.sim_ts
            if span.sim_ts is not None
            else (span.wall_start_ns - wall_origin) // 1000
        )
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "dur": max(1, span.wall_dur_ns // 1000),
                "name": span.name,
                "cat": span.cat,
                "args": {"wall_ns": span.wall_dur_ns},
            }
        )
    return events


def trace_event_document(runs: Sequence[Any]) -> Dict[str, Any]:
    """Assemble captured runs into one trace_event JSON document.

    ``runs`` are objects exposing ``label``, ``partitions``, ``segments``
    (an iterable) and ``spans`` (an iterable of :class:`~repro.obs.spans.
    Span`) — :class:`repro.obs.CapturedRun` is the canonical shape. Run
    ``k`` claims pids ``2k`` (schedule) and ``2k + 1`` (scheduler spans).
    """
    events: List[Dict[str, Any]] = []
    for index, run in enumerate(runs):
        events.extend(
            schedule_trace_events(
                run.segments, run.partitions, pid=2 * index,
                label=f"schedule: {run.label}",
            )
        )
        span_list = list(run.spans)
        if span_list:
            events.extend(
                span_trace_events(
                    span_list, pid=2 * index + 1, label=f"scheduler: {run.label}"
                )
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", "runs": len(runs)},
    }


def write_trace(path, runs: Sequence[Any]) -> int:
    """Write the Perfetto-openable trace for ``runs``; returns event count."""
    document = trace_event_document(runs)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return len(document["traceEvents"])


def metrics_json(snapshot: Dict[str, Any], path=None) -> str:
    """Serialize a registry snapshot as stable flat JSON (optionally to a
    file)."""
    text = json.dumps(snapshot, indent=2, sort_keys=True, default=float)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text


# -- Prometheus / OpenMetrics ------------------------------------------------

_METRIC_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a dotted registry name into a Prometheus metric name."""
    sanitized = _METRIC_NAME_OK.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def _prom_labels(labels: Optional[Dict[str, Any]]) -> str:
    if not labels:
        return ""
    parts = []
    for key, value in sorted(labels.items()):
        text = str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        parts.append(f'{_METRIC_NAME_OK.sub("_", key)}="{text}"')
    return "{" + ",".join(parts) + "}"


def _prom_value(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def prometheus_text(snapshot: Dict[str, Any], labels: Optional[Dict[str, Any]] = None) -> str:
    """Render a flat registry snapshot in Prometheus text exposition format.

    Integer values emit as ``counter``, floats as ``gauge``, histogram
    snapshot dicts as ``histogram`` with cumulative ``_bucket{le=...}``
    series plus ``_sum``/``_count`` — the standard scrape shape, so the
    files :func:`write_metrics_snapshot` drops are directly usable as
    Prometheus textfile-collector input. Names are prefixed ``repro_`` and
    dots become underscores (``store.hits`` -> ``repro_store_hits``).
    """
    label_text = _prom_labels(labels)
    lines: List[str] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        prom = _prom_name(name)
        if isinstance(value, dict):
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            bounds = list(value.get("bounds", []))
            buckets = list(value.get("buckets", []))
            for index, bound in enumerate(bounds):
                cumulative += buckets[index] if index < len(buckets) else 0
                bucket_labels = dict(labels or {})
                bucket_labels["le"] = _prom_value(float(bound))
                lines.append(f"{prom}_bucket{_prom_labels(bucket_labels)} {cumulative}")
            inf_labels = dict(labels or {})
            inf_labels["le"] = "+Inf"
            lines.append(f"{prom}_bucket{_prom_labels(inf_labels)} {value.get('count', 0)}")
            lines.append(f"{prom}_sum{label_text} {_prom_value(float(value.get('sum') or 0.0))}")
            lines.append(f"{prom}_count{label_text} {value.get('count', 0)}")
        elif isinstance(value, bool):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom}{label_text} {int(value)}")
        elif isinstance(value, int):
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom}{label_text} {value}")
        else:
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom}{label_text} {_prom_value(float(value))}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics_snapshot(
    directory,
    snapshot: Optional[Dict[str, Any]] = None,
    labels: Optional[Dict[str, Any]] = None,
) -> "Path":
    """Atomically drop this process's metrics under ``directory``.

    Writes ``metrics-<pid>.prom`` (Prometheus text) and ``metrics-<pid>.json``
    (the raw snapshot, for exact merging) via write-temp-then-rename, so a
    scraper or ``repro top`` never reads a half-written file. ``snapshot``
    defaults to :func:`~repro.obs.registry.process_metrics_snapshot` — every
    process-global registry this process knows. Forked pool workers calling
    this land per-worker files (the pid is in the name), which is what makes
    ``repro service drain --metrics-dir`` leave one artifact per worker.
    Returns the ``.prom`` path.
    """
    from repro.obs.registry import process_metrics_snapshot

    if snapshot is None:
        snapshot = process_metrics_snapshot()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pid = os.getpid()
    merged_labels = dict(labels or {})
    merged_labels.setdefault("pid", pid)
    payload = {
        "schema": "repro-metrics/1",
        "pid": pid,
        "ts": time.time(),
        "labels": {k: str(v) for k, v in merged_labels.items()},
        "metrics": snapshot,
    }
    for suffix, text in (
        (".prom", prometheus_text(snapshot, labels=merged_labels)),
        (".json", json.dumps(payload, sort_keys=True, default=float) + "\n"),
    ):
        final = directory / f"metrics-{pid}{suffix}"
        scratch = directory / f".metrics-{pid}{suffix}.tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(scratch, final)
    return directory / f"metrics-{pid}.prom"


def read_metrics_snapshots(directory) -> List[Dict[str, Any]]:
    """Every per-process ``metrics-*.json`` payload under ``directory``,
    sorted by pid; unreadable/half-written files are skipped."""
    directory = Path(directory)
    payloads: List[Dict[str, Any]] = []
    try:
        names = sorted(p for p in directory.iterdir() if p.name.startswith("metrics-")
                       and p.suffix == ".json")
    except (FileNotFoundError, NotADirectoryError):
        return []
    for path in names:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict) and isinstance(payload.get("metrics"), dict):
            payloads.append(payload)
    return payloads


class MetricsExporter:
    """Throttled periodic snapshot writer (``--metrics-dir``).

    Call :meth:`tick` from any convenient loop — the pool's completion
    handler, a worker's cell boundary, the dispatcher's drain loop. Writes
    are rate-limited to one per ``interval`` seconds per process, plus a
    final unconditional write from :meth:`flush`. The object is fork-
    friendly: a child inherits the configuration but the first tick in a
    new pid discards the inherited throttle (else a short-lived worker
    could die inside the parent's interval and leave no artifact) and
    registers an exit-time flush, so every worker leaves one final
    ``metrics-<pid>`` snapshot with its complete counters.
    """

    __slots__ = ("directory", "interval", "labels", "_last", "_pid")

    def __init__(self, directory, interval: float = 1.0,
                 labels: Optional[Dict[str, Any]] = None):
        self.directory = Path(directory)
        self.interval = float(interval)
        self.labels = dict(labels or {})
        self._last: Optional[float] = None  # None: the next tick writes
        self._pid = os.getpid()

    def tick(self) -> Optional["Path"]:
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._last = None
            atexit.register(self._exit_flush)
        now = time.monotonic()
        if self._last is not None and now - self._last < self.interval:
            return None
        self._last = now
        return write_metrics_snapshot(self.directory, labels=self.labels)

    def _exit_flush(self) -> None:
        try:
            self.flush()
        except OSError:
            pass

    def flush(self) -> "Path":
        self._last = time.monotonic()
        return write_metrics_snapshot(self.directory, labels=self.labels)


_EXPORTER: Optional[MetricsExporter] = None


class _ExportState:
    """``EXPORT.active`` is the one-attribute-read guard exporter tick
    sites consult, mirroring the obs gate and the event-log switch."""

    __slots__ = ("active",)

    def __init__(self) -> None:
        self.active = False


EXPORT = _ExportState()


def start_metrics_exporter(
    directory, interval: float = 1.0, labels: Optional[Dict[str, Any]] = None
) -> MetricsExporter:
    """Arm the process-wide periodic exporter writing under ``directory``."""
    global _EXPORTER
    _EXPORTER = MetricsExporter(directory, interval=interval, labels=labels)
    EXPORT.active = True
    return _EXPORTER


def stop_metrics_exporter() -> None:
    """Write one final snapshot (if armed) and disarm."""
    global _EXPORTER
    exporter = _EXPORTER
    _EXPORTER = None
    EXPORT.active = False
    if exporter is not None:
        try:
            exporter.flush()
        except OSError:
            pass


def metrics_exporter() -> Optional[MetricsExporter]:
    """The armed exporter, or None."""
    return _EXPORTER


def reset_metrics_exporter() -> None:
    """Disarm without the final flush (test isolation: a teardown flush
    would resurrect already-deleted tmp directories)."""
    global _EXPORTER
    _EXPORTER = None
    EXPORT.active = False


def export_tick() -> None:
    """Throttled snapshot write if an exporter is armed; no-op otherwise."""
    if EXPORT.active and _EXPORTER is not None:
        try:
            _EXPORTER.tick()
        except OSError:
            pass


def _fmt_ns(ns: Optional[float]) -> str:
    if ns is None:
        return "-"
    if ns >= 1e6:
        return f"{ns / 1e6:.3f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.3f} us"
    return f"{ns:.0f} ns"


def format_metrics(
    metrics: Dict[str, Any], span_summary: Optional[Dict[str, Dict[str, float]]] = None,
    title: str = "metrics",
) -> str:
    """Pretty-print one run's metrics snapshot (the ``stats`` subcommand).

    Histogram-valued metrics render as a count/p50/p95/max line; scalar
    metrics as plain ``name = value`` rows, grouped by dotted prefix.
    """
    lines = [f"[{title}]"]
    scalars = {k: v for k, v in sorted(metrics.items()) if not isinstance(v, dict)}
    histograms = {k: v for k, v in sorted(metrics.items()) if isinstance(v, dict)}
    group = None
    for name, value in scalars.items():
        prefix = name.split(".", 1)[0]
        if prefix != group:
            group = prefix
            lines.append(f"  {group}:")
        shown = f"{value:.4f}".rstrip("0").rstrip(".") if isinstance(value, float) else value
        lines.append(f"    {name} = {shown}")
    for name, snap in histograms.items():
        fmt = _fmt_ns if name.endswith("_ns") else (
            lambda v: "-" if v is None else f"{v:.2f}".rstrip("0").rstrip(".")
        )
        lines.append(f"  {name}:")
        lines.append(
            "    count={count}  p50={p50}  p95={p95}  max={vmax}  mean={mean}".format(
                count=snap.get("count", 0),
                p50=fmt(snap.get("p50")),
                p95=fmt(snap.get("p95")),
                vmax=fmt(snap.get("max")),
                mean=fmt(snap.get("mean")),
            )
        )
    if span_summary:
        lines.append("  spans:")
        for name, stats in span_summary.items():
            lines.append(
                f"    {name}: count={int(stats['count'])}  "
                f"total={_fmt_ns(stats['total_ns'])}  mean={_fmt_ns(stats['mean_ns'])}  "
                f"recorded={int(stats['recorded'])}"
            )
    return "\n".join(lines)
