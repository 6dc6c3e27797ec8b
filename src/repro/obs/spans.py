"""Span tracing: bounded, sampled wall-time spans with simulated-time anchors.

A span records what one named operation cost — ``decide``, ``candidacy``,
``engine.dispatch`` — as a wall-clock duration, optionally
anchored to the simulated instant it served (``sim_ts``, µs). The exporter
(:mod:`repro.obs.export`) lays spans out on the simulated timeline so they
line up under the schedule lanes in Perfetto.

Buffering is bounded and sampled: the first ``warmup`` spans of each *name*
are always kept (short runs see everything), after which only 1-in-
``sample_every`` is recorded; the buffer stops growing at ``capacity``
either way. Dropped/sampled-out spans still count toward the per-name
totals in :meth:`SpanBuffer.summary`, so aggregate cost accounting stays
exact even when individual spans are thinned.

Sampling decisions depend only on per-name arrival counts — never on an
RNG — so tracing cannot perturb a simulation's random streams; the
differential tests in ``tests/integration/test_obs_differential.py`` hold
runs bit-identical across obs off/on/sampled.
"""

from __future__ import annotations

import time as _wall
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.gate import GATE


@dataclass(frozen=True)
class Span:
    """One recorded operation."""

    name: str
    wall_start_ns: int
    wall_dur_ns: int
    sim_ts: Optional[int] = None  # simulated µs anchor, None = wall-only
    cat: str = "scheduler"


class _NullSpanContext:
    """Shared no-op context manager handed out while the gate is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    """Times one ``with`` block and hands the result to its buffer."""

    __slots__ = ("buffer", "name", "sim_ts", "cat", "_t0")

    def __init__(self, buffer: "SpanBuffer", name: str, sim_ts: Optional[int], cat: str):
        self.buffer = buffer
        self.name = name
        self.sim_ts = sim_ts
        self.cat = cat
        self._t0 = 0

    def __enter__(self) -> "_SpanContext":
        self._t0 = _wall.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.buffer.record(
            self.name, self._t0, _wall.perf_counter_ns() - self._t0, self.sim_ts, self.cat
        )


@dataclass
class SpanNameStats:
    """Exact per-name aggregates (counted even for thinned spans)."""

    count: int = 0
    total_ns: int = 0
    recorded: int = 0

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0


class SpanBuffer:
    """Bounded in-memory span store with per-name warmup + 1-in-N sampling."""

    def __init__(
        self,
        capacity: Optional[int] = None,
        sample_every: Optional[int] = None,
        warmup: Optional[int] = None,
    ):
        self.capacity = capacity if capacity is not None else GATE.span_capacity
        self.sample_every = max(
            1, sample_every if sample_every is not None else GATE.sample_every
        )
        self.warmup = warmup if warmup is not None else GATE.warmup
        self.spans: List[Span] = []
        self.dropped = 0  # beyond capacity
        self.sampled_out = 0  # thinned by 1-in-N
        self._stats: Dict[str, SpanNameStats] = {}

    def span(
        self, name: str, sim_ts: Optional[int] = None, cat: str = "scheduler"
    ):
        """Context manager timing one block; a shared no-op when disabled."""
        if not GATE.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name, sim_ts, cat)

    def record(
        self,
        name: str,
        wall_start_ns: int,
        wall_dur_ns: int,
        sim_ts: Optional[int] = None,
        cat: str = "scheduler",
    ) -> None:
        """Direct record (for call sites that already timed themselves)."""
        if not GATE.enabled:
            return
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = SpanNameStats()
        stats.count += 1
        stats.total_ns += wall_dur_ns
        if stats.count > self.warmup and (stats.count - self.warmup) % self.sample_every:
            self.sampled_out += 1
            return
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return
        stats.recorded += 1
        self.spans.append(Span(name, wall_start_ns, wall_dur_ns, sim_ts, cat))

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name exact aggregates: count / total_ns / mean_ns / recorded."""
        return {
            name: {
                "count": stats.count,
                "total_ns": stats.total_ns,
                "mean_ns": stats.mean_ns,
                "recorded": stats.recorded,
            }
            for name, stats in sorted(self._stats.items())
        }

    def clear(self) -> None:
        self.spans.clear()
        self._stats.clear()
        self.dropped = 0
        self.sampled_out = 0

    def __len__(self) -> int:
        return len(self.spans)
