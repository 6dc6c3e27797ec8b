"""The runtime that turns a :class:`~repro.faults.spec.FaultPlan` into
perturbations of one simulation run.

The engine owns one :class:`FaultInjector` per run (when a plan is attached)
and consults it at exactly three hook points:

- :meth:`FaultInjector.perturb_demand` — after a behaviour has produced a
  job's (WCET-clamped) execution demand (``overrun`` may push past the WCET);
- :meth:`FaultInjector.perturb_gap` — after a behaviour has produced the
  next inter-arrival gap (``jitter`` delays it, ``burst`` compresses it);
- :meth:`FaultInjector.perturb_budget` — at every budget replenishment
  (``stall`` burns part of the fresh budget, ``crash`` zeroes it for a
  stretch of replenishments).

Determinism contract: every spec draws from its **own**
:class:`random.Random` stream, seeded via
:func:`repro.runner.seeding.derive_seed` from ``(master seed,
spec.stream_key(index))``. The workload and policy RNGs are never touched,
so attaching a plan cannot perturb the nominal schedule's random draws —
and null specs are dropped at construction, so a zero-intensity plan leaves
the run bit-identical to no plan at all.

Accounting: exact per-kind injection counts live in :attr:`counts`
(always correct, gate on or off) and are folded into
``SimulationResult.metrics`` under ``faults.<kind>`` by the engine. When
:func:`repro.obs.enable` is in effect, the same injections also tick gated
``faults.<kind>`` counters in the run's registry (the campaign fault rollup
reads these) and drop instant ``faults.<kind>`` spans on the trace timeline.
"""

from __future__ import annotations

import random
import time as _wall
from typing import Dict, List, Optional

from repro.obs.gate import GATE
from repro.runner.seeding import derive_seed
from repro.faults.spec import BURST, CRASH, FAULT_KINDS, JITTER, OVERRUN, STALL, FaultPlan


class _Stream:
    """One active spec's runtime state: its RNG plus burst/crash progress."""

    __slots__ = ("spec", "rng", "remaining")

    def __init__(self, spec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self.remaining = 0  # accelerated arrivals (burst) / dead replenishments (crash)


class FaultInjector:
    """Applies a fault plan to one run, deterministically.

    Args:
        plan: The fault plan. Null specs are dropped; an all-null plan
            yields an injector that perturbs nothing (every hook is an
            identity function).
        seed: The simulation's master seed; each spec's stream derives from
            it independently of the workload/policy streams.
        partitions: Known partition names — specs naming an unknown
            partition fail fast here rather than silently never firing.
    """

    def __init__(self, plan: FaultPlan, seed: int, partitions: Optional[List[str]] = None):
        self.plan = plan
        self.counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._demand: Dict[str, List[_Stream]] = {}
        self._gap: Dict[str, List[_Stream]] = {}
        self._budget: Dict[str, List[_Stream]] = {}
        self._obs = None  # RunObs scope, attached by the engine
        self._counters = {}
        known = set(partitions) if partitions is not None else None
        for index, spec in plan.active_specs():
            if known is not None and spec.partition not in known:
                raise ValueError(
                    f"fault spec targets unknown partition {spec.partition!r} "
                    f"(known: {sorted(known)})"
                )
            stream = _Stream(spec, random.Random(derive_seed(seed, spec.stream_key(index))))
            if spec.kind == OVERRUN:
                self._demand.setdefault(spec.partition, []).append(stream)
            elif spec.kind in (JITTER, BURST):
                self._gap.setdefault(spec.partition, []).append(stream)
            else:  # STALL, CRASH
                self._budget.setdefault(spec.partition, []).append(stream)

    @property
    def active(self) -> bool:
        """Whether any hook can ever fire (False for null plans)."""
        return bool(self._demand or self._gap or self._budget)

    @property
    def total_injections(self) -> int:
        return sum(self.counts.values())

    def attach_obs(self, run_obs) -> None:
        """Engine hand-off of the run's :class:`repro.obs.RunObs` scope."""
        self._obs = run_obs
        self._counters = {
            kind: run_obs.registry.counter(f"faults.{kind}") for kind in FAULT_KINDS
        }

    # ------------------------------------------------------------- recording

    def _record(self, kind: str, sim_ts: int) -> None:
        self.counts[kind] += 1
        if GATE.enabled:
            counter = self._counters.get(kind)
            if counter is not None:
                counter.inc()
            if self._obs is not None:
                self._obs.spans.record(
                    f"faults.{kind}", _wall.perf_counter_ns(), 0,
                    sim_ts=sim_ts, cat="faults",
                )

    # ----------------------------------------------------------------- hooks

    def perturb_demand(self, partition: str, task, arrival: int, demand: int) -> int:
        """Apply WCET-overrun faults to a freshly drawn job demand (µs)."""
        streams = self._demand.get(partition)
        if not streams:
            return demand
        for stream in streams:
            spec = stream.spec
            if stream.rng.random() < spec.rate:
                inflated = int(round(demand * spec.magnitude))
                if spec.length:
                    inflated = min(inflated, spec.length)
                if inflated > demand:
                    demand = inflated
                    self._record(OVERRUN, arrival)
        return demand

    def perturb_gap(self, partition: str, task, arrival: int, gap: int) -> int:
        """Apply release-jitter and overload-burst faults to the next
        inter-arrival gap (µs, stays >= 1)."""
        streams = self._gap.get(partition)
        if not streams:
            return gap
        for stream in streams:
            spec = stream.spec
            if spec.kind == JITTER:
                if stream.rng.random() < spec.rate:
                    gap += stream.rng.randint(1, int(spec.magnitude))
                    self._record(JITTER, arrival)
            else:  # BURST
                if stream.remaining == 0 and stream.rng.random() < spec.rate:
                    stream.remaining = spec.length
                if stream.remaining > 0:
                    stream.remaining -= 1
                    compressed = max(1, int(gap / spec.magnitude))
                    if compressed < gap:
                        gap = compressed
                        self._record(BURST, arrival)
        return max(1, gap)

    def perturb_budget(self, partition: str, time: int, budget: int) -> int:
        """Apply stall and crash faults to a fresh replenishment (µs >= 0)."""
        streams = self._budget.get(partition)
        if not streams:
            return budget
        for stream in streams:
            spec = stream.spec
            if spec.kind == CRASH:
                if stream.remaining > 0:
                    stream.remaining -= 1
                    budget = 0
                    self._record(CRASH, time)
                elif stream.rng.random() < spec.rate:
                    stream.remaining = spec.length - 1
                    budget = 0
                    self._record(CRASH, time)
            else:  # STALL
                if stream.rng.random() < spec.rate:
                    burned = min(int(spec.magnitude), budget)
                    if burned > 0:
                        budget -= burned
                        self._record(STALL, time)
        return budget

    # ------------------------------------------------------------- reporting

    def metrics(self) -> Dict[str, int]:
        """Exact ``faults.*`` metric entries (always correct, gate or not)."""
        out = {f"faults.{kind}": count for kind, count in self.counts.items()}
        out["faults.total"] = self.total_injections
        return out
