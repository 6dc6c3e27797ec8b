"""Global (partition-level) scheduling policies.

- :class:`FixedPriorityPolicy` — NoRandom: the default LITMUS^RT behaviour;
  the highest-priority active partition runs until the next scheduling event.
- :class:`TimeDicePolicy` — wraps :class:`repro.core.TimeDice`; re-randomizes
  every quantum (MIN_INV_SIZE).
- :class:`TDMAPolicy` — static table-driven partitioning in the spirit of
  ARINC 653: a cyclic slot table built offline guarantees each partition its
  budget every period; the CPU idles in a slot whose owner has no work
  (non-work-conserving — this is what removes the covert channel at the cost
  of utilization, Sec. III-h).

All policies share one interface: :meth:`decide` maps a
:class:`~repro.core.state.SystemState` snapshot to a :class:`PolicyChoice`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.selection import (
    InverseUtilizationSelector,
    Selector,
    UniformSelector,
    WeightedUtilizationSelector,
)
from repro.core.state import SystemState
from repro.core.timedice import DEFAULT_QUANTUM, TimeDice
from repro.model.system import System
from repro.sim.registry import get_global_policy, register_global_policy


@dataclass
class PolicyChoice:
    """One global scheduling decision.

    Attributes:
        partition: Name of the partition to run, or None to idle.
        max_slice: Upper bound (µs) on how long the choice may run before the
            policy must be consulted again; None means "until the next
            scheduling event" (task arrival/completion, budget depletion,
            replenishment).
    """

    partition: Optional[str]
    max_slice: Optional[int] = None


class GlobalPolicyBase:
    """Interface for global scheduling policies."""

    #: Identifier used in experiment outputs.
    name = "abstract"

    def decide(self, state: SystemState) -> PolicyChoice:
        raise NotImplementedError


class FixedPriorityPolicy(GlobalPolicyBase):
    """NoRandom: always run the highest-priority active ready partition."""

    name = "norandom"

    def decide(self, state: SystemState) -> PolicyChoice:
        ready = state.active_ready()
        if not ready:
            return PolicyChoice(None)
        return PolicyChoice(ready[0].name)


class TimeDicePolicy(GlobalPolicyBase):
    """TimeDice-enabled global scheduling (Sec. IV / Sec. V-A).

    The selected partition holds the CPU for at most one quantum; then the
    dice are rolled again.
    """

    def __init__(
        self,
        selector: Optional[Selector] = None,
        quantum: int = DEFAULT_QUANTUM,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        allow_idle: bool = True,
    ):
        self.scheduler = TimeDice(
            selector=selector,
            quantum=quantum,
            allow_idle=allow_idle,
            seed=seed,
            rng=rng,
        )
        self.name = f"timedice-{self.scheduler.selector.name}"

    def attach_obs(self, run_obs) -> None:
        """Engine hand-off of the run's :class:`repro.obs.RunObs` scope."""
        self.scheduler.attach_obs(run_obs)

    def decide(self, state: SystemState) -> PolicyChoice:
        decision = self.scheduler.decide(state)
        return PolicyChoice(decision.partition_name, max_slice=decision.quantum)

    @property
    def total_schedulability_tests(self) -> int:
        return self.scheduler.total_schedulability_tests


@dataclass(frozen=True)
class TDMASlot:
    """One slot of the static table: [start, end) owned by ``partition``."""

    start: int
    end: int
    partition: str


class TDMAUnschedulableError(ValueError):
    """The partition set cannot be served by any static table.

    The message names the offending partition, its (and the set's)
    utilization, and summarizes the slot table built so far, so the failure
    is actionable without re-running construction under a debugger.
    """


class TDMAPolicy(GlobalPolicyBase):
    """Static cyclic table-driven partitioning (ARINC 653 style).

    The table is the fixed-priority schedule of "budget jobs" — each
    partition demanding exactly :math:`B_i` at every multiple of :math:`T_i`
    — over one hyperperiod. If every budget job completes within its period,
    the table guarantees each partition its full budget per period
    (Definition 1); otherwise the set is statically unschedulable and
    construction raises :class:`TDMAUnschedulableError`.

    At run time, only the slot owner may execute in a slot; the CPU idles if
    the owner has no work. No two partitions are ever *active in the same
    slot*, which removes the algorithmic covert channel entirely (at the
    utilization cost the paper discusses).
    """

    name = "tdma"

    def __init__(self, system: System):
        self.system = system
        self.hyperperiod = system.hyperperiod
        self.slots = self._build_table(system)

    @staticmethod
    def _diagnostics(system: System, partition, slots: List[TDMASlot]) -> str:
        """The shared tail of every unschedulability message: utilizations
        plus a summary of the slot table built before the conflict."""
        total = sum(p.utilization for p in system)
        tail = ", ".join(
            f"[{s.start},{s.end})->{s.partition}" for s in slots[-4:]
        )
        if len(slots) > 4:
            tail = f"..., {tail}"
        return (
            f"(partition utilization {partition.utilization:.3f}, "
            f"set total {total:.3f} over {len(list(system))} partition(s); "
            f"table so far: {len(slots)} slot(s)"
            + (f" {tail}" if slots else "")
            + ")"
        )

    @staticmethod
    def _build_table(system: System) -> List[TDMASlot]:
        hyper = system.hyperperiod
        remaining = {p.name: 0 for p in system}
        deadline = {p.name: 0 for p in system}
        # Replenishment instants within one hyperperiod.
        instants = sorted(
            {k * p.period for p in system for k in range(hyper // p.period)} | {hyper}
        )
        slots: List[TDMASlot] = []
        t = 0
        index = 0
        while t < hyper:
            while index < len(instants) and instants[index] <= t:
                for p in system:
                    if instants[index] % p.period == 0:
                        if remaining[p.name] > 0:
                            raise TDMAUnschedulableError(
                                f"partition {p.name!r} cannot receive "
                                f"{p.budget}us every {p.period}us in any "
                                f"static table: {remaining[p.name]}us of its "
                                f"budget is still unserved at its "
                                f"replenishment t={instants[index]}us "
                                + TDMAPolicy._diagnostics(system, p, slots)
                            )
                        remaining[p.name] = p.budget
                        deadline[p.name] = instants[index] + p.period
                index += 1
            next_instant = instants[index] if index < len(instants) else hyper
            runnable = [p for p in system if remaining[p.name] > 0]
            if not runnable:
                t = next_instant
                continue
            owner = runnable[0]  # system order == decreasing priority
            duration = min(next_instant - t, remaining[owner.name])
            if t + duration > deadline[owner.name]:
                raise TDMAUnschedulableError(
                    f"partition {owner.name!r} misses its budget deadline in "
                    f"the static table: its slot would run to t={t + duration}us "
                    f"but its budget ({owner.budget}us every {owner.period}us) "
                    f"is due by t={deadline[owner.name]}us "
                    + TDMAPolicy._diagnostics(system, owner, slots)
                )
            slots.append(TDMASlot(t, t + duration, owner.name))
            remaining[owner.name] -= duration
            t += duration
        if any(value > 0 for value in remaining.values()):
            short = next(p for p in system if remaining[p.name] > 0)
            raise TDMAUnschedulableError(
                f"partition {short.name!r} has {remaining[short.name]}us of "
                f"unserved budget ({short.budget}us every {short.period}us) at "
                f"the end of the {hyper}us hyperperiod "
                + TDMAPolicy._diagnostics(system, short, slots)
            )
        return slots

    def slot_at(self, t: int) -> Tuple[Optional[TDMASlot], int]:
        """The slot containing ``t`` (None for idle gaps) and time to its end."""
        phase = t % self.hyperperiod
        lo, hi = 0, len(self.slots)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.slots[mid].end <= phase:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self.slots) and self.slots[lo].start <= phase:
            return self.slots[lo], self.slots[lo].end - phase
        next_start = self.slots[lo].start if lo < len(self.slots) else self.hyperperiod
        return None, next_start - phase

    def decide(self, state: SystemState) -> PolicyChoice:
        slot, until = self.slot_at(state.t)
        if slot is None:
            return PolicyChoice(None, max_slice=until)
        owner = state.by_name(slot.partition)
        if owner.active and owner.ready:
            return PolicyChoice(slot.partition, max_slice=until)
        return PolicyChoice(None, max_slice=until)


class GlobalPolicy:
    """Canonical policy names accepted by :func:`make_policy` and the CLI."""

    NORANDOM = "norandom"
    TIMEDICE_WEIGHTED = "timedice"
    TIMEDICE_UNIFORM = "timedice-uniform"
    TIMEDICE_INVERSE = "timedice-inverse"
    TDMA = "tdma"


#: The builtin policy names (docs and CLI help enumerate these); the open
#: set — builtins plus third-party registrations — lives in
#: :func:`repro.sim.registry.global_policy_names`.
POLICY_NAMES = (
    GlobalPolicy.NORANDOM,
    GlobalPolicy.TIMEDICE_WEIGHTED,
    GlobalPolicy.TIMEDICE_UNIFORM,
    GlobalPolicy.TIMEDICE_INVERSE,
    GlobalPolicy.TDMA,
)


def make_policy(
    name: str,
    system: Optional[System] = None,
    seed: Optional[int] = None,
    quantum: int = DEFAULT_QUANTUM,
) -> GlobalPolicyBase:
    """Build a policy by registered name (see
    :func:`repro.sim.registry.register_global_policy`).

    ``system`` is required for TDMA (the static table is system-specific);
    ``seed``/``quantum`` apply to the TimeDice variants. Every entry's
    factory receives all three keywords and uses what it needs.
    """
    entry = get_global_policy(name)
    return entry.factory(system=system, seed=seed, quantum=quantum)


# ------------------------------------------------- registry (spec-addressable)


def _build_norandom(system=None, seed=None, quantum=DEFAULT_QUANTUM):
    return FixedPriorityPolicy()


def _build_timedice_weighted(system=None, seed=None, quantum=DEFAULT_QUANTUM):
    return TimeDicePolicy(WeightedUtilizationSelector(), quantum=quantum, seed=seed)


def _build_timedice_uniform(system=None, seed=None, quantum=DEFAULT_QUANTUM):
    return TimeDicePolicy(UniformSelector(), quantum=quantum, seed=seed)


def _build_timedice_inverse(system=None, seed=None, quantum=DEFAULT_QUANTUM):
    return TimeDicePolicy(InverseUtilizationSelector(), quantum=quantum, seed=seed)


def _build_tdma(system=None, seed=None, quantum=DEFAULT_QUANTUM):
    if system is None:
        raise ValueError("TDMA needs the system to build its static table")
    return TDMAPolicy(system)


# The labels match each built instance's ``name`` attribute (the scalar
# engine's RunObs label); selector kinds drive the batch engine's vectorized
# dice. batch=True marks the policies repro.sim.batch implements.
register_global_policy(
    GlobalPolicy.NORANDOM, _build_norandom, label="norandom", batch=True
)
register_global_policy(
    GlobalPolicy.TIMEDICE_WEIGHTED,
    _build_timedice_weighted,
    label="timedice-weighted",
    selector_kind="weighted",
    batch=True,
)
register_global_policy(
    GlobalPolicy.TIMEDICE_UNIFORM,
    _build_timedice_uniform,
    label="timedice-uniform",
    selector_kind="uniform",
    batch=True,
)
register_global_policy(
    GlobalPolicy.TIMEDICE_INVERSE,
    _build_timedice_inverse,
    label="timedice-inverse",
    selector_kind="inverse",
    batch=True,
)
register_global_policy(GlobalPolicy.TDMA, _build_tdma, label="tdma", batch=True)
