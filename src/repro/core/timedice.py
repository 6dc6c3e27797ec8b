"""The TimeDice scheduler facade: one call per scheduling decision.

Combines the candidate search (Algorithm 1, step 1) with a pluggable random
selector (step 2). The facade is deliberately free of simulator state: it maps
a :class:`~repro.core.state.SystemState` snapshot to a
:class:`Decision`, which makes it directly benchmarkable (Table IV measures
exactly this call) and property-testable.
"""

from __future__ import annotations

import random
import time as _wall
from dataclasses import dataclass
from typing import List, Optional

from repro._time import MS
from repro.core.candidacy import Candidate, SearchStats, candidate_search
from repro.core.selection import Selector, WeightedUtilizationSelector
from repro.core.state import IDLE, SystemState
from repro.obs.gate import GATE

#: The paper's MIN_INV_SIZE: the randomization quantum, 1 ms.
DEFAULT_QUANTUM = 1 * MS


@dataclass
class Decision:
    """Outcome of one TimeDice scheduling decision.

    Attributes:
        choice: The selected partition snapshot, or :data:`IDLE`.
        candidates: The candidate list the selection was made from.
        stats: Search bookkeeping (number of schedulability tests, etc.).
        quantum: The inversion quantum the decision is valid for: the chosen
            partition may run for at most this long before TimeDice must be
            consulted again (unless an event preempts it earlier).
    """

    choice: Candidate
    candidates: List[Candidate]
    stats: SearchStats
    quantum: int

    @property
    def is_idle(self) -> bool:
        return self.choice is IDLE

    @property
    def partition_name(self) -> Optional[str]:
        return None if self.is_idle else self.choice.name


class TimeDice:
    """The TIMEDICE partition scheduler (Algorithm 1).

    Args:
        selector: Random-selection strategy; defaults to the paper's weighted
            lottery (TimeDiceW). Pass
            :class:`~repro.core.selection.UniformSelector` for TimeDiceU.
        quantum: MIN_INV_SIZE (µs); both the inversion length the candidacy
            test assumes and the re-randomization interval. 1 ms by default,
            matching the LITMUS^RT implementation.
        allow_idle: Whether the imaginary IDLE partition may be selected when
            even idling preserves schedulability.
        seed: Seed for the internal RNG; pass ``rng`` instead to share one.
        rng: Optional externally-owned RNG (takes precedence over ``seed``).
    """

    def __init__(
        self,
        selector: Optional[Selector] = None,
        quantum: int = DEFAULT_QUANTUM,
        allow_idle: bool = True,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ):
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.selector = selector if selector is not None else WeightedUtilizationSelector()
        self.quantum = quantum
        self.allow_idle = allow_idle
        self.rng = rng if rng is not None else random.Random(seed)
        #: Cumulative counters over the scheduler's lifetime.
        self.total_decisions = 0
        self.total_schedulability_tests = 0
        # Observability scope (attach_obs); None until a run attaches one.
        self._obs = None
        self._m_tests = None
        self._m_candidates = None

    def attach_obs(self, run_obs) -> None:
        """Bind a :class:`repro.obs.RunObs` scope (engine hand-off).

        Wires the candidacy sweep's span + counters. Metrics collect only
        while the obs gate is on.
        """
        self._obs = run_obs
        self._m_tests = run_obs.registry.counter("decide.schedulability_tests")
        self._m_candidates = run_obs.registry.histogram(
            "decide.candidates", bounds=tuple(range(1, 33))
        )

    def decide(self, state: SystemState) -> Decision:
        """Make one scheduling decision at ``state.t``.

        Runs the candidate search with the configured quantum as the
        inversion size, then draws one candidate with the configured
        selector. With no active ready partition the decision is IDLE with an
        empty candidate list.
        """
        if self._obs is not None and GATE.enabled:
            t0 = _wall.perf_counter_ns()
            candidates, stats = candidate_search(state, self.quantum, self.allow_idle)
            self._obs.spans.record(
                "candidacy", t0, _wall.perf_counter_ns() - t0, sim_ts=state.t
            )
            self._m_tests.inc(stats.schedulability_tests)
            self._m_candidates.observe(len(candidates))
        else:
            candidates, stats = candidate_search(state, self.quantum, self.allow_idle)
        self.total_decisions += 1
        self.total_schedulability_tests += stats.schedulability_tests
        if not candidates:
            return Decision(IDLE, [], stats, self.quantum)
        choice = self.selector.select(candidates, state.t, self.rng)
        return Decision(choice, list(candidates), stats, self.quantum)

    def reset_counters(self) -> None:
        """Zero the lifetime counters (between benchmark repetitions)."""
        self.total_decisions = 0
        self.total_schedulability_tests = 0
