"""The paper's primary contribution: the TIMEDICE algorithm (Sec. IV).

Layout:

- :mod:`repro.core.state` — immutable snapshots of partition runtime state
  (remaining budgets :math:`B_i(t)`, last replenishment times
  :math:`r_{i,t}`) that the algorithm operates on. The simulator produces
  them; synthetic ones drive the latency benchmarks.
- :mod:`repro.core.busy_interval` — the level-:math:`\\Pi_h` busy-interval
  analysis (Definition 2, Eqs. 1–3) and the per-partition schedulability test
  (Algorithm 3), including the indirect-interference case for inactive
  partitions (Fig. 8).
- :mod:`repro.core.edf` — the processor-demand vs supply-bound EDF
  feasibility test for partitions whose *local* scheduler is EDF-based
  (the vetting complement to the fixed-priority analysis above).
- :mod:`repro.core.candidacy` — the incremental candidate search
  (Algorithms 1–2, Fig. 9's :math:`\\mathcal{O}(|\\Pi|)` optimization),
  with the imaginary IDLE partition.
- :mod:`repro.core.selection` — uniform, weighted (remaining-utilization
  lottery), and inverse-weighted (Theorem 1 ablation) random selectors.
- :mod:`repro.core.timedice` — the :class:`TimeDice` facade combining
  search and selection into one scheduling decision.
"""

from repro.core.busy_interval import busy_interval, schedulability_test
from repro.core.candidacy import candidate_search
from repro.core.edf import (
    demand_bound,
    edf_supply_feasible,
    edf_supply_report,
    supply_bound,
)
from repro.core.selection import (
    HighestPrioritySelector,
    InverseUtilizationSelector,
    UniformSelector,
    WeightedUtilizationSelector,
)
from repro.core.state import IDLE, PartitionState, SystemState
from repro.core.timedice import DEFAULT_QUANTUM, Decision, TimeDice

__all__ = [
    "IDLE",
    "PartitionState",
    "SystemState",
    "busy_interval",
    "schedulability_test",
    "candidate_search",
    "demand_bound",
    "supply_bound",
    "edf_supply_feasible",
    "edf_supply_report",
    "UniformSelector",
    "WeightedUtilizationSelector",
    "InverseUtilizationSelector",
    "HighestPrioritySelector",
    "TimeDice",
    "Decision",
    "DEFAULT_QUANTUM",
]
