"""Candidate search: Algorithms 1 and 2 with the Fig. 9 optimization.

At decision time ``t``, let :math:`\\mathcal{L}_t = (\\Pi_{(1)}, \\dots,
\\Pi_{(n)})` be the *active, ready* partitions in decreasing priority order,
followed by the imaginary IDLE partition. The candidate list is built by
walking that sequence:

- :math:`\\Pi_{(1)}` is always a candidate — running the highest-priority
  active partition is no inversion at all.
- :math:`\\Pi_{(i)}` is a candidate iff every partition with priority above it
  — **including inactive ones**, which are exposed to the indirect
  interference of Fig. 8, and including inactive partitions ranked above
  :math:`\\Pi_{(1)}` itself — passes the schedulability test of Algorithm 3
  for an inversion of the quantum size ``w``.
- The walk stops at the first failure: if some :math:`\\Pi_h` above
  :math:`\\Pi_{(i)}` cannot absorb the inversion, it cannot absorb the same
  inversion caused by :math:`\\Pi_{(i+1)}` either (the analysis depends only
  on ``w``, not on who causes it).
- IDLE is appended last and tested the same way: idling for ``w`` is an
  inversion against *every* partition.

Fig. 9's complexity argument is implemented as an incremental sweep over the
full priority order, starting at the very top: each partition in the system
is schedulability-tested at most once per decision because partitions
already vetted for :math:`\\Pi_{(i-1)}` are skipped when testing
:math:`\\Pi_{(i)}` — hence :math:`\\mathcal{O}(|\\Pi|)` tests per decision.
The only partition that is never tested *on its own account* is
:math:`\\Pi_{(1)}`: running it is no inversion. It is still swept like
everybody else when a lower candidate or IDLE is vetted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from repro.core.busy_interval import schedulability_test
from repro.core.state import IDLE, PartitionState, SystemState

Candidate = Union[PartitionState, type(IDLE)]


@dataclass
class SearchStats:
    """Bookkeeping for the overhead study (Fig. 17 / Table IV)."""

    schedulability_tests: int = 0
    candidates_found: int = 0
    idle_allowed: bool = False


def candidate_search(
    state: SystemState,
    w: int,
    allow_idle: bool = True,
) -> Tuple[List[Candidate], SearchStats]:
    """Step 1 of Algorithm 1: the list of partitions allowed to take the CPU.

    Args:
        state: Full system snapshot at the decision time (all partitions).
        w: The inversion quantum ``MIN_INV_SIZE`` (µs).
        allow_idle: When True, the imaginary IDLE partition is tested and, if
            schedulability-preserving, appended to the candidate list.

    Returns:
        ``(candidates, stats)``. ``candidates`` preserves decreasing priority
        order, with :data:`~repro.core.state.IDLE` last when allowed. The
        list is empty only when there is no active ready partition at all
        (the caller should then idle until the next event).
    """
    t = state.t
    stats = SearchStats()
    active = state.active_ready()
    if not active:
        if allow_idle:
            stats.idle_allowed = True
            return [IDLE], stats
        return [], stats

    all_parts = state.partitions  # already sorted by decreasing priority
    # Pi_(1) is admitted without any vetting: running the highest-priority
    # active partition is no inversion, so nobody needs to absorb anything
    # on its account.
    candidates: List[Candidate] = [active[0]]

    # Index into all_parts of the first partition NOT yet schedulability-
    # tested. The sweep starts at the very top of the priority order:
    # inactive partitions ranked above Pi_(1) are exposed to the indirect
    # interference of Fig. 8 exactly like everybody else, so they must be
    # vetted before any *inverted* candidate (or IDLE) is admitted. The
    # Fig. 9 optimization is only that we never re-test a partition.
    next_untested = 0
    rank_of = {p.name: i for i, p in enumerate(all_parts)}

    def vet_up_to(limit: int) -> bool:
        """Test every not-yet-tested partition with rank < limit."""
        nonlocal next_untested
        while next_untested < limit:
            stats.schedulability_tests += 1
            if not schedulability_test(
                all_parts[next_untested], all_parts[:next_untested], t, w
            ):
                return False
            next_untested += 1
        return True

    feasible = True
    for candidate in active[1:]:
        # hp(Pi_(i)) - hp(Pi_(i-1)): all partitions, active or inactive,
        # ranked above this candidate and not yet vetted.
        if not vet_up_to(rank_of[candidate.name]):
            feasible = False
            break
        candidates.append(candidate)

    if feasible and allow_idle:
        # IDLE sits below everything: idling is an inversion against every
        # partition, so the remaining unvetted ones must pass too.
        if vet_up_to(len(all_parts)):
            stats.idle_allowed = True
            candidates.append(IDLE)

    stats.candidates_found = len(candidates)
    return candidates, stats
