"""Property tests pinning the optimized candidate search to a brute-force
oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._time import ms
from repro.core.busy_interval import schedulability_test
from repro.core.candidacy import candidate_search
from repro.core.state import IDLE, SystemState

from tests.property.test_prop_core import system_states


def oracle_candidates(state: SystemState, w: int, allow_idle: bool = True):
    """Algorithm 1 without the Fig. 9 sweep: every candidate is vetted by
    independently testing *every* partition ranked above it, from scratch.

    The prefix structure of the optimized search is a theorem, not an
    assumption: if some Pi_h blocks candidate i, it also ranks above every
    later candidate, so testing each candidate independently must yield the
    same list the incremental sweep finds.
    """
    active = state.active_ready()
    if not active:
        return ([IDLE] if allow_idle else []), allow_idle
    all_parts = state.partitions
    rank_of = {p.name: i for i, p in enumerate(all_parts)}

    def admitted(limit: int) -> bool:
        return all(
            schedulability_test(h, all_parts[: rank_of[h.name]], state.t, w)
            for h in all_parts[:limit]
        )

    candidates = [active[0]]
    for candidate in active[1:]:
        if not admitted(rank_of[candidate.name]):
            break
        candidates.append(candidate)
    idle_ok = False
    if allow_idle and len(candidates) == len(active) and admitted(len(all_parts)):
        idle_ok = True
        candidates.append(IDLE)
    return candidates, idle_ok


def names(candidates):
    return [c if c is IDLE else c.name for c in candidates]


class TestOracleAgreement:
    @given(
        system_states(),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, state, w_ms, allow_idle):
        expected, expected_idle = oracle_candidates(state, ms(w_ms), allow_idle)
        candidates, stats = candidate_search(state, ms(w_ms), allow_idle=allow_idle)
        assert names(candidates) == names(expected)
        assert stats.idle_allowed == expected_idle
