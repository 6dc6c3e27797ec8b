"""Differential harness: a zero-intensity fault plan must be invisible.

The fault subsystem's determinism contract has two halves:

1. **Null plans are inert.** Every fault stream draws from its own RNG,
   derived via :func:`repro.runner.seeding.derive_seed` — never from the
   workload or policy streams — and null specs are dropped at injector
   construction. So attaching a zero-intensity plan (zero rate, identity
   magnitude, empty plan, ...) yields a run *bit-identical* to attaching
   nothing: same decision sequence, same segments, same candidacy counts.
   This is the acceptance gate named in the issue.

2. **Active plans are reproducible.** Same system, seed, and plan -->
   identical faulted runs, including across pause/resume slicing.
"""

import pytest

import repro.obs as obs
from repro._time import ms
from repro.faults import FaultPlan, FaultSpec, GuaranteeChecker
from repro.model.configs import table1_system, three_partition_example
from repro.sim.engine import Simulator
from repro.sim.trace import Observer, SegmentRecorder

#: The policies the acceptance criterion names: fixed priority plus both
#: TimeDice variants (uniform and weighted candidate selection).
POLICIES = ["norandom", "timedice-uniform", "timedice"]

NULL_PLANS = [
    FaultPlan(),  # empty
    FaultPlan.of(FaultSpec("overrun", "Pi_2", rate=0.0, magnitude=3.0)),
    FaultPlan.of(FaultSpec("overrun", "Pi_2", rate=1.0, magnitude=1.0)),
    FaultPlan.of(FaultSpec("jitter", "Pi_1", rate=1.0, magnitude=0.0)),
    FaultPlan.of(FaultSpec("burst", "Pi_3", rate=1.0, magnitude=4.0, length=0)),
    FaultPlan.of(FaultSpec("crash", "Pi_2", rate=1.0, length=0)),
]

ACTIVE_PLAN = FaultPlan.of(
    FaultSpec("overrun", "Pi_2", rate=0.8, magnitude=3.0),
    FaultSpec("jitter", "Pi_1", rate=0.5, magnitude=400.0),
)


class DecisionLog(Observer):
    def __init__(self):
        self.decisions = []

    def on_decision(self, t, chosen):
        self.decisions.append((t, chosen))


def run(system, policy, seed, faults=None, seconds=0.5):
    log = DecisionLog()
    segments = SegmentRecorder()
    sim = Simulator(
        system,
        policy=policy,
        seed=seed,
        observers=[log, segments],
        faults=faults,
    )
    result = sim.run_for_seconds(seconds)
    return log, segments, result, sim


def fingerprint(run_tuple):
    """Everything that must stay bit-identical for a null plan."""
    log, segments, result, sim = run_tuple
    return (
        log.decisions,
        segments.segments,
        result.decisions,
        result.switches,
        getattr(sim.policy, "total_schedulability_tests", None),
        result.deadline_misses,
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_zero_intensity_plan_is_bit_identical(policy):
    system = table1_system()
    obs.disable()
    baseline = fingerprint(run(system, policy, seed=11))
    for plan in NULL_PLANS:
        assert plan.is_null
        assert fingerprint(run(system, policy, seed=11, faults=plan)) == baseline


@pytest.mark.parametrize("policy", ["norandom", "timedice"])
def test_zero_intensity_plan_is_bit_identical_with_obs_on(policy):
    system = three_partition_example()
    obs.disable()
    baseline = fingerprint(run(system, policy, seed=7))
    obs.enable()
    try:
        assert fingerprint(run(system, policy, seed=7)) == baseline
        assert (
            fingerprint(run(system, policy, seed=7, faults=NULL_PLANS[1])) == baseline
        )
    finally:
        obs.disable()


def test_null_plan_reports_zero_injections():
    _, _, result, _ = run(three_partition_example(), "timedice", 7, faults=FaultPlan())
    assert result.fault_injections == 0
    assert "faults.total" not in result.metrics  # no injector, no metric entries


@pytest.mark.parametrize("policy", POLICIES)
def test_active_plan_is_deterministic(policy):
    system = table1_system()
    obs.disable()
    first = fingerprint(run(system, policy, seed=11, faults=ACTIVE_PLAN))
    again = fingerprint(run(system, policy, seed=11, faults=ACTIVE_PLAN))
    assert first == again
    # ...and actually perturbs the run
    assert first != fingerprint(run(system, policy, seed=11))


def test_active_plan_counts_surface_in_metrics():
    obs.disable()
    _, _, result, _ = run(
        three_partition_example(), "timedice", 7, faults=ACTIVE_PLAN
    )
    assert result.fault_injections > 0
    assert result.metrics["faults.total"] == result.fault_injections
    assert result.metrics["faults.overrun"] > 0
    assert result.metrics["faults.jitter"] > 0


def test_obs_counters_match_exact_counts():
    """Gated faults.* counters agree with the always-on exact counts."""
    obs.enable()
    try:
        sim = Simulator(
            three_partition_example(), policy="timedice", seed=7, faults=ACTIVE_PLAN
        )
        result = sim.run_for_ms(500)
        registry_counts = {
            name: counter.value
            for name, counter in sim.obs.registry._counters.items()
            if name.startswith("faults.") and counter.value
        }
    finally:
        obs.disable()
    assert registry_counts["faults.overrun"] == result.metrics["faults.overrun"]
    assert registry_counts["faults.jitter"] == result.metrics["faults.jitter"]


def test_pause_resume_matches_uninterrupted_faulted_run():
    """Injector state (RNG positions, burst/crash progress) must carry
    across run_until slices exactly like the rest of the engine state."""
    plan = FaultPlan.of(
        FaultSpec("overrun", "Pi_2", rate=0.5, magnitude=2.0),
        FaultSpec("crash", "Pi_1", rate=0.2, length=2),
    )
    obs.disable()

    log_a, seg_a = DecisionLog(), SegmentRecorder()
    sliced = Simulator(
        three_partition_example(),
        policy="timedice",
        seed=5,
        observers=[log_a, seg_a],
        faults=plan,
    )
    for k in range(1, 6):
        result_sliced = sliced.run_until(ms(100 * k))

    baseline = run(three_partition_example(), "timedice", 5, faults=plan)
    assert log_a.decisions == baseline[0].decisions
    assert seg_a.segments == baseline[1].segments
    assert result_sliced.fault_injections == baseline[2].fault_injections


def test_end_to_end_attribution_is_total():
    """Every deadline miss lands in exactly one attribution bucket, and
    faults confined to one partition's demand cannot leak misses across
    the budget-isolation boundary."""
    system = three_partition_example()
    plan = FaultPlan.of(FaultSpec("overrun", "Pi_2", rate=1.0, magnitude=4.0))
    obs.disable()
    for policy in ("norandom", "timedice"):
        checker = GuaranteeChecker(system, plan)
        result = Simulator(
            system, policy=policy, seed=11, faults=plan, observers=[checker]
        ).run_for_ms(500)
        report = checker.report()
        assert report["attributed"]
        assert report["total_misses"] == result.deadline_misses
        # server-based budget isolation: a demand fault inside Pi_2 cannot
        # starve the other partitions (the paper's schedulability-
        # preservation property, observed empirically)
        assert report["clean_misses"] == 0


def test_ambient_plan_applies_and_explicit_wins():
    """CLI-style ambient activation reaches every Simulator built inside
    the window; an explicit ``faults=`` argument overrides it."""
    from repro.faults import activate_plan, deactivate_plan

    system = three_partition_example()
    obs.disable()
    bare = fingerprint(run(system, "timedice", 7))
    faulted = fingerprint(run(system, "timedice", 7, faults=ACTIVE_PLAN))

    activate_plan(ACTIVE_PLAN)
    try:
        assert fingerprint(run(system, "timedice", 7)) == faulted
        # explicit plan (even a null one) beats the ambient plan — and the
        # override of what the operator activated is announced, once
        with pytest.warns(RuntimeWarning, match="overrides the active ambient"):
            assert fingerprint(run(system, "timedice", 7, faults=FaultPlan())) == bare
    finally:
        deactivate_plan()
    assert fingerprint(run(system, "timedice", 7)) == bare
