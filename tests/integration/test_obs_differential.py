"""Differential harness: observability must be invisible to the simulation.

Instrumentation never touches any simulation RNG and sampling decisions are
pure functions of per-name arrival counts, so a run must be bit-identical —
decision sequence, schedule segments, candidacy counters — with observability
off, on, on with aggressive sampling, and under trace capture. These tests
are the acceptance gate for the repro.obs layer.
"""

import pytest

import repro.obs as obs
from repro._time import ms
from repro.model.configs import table1_system, three_partition_example
from repro.sim.engine import Simulator
from repro.sim.trace import Observer, SegmentRecorder

POLICIES = ["timedice", "norandom", "tdma"]


class DecisionLog(Observer):
    """Records every (t, chosen) the policy emits, in order."""

    def __init__(self):
        self.decisions = []

    def on_decision(self, t, chosen):
        self.decisions.append((t, chosen))


def run(system, policy, seed, seconds=1.0):
    log = DecisionLog()
    segments = SegmentRecorder()
    sim = Simulator(
        system,
        policy=policy,
        seed=seed,
        observers=[log, segments],
    )
    result = sim.run_for_seconds(seconds)
    return sim, log, segments, result


def fingerprint(run_tuple):
    """Everything that must stay bit-identical across obs modes."""
    sim, log, segments, result = run_tuple
    return (
        log.decisions,
        segments.segments,
        result.decisions,
        result.switches,
        getattr(sim.policy, "total_schedulability_tests", None),
        result.deadline_misses,
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_obs_modes_are_bit_identical(policy):
    system = table1_system()
    seed = 11

    obs.disable()
    baseline = fingerprint(run(system, policy, seed))

    obs.enable()
    assert fingerprint(run(system, policy, seed)) == baseline

    obs.enable(sample_every=3, warmup=10)
    assert fingerprint(run(system, policy, seed)) == baseline

    obs.enable()
    obs.start_trace_capture()
    assert fingerprint(run(system, policy, seed)) == baseline
    captured = obs.stop_trace_capture()
    assert len(captured) == 1

    obs.disable()
    assert fingerprint(run(system, policy, seed)) == baseline


def test_enabled_run_populates_metrics():
    system = three_partition_example()
    obs.enable()
    sim, _, _, result = run(system, "timedice", 3, seconds=0.5)
    metrics = result.metrics
    assert metrics["engine.segments"] > 0
    assert metrics["engine.busy_us"] + metrics["engine.idle_us"] == ms(500)
    assert metrics["decide.wall_ns"]["count"] == result.decisions
    assert metrics["decide.schedulability_tests"] > 0
    # the gated counter agrees with the policy's exact lifetime count
    assert metrics["decide.schedulability_tests"] == sim.policy.total_schedulability_tests
    summary = sim.obs.spans.summary()
    assert summary["decide"]["count"] == result.decisions
    assert "candidacy" in summary


def test_disabled_run_still_reports_exact_counters():
    system = three_partition_example()
    obs.disable()
    sim, log, _, result = run(system, "timedice", 3, seconds=1.0)
    # the exact (ungated) counters keep counting
    assert result.decisions == len(log.decisions) > 0
    assert sim.policy.total_schedulability_tests > 0
    # gated engine and decide metrics stayed at zero
    assert result.metrics["engine.segments"] == 0
    assert result.metrics["decide.wall_ns"]["count"] == 0
    assert result.metrics["decide.schedulability_tests"] == 0


def test_pause_resume_matches_uninterrupted_with_obs_on():
    """Interleaving two instrumented sims (pause/resume) must not let their
    per-run scopes bleed into each other or alter either schedule."""
    system = three_partition_example()
    obs.enable()

    log_a, seg_a = DecisionLog(), SegmentRecorder()
    sim_a = Simulator(system, policy="timedice", seed=5, observers=[log_a, seg_a])
    log_b, seg_b = DecisionLog(), SegmentRecorder()
    sim_b = Simulator(
        three_partition_example(), policy="timedice", seed=5, observers=[log_b, seg_b]
    )

    # run A and B interleaved in 100 ms slices
    for k in range(1, 6):
        res_a = sim_a.run_until(ms(100 * k))
        res_b = sim_b.run_until(ms(100 * k))

    # same system/policy/seed -> identical runs, each with its own registry
    assert log_a.decisions == log_b.decisions
    assert seg_a.segments == seg_b.segments
    assert res_a.metrics["decide.wall_ns"]["count"] == res_a.decisions
    assert res_b.metrics["decide.wall_ns"]["count"] == res_b.decisions
    assert sim_a.obs is not sim_b.obs

    # ...and identical to one uninterrupted instrumented run
    baseline = run(three_partition_example(), "timedice", 5, seconds=0.5)
    assert log_a.decisions == baseline[1].decisions
    assert seg_a.segments == baseline[2].segments


def test_trace_capture_respects_max_runs():
    system = three_partition_example()
    obs.enable()
    obs.start_trace_capture(max_runs=2)
    for seed in (1, 2, 3):
        run(system, "norandom", seed, seconds=0.2)
    captured = obs.stop_trace_capture()
    assert len(captured) == 2
    for capture in captured:
        assert capture.partitions == ["Pi_1", "Pi_2", "Pi_3"]
        assert len(capture.segments) > 0
