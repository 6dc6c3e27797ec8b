"""Unit tests for :func:`repro.faults.resolve_fault_plan`.

The explicit-wins precedence between a ``faults=`` argument and the
process-ambient plan is decided in exactly one place; these tests pin its
contract: the returned plan, the one-time RuntimeWarning, and the gated
``faults.ambient_overridden`` counter.
"""

import warnings

import pytest

import repro.obs as obs
from repro.faults import (
    FaultPlan,
    FaultSpec,
    activate_plan,
    deactivate_plan,
    resolve_fault_plan,
)
from repro.model.configs import three_partition_example
from repro.runner import CampaignCell, CampaignSpec, run_campaign
from repro.sim.engine import Simulator

EXPLICIT = FaultPlan.of(FaultSpec("jitter", "Pi_1", rate=0.3, magnitude=100.0))
AMBIENT = FaultPlan.of(FaultSpec("overrun", "Pi_2", rate=0.5, magnitude=2.0))


def overridden_cell(params):
    """Builds, and never runs, a simulator whose explicit plan displaces
    the ambient one: an override with zero injections."""
    Simulator(three_partition_example(), policy="norandom", seed=1, faults=EXPLICIT)
    return 0


@pytest.fixture
def ambient_active():
    activate_plan(AMBIENT)
    yield AMBIENT
    deactivate_plan()


class TestPrecedence:
    def test_no_ambient_no_explicit(self):
        assert resolve_fault_plan(None) is None

    def test_no_ambient_returns_explicit_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_fault_plan(EXPLICIT) is EXPLICIT

    def test_ambient_adopted_when_no_explicit(self, ambient_active):
        assert resolve_fault_plan(None) is AMBIENT

    def test_explicit_beats_ambient(self, ambient_active):
        with pytest.warns(RuntimeWarning, match="overrides the active ambient"):
            assert resolve_fault_plan(EXPLICIT) is EXPLICIT

    def test_passing_the_ambient_plan_back_is_not_an_override(self, ambient_active):
        """A normalized RunSpec hands the adopted ambient plan to the engine
        explicitly — that round-trip must stay silent."""
        same = FaultPlan.from_dict(AMBIENT.to_dict())  # equal, distinct object
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_fault_plan(same) is same


class TestWarningIsOneTime:
    def test_second_override_is_silent(self, ambient_active):
        with pytest.warns(RuntimeWarning):
            resolve_fault_plan(EXPLICIT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_fault_plan(EXPLICIT)


class TestCounter:
    def test_counter_ticks_when_obs_enabled(self, ambient_active):
        obs.enable()
        try:
            with pytest.warns(RuntimeWarning):
                sim = Simulator(
                    three_partition_example(),
                    policy="norandom",
                    seed=1,
                    faults=EXPLICIT,
                )
            counter = sim.obs.registry.counter("faults.ambient_overridden")
            assert counter.value == 1
        finally:
            obs.disable()

    def test_counter_stays_zero_when_obs_disabled(self, ambient_active):
        obs.disable()
        with pytest.warns(RuntimeWarning):
            sim = Simulator(
                three_partition_example(), policy="norandom", seed=1, faults=EXPLICIT
            )
        assert sim.obs.registry.counter("faults.ambient_overridden").value == 0

    def test_counter_stays_zero_without_override(self, ambient_active):
        obs.enable()
        try:
            sim = Simulator(three_partition_example(), policy="norandom", seed=1)
            assert (
                sim.obs.registry.counter("faults.ambient_overridden").value == 0
            )
        finally:
            obs.disable()

    def test_override_is_not_a_fault_injection(self, ambient_active):
        obs.enable()
        try:
            with pytest.warns(RuntimeWarning):
                result = run_campaign(
                    CampaignSpec("override", [CampaignCell("c", f"{__name__}:overridden_cell", {})])
                )
        finally:
            obs.disable()
        telemetry = result.telemetry
        assert telemetry.obs_rollup()["faults.ambient_overridden"] == 1
        assert telemetry.faults_rollup() is None
        assert telemetry.snapshot()["faults"] is None
