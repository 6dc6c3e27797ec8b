"""Unit tests for the RunSpec layer (:mod:`repro.sim.config`).

Covers the spec's construction-time validation, the system-builder registry,
serialization round-trips, ambient fault-plan normalization, and the
``Simulator.from_spec`` equivalence with the kwargs constructor.
"""

import json

import pytest

import repro.obs as obs
from repro._time import ms
from repro.faults import FaultPlan, FaultSpec, activate_plan, deactivate_plan
from repro.model.configs import three_partition_example
from repro.sim.behaviors import ChannelScript
from repro.sim.config import (
    CONFIG_SCHEMA,
    RunSpec,
    SystemSpec,
    register_system_builder,
)
from repro.sim.engine import Simulator
from repro.sim.trace import SegmentRecorder


class TestSystemSpec:
    def test_named_builds_registered_system(self):
        spec = SystemSpec.named("three_partition")
        system = spec.build()
        assert [p.name for p in system] == [p.name for p in three_partition_example()]

    def test_inline_round_trips_the_system(self):
        system = three_partition_example()
        spec = SystemSpec.from_system(system)
        rebuilt = spec.build()
        assert rebuilt.to_dict() == system.to_dict()

    def test_exactly_one_form_enforced(self):
        with pytest.raises(ValueError):
            SystemSpec()
        with pytest.raises(ValueError):
            SystemSpec(builder="table1", inline={"partitions": []})

    def test_unknown_builder_raises_with_hint(self):
        with pytest.raises(KeyError, match="unknown system builder"):
            SystemSpec.named("no-such-system").build()

    def test_reregistering_same_callable_is_idempotent(self):
        from repro.model.configs import table1_system

        register_system_builder("table1", table1_system)  # no-op

    def test_repointing_a_name_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_system_builder("table1", lambda: None)

    def test_dict_round_trip(self):
        for spec in (
            SystemSpec.named("feasibility", alpha=0.08),
            SystemSpec.from_system(three_partition_example()),
        ):
            assert SystemSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()


class TestRunSpecValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            RunSpec(system=SystemSpec.named("three_partition"), policy="fifo")

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_nonpositive_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            RunSpec(system=SystemSpec.named("three_partition"), horizon=horizon)

    @pytest.mark.parametrize("quantum", [0, -1])
    def test_nonpositive_quantum_rejected(self, quantum):
        with pytest.raises(ValueError, match="quantum"):
            RunSpec(system=SystemSpec.named("three_partition"), quantum=quantum)

    def test_malformed_channel_fails_at_construction(self):
        with pytest.raises(Exception):
            RunSpec(
                system=SystemSpec.named("three_partition"),
                channel={"window": -1, "profile_windows": 2, "message_bits": []},
            )

    def test_accepts_live_objects_and_serializes_them(self):
        script = ChannelScript(window=ms(10), profile_windows=2, message_bits=(1, 0))
        plan = FaultPlan.of(FaultSpec("overrun", "Pi_2", rate=0.5, magnitude=2.0))
        spec = RunSpec(
            system=three_partition_example(), channel=script, faults=plan
        )
        assert spec.channel == script.to_dict()
        assert spec.faults == plan.to_dict()
        assert spec.channel_script().to_dict() == script.to_dict()
        assert spec.fault_plan().content_hash() == plan.content_hash()


class TestRunSpecSerialization:
    def _spec(self):
        return RunSpec(
            system=SystemSpec.named("feasibility", alpha=0.08),
            policy="timedice",
            seed=11,
            horizon=ms(500),
            quantum=2000,
            channel=ChannelScript(
                window=ms(150), profile_windows=4, message_bits=(1, 0, 1)
            ),
            faults=FaultPlan.of(FaultSpec("jitter", "Pi_1", rate=0.5, magnitude=400.0)),
            budget_donation=True,
        )

    def test_dict_and_json_round_trip(self):
        spec = self._spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec
        assert spec.to_dict()["schema"] == CONFIG_SCHEMA

    def test_wrong_schema_rejected(self):
        data = self._spec().to_dict()
        data["schema"] = CONFIG_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            RunSpec.from_dict(data)

    def test_content_hash_survives_json_round_trip(self):
        spec = self._spec()
        assert RunSpec.from_json(spec.to_json()).content_hash() == spec.content_hash()

    def test_content_hash_distinguishes_every_field(self):
        base = self._spec()
        variants = [
            base.replace(seed=12),
            base.replace(policy="norandom"),
            base.replace(horizon=ms(501)),
            base.replace(quantum=2001),
            base.replace(memoize=False),
            base.replace(budget_donation=False),
            base.replace(measure_overhead=True),
            base.replace(faults=None),
            base.replace(system=SystemSpec.named("feasibility", alpha=0.04)),
        ]
        hashes = {base.content_hash()} | {v.content_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            self._spec().replace(horizon=-1)


class TestNormalization:
    def test_no_ambient_plan_is_identity(self):
        spec = RunSpec(system=SystemSpec.named("three_partition"))
        assert spec.normalized() is spec

    def test_ambient_plan_is_adopted(self):
        plan = FaultPlan.of(FaultSpec("overrun", "Pi_2", rate=0.5, magnitude=2.0))
        spec = RunSpec(system=SystemSpec.named("three_partition"))
        activate_plan(plan)
        try:
            resolved = spec.normalized()
        finally:
            deactivate_plan()
        assert resolved.faults == plan.to_dict()
        assert resolved.content_hash() != spec.content_hash()

    def test_explicit_plan_wins_over_ambient(self):
        explicit = FaultPlan.of(FaultSpec("jitter", "Pi_1", rate=0.3, magnitude=100.0))
        ambient = FaultPlan.of(FaultSpec("overrun", "Pi_2", rate=0.5, magnitude=2.0))
        spec = RunSpec(system=SystemSpec.named("three_partition"), faults=explicit)
        activate_plan(ambient)
        try:
            with pytest.warns(RuntimeWarning, match="overrides the active ambient"):
                resolved = spec.normalized()
        finally:
            deactivate_plan()
        assert resolved.faults == explicit.to_dict()


class TestFromSpec:
    def _fingerprint(self, sim, horizon):
        result = sim.run_until(horizon)
        return (
            result.decisions,
            result.switches,
            result.deadline_misses,
            sim.policy.total_schedulability_tests,
            result.fault_injections,
        )

    def test_from_spec_matches_kwargs_construction(self):
        obs.disable()
        horizon = ms(400)
        plan = FaultPlan.of(FaultSpec("overrun", "Pi_2", rate=0.5, magnitude=2.0))
        spec = RunSpec(
            system=SystemSpec.named("three_partition"),
            policy="timedice",
            seed=9,
            horizon=horizon,
            faults=plan,
        )
        via_spec = self._fingerprint(Simulator.from_spec(spec), horizon)
        via_kwargs = self._fingerprint(
            Simulator(
                three_partition_example(), policy="timedice", seed=9, faults=plan
            ),
            horizon,
        )
        assert via_spec == via_kwargs

    def test_from_spec_resolves_ambient_plan(self):
        obs.disable()
        horizon = ms(400)
        plan = FaultPlan.of(FaultSpec("overrun", "Pi_2", rate=0.8, magnitude=3.0))
        spec = RunSpec(
            system=SystemSpec.named("three_partition"), policy="timedice", seed=9
        )
        activate_plan(plan)
        try:
            ambient = self._fingerprint(Simulator.from_spec(spec), horizon)
        finally:
            deactivate_plan()
        explicit = self._fingerprint(
            Simulator.from_spec(spec.replace(faults=plan)), horizon
        )
        bare = self._fingerprint(Simulator.from_spec(spec), horizon)
        assert ambient == explicit
        assert ambient != bare

    def test_memoize_field_is_hash_only(self):
        # RunSpec.memoize survives only so existing content hashes stay
        # byte-identical: it is hashed but never changes the run.
        obs.disable()
        spec = RunSpec(
            system=SystemSpec.named("three_partition"),
            policy="timedice",
            seed=9,
            horizon=ms(400),
        )
        runs = []
        for memoize in (True, False):
            segments = SegmentRecorder()
            sim = Simulator.from_spec(spec.replace(memoize=memoize), observers=[segments])
            result = sim.run_until(spec.horizon)
            runs.append((result.decisions, result.switches, segments.segments))
        assert runs[0] == runs[1]
        assert runs[0][2]
        assert spec.replace(memoize=False).content_hash() != spec.content_hash()


class TestRunForValidation:
    def _sim(self):
        return Simulator(three_partition_example(), policy="norandom", seed=1)

    @pytest.mark.parametrize("duration", [0, -1, -0.5, float("nan")])
    def test_run_for_ms_rejects_nonpositive(self, duration):
        with pytest.raises(ValueError, match="duration"):
            self._sim().run_for_ms(duration)

    @pytest.mark.parametrize("duration", [0, -2, float("nan")])
    def test_run_for_seconds_rejects_nonpositive(self, duration):
        with pytest.raises(ValueError, match="duration"):
            self._sim().run_for_seconds(duration)

    def test_sub_microsecond_duration_rejected(self):
        with pytest.raises(ValueError, match="rounds to zero"):
            self._sim().run_for_ms(0.0001)  # 0.1 us
        with pytest.raises(ValueError, match="rounds to zero"):
            self._sim().run_for_seconds(1e-7)

    def test_fractional_duration_rounds_to_whole_microseconds(self):
        sim = self._sim()
        sim.run_for_ms(0.0015)  # 1.5 us -> 2 us (round-half-even)
        assert sim.now == 2
        sim.run_for_seconds(2.5e-6)  # another 2.5 us -> rounds to 2
        assert sim.now == 4

    def test_valid_durations_advance_the_clock(self):
        sim = self._sim()
        sim.run_for_ms(10)
        assert sim.now == ms(10)
        sim.run_for_seconds(0.01)
        assert sim.now == ms(20)
