"""Differential contract of the batch (struct-of-arrays) engine.

The batch backend in :mod:`repro.sim.batch` advances many RunSpecs in
lockstep through numpy arrays; its merge gate is **bit-identity with the
scalar engine** on the complete observable outcome of every run — segment
trace, job-completion records, decision/switch/miss counters, and every
deterministic metric the scalar engine publishes *except* its private
instrumentation (the ``decide.*`` counters and histograms, which describe
the scalar implementation, not the schedule).

Three layers of evidence:

- every golden-matrix configuration from
  ``tests/integration/test_engine_differential.py`` re-run through the
  batch engine, with the headline counters also pinned against the golden
  file itself (so batch == scalar == pre-refactor engine);
- new randomized-policy and fault-plan sweeps compared scalar-vs-batch
  live, including heterogeneous many-run batches (mixed policies, seeds,
  and fault plans advancing in one ``BatchSimulator``);
- campaign-level equivalence: ``run_campaign(batch="auto")`` produces the
  same results, outcomes, and store contents as ``batch="off"``, serially
  and in parallel, and dissolves failed groups into unbumped singles.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

import repro.obs as obs
import repro.runner.tasks as runner_tasks
from repro.faults import FaultPlan, FaultSpec
from repro.runner import CampaignCell, CampaignSpec, run_campaign
from repro.runner.spec import CACHE_SCHEMA
from repro.sim.batch import (
    BatchRunAdapter,
    batch_compatible,
    batch_group_key,
    run_specs_batched,
)
from repro.sim.behaviors import ChannelScript
from repro.sim.config import RunSpec, SystemSpec
from repro.sim.engine import Simulator
from repro.sim.trace import SegmentRecorder
from repro.store import JsonStore

from tests.integration.test_engine_differential import (
    GOLDEN_PATH,
    HORIZON_US,
    SEED,
    _deterministic_metrics,
    _fault_plan,
    _JobLog,
    fingerprint,
    run_case,
)

#: Scalar-engine instrumentation that the batch backend deliberately does
#: not reproduce (see the bit-identity contract in repro/sim/batch.py).
_SCALAR_ONLY_PREFIXES = ("decide.",)


def _strip_scalar_only(outcome):
    out = dict(outcome)
    out["metrics"] = {
        k: v
        for k, v in outcome["metrics"].items()
        if not k.startswith(_SCALAR_ONLY_PREFIXES)
    }
    return out


def _case_spec(policy, faults, system_kind="three_partition", horizon=HORIZON_US,
               seed=SEED):
    """The RunSpec equivalent of the golden harness's ``run_case`` setup."""
    if system_kind == "three_partition":
        system = SystemSpec.named("three_partition")
        channel = None
    else:
        system = SystemSpec.named("feasibility")
        window = 3 * SystemSpec.named("feasibility").build().by_name("Pi_4").period
        channel = ChannelScript(
            window=window,
            profile_windows=2,
            message_bits=ChannelScript.random_message(16, seed + 1),
        )
    return RunSpec(
        system=system,
        policy=policy,
        seed=seed,
        horizon=horizon,
        channel=channel,
        faults=_fault_plan() if faults else None,
        engine="batch",
    )


def _batch_run_case(policy, faults, obs_on, system_kind="three_partition",
                    horizon=HORIZON_US, seed=SEED):
    """``run_case`` through the batch backend; same outcome document."""
    spec = _case_spec(policy, faults, system_kind, horizon, seed)
    recorder = SegmentRecorder()
    jobs = _JobLog()
    was_enabled = obs.is_enabled()
    if obs_on and not was_enabled:
        obs.enable()
    try:
        sim = Simulator.from_spec(spec, observers=[recorder, jobs])
        assert isinstance(sim, BatchRunAdapter), "engine='batch' must dispatch"
        result = sim.run_until(horizon)
    finally:
        if obs_on and not was_enabled:
            obs.disable()
    return {
        "end_time": result.end_time,
        "decisions": result.decisions,
        "switches": result.switches,
        "deadline_misses": result.deadline_misses,
        "metrics": _deterministic_metrics(result.metrics),
        "segments": [
            [s.start, s.end, s.partition, s.task] for s in recorder.segments
        ],
        "jobs": jobs.rows,
    }


def _golden_cases():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def _matrix():
    for policy in ("norandom", "timedice-uniform", "timedice", "tdma"):
        for faults in (False, True):
            for obs_on in (False, True):
                yield f"{policy}/faults={int(faults)}/obs={int(obs_on)}", dict(
                    policy=policy, faults=faults, obs_on=obs_on
                )
    for policy in ("norandom", "timedice"):
        yield f"channel/{policy}", dict(
            policy=policy,
            faults=False,
            obs_on=False,
            system_kind="feasibility",
            horizon=480_000,
        )


@pytest.mark.parametrize("key,kwargs", list(_matrix()))
def test_batch_matches_scalar_on_golden_matrix(key, kwargs):
    """Every golden configuration, batch vs scalar vs the golden file."""
    scalar = run_case(sliced=False, **kwargs)
    batch = _batch_run_case(**kwargs)
    assert fingerprint(_strip_scalar_only(scalar)) == fingerprint(
        _strip_scalar_only(batch)
    ), f"{key}: batch diverged from the scalar engine"
    # And both still agree with the pre-refactor golden counters.
    golden = _golden_cases()
    golden_key = key if key.startswith("channel/") else f"{key}/sliced=0"
    expected = golden[golden_key]
    for field in ("end_time", "decisions", "switches", "deadline_misses"):
        assert batch[field] == expected[field], f"{key}: {field} diverged from golden"


def test_batch_matches_scalar_randomized_policies_across_seeds():
    """Randomized selectors consume their policy RNG in scalar order."""
    for policy in ("timedice", "timedice-uniform", "timedice-inverse"):
        for seed in (0, 7, 1234):
            scalar = run_case(policy=policy, faults=False, obs_on=False,
                              sliced=False, seed=seed)
            batch = _batch_run_case(policy=policy, faults=False, obs_on=False,
                                    seed=seed)
            assert fingerprint(_strip_scalar_only(scalar)) == fingerprint(
                _strip_scalar_only(batch)
            ), f"{policy}/seed={seed}"


def test_batch_matches_scalar_fault_plans():
    """Fault streams (including exact ``faults.*`` counters) are preserved."""
    plans = [
        FaultPlan.of(FaultSpec("overrun", "Pi_1", rate=0.8, magnitude=3.0)),
        FaultPlan.of(
            FaultSpec("stall", "Pi_2", rate=0.4, magnitude=500.0),
            FaultSpec("burst", "Pi_3", rate=0.3, magnitude=2.0, length=3),
        ),
        FaultPlan.of(FaultSpec("crash", "Pi_2", rate=0.5, length=2)),
    ]
    for index, plan in enumerate(plans):
        spec = RunSpec(
            system=SystemSpec.named("three_partition"),
            policy="timedice",
            seed=17 + index,
            horizon=HORIZON_US,
            faults=plan,
        )
        scalar = Simulator.from_spec(spec).run_until(spec.horizon)
        [batch] = run_specs_batched([spec])
        assert (scalar.end_time, scalar.decisions, scalar.switches,
                scalar.deadline_misses) == (batch.end_time, batch.decisions,
                                            batch.switches, batch.deadline_misses)
        scalar_faults = {k: v for k, v in scalar.metrics.items()
                         if k.startswith("faults.")}
        batch_faults = {k: v for k, v in batch.metrics.items()
                        if k.startswith("faults.")}
        assert scalar_faults == batch_faults, f"plan {index}: faults.* diverged"
        assert batch.fault_injections == scalar.fault_injections


def test_heterogeneous_batch_equals_scalar_per_run():
    """Mixed policies, seeds, and fault plans lockstepped in ONE batch."""
    plan = FaultPlan.of(FaultSpec("jitter", "Pi_1", rate=0.5, magnitude=300.0))
    specs = [
        RunSpec(system=SystemSpec.named("three_partition"), policy=policy,
                seed=seed, horizon=90_000, faults=faults)
        for policy in ("norandom", "timedice", "timedice-uniform",
                       "timedice-inverse", "tdma")
        for seed in (2, 5)
        for faults in (None, plan)
    ]
    batched = run_specs_batched(specs)
    assert len(batched) == len(specs)
    for spec, batch in zip(specs, batched):
        scalar = Simulator.from_spec(spec).run_until(spec.horizon)
        assert (scalar.end_time, scalar.decisions, scalar.switches,
                scalar.deadline_misses) == (batch.end_time, batch.decisions,
                                            batch.switches,
                                            batch.deadline_misses), (
            f"{spec.policy}/seed={spec.seed}/faults={spec.faults is not None}"
        )


# ---------------------------------------------------------------- plumbing


def test_engine_field_is_hash_neutral_and_validated():
    base = RunSpec(system=SystemSpec.named("three_partition"), policy="timedice",
                   seed=1, horizon=50_000)
    batch = RunSpec(system=SystemSpec.named("three_partition"), policy="timedice",
                    seed=1, horizon=50_000, engine="batch")
    # Bit-identical backends must share one cache entry.
    assert base.content_hash() == batch.content_hash()
    # The default engine round-trips to a doc without the field at all, so
    # pre-engine-field documents compare byte-identical.
    assert "engine" not in base.to_dict()
    assert batch.to_dict()["engine"] == "batch"
    assert RunSpec.from_dict(batch.to_dict()).engine == "batch"
    with pytest.raises(ValueError, match="unknown engine"):
        RunSpec(system=SystemSpec.named("three_partition"), policy="timedice",
                seed=1, horizon=50_000, engine="warp")


def test_from_spec_dispatch_and_fallback():
    spec = RunSpec(system=SystemSpec.named("three_partition"), policy="timedice",
                   seed=1, horizon=50_000, engine="batch")
    assert isinstance(Simulator.from_spec(spec), BatchRunAdapter)
    # Unsupported options fall back to the scalar engine, never erroring.
    donation = RunSpec(system=SystemSpec.named("three_partition"),
                       policy="timedice", seed=1, horizon=50_000,
                       engine="batch", budget_donation=True)
    assert batch_compatible(donation) is not None
    assert isinstance(Simulator.from_spec(donation), Simulator)


def test_adapter_is_single_shot():
    spec = RunSpec(system=SystemSpec.named("three_partition"), policy="norandom",
                   seed=1, horizon=50_000, engine="batch")
    adapter = Simulator.from_spec(spec)
    adapter.run_until(spec.horizon)
    with pytest.raises(RuntimeError, match="resumed runs"):
        adapter.run_until(spec.horizon)


def test_run_specs_batched_requires_one_horizon():
    a = RunSpec(system=SystemSpec.named("three_partition"), policy="norandom",
                seed=1, horizon=50_000)
    b = RunSpec(system=SystemSpec.named("three_partition"), policy="norandom",
                seed=2, horizon=60_000)
    with pytest.raises(ValueError):
        run_specs_batched([a, b])


def test_batch_group_key_partitions_by_system_and_horizon():
    a = RunSpec(system=SystemSpec.named("three_partition"), policy="norandom",
                seed=1, horizon=50_000)
    b = RunSpec(system=SystemSpec.named("three_partition"), policy="timedice",
                seed=9, horizon=50_000)
    c = RunSpec(system=SystemSpec.named("three_partition"), policy="norandom",
                seed=1, horizon=60_000)
    d = RunSpec(system=SystemSpec.named("feasibility"), policy="norandom",
                seed=1, horizon=50_000)
    assert batch_group_key(a) == batch_group_key(b)
    assert batch_group_key(a) != batch_group_key(c)
    assert batch_group_key(a) != batch_group_key(d)


def test_simulate_cell_payload_is_engine_neutral():
    """The cached summary has no scalar-only fields (CACHE_SCHEMA 3)."""
    assert CACHE_SCHEMA == 3
    spec = RunSpec(system=SystemSpec.named("three_partition"), policy="timedice",
                   seed=4, horizon=60_000)
    payload = runner_tasks.simulate_cell({"runspec": spec.to_dict()})
    assert "memo_hits" not in payload and "memo_misses" not in payload
    batched = runner_tasks.simulate_batch({"runspecs": [spec.to_dict()]})
    assert batched["results"] == [payload]


# ---------------------------------------------------- campaign equivalence


def _sim_cells(count=6, horizon=80_000):
    cells = []
    for index in range(count):
        policy = ("norandom", "timedice", "timedice-uniform")[index % 3]
        spec = RunSpec(system=SystemSpec.named("three_partition"), policy=policy,
                       seed=index, horizon=horizon)
        cells.append(
            CampaignCell(f"{policy}/s{index}", "repro.runner.tasks:simulate_cell",
                         {"runspec": spec.to_dict()})
        )
    return cells


def _store_dump(path):
    store = JsonStore(path, salt="")
    try:
        return {entry.content_hash: entry.value for entry in store.entries()}
    finally:
        store.close()


def test_campaign_batch_auto_equals_off(tmp_path):
    spec = CampaignSpec(name="batch-eq", cells=_sim_cells())
    off = run_campaign(spec, jobs=1, batch="off", cache=f"json:{tmp_path/'off'}")
    auto = run_campaign(CampaignSpec(name="batch-eq", cells=_sim_cells()),
                        jobs=1, batch="auto", cache=f"json:{tmp_path/'auto'}")
    par = run_campaign(CampaignSpec(name="batch-eq", cells=_sim_cells()),
                       jobs=2, batch="auto", cache=f"json:{tmp_path/'par'}")
    assert off.results == auto.results == par.results
    assert _store_dump(tmp_path / "off") == _store_dump(tmp_path / "auto")
    assert _store_dump(tmp_path / "off") == _store_dump(tmp_path / "par")
    # Resume invariant: a re-run against the grouped store is all cache hits.
    again = run_campaign(CampaignSpec(name="batch-eq", cells=_sim_cells()),
                         jobs=1, batch="auto", cache=f"json:{tmp_path/'auto'}")
    assert all(outcome.cached for outcome in again.outcomes.values())


def test_campaign_group_failure_dissolves_to_unbumped_singles(tmp_path):
    spec = CampaignSpec(name="batch-fb", cells=_sim_cells(count=5))
    with mock.patch.object(runner_tasks, "simulate_batch",
                           side_effect=RuntimeError("boom")):
        result = run_campaign(spec, jobs=1, batch="auto",
                              cache=f"json:{tmp_path/'fb'}")
    assert all(outcome.ok for outcome in result.outcomes.values())
    # The fallback singles are each cell's FIRST attempt — no retry burned.
    assert all(outcome.attempts == 1 for outcome in result.outcomes.values())
    reference = run_campaign(CampaignSpec(name="batch-fb", cells=_sim_cells(count=5)),
                             jobs=1, batch="off", cache=f"json:{tmp_path/'ref'}")
    assert result.results == reference.results


def test_campaign_batch_validation():
    with pytest.raises(ValueError, match="batch must be"):
        run_campaign(CampaignSpec(name="x", cells=_sim_cells(count=2)),
                     batch="sometimes")


def test_campaign_obs_gate_disables_grouping(tmp_path):
    """Per-cell instrumentation forces the per-cell path; results agree."""
    obs.enable()
    try:
        with mock.patch.object(runner_tasks, "simulate_batch",
                               side_effect=AssertionError("must not group")):
            result = run_campaign(
                CampaignSpec(name="batch-obs", cells=_sim_cells(count=3)),
                jobs=1, batch="auto", cache=f"json:{tmp_path/'obs'}",
            )
    finally:
        obs.disable()
    assert all(outcome.ok for outcome in result.outcomes.values())
