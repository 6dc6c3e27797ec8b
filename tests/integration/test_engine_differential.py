"""Differential contract of the engine refactor (RunSpec + hook pipeline).

The golden fingerprints in ``tests/data/engine_golden.json`` were generated
by the pre-refactor monolithic ``run_until`` loop (PR 4 state, commit
a8d61b8). Every case hashes the complete observable outcome of one run —
the segment trace, every job-completion record, the decision/switch/miss
counters, and the deterministic (non-wall-clock) metrics — so the
decomposed step machine behind :class:`~repro.sim.engine.HookSet` is proven
**bit-identical** to the old engine across:

- all four global policies (norandom, timedice-uniform, timedice weighted,
  TDMA),
- fault injection off and on,
- observability off and on (obs must never perturb a run), and
- one uninterrupted ``run_until`` versus irregular pause/resume slices.

When the scalar schedulability memo was deleted, its ``memo.*`` counters
left the fingerprint. The file was regenerated by the last engine that still
had the memo, with only that prefix dropped, so the memo-less engine is
checked against it unchanged.

Regenerate (only legitimate when the *simulation semantics* deliberately
change, never to paper over an engine refactor)::

    PYTHONPATH=src python tests/integration/test_engine_differential.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.obs as obs
from repro.faults import FaultPlan, FaultSpec
from repro.model.configs import feasibility_system, three_partition_example
from repro.sim.behaviors import ChannelScript
from repro.sim.engine import Simulator
from repro.sim.trace import Observer, SegmentRecorder

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "engine_golden.json"

HORIZON_US = 120_000
SEED = 11

#: Metric keys that are pure functions of the simulated schedule (no
#: wall-clock content) and therefore belong in the fingerprint.
DETERMINISTIC_METRIC_PREFIXES = ("engine.events.", "faults.")
DETERMINISTIC_METRIC_KEYS = ("engine.segments", "engine.busy_us", "engine.idle_us")


class _JobLog(Observer):
    """Collects every job-completion record in completion order."""

    def __init__(self):
        self.rows = []

    def on_job_complete(self, record) -> None:
        self.rows.append(
            [
                record.task,
                record.partition,
                record.arrival,
                record.started_at,
                record.finished_at,
                record.demand,
            ]
        )


def _fault_plan() -> FaultPlan:
    return FaultPlan.of(
        FaultSpec("overrun", "Pi_2", rate=0.5, magnitude=2.0),
        FaultSpec("jitter", "Pi_1", rate=0.5, magnitude=400.0),
        FaultSpec("crash", "Pi_3", rate=0.3, length=1),
    )


def _slice_points(horizon: int):
    """Irregular pause boundaries exercising the carry-across-pause path."""
    return [horizon * 37 // 100, horizon * 81 // 100, horizon]


def _deterministic_metrics(metrics):
    out = {}
    for key, value in metrics.items():
        if key in DETERMINISTIC_METRIC_KEYS or key.startswith(
            DETERMINISTIC_METRIC_PREFIXES
        ):
            out[key] = value
    return out


def run_case(
    policy: str,
    faults: bool,
    obs_on: bool,
    sliced: bool,
    system_kind: str = "three_partition",
    horizon: int = HORIZON_US,
    seed: int = SEED,
):
    """One run of the matrix; returns the JSON-able outcome document."""
    if system_kind == "three_partition":
        system = three_partition_example()
        channel = None
    else:
        system = feasibility_system()
        window = 3 * system.by_name("Pi_4").period
        channel = ChannelScript(
            window=window,
            profile_windows=2,
            message_bits=ChannelScript.random_message(16, seed + 1),
        )
    recorder = SegmentRecorder()
    jobs = _JobLog()
    plan = _fault_plan() if faults else None
    was_enabled = obs.is_enabled()
    if obs_on and not was_enabled:
        obs.enable()
    try:
        sim = Simulator(
            system,
            policy=policy,
            seed=seed,
            channel=channel,
            observers=[recorder, jobs],
            faults=plan,
        )
        if sliced:
            for point in _slice_points(horizon):
                result = sim.run_until(point)
        else:
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


def fingerprint(outcome) -> str:
    material = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _cases():
    for policy in ("norandom", "timedice-uniform", "timedice", "tdma"):
        for faults in (False, True):
            for obs_on in (False, True):
                for sliced in (False, True):
                    key = (
                        f"{policy}/faults={int(faults)}/obs={int(obs_on)}/"
                        f"sliced={int(sliced)}"
                    )
                    yield key, dict(
                        policy=policy, faults=faults, obs_on=obs_on, sliced=sliced
                    )
    for policy in ("norandom", "timedice"):
        yield f"channel/{policy}", dict(
            policy=policy,
            faults=False,
            obs_on=False,
            sliced=False,
            system_kind="feasibility",
            horizon=480_000,
        )


def _golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():  # pragma: no cover - regen instructions
        pytest.fail(
            f"golden file missing: {GOLDEN_PATH}; regenerate with "
            "'PYTHONPATH=src python tests/integration/test_engine_differential.py --regen'"
        )
    return _golden()


@pytest.mark.parametrize("key,kwargs", list(_cases()))
def test_engine_matches_pre_refactor_golden(key, kwargs, golden):
    outcome = run_case(**kwargs)
    assert key in golden["cases"], f"case {key} not in golden file (regen needed?)"
    expected = golden["cases"][key]
    # Compare the scalars first for a readable failure, then the full hash.
    for field in ("end_time", "decisions", "switches", "deadline_misses"):
        assert outcome[field] == expected[field], f"{key}: {field} diverged"
    assert fingerprint(outcome) == expected["sha256"], (
        f"{key}: trace fingerprint diverged from the pre-refactor engine"
    )


def test_sliced_equals_unsliced_live():
    """Pause/resume bit-identity, asserted live (not only via goldens)."""
    for policy in ("norandom", "timedice", "tdma"):
        whole = run_case(policy, faults=True, obs_on=False, sliced=False)
        parts = run_case(policy, faults=True, obs_on=False, sliced=True)
        assert fingerprint(whole) == fingerprint(parts)


def test_obs_never_perturbs_live():
    for policy in ("timedice", "timedice-uniform"):
        off = run_case(policy, faults=False, obs_on=False, sliced=False)
        on = run_case(policy, faults=False, obs_on=True, sliced=False)
        off_m = dict(off)
        on_m = dict(on)
        off_m.pop("metrics")
        on_m.pop("metrics")
        assert fingerprint(off_m) == fingerprint(on_m)


def regenerate() -> None:  # pragma: no cover - manual tool
    cases = {}
    for key, kwargs in _cases():
        outcome = run_case(**kwargs)
        cases[key] = {
            "end_time": outcome["end_time"],
            "decisions": outcome["decisions"],
            "switches": outcome["switches"],
            "deadline_misses": outcome["deadline_misses"],
            "sha256": fingerprint(outcome),
        }
        print(f"{key}: {cases[key]['sha256'][:16]}")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {"schema": "engine-golden/1", "seed": SEED, "cases": cases},
            handle,
            indent=2,
            sort_keys=True,
        )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
