"""Robustness sweep: fault kind × intensity × policy.

TimeDice's schedulability-preservation claim (and the whole candidacy
analysis) assumes nominal behaviour: honest WCETs, exact sporadic releases,
partitions that consume budget only to make progress. This extension sweeps
the :mod:`repro.faults` kinds at increasing intensities against one noise
partition of the Sec. III-f feasibility system and asks, per global policy:

- does the **covert channel** survive the noise the faults add (RT/EV
  accuracy, as everywhere else in the reproduction)?
- do the **non-faulty partitions keep their deadlines** (the
  :class:`~repro.faults.GuaranteeChecker` attribution: a miss inside the
  faulted partition is expected degradation; a miss anywhere else is a
  guarantee violation — budget isolation failing, or a bug)?

Each cell is a pure function of its JSON params (the fault plan travels
inside them, serialized), so the sweep runs as a normal
:mod:`repro.runner` campaign: parallel, cached, and bit-identical between
``--jobs 1`` and ``--jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Sequence, Tuple, Union

from repro.channel.attack import dataset_from_params, evaluate_attacks
from repro.experiments.configs import feasibility_experiment
from repro.experiments.report import format_table
from repro.faults import (
    BURST,
    CRASH,
    FAULT_KINDS,
    JITTER,
    OVERRUN,
    STALL,
    FaultPlan,
    FaultSpec,
    GuaranteeChecker,
)
from repro.model.configs import DEFAULT_ALPHA, feasibility_system
from repro.runner import (
    CampaignCell,
    CampaignSpec,
    ResultStore,
    default_key,
    derive_seed,
    run_campaign,
)
from repro.service.journal import CampaignJournal

#: The fault target: a noise partition — neither the sender (Pi_2) nor the
#: receiver (Pi_4), so the channel endpoints themselves stay nominal and any
#: accuracy shift is the *system's* reaction to the fault, and so that
#: "clean" misses cover the adversary pair too.
DEFAULT_TARGET = "Pi_3"

DEFAULT_POLICIES = ("norandom", "timedice-uniform", "timedice", "tdma")
DEFAULT_KINDS = FAULT_KINDS
DEFAULT_INTENSITIES = (0.4, 0.8)

#: The baseline pseudo-kind: one unfaulted cell per policy (null plan —
#: bit-identical to no plan at all) instead of a zero-intensity cell per
#: kind, which would just recompute the same run five times.
BASELINE = "baseline"


def build_plan(
    kind: str, intensity: float, partition: str, period: int, budget: int
) -> FaultPlan:
    """Map an abstract intensity in [0, 1] to one kind's concrete spec.

    ``intensity`` scales the per-opportunity rate; magnitudes are fixed
    relative to the target partition's geometry so the same intensity is
    comparably severe across kinds. Zero intensity yields the empty (null)
    plan.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    if intensity == 0.0 or kind == BASELINE:
        return FaultPlan()
    if kind == OVERRUN:
        # Jobs triple their declared WCET when the fault fires.
        spec = FaultSpec(OVERRUN, partition, rate=intensity, magnitude=3.0)
    elif kind == JITTER:
        # Releases slip by up to half the partition period.
        spec = FaultSpec(JITTER, partition, rate=intensity, magnitude=float(period // 2))
    elif kind == STALL:
        # The partition burns its whole replenishment without progress.
        spec = FaultSpec(STALL, partition, rate=intensity, magnitude=float(budget))
    elif kind == BURST:
        # Six arrivals at 4x the nominal rate per burst.
        spec = FaultSpec(BURST, partition, rate=intensity / 2, magnitude=4.0, length=6)
    elif kind == CRASH:
        # Two replenishment periods dark per crash, warm restart.
        spec = FaultSpec(CRASH, partition, rate=intensity / 4, length=2)
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    return FaultPlan.of(spec)


def _robustness_cell(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Campaign cell: one (kind, intensity, policy) faulted channel run.

    The run — system, policy, seed, channel script, *and fault plan* — is
    fully described by the ``RunSpec`` inside the params, so the plan
    participates in the cache identity through the spec's content hash. The
    :class:`GuaranteeChecker` is a live observer and is rebuilt worker-side
    from the same spec."""
    from repro.sim.config import RunSpec

    spec = RunSpec.from_dict(params["runspec"])
    plan = spec.fault_plan() or FaultPlan()
    checker = GuaranteeChecker(spec.build_system(), plan, keep_misses=False)
    dataset = dataset_from_params(params, extra_observers=(checker,))
    cell: Dict[str, Any] = {}
    for r in evaluate_attacks(dataset, [params["profile_windows"]]):
        cell[r.method] = r.accuracy
    report = checker.report()
    cell["total_misses"] = report["total_misses"]
    cell["faulty_misses"] = report["faulty_misses"]
    cell["clean_misses"] = report["clean_misses"]
    cell["clean_miss_rate"] = report["clean_miss_rate"]
    cell["attributed"] = report["attributed"]
    cell["faulty_partitions"] = report["faulty_partitions"]
    return cell


@dataclass
class RobustnessResult:
    """(kind, intensity, policy) -> accuracy + guarantee attribution."""

    cells: Dict[Tuple[str, float, str], Dict[str, Any]] = field(default_factory=dict)

    def accuracy(self, kind: str, intensity: float, policy: str, method: str) -> float:
        return self.cells[(kind, intensity, policy)][method]

    def violations(self, kind: str, intensity: float, policy: str) -> int:
        """Guarantee violations: deadline misses in non-faulty partitions."""
        return self.cells[(kind, intensity, policy)]["clean_misses"]

    def all_attributed(self) -> bool:
        """Whether every cell accounted for every miss (faulty + clean)."""
        return all(cell["attributed"] for cell in self.cells.values())

    def summary(self) -> Dict[str, Any]:
        """JSON-able summary (the CI artifact)."""
        return {
            "schema": "robustness-sweep/1",
            "all_attributed": self.all_attributed(),
            "cells": [
                {
                    "kind": kind,
                    "intensity": intensity,
                    "policy": policy,
                    **{
                        k: cell[k]
                        for k in (
                            "response-time",
                            "execution-vector",
                            "total_misses",
                            "faulty_misses",
                            "clean_misses",
                            "clean_miss_rate",
                            "attributed",
                        )
                        if k in cell
                    },
                }
                for (kind, intensity, policy), cell in sorted(self.cells.items())
            ],
        }

    def format(self) -> str:
        headers = [
            "fault", "intensity", "policy", "RT acc", "EV acc",
            "faulty miss", "clean miss", "clean rate",
        ]
        rows = []
        for (kind, intensity, policy), cell in sorted(self.cells.items()):
            rows.append(
                [
                    kind,
                    f"{intensity:.1f}",
                    policy,
                    f"{cell.get('response-time', float('nan')) * 100:.1f}%",
                    f"{cell.get('execution-vector', float('nan')) * 100:.1f}%",
                    str(cell["faulty_misses"]),
                    str(cell["clean_misses"]),
                    f"{cell['clean_miss_rate'] * 100:.2f}%",
                ]
            )
        table = format_table(
            headers, rows,
            title="[extension] fault robustness: channel accuracy and deadline guarantees",
        )
        verdict = (
            "every deadline miss attributed (faulty + clean = total)"
            if self.all_attributed()
            else "ATTRIBUTION GAP: some misses unaccounted for"
        )
        return table + f"\n  {verdict}"


def campaign(
    kinds: Sequence[str] = DEFAULT_KINDS,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    target: str = DEFAULT_TARGET,
    alpha: float = DEFAULT_ALPHA,
    profile_windows: int = 40,
    message_windows: int = 80,
    seed: int = 3,
) -> CampaignSpec:
    """The sweep as a declarative campaign.

    One unfaulted baseline cell per policy, then one cell per fault kind ×
    non-zero intensity × policy. Every cell's fault plan is serialized into
    its params, so the plan participates in the cell content hash and the
    result cache can never conflate faulted with unfaulted runs.
    """
    system = feasibility_system(alpha=alpha)
    part = system.by_name(target)
    cells = []

    def add(kind: str, intensity: float, policy: str) -> None:
        plan = build_plan(kind, intensity, target, part.period, part.budget)
        key = default_key(
            {"kind": kind, "intensity": float(intensity), "policy": policy}
        )
        experiment = feasibility_experiment(
            alpha=alpha,
            profile_windows=int(profile_windows),
            message_windows=int(message_windows),
        )
        spec = experiment.runspec(policy, seed=derive_seed(seed, key), faults=plan)
        cells.append(
            CampaignCell(
                key=key,
                task="repro.experiments.robustness_sweep:_robustness_cell",
                params={
                    "kind": kind,
                    "intensity": float(intensity),
                    "policy": policy,
                    "alpha": float(alpha),
                    "profile_windows": int(profile_windows),
                    "runspec": spec.to_dict(),
                    **experiment.harvest_params(),
                },
            )
        )

    for policy in policies:
        add(BASELINE, 0.0, policy)
    for kind in kinds:
        for intensity in intensities:
            if intensity > 0.0:
                for policy in policies:
                    add(kind, intensity, policy)
    return CampaignSpec(name="robustness-sweep", cells=cells)


def run(
    kinds: Sequence[str] = DEFAULT_KINDS,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    target: str = DEFAULT_TARGET,
    alpha: float = DEFAULT_ALPHA,
    profile_windows: int = 40,
    message_windows: int = 80,
    seed: int = 3,
    jobs: int = 1,
    cache: Union[None, str, ResultStore] = None,
    journal: Union[None, str, CampaignJournal] = None,
) -> RobustnessResult:
    """Run the sweep as a :mod:`repro.runner` campaign (parallel, cached,
    jobs-count independent)."""
    spec = campaign(
        kinds=kinds,
        intensities=intensities,
        policies=policies,
        target=target,
        alpha=alpha,
        profile_windows=profile_windows,
        message_windows=message_windows,
        seed=seed,
    )
    outcome = run_campaign(spec, jobs=jobs, cache=cache, journal=journal)
    result = RobustnessResult()
    for cell in spec.cells:
        value = outcome.results[cell.key]
        result.cells[
            (cell.params["kind"], cell.params["intensity"], cell.params["policy"])
        ] = value
    return result
