"""Extension: channel quality as a function of system load.

The paper evaluates two load points (80 % "base" and 40 % "light") and
observes that (i) the channel is stronger when the system is lighter and
(ii) TimeDice is *most effective* exactly there. This experiment turns those
two observations into curves: accuracy and capacity versus the partition
utilization ratio α (B_i = α·T_i for all five Table I partitions), under
NoRandom and TimeDiceW.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Sequence, Tuple, Union

from repro.channel.attack import dataset_from_params, evaluate_attacks
from repro.channel.capacity import channel_capacity_from_samples
from repro.experiments.configs import feasibility_experiment
from repro.experiments.report import format_table
from repro.runner import CampaignCell, CampaignSpec, ResultStore, default_key, derive_seed, run_campaign
from repro.service.journal import CampaignJournal

DEFAULT_ALPHAS = (0.06, 0.10, 0.16)
DEFAULT_POLICIES = ("norandom", "timedice")


@dataclass
class LoadSweepResult:
    """(alpha, policy) -> {rt, ev, capacity}."""

    cells: Dict[Tuple[float, str], Dict[str, float]] = field(default_factory=dict)

    def accuracy(self, alpha: float, policy: str, method: str) -> float:
        return self.cells[(alpha, policy)][method]

    def capacity(self, alpha: float, policy: str) -> float:
        return self.cells[(alpha, policy)]["capacity"]

    def format(self) -> str:
        headers = ["alpha", "utilization", "policy", "RT acc", "EV acc", "I(X;R) bits"]
        rows = []
        for (alpha, policy), cell in sorted(self.cells.items()):
            rows.append(
                [
                    f"{alpha:.2f}",
                    f"{5 * alpha * 100:.0f}%",
                    policy,
                    f"{cell['response-time'] * 100:.1f}%",
                    f"{cell['execution-vector'] * 100:.1f}%",
                    f"{cell['capacity']:.3f}",
                ]
            )
        return format_table(
            headers, rows, title="[extension] channel quality vs system load"
        )


def _load_cell(params: Mapping[str, Any]) -> Dict[str, float]:
    """Campaign cell: one (alpha, policy) run → accuracies + capacity.
    The run is fully described by the ``RunSpec`` inside the params."""
    dataset = dataset_from_params(params)
    cell: Dict[str, float] = {}
    for r in evaluate_attacks(dataset, [params["profile_windows"]]):
        cell[r.method] = r.accuracy
    message = dataset.message_part()
    cell["capacity"] = channel_capacity_from_samples(
        message.labels, message.response_times
    )
    return cell


def campaign(
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    profile_windows: int = 100,
    message_windows: int = 250,
    seed: int = 3,
) -> CampaignSpec:
    """The load sweep as a declarative campaign (one cell per alpha × policy)."""
    cells = []
    for alpha in alphas:
        for policy in policies:
            key = default_key({"alpha": float(alpha), "policy": policy})
            experiment = feasibility_experiment(
                alpha=alpha,
                profile_windows=int(profile_windows),
                message_windows=int(message_windows),
            )
            spec = experiment.runspec(policy, seed=derive_seed(seed, key))
            cells.append(
                CampaignCell(
                    key=key,
                    task="repro.experiments.load_sweep:_load_cell",
                    params={
                        "alpha": float(alpha),
                        "policy": policy,
                        "profile_windows": int(profile_windows),
                        "runspec": spec.to_dict(),
                        **experiment.harvest_params(),
                    },
                )
            )
    return CampaignSpec(name="load-sweep", cells=cells)


def run(
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    profile_windows: int = 100,
    message_windows: int = 250,
    seed: int = 3,
    jobs: int = 1,
    cache: Union[None, str, ResultStore] = None,
    journal: Union[None, str, CampaignJournal] = None,
) -> LoadSweepResult:
    """Run the sweep as a :mod:`repro.runner` campaign: ``jobs`` workers,
    optional on-disk result caching, order-independent per-cell seeds."""
    spec = campaign(
        alphas=alphas,
        policies=policies,
        profile_windows=profile_windows,
        message_windows=message_windows,
        seed=seed,
    )
    outcome = run_campaign(spec, jobs=jobs, cache=cache, journal=journal)
    result = LoadSweepResult()
    cell_iter = iter(spec.cells)
    for alpha in alphas:
        for policy in policies:
            result.cells[(alpha, policy)] = outcome.results[next(cell_iter).key]
    return result
