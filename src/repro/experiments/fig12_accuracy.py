"""Fig. 12 — impact of TimeDice on covert-channel accuracy.

Channel accuracy versus the number of monitoring windows used for
profiling, for NoRandom / TimeDiceU / TimeDiceW, under the base (80 %) and
light (40 %) loads, for both the response-time and execution-vector attacks.
Fig. 4(c) is the NoRandom slice of the same sweep, so
:mod:`repro.experiments.fig04_feasibility` reuses :func:`accuracy_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.channel.attack import dataset_from_params, evaluate_attacks
from repro.experiments.configs import LIGHT_ALPHA, feasibility_experiment
from repro.experiments.report import format_table
from repro.model.configs import DEFAULT_ALPHA
from repro.runner import CampaignCell, CampaignSpec, ResultStore, default_key, derive_seed, run_campaign
from repro.service.journal import CampaignJournal

DEFAULT_POLICIES = ("norandom", "timedice-uniform", "timedice")
DEFAULT_PROFILE_SIZES = (20, 50, 100, 200)
#: Local-scheduler axis of the sweep. ``"fp"`` is the paper's configuration
#: and keeps cells byte-identical to pre-registry campaigns; extra registered
#: names (``"edf"``, ``"reorder"``) add comparison columns labeled
#: ``policy@scheduler``.
DEFAULT_SCHEDULERS = ("fp",)


def _column_label(policy: str, scheduler: str) -> str:
    """Sweep column label: bare policy under fp, ``policy@scheduler`` else."""
    return policy if scheduler == "fp" else f"{policy}@{scheduler}"

#: Human-readable load names keyed by alpha.
LOAD_NAMES = {DEFAULT_ALPHA: "base", LIGHT_ALPHA: "light"}


@dataclass
class AccuracySweep:
    """Accuracy results keyed by (load, policy, method, profile size)."""

    profile_sizes: Tuple[int, ...]
    policies: Tuple[str, ...]
    loads: Tuple[float, ...]
    results: Dict[Tuple[str, str, str, int], float] = field(default_factory=dict)

    def accuracy(self, load: str, policy: str, method: str, m: int) -> float:
        return self.results[(load, policy, method, m)]

    def format(self) -> str:
        blocks = []
        for load in sorted({key[0] for key in self.results}):
            headers = ["profiling windows"] + [
                f"{policy}/{method}"
                for policy in self.policies
                for method in ("RT", "EV")
            ]
            rows = []
            for m in self.profile_sizes:
                row: List[object] = [m]
                for policy in self.policies:
                    for method in ("response-time", "execution-vector"):
                        value = self.results.get((load, policy, method, m))
                        row.append("-" if value is None else f"{value * 100:.1f}%")
                rows.append(row)
            blocks.append(
                format_table(headers, rows, title=f"[Fig. 12] channel accuracy — {load} load")
            )
        return "\n\n".join(blocks)


def _sweep_cell(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Campaign cell: one (alpha, policy) simulation, scored at every
    profiling size. The run itself is fully described by the serialized
    ``RunSpec`` in the params; the profiling sizes are scoring parameters.
    Returns a JSON-serializable list of attack scores."""
    dataset = dataset_from_params(params)
    return [
        {"method": r.method, "m": r.profile_windows, "accuracy": r.accuracy}
        for r in evaluate_attacks(dataset, params["profile_sizes"])
    ]


def sweep_campaign(
    policies: Sequence[str] = DEFAULT_POLICIES,
    alphas: Sequence[float] = (DEFAULT_ALPHA, LIGHT_ALPHA),
    profile_sizes: Sequence[int] = DEFAULT_PROFILE_SIZES,
    message_windows: int = 400,
    seed: int = 3,
    name: str = "fig12",
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
) -> CampaignSpec:
    """The accuracy sweep as a declarative campaign: one cell per
    (alpha, policy, scheduler), each carrying one
    :class:`~repro.sim.config.RunSpec` with a key-derived seed.

    ``schedulers`` defaults to the paper's plain fixed-priority local
    scheduler; ``"fp"`` cells (key, seed, content hash) are byte-identical
    to pre-``scheduler``-axis campaigns, while any other registered name
    gets a ``/scheduler=<name>`` key suffix and the scheduler folded into
    the embedded spec (and thus the cell's cache identity)."""
    cells = []
    for alpha in alphas:
        for policy in policies:
            for scheduler in schedulers:
                key = default_key({"alpha": float(alpha), "policy": policy})
                experiment = feasibility_experiment(
                    alpha=alpha,
                    profile_windows=int(max(profile_sizes)),
                    message_windows=int(message_windows),
                )
                params = {
                    "alpha": float(alpha),
                    "policy": policy,
                    "profile_sizes": [int(m) for m in profile_sizes],
                }
                if scheduler == "fp":
                    spec = experiment.runspec(policy, seed=derive_seed(seed, key))
                else:
                    key = f"{key}/scheduler={scheduler}"
                    spec = experiment.runspec(
                        policy, seed=derive_seed(seed, key), scheduler=scheduler
                    )
                    params["scheduler"] = scheduler
                params["runspec"] = spec.to_dict()
                params.update(experiment.harvest_params())
                cells.append(
                    CampaignCell(
                        key=key,
                        task="repro.experiments.fig12_accuracy:_sweep_cell",
                        params=params,
                    )
                )
    return CampaignSpec(name=name, cells=cells)


def accuracy_sweep(
    policies: Sequence[str] = DEFAULT_POLICIES,
    alphas: Sequence[float] = (DEFAULT_ALPHA, LIGHT_ALPHA),
    profile_sizes: Sequence[int] = DEFAULT_PROFILE_SIZES,
    message_windows: int = 400,
    seed: int = 3,
    jobs: int = 1,
    cache: Union[None, str, ResultStore] = None,
    journal: Union[None, str, CampaignJournal] = None,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
) -> AccuracySweep:
    """Run the full sweep: one simulation per (policy, load, scheduler),
    scored at every profiling size against the same message windows.

    The sweep executes as a :mod:`repro.runner` campaign — ``jobs`` fans the
    (alpha, policy, scheduler) cells across worker processes, ``cache``
    reuses results across invocations. Cell seeds derive from
    ``(seed, cell key)``, so output is identical for every ``jobs`` value.
    Non-``fp`` schedulers appear as extra ``policy@scheduler`` columns.
    """
    labels = tuple(
        _column_label(policy, scheduler)
        for policy in policies
        for scheduler in schedulers
    )
    sweep = AccuracySweep(
        profile_sizes=tuple(profile_sizes),
        policies=labels,
        loads=tuple(alphas),
    )
    spec = sweep_campaign(
        policies=policies,
        alphas=alphas,
        profile_sizes=profile_sizes,
        message_windows=message_windows,
        seed=seed,
        schedulers=schedulers,
    )
    outcome = run_campaign(spec, jobs=jobs, cache=cache, journal=journal)
    cell_iter = iter(spec.cells)
    for alpha in alphas:
        load = LOAD_NAMES.get(alpha, f"alpha={alpha:.2f}")
        for policy in policies:
            for scheduler in schedulers:
                cell = next(cell_iter)
                label = _column_label(policy, scheduler)
                for score in outcome.results[cell.key]:
                    sweep.results[(load, label, score["method"], score["m"])] = score[
                        "accuracy"
                    ]
    return sweep


def run(
    policies: Sequence[str] = DEFAULT_POLICIES,
    profile_sizes: Sequence[int] = DEFAULT_PROFILE_SIZES,
    message_windows: int = 400,
    seed: int = 3,
    jobs: int = 1,
    cache: Union[None, str, ResultStore] = None,
    journal: Union[None, str, CampaignJournal] = None,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
) -> AccuracySweep:
    """The Fig. 12 experiment with paper-shaped defaults."""
    return accuracy_sweep(
        policies=policies,
        profile_sizes=profile_sizes,
        message_windows=message_windows,
        seed=seed,
        jobs=jobs,
        cache=cache,
        journal=journal,
        schedulers=schedulers,
    )
