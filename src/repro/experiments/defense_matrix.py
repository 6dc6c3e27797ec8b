"""Extension: the defense-composition matrix.

The paper evaluates TimeDice and BLINDER against each other's channels
(Sec. V-C). This experiment completes the picture: every combination of

- global scheduler: NoRandom vs TimeDiceW, and
- local scheduling: plain fixed-priority vs BLINDER's transformation,

against both channel families:

- the **budget-modulation channel** of this paper (response-time and
  execution-vector observations), and
- the **task-order channel** of BLINDER's paper (Fig. 18).

Expected outcome (and what the benchmark asserts): only configurations with
TimeDice defeat the budget channel; both BLINDER and TimeDice defeat the
order channel; the combination defends everything at once — TimeDice at the
global level and BLINDER at the local level compose cleanly because they
operate on disjoint schedule layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.blinder import blinder_factory
from repro.channel.attack import dataset_from_params, evaluate_attacks
from repro.experiments.configs import LIGHT_ALPHA, feasibility_experiment
from repro.experiments.fig18_blinder import WINDOW, _OrderObserver
from repro.experiments.report import format_table
from repro.ml.metrics import accuracy
from repro.runner import CampaignCell, CampaignSpec, ResultStore, derive_seed, run_campaign
from repro.service.journal import CampaignJournal
from repro.sim.behaviors import ChannelScript
from repro.sim.config import RunSpec, SystemSpec
from repro.sim.engine import Simulator

GLOBALS = (("NoRandom", "norandom"), ("TimeDice", "timedice"))
LOCALS = (("FP", None), ("BLINDER", blinder_factory))

#: The local-scheduler axis the default matrix runs. Extra *registered*
#: schedulers (``"edf"``, ``"reorder"``, ...) join as additional rows via the
#: ``schedulers`` argument of :func:`campaign` / :func:`run` — the sentinel
#: ``"fp"`` expands to the two legacy rows above so their cells (keys, seeds,
#: content hashes) stay byte-identical to pre-registry campaigns.
DEFAULT_SCHEDULERS = ("fp",)


def _rows(schedulers: Sequence[str]) -> List[Tuple[str, str]]:
    """Expand the ``schedulers`` axis into (local row name, scheduler) pairs."""
    rows: List[Tuple[str, str]] = []
    for scheduler in schedulers:
        if scheduler == "fp":
            rows.extend((local_name, "fp") for local_name, _factory in LOCALS)
        else:
            rows.append((scheduler.upper(), scheduler))
    return rows


@dataclass
class DefenseMatrixResult:
    """(global, local) -> {"budget-ev": acc, "budget-rt": acc, "order": acc}."""

    cells: Dict[Tuple[str, str], Dict[str, float]] = field(default_factory=dict)

    def format(self) -> str:
        headers = ["global", "local", "budget channel (EV)", "budget channel (RT)", "order channel"]
        rows = []
        for (global_name, local_name), cell in sorted(self.cells.items()):
            rows.append(
                [
                    global_name,
                    local_name,
                    f"{cell['budget-ev'] * 100:.1f}%",
                    f"{cell['budget-rt'] * 100:.1f}%",
                    f"{cell['order'] * 100:.1f}%",
                ]
            )
        return format_table(
            headers, rows, title="[extension] defense-composition matrix"
        )

    def defended(self, global_name: str, local_name: str, threshold: float = 0.7) -> bool:
        """True when *every* channel is below the accuracy threshold."""
        cell = self.cells[(global_name, local_name)]
        return all(value < threshold for value in cell.values())


def _order_accuracy(
    policy: str, factory, n_windows: int, seed: int, scheduler: str = "fp"
) -> float:
    script = ChannelScript(
        window=WINDOW,
        profile_windows=0,
        message_bits=ChannelScript.random_message(n_windows, seed + 11),
        sender_phases=(0,),
    )
    spec = RunSpec(
        system=SystemSpec.named("fig18"),
        policy=policy,
        seed=seed,
        channel=script,
        horizon=(n_windows + 2) * WINDOW,
        scheduler=scheduler,
    )
    observer = _OrderObserver(WINDOW)
    simulator = Simulator.from_spec(
        spec, observers=[observer], local_scheduler_factory=factory
    )
    simulator.run_until(spec.horizon)
    truth = np.array([script.bit_of_window(i) for i in range(n_windows)])
    return accuracy(truth, observer.decoded_bits(n_windows))


def _local_factory(local_name: str):
    """Resolve a local-scheduler factory from its matrix row name."""
    for name, factory in LOCALS:
        if name == local_name:
            return factory
    raise ValueError(f"unknown local scheduler {local_name!r}")


def _matrix_cell(params: Mapping[str, Any]) -> Dict[str, float]:
    """Campaign cell: one (global, local) configuration against all three
    channel observables. The budget-channel run is fully described by the
    ``RunSpec`` inside the params; legacy FP/BLINDER rows resolve a live
    local-scheduler factory from the matrix row name, while registered
    schedulers (``params["scheduler"]``) travel inside the spec itself."""
    policy = params["policy"]
    scheduler = params.get("scheduler", "fp")
    factory = _local_factory(params["local"]) if scheduler == "fp" else None
    dataset = dataset_from_params(params, local_scheduler_factory=factory)
    attacks = {
        r.method: r.accuracy
        for r in evaluate_attacks(dataset, [params["profile_windows"]])
    }
    return {
        "budget-ev": attacks["execution-vector"],
        "budget-rt": attacks["response-time"],
        "order": _order_accuracy(
            policy,
            factory,
            params["order_windows"],
            params["seed"],
            scheduler=scheduler,
        ),
    }


def campaign(
    profile_windows: int = 100,
    message_windows: int = 200,
    order_windows: int = 200,
    seed: int = 5,
    alpha: float = LIGHT_ALPHA,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
) -> CampaignSpec:
    """The defense matrix as a declarative campaign (one cell per
    global × local configuration).

    ``schedulers`` extends the local axis: ``"fp"`` expands to the legacy
    FP and BLINDER rows (cells byte-identical to pre-registry campaigns —
    no ``scheduler`` key in params, default-scheduler spec); any other
    entry must be a registered local-scheduler name and contributes one row
    per global policy, with the scheduler folded into both the cell params
    and the embedded ``RunSpec`` (and therefore the cell's content hash).
    """
    cells = []
    for global_name, policy in GLOBALS:
        for local_name, scheduler in _rows(schedulers):
            key = f"global={global_name}/local={local_name}"
            cell_seed = derive_seed(seed, key)
            experiment = feasibility_experiment(
                alpha=alpha,
                profile_windows=int(profile_windows),
                message_windows=int(message_windows),
            )
            params = {
                "policy": policy,
                "local": local_name,
                "alpha": float(alpha),
                "profile_windows": int(profile_windows),
                "order_windows": int(order_windows),
                "seed": cell_seed,
            }
            if scheduler == "fp":
                spec = experiment.runspec(policy, seed=cell_seed)
            else:
                spec = experiment.runspec(policy, seed=cell_seed, scheduler=scheduler)
                params["scheduler"] = scheduler
            params["runspec"] = spec.to_dict()
            params.update(experiment.harvest_params())
            cells.append(
                CampaignCell(
                    key=key,
                    task="repro.experiments.defense_matrix:_matrix_cell",
                    params=params,
                )
            )
    return CampaignSpec(name="defense-matrix", cells=cells)


def run(
    profile_windows: int = 100,
    message_windows: int = 200,
    order_windows: int = 200,
    seed: int = 5,
    alpha: float = LIGHT_ALPHA,
    jobs: int = 1,
    cache: Union[None, str, ResultStore] = None,
    journal: Union[None, str, CampaignJournal] = None,
    schedulers: Optional[Sequence[str]] = None,
) -> DefenseMatrixResult:
    """Default load is the light configuration — the adversary's best case,
    and therefore the most meaningful place to compare defenses.

    Runs as a :mod:`repro.runner` campaign: the (global, local)
    configurations execute across ``jobs`` workers with per-cell derived
    seeds and optional result caching. ``schedulers`` adds registered
    local-scheduler rows (e.g. ``("fp", "edf", "reorder")``) beside the
    default FP/BLINDER axis."""
    if schedulers is None:
        schedulers = DEFAULT_SCHEDULERS
    spec = campaign(
        profile_windows=profile_windows,
        message_windows=message_windows,
        order_windows=order_windows,
        seed=seed,
        alpha=alpha,
        schedulers=schedulers,
    )
    outcome = run_campaign(spec, jobs=jobs, cache=cache, journal=journal)
    result = DefenseMatrixResult()
    cell_iter = iter(spec.cells)
    for global_name, _policy in GLOBALS:
        for local_name, _scheduler in _rows(schedulers):
            result.cells[(global_name, local_name)] = outcome.results[
                next(cell_iter).key
            ]
    return result
