"""Fig. 4 — feasibility of the covert channel under NoRandom.

Three panels:

- **(a)** the receiver's response-time distribution Pr(R) and the profiled
  conditionals Pr(R|X=0) / Pr(R|X=1);
- **(b)** the heatmap of execution vectors, grouped by the sender's signal
  (distinct patterns = an exploitable channel);
- **(c)** communication accuracy versus profiling-set size for the base and
  light loads, response-time (Bayes) and execution-vector (SVM) attacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Sequence, Union

import numpy as np

from repro.channel.attack import dataset_from_params
from repro.channel.dataset import ChannelDataset
from repro.experiments.configs import LIGHT_ALPHA, feasibility_experiment
from repro.experiments.fig12_accuracy import (
    DEFAULT_PROFILE_SIZES,
    AccuracySweep,
    accuracy_sweep,
)
from repro.experiments.report import ascii_heatmap, ascii_histogram, paired_histogram
from repro.model.configs import DEFAULT_ALPHA
from repro.runner import CampaignCell, CampaignSpec, ResultStore, derive_seed, run_campaign
from repro.service.journal import CampaignJournal


@dataclass
class Fig4Result:
    dataset: ChannelDataset
    sweep: AccuracySweep

    def format_distributions(self) -> str:
        """Panel (a): Pr(R), Pr(R|X=0), Pr(R|X=1) in ms."""
        r_ms = self.dataset.response_times / 1000.0
        labels = self.dataset.labels
        top = ascii_histogram(r_ms, label="[Fig. 4(a)] Pr(R), response time (ms)")
        bottom = paired_histogram(
            r_ms[labels == 0],
            r_ms[labels == 1],
            labels=("Pr(R|X=0)", "Pr(R|X=1)"),
        )
        return top + "\n\n" + bottom

    def format_heatmap(self, per_class: int = 60) -> str:
        """Panel (b): execution vectors grouped by the sender's signal."""
        vectors = self.dataset.vectors
        labels = self.dataset.labels
        zeros = vectors[labels == 0][:per_class]
        ones = vectors[labels == 1][:per_class]
        return (
            "[Fig. 4(b)] execution vectors, X=0 windows:\n"
            + ascii_heatmap(zeros)
            + "\n\nX=1 windows:\n"
            + ascii_heatmap(ones)
        )

    def format(self) -> str:
        return "\n\n".join(
            [self.format_distributions(), self.format_heatmap(), self.sweep.format()]
        )


def _panel_cell(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Campaign cell: harvest the panels (a)/(b) dataset and serialize it.
    The run is fully described by the ``RunSpec`` inside the params."""
    dataset = dataset_from_params(params)
    return {
        "labels": dataset.labels.tolist(),
        "response_times": dataset.response_times.tolist(),
        "vectors": dataset.vectors.tolist(),
        "profile_windows": int(dataset.profile_windows),
        "window": int(dataset.window),
    }


def _deserialize_dataset(payload: Mapping[str, Any]) -> ChannelDataset:
    return ChannelDataset(
        labels=np.asarray(payload["labels"]),
        response_times=np.asarray(payload["response_times"]),
        vectors=np.asarray(payload["vectors"]),
        profile_windows=payload["profile_windows"],
        window=payload["window"],
    )


def run(
    profile_sizes: Sequence[int] = DEFAULT_PROFILE_SIZES,
    message_windows: int = 400,
    seed: int = 3,
    jobs: int = 1,
    cache: Union[None, str, ResultStore] = None,
    journal: Union[None, str, CampaignJournal] = None,
) -> Fig4Result:
    """Collect one NoRandom base-load dataset for panels (a)/(b) and run the
    NoRandom-only accuracy sweep for panel (c).

    Both parts execute as :mod:`repro.runner` campaigns: the panel dataset
    is one cell (cacheable across invocations), the panel-(c) sweep fans
    out across ``jobs`` workers exactly like Fig. 12."""
    panel_key = "panel/policy=norandom"
    experiment = feasibility_experiment(
        alpha=DEFAULT_ALPHA,
        profile_windows=int(max(profile_sizes)),
        message_windows=int(message_windows),
    )
    panel_runspec = experiment.runspec("norandom", seed=derive_seed(seed, panel_key))
    panel_spec = CampaignSpec(
        name="fig4-panels",
        cells=[
            CampaignCell(
                key=panel_key,
                task="repro.experiments.fig04_feasibility:_panel_cell",
                params={
                    "alpha": DEFAULT_ALPHA,
                    "policy": "norandom",
                    "runspec": panel_runspec.to_dict(),
                    **experiment.harvest_params(),
                },
            )
        ],
    )
    panels = run_campaign(panel_spec, jobs=1, cache=cache, journal=journal)
    dataset = _deserialize_dataset(panels.results[panel_key])
    sweep = accuracy_sweep(
        policies=("norandom",),
        alphas=(DEFAULT_ALPHA, LIGHT_ALPHA),
        profile_sizes=profile_sizes,
        message_windows=message_windows,
        seed=seed,
        jobs=jobs,
        cache=cache,
        journal=journal,
    )
    return Fig4Result(dataset=dataset, sweep=sweep)
