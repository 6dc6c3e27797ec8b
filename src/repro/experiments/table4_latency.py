"""Table IV / Fig. 17 / Table V — TimeDice's scheduling overhead.

Three views over the same |Π| = 5/10/20 systems (the Table I partitions
duplicated at constant total utilization):

- **Table IV**: end-to-end latency percentiles of one TimeDice decision
  (Algorithm 1), measured wall-clock around ``policy.decide``. Absolute
  numbers are Python-vs-kernel, so the reproduced quantity is the *scaling
  shape* across |Π|.
- **Fig. 17**: total decide-time per simulated second (the overhead series).
- **Table V**: scheduling decisions and partition switches per simulated
  second, NoRandom vs TimeDice.

Each decision re-runs the busy-interval fixed points (Eqs. 1–3) from
scratch, as the paper's kernel implementation of Algorithm 1 does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments.report import format_table, percentile_summary
from repro.model.configs import scaled_partition_count
from repro.sim.engine import Simulator

DEFAULT_FACTORS = (1, 2, 4)  # |Pi| = 5, 10, 20


@dataclass
class OverheadResult:
    """Everything the overhead exhibits need, keyed by partition count."""

    latencies_us: Dict[int, np.ndarray] = field(default_factory=dict)
    overhead_by_second_ms: Dict[int, List[float]] = field(default_factory=dict)
    rates: Dict[Tuple[int, str], Dict[str, float]] = field(default_factory=dict)
    simulated_seconds: float = 0.0

    def format_table4(self) -> str:
        headers = ["|Pi|", "25%", "50%", "75%", "99%", "100%"]
        rows = []
        for n, latencies in sorted(self.latencies_us.items()):
            rows.append(
                [n] + [f"{v:.3f} us" for v in percentile_summary(latencies)]
            )
        return format_table(
            headers, rows, title="[Table IV] end-to-end latency of one TimeDice decision"
        )

    def format_fig17(self) -> str:
        headers = ["|Pi|", "mean ms/s", "min ms/s", "max ms/s", "overhead %"]
        rows = []
        for n, series in sorted(self.overhead_by_second_ms.items()):
            arr = np.asarray(series)
            rows.append(
                [
                    n,
                    f"{arr.mean():.3f}",
                    f"{arr.min():.3f}",
                    f"{arr.max():.3f}",
                    f"{arr.mean() / 10:.3f}",
                ]
            )
        return format_table(
            headers,
            rows,
            title="[Fig. 17] TimeDice operations per simulated second (wall-clock ms)",
        )

    def format_table5(self) -> str:
        headers = ["|Pi|", "NR decisions/s", "TD decisions/s", "NR switches/s", "TD switches/s"]
        rows = []
        counts = sorted({n for n, _ in self.rates})
        for n in counts:
            nr = self.rates[(n, "norandom")]
            td = self.rates[(n, "timedice")]
            rows.append(
                [
                    n,
                    f"{nr['decisions_per_sec']:.2f}",
                    f"{td['decisions_per_sec']:.2f}",
                    f"{nr['switches_per_sec']:.2f}",
                    f"{td['switches_per_sec']:.2f}",
                ]
            )
        return format_table(
            headers, rows, title="[Table V] scheduling decisions and partition switches"
        )

    def format(self) -> str:
        return "\n\n".join(
            [
                self.format_table4(),
                self.format_fig17(),
                self.format_table5(),
            ]
        )


def run(
    factors: Sequence[int] = DEFAULT_FACTORS, seconds: float = 10.0, seed: int = 1
) -> OverheadResult:
    """Measure overhead on the 5/10/20-partition systems."""
    result = OverheadResult(simulated_seconds=seconds)
    for factor in factors:
        system = scaled_partition_count(factor)
        n = len(system)
        sim = Simulator(system, policy="timedice", seed=seed, measure_overhead=True)
        run_result = sim.run_for_seconds(seconds)
        result.latencies_us[n] = (
            np.asarray(run_result.decide_latencies_ns, dtype=np.float64) / 1000.0
        )
        result.overhead_by_second_ms[n] = [
            run_result.overhead_ns_by_second.get(second, 0) / 1e6
            for second in range(int(seconds))
        ]
        result.rates[(n, "timedice")] = run_result.rates()

        nr = Simulator(system, policy="norandom", seed=seed)
        result.rates[(n, "norandom")] = nr.run_for_seconds(seconds).rates()
    return result
