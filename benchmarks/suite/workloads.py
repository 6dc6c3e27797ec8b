"""The four benchmark workloads.

Each workload is a closed loop of campaigns submitted by one caller through
public APIs only. Campaign ``k`` of a run derives its inputs from the run's
seed ``S``: the experiments' campaign functions get root seed ``S+k``; the rolling
``grid-resume`` window shares root ``S`` so consecutive campaigns overlap.

- ``fig12``: the paper's headline sweep; scalar engine + TimeDice decide,
  channel harvest and decode; never touches the batch engine, a store, the
  journal or the cluster.
- ``defense-matrix``: many short order-channel runs under FP/BLINDER/EDF/
  REORDER local schedulers, fanned out on a 2-process pool.
- ``grid-resume``: a schedule-only ``simulate_cell`` grid whose cost is the
  batch engine, store get/put, journal appends and the pool's hashing and
  grouping; half of every campaign is already stored.
- ``grid-cluster``: fresh grids drained by two subprocess cluster workers
  leasing 4 cells at a time; mostly fleet overhead.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cluster import ClusterCoordinator
from repro.experiments import defense_matrix, fig12_accuracy
from repro.experiments.configs import LIGHT_ALPHA
from repro.runner import CampaignCell, CampaignSpec, derive_seed, pool
from repro.runner.tasks import simulate_cell
from repro.service.journal import CampaignJournal
from repro.sim.config import RunSpec, SystemSpec
from repro.store import open_store

from benchmarks.suite import ROOT, SRC

GRID_POLICIES = ("norandom", "timedice", "timedice-uniform", "timedice-inverse")
GRID_HORIZON_US = 500_000
#: The paper-shape sanity limits: an undefended channel decodes almost
#: perfectly; TimeDice at light load keeps it near a coin flip (measured
#: 0.49-0.69 for the execution-vector attack).
UNDEFENDED_MIN = 0.95
DEFENDED_MAX = 0.75


def grid_spec(root_seed: int, lo: int, hi: int, name: str) -> CampaignSpec:
    """Cells ``lo..hi-1`` of the schedule-only grid over ``three_partition``:
    four policies round-robin, 500 ms horizon, seeds derived from the root."""
    cells = []
    for index in range(lo, hi):
        key = f"cell={index}"
        run = RunSpec(
            system=SystemSpec.named("three_partition"),
            policy=GRID_POLICIES[index % len(GRID_POLICIES)],
            seed=derive_seed(root_seed, key),
            horizon=GRID_HORIZON_US,
        )
        cells.append(
            CampaignCell(
                key=key,
                task="repro.runner.tasks:simulate_cell",
                params={"runspec": run.to_dict()},
            )
        )
    return CampaignSpec(name=name, cells=cells)


def bench_env() -> Dict[str, str]:
    """The environment for subprocesses: the checkout's ``src`` and root first
    on ``PYTHONPATH``."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class Workload:
    """One set-up of a workload, in its own directory.

    ``slots`` is how many executors run cells at once (pool jobs or cluster
    workers); ``first`` the index of the first timed campaign; ``obs`` whether
    traced runs enable :mod:`repro.obs` (it disables batch grouping, so only
    the scalar-engine workloads take it). ``small`` shrinks the inputs for the
    benchmark's own tests.
    """

    name = ""
    slots = 1
    first = 0
    obs = False

    def __init__(self, seed: int, directory: Path, small: bool = False):
        self.seed = seed
        self.directory = Path(directory)
        self.small = small
        #: Seconds of set-up spent waiting for cluster workers to say hello.
        self.hello_s = 0.0

    def setup(self) -> None:
        """Everything before the first timed submit, except imports."""
        self.campaign(self.first)

    def campaign(self, k: int) -> CampaignSpec:
        raise NotImplementedError

    def submit(self, spec: CampaignSpec):
        raise NotImplementedError

    def sanity(self, result) -> List[str]:
        """Paper-shape checks on one campaign's results."""
        return []

    def verify(self, ks: List[int], spec: CampaignSpec, result) -> Dict[int, List[str]]:
        """Cross-checks after the timed phase over campaigns ``ks``, the last
        of which is ``spec`` with ``result``; errors per campaign index."""
        return {}

    def trace_with(self, trace_dir: Path) -> None:
        """Switch to traced execution for the second half of a traced run."""

    def worker_pids(self) -> List[int]:
        return []

    def stolen(self) -> int:
        return 0

    def store_entries(self) -> int:
        return 0

    def close(self) -> None:
        pass


def _ev_at(scores: List[Dict[str, Any]], m: int) -> Optional[float]:
    for score in scores:
        if score["method"] == "execution-vector" and score["m"] == m:
            return score["accuracy"]
    return None


class Fig12(Workload):
    name = "fig12"
    obs = True

    def campaign(self, k: int) -> CampaignSpec:
        return fig12_accuracy.sweep_campaign(
            profile_sizes=(20,) if self.small else fig12_accuracy.DEFAULT_PROFILE_SIZES,
            message_windows=20 if self.small else 100,
            seed=self.seed + k,
            name=f"fig12/{k}",
        )

    def submit(self, spec: CampaignSpec):
        return pool.run_campaign(spec, jobs=1, on_failure="keep")

    def sanity(self, result) -> List[str]:
        errors = []
        for cell in result.spec:
            m = max(cell.params["profile_sizes"])
            ev = _ev_at(result.results.get(cell.key, []), m)
            policy, light = cell.params["policy"], cell.params["alpha"] == LIGHT_ALPHA
            if ev is None:
                errors.append(f"{cell.key}: no execution-vector score at m={m}")
            elif policy == "norandom" and ev < UNDEFENDED_MIN:
                errors.append(f"{cell.key}: NoRandom EV accuracy {ev:.3f} < {UNDEFENDED_MIN}")
            elif policy != "norandom" and light and ev > DEFENDED_MAX:
                errors.append(f"{cell.key}: light-load EV accuracy {ev:.3f} > {DEFENDED_MAX}")
        return errors


class DefenseMatrix(Workload):
    name = "defense-matrix"
    slots = 2
    obs = True

    def campaign(self, k: int) -> CampaignSpec:
        windows = (10, 20, 20) if self.small else (40, 80, 80)
        spec = defense_matrix.campaign(
            *windows, seed=self.seed + k, schedulers=("fp", "edf", "reorder")
        )
        return CampaignSpec(name=f"defense-matrix/{k}", cells=spec.cells)

    def submit(self, spec: CampaignSpec):
        return pool.run_campaign(spec, jobs=self.slots, on_failure="keep")

    def sanity(self, result) -> List[str]:
        errors = []
        for key in (cell.key for cell in result.spec):
            row = result.results.get(key)
            if row is None:
                errors.append(f"{key}: no result")
            elif key == "global=NoRandom/local=FP" and row["order"] < UNDEFENDED_MIN:
                errors.append(f"{key}: order accuracy {row['order']:.3f} < {UNDEFENDED_MIN}")
            elif key.startswith("global=TimeDice/") and row["budget-ev"] > DEFENDED_MAX:
                errors.append(f"{key}: budget EV accuracy {row['budget-ev']:.3f} > {DEFENDED_MAX}")
        return errors


class _Grid(Workload):
    """Shared store/journal cross-checks of the two grid workloads."""

    store_url = ""

    def __init__(self, seed: int, directory: Path, small: bool = False):
        super().__init__(seed, directory, small)
        self.cells = 16 if small else 1024
        self.directory.mkdir(parents=True, exist_ok=True)
        self.store = open_store(self.store_url.format(dir=self.directory))
        self.journal = self.directory / "journal"

    def store_entries(self) -> int:
        return len(self.store)

    def verify(self, ks: List[int], spec: CampaignSpec, result) -> Dict[int, List[str]]:
        completed = set()
        for path in self.journal.glob("*.jsonl"):
            completed.update(CampaignJournal(path).replay().completed)
        errors: Dict[int, List[str]] = {}
        for k in ks:
            for cell in self.campaign(k):
                content_hash = cell.content_hash(self.store.salt)
                if content_hash not in self.store:
                    errors.setdefault(k, []).append(f"{cell.key}: not in the store")
                elif content_hash not in completed:
                    errors.setdefault(k, []).append(f"{cell.key}: journal shows no completion")
        return errors

    def close(self) -> None:
        self.store.close()


class GridResume(_Grid):
    name = "grid-resume"
    first = 1
    store_url = "sqlite:{dir}/store.db"

    def setup(self) -> None:
        self.submit(self.campaign(0))  # the fill

    def campaign(self, k: int) -> CampaignSpec:
        lo, hi = max(0, k - 1) * self.cells, (k + 1) * self.cells
        return grid_spec(self.seed, lo, hi, f"grid-resume/{k}")

    def submit(self, spec: CampaignSpec):
        return pool.run_campaign(
            spec, jobs=1, cache=self.store, journal=self.journal, batch="auto", on_failure="keep"
        )

    def verify(self, ks: List[int], spec: CampaignSpec, result) -> Dict[int, List[str]]:
        errors = super().verify(ks, spec, result)
        for cell in spec.cells[:: max(1, len(spec) // 8)][:8]:
            if simulate_cell(cell.params) != result.results.get(cell.key):
                errors.setdefault(ks[-1], []).append(f"{cell.key}: scalar engine disagrees")
        return errors


class GridCluster(_Grid):
    name = "grid-cluster"
    slots = 2
    store_url = "json:{dir}/store"

    def __init__(self, seed: int, directory: Path, small: bool = False):
        super().__init__(seed, directory, small)
        self.coordinator = ClusterCoordinator(store=self.store).start()
        self.fleet: List[subprocess.Popen] = []
        self._fleets = 0

    def setup(self) -> None:
        self.start_fleet()
        self.warm_up()

    def warm_up(self) -> None:
        """Let the fresh workers import the batch engine before timing, on
        cells no timed campaign uses (each fleet gets its own)."""
        self.submit(grid_spec(self.seed - self._fleets, 0, 16, "grid-cluster/warm-up"))

    def start_fleet(self, trace_dir: Optional[Path] = None) -> None:
        host, port = self.coordinator.address
        self._fleets += 1
        names = [f"w{self._fleets}-{i}" for i in range(self.slots)]
        started = time.perf_counter()
        for name in names:
            if trace_dir is None:
                command = ["-m", "repro", "cluster", "worker", f"{host}:{port}",
                           "--jobs", "1", "--worker-name", name]
            else:
                command = ["-m", "benchmarks.suite", "worker", f"{host}:{port}",
                           "--name", name, "--trace-dir", str(trace_dir)]
            with open(self.directory / f"{name}.log", "wb") as log:
                self.fleet.append(
                    subprocess.Popen(
                        [sys.executable, *command],
                        cwd=ROOT,
                        env=bench_env(),
                        stdin=subprocess.DEVNULL,
                        stdout=log,
                        stderr=subprocess.STDOUT,
                    )
                )
        deadline = time.monotonic() + 60.0
        while not set(names) <= set(self.coordinator.worker_stats()):
            if time.monotonic() > deadline or any(p.poll() is not None for p in self.fleet):
                raise RuntimeError(f"cluster workers never said hello; see {self.directory}/*.log")
            time.sleep(0.01)
        self.hello_s += time.perf_counter() - started

    def stop_fleet(self) -> None:
        for proc in self.fleet:
            proc.send_signal(signal.SIGTERM)
        for proc in self.fleet:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.fleet = []

    def trace_with(self, trace_dir: Path) -> None:
        self.stop_fleet()
        self.start_fleet(trace_dir)
        self.warm_up()

    def campaign(self, k: int) -> CampaignSpec:
        return grid_spec(self.seed + k, 0, self.cells, f"grid-cluster/{k}")

    def submit(self, spec: CampaignSpec):
        with self.coordinator.installed():
            return pool.run_campaign(
                spec, jobs=1, cache=self.store, journal=self.journal, on_failure="keep"
            )

    def verify(self, ks: List[int], spec: CampaignSpec, result) -> Dict[int, List[str]]:
        errors = super().verify(ks, spec, result)
        sample = CampaignSpec(name="grid-cluster/sample", cells=spec.cells[:64])
        local = pool.run_campaign(sample, jobs=1, on_failure="keep")
        for cell in sample:
            if local.results.get(cell.key) != result.results.get(cell.key):
                errors.setdefault(ks[-1], []).append(f"{cell.key}: differs from jobs=1")
        return errors

    def worker_pids(self) -> List[int]:
        return [proc.pid for proc in self.fleet]

    def stolen(self) -> int:
        return sum(info["stolen"] for info in self.coordinator.worker_stats().values())

    def close(self) -> None:
        try:
            self.stop_fleet()
        finally:
            self.coordinator.stop()
            super().close()


WORKLOADS = {cls.name: cls for cls in (Fig12, DefenseMatrix, GridResume, GridCluster)}
