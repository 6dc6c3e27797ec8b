"""Bench smoke: one instrumented run per configuration -> BENCH_smoke.json.

CI runs this as a plain script (no pytest-benchmark session needed) and
uploads the JSON artifact, so every pipeline records the decide-latency
distribution of the Fig. 6 example under TimeDice and NoRandom:

    PYTHONPATH=src python benchmarks/bench_smoke.py [--out BENCH_smoke.json]

The p50/p95 come straight from the ``decide.wall_ns`` histogram of the
:mod:`repro.obs` registry — the same numbers ``python -m repro stats``
prints — so the artifact doubles as a smoke test of the observability
layer itself: if instrumentation breaks, this script fails.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

import repro.obs as obs
from repro.model.configs import three_partition_example
from repro.sim.engine import Simulator

HORIZON_MS = 500


def one_run(policy: str, seed: int = 3) -> dict:
    obs.enable()
    try:
        sim = Simulator(three_partition_example(), policy=policy, seed=seed)
        result = sim.run_for_ms(HORIZON_MS)
    finally:
        obs.disable()
    decide = result.metrics["decide.wall_ns"]
    if not decide["count"]:
        raise SystemExit(f"no decide observations for {policy}")
    return {
        "policy": policy,
        "seed": seed,
        "horizon_ms": HORIZON_MS,
        "decisions": result.decisions,
        "decide_p50_ns": decide["p50"],
        "decide_p95_ns": decide["p95"],
        "decide_max_ns": decide["max"],
        "decide_mean_ns": decide["mean"],
        "deadline_misses": result.deadline_misses,
    }


def faults_overhead(seed: int = 3, horizon_ms: int = 300, repeats: int = 3) -> dict:
    """Wall-time of the engine with no fault plan vs. an actively injecting
    one (obs off, so only the injection path is being measured).

    ``no_plan_over_active`` is the number the overhead guard
    (``benchmarks/test_bench_faults_overhead.py``) bounds: with no plan
    attached every hook site is a single ``is None`` check, so the bare
    engine must never trail an injecting one.
    """
    import time

    from repro.faults import FaultPlan, FaultSpec

    obs.disable()
    system = three_partition_example()
    plan = FaultPlan.of(
        FaultSpec("overrun", "Pi_2", rate=1.0, magnitude=2.0),
        FaultSpec("jitter", "Pi_1", rate=1.0, magnitude=500.0),
    )

    def simulate(faults=None):
        Simulator(system, policy="timedice", seed=seed, faults=faults).run_for_ms(
            horizon_ms
        )

    simulate()  # warm caches before timing
    timings = {}
    for label, faults in (("no_plan", None), ("active_plan", plan)):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            simulate(faults)
            best = min(best, time.perf_counter() - t0)
        timings[label] = best
    return {
        "horizon_ms": horizon_ms,
        "no_plan_s": timings["no_plan"],
        "active_plan_s": timings["active_plan"],
        "no_plan_over_active": timings["no_plan"] / timings["active_plan"],
    }


def hook_dispatch(seed: int = 3, horizon_ms: int = 300, repeats: int = 3) -> dict:
    """Wall-time of the engine loop with every hook disabled vs. fully hooked.

    The decomposed ``run_until`` snapshots its hook state once per call into
    a :class:`repro.sim.engine.HookSet`; with obs off and no fault plan the
    per-event dispatch must collapse to a few attribute checks. The
    ``disabled_over_enabled`` ratio is the number the overhead guard
    (``benchmarks/test_bench_hooks_overhead.py``) bounds: a bare loop that
    trails the instrumented one means the fast path is not fast.
    """
    import time

    from repro.faults import FaultPlan, FaultSpec

    obs.disable()
    system = three_partition_example()
    plan = FaultPlan.of(
        FaultSpec("overrun", "Pi_2", rate=1.0, magnitude=2.0),
        FaultSpec("jitter", "Pi_1", rate=1.0, magnitude=500.0),
    )

    def simulate(faults=None):
        Simulator(system, policy="timedice", seed=seed, faults=faults).run_for_ms(
            horizon_ms
        )

    simulate()  # warm caches before timing
    disabled = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        simulate()
        disabled = min(disabled, time.perf_counter() - t0)
    enabled = float("inf")
    obs.enable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            simulate(plan)
            enabled = min(enabled, time.perf_counter() - t0)
    finally:
        obs.disable()
    return {
        "horizon_ms": horizon_ms,
        "disabled_s": disabled,
        "enabled_s": enabled,
        "disabled_over_enabled": disabled / enabled,
    }


def sched_overhead(seed: int = 3, horizon_ms: int = 300, repeats: int = 3) -> dict:
    """Wall-time of the engine with the default ``scheduler="fp"`` resolved
    through the local-scheduler registry vs. a pre-resolved explicit
    ``local_scheduler_factory`` building the same class.

    The registry lookup runs once per construction, never per decision, so
    ``registry_over_direct`` must sit at ~1.0; it is the number the overhead
    guard (``benchmarks/test_bench_sched_overhead.py``) bounds, so a
    regression that drags registry resolution into the decision loop shows
    up here.
    """
    import time

    from repro.sim.local import FixedPriorityLocalScheduler

    obs.disable()
    system = three_partition_example()

    def simulate(factory=None):
        kwargs = {} if factory is None else {"local_scheduler_factory": factory}
        Simulator(system, policy="timedice", seed=seed, **kwargs).run_for_ms(
            horizon_ms
        )

    def direct_factory(_partition):
        return FixedPriorityLocalScheduler()

    simulate()  # warm caches before timing
    timings = {}
    for label, factory in (("registry", None), ("direct", direct_factory)):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            simulate(factory)
            best = min(best, time.perf_counter() - t0)
        timings[label] = best
    return {
        "horizon_ms": horizon_ms,
        "registry_s": timings["registry"],
        "direct_s": timings["direct"],
        "registry_over_direct": timings["registry"] / timings["direct"],
    }


def events_overhead(repeats: int = 3) -> dict:
    """Wall-time of a small campaign with the fleet event log dormant vs.
    armed and appending to a scratch file.

    Event emission happens at cell boundaries, never inside the engine
    loop, so even the armed run should cost close to nothing extra; the
    ``disabled_over_enabled`` ratio is the number the overhead guard
    (``benchmarks/test_bench_events_overhead.py``) bounds — a dormant run
    that trails an armed one means ``emit`` is doing work while disabled.
    """
    import shutil
    import tempfile
    import time

    from repro.experiments import fig12_accuracy
    from repro.obs.events import disable_event_log, enable_event_log
    from repro.runner import run_campaign

    obs.disable()
    spec = fig12_accuracy.sweep_campaign(
        policies=("norandom", "timedice"),
        profile_sizes=(10,),
        message_windows=20,
        seed=3,
    )

    def simulate():
        run_campaign(spec, jobs=1)

    simulate()  # warm caches before timing
    disabled = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        simulate()
        disabled = min(disabled, time.perf_counter() - t0)
    scratch = tempfile.mkdtemp(prefix="bench-events-")
    enable_event_log(f"{scratch}/events.jsonl")
    try:
        enabled = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            simulate()
            enabled = min(enabled, time.perf_counter() - t0)
    finally:
        disable_event_log()
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "cells": len(spec),
        "disabled_s": disabled,
        "enabled_s": enabled,
        "disabled_over_enabled": disabled / enabled,
    }


def store_throughput(entries: int = 200) -> dict:
    """Put+get throughput of both result-store backends, in a scratch dir.

    The ``sqlite_over_json`` ratio is the number the backend guard
    (``benchmarks/test_bench_store.py``) bounds; the absolute rates land in
    the artifact so store-backend regressions are visible across pipelines.
    """
    import shutil
    import tempfile
    import time

    from repro.store import JsonStore, SqliteStore

    value = {"checksum": 123456789, "series": list(range(32))}
    scratch = tempfile.mkdtemp(prefix="bench-store-")
    try:
        timings = {}
        for label, store in (
            ("json", JsonStore(f"{scratch}/json")),
            ("sqlite", SqliteStore(f"{scratch}/store.db")),
        ):
            t0 = time.perf_counter()
            for i in range(entries):
                store.put(f"{i:040x}", value, meta={"key": f"k{i}"})
            for i in range(entries):
                store.get(f"{i:040x}")
            timings[label] = time.perf_counter() - t0
            store.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ops = entries * 2
    return {
        "entries": entries,
        "json_ops_per_s": round(ops / timings["json"], 1),
        "sqlite_ops_per_s": round(ops / timings["sqlite"], 1),
        "sqlite_over_json": round(timings["sqlite"] / timings["json"], 3),
    }


def batch_engine(batch_size: int = 64, scalar_sample: int = 8) -> dict:
    """Scalar vs. batch cells/sec on a smoke-sized three_partition grid.

    A quick cut of the full :mod:`repro.perf` suite (which
    ``scripts/perf_baseline.py`` / ``scripts/perf_compare.py`` run and gate
    on): small enough to stay in the smoke artifact's seconds budget, but
    it still carries the ``bit_identical`` flag and results ``digest``, so
    a batch/scalar divergence shows up here too.
    """
    from repro.perf import measure_workload

    return measure_workload(
        "three_partition/mixed", batch_size=batch_size, scalar_sample=scalar_sample
    )


def cluster_overhead(cells: int = 24) -> dict:
    """Per-cell protocol cost of a localhost one-worker cluster drain vs.
    the same campaign straight through the pool.

    The cluster path adds a TCP lease/result round-trip per handful of
    cells plus a worker-side ``run_campaign`` per lease; its per-cell
    overhead (``protocol_overhead_ms_per_cell``) is the number the guard
    (``benchmarks/test_bench_cluster.py``) bounds, so a regression that
    serializes the fleet — lease expiry loops, heartbeat storms, frame
    stalls — shows up here before it shows up on a real cluster.
    """
    import threading
    import time

    from repro.cluster import ClusterCoordinator, WorkerAgent
    from repro.runner import CampaignSpec, run_campaign

    obs.disable()
    spec = CampaignSpec.from_grid(
        "bench-cluster",
        task="repro.runner.tasks:seeded_checksum_cell",
        axes={"key": [f"cell{i}" for i in range(cells)]},
        fixed={"root_seed": 17, "spin": 2000},
    )

    run_campaign(spec, jobs=1)  # warm imports and code paths before timing
    t0 = time.perf_counter()
    run_campaign(spec, jobs=1)
    local = time.perf_counter() - t0

    coordinator = ClusterCoordinator(lease_s=10.0).start()
    agent = WorkerAgent(coordinator.address, jobs=1, name="bench", lease_cells=4)
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while "bench" not in coordinator.worker_stats():
            if time.monotonic() > deadline:
                raise SystemExit("bench cluster worker never said hello")
            time.sleep(0.01)
        with coordinator.installed():
            t0 = time.perf_counter()
            run_campaign(spec, jobs=1)
            clustered = time.perf_counter() - t0
    finally:
        agent.stop()
        thread.join(timeout=10)
        coordinator.stop()
    return {
        "cells": cells,
        "local_s": local,
        "cluster_s": clustered,
        "protocol_overhead_ms_per_cell": (clustered - local) / cells * 1000.0,
        "cluster_over_local": clustered / local if local else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_smoke.json")
    args = parser.parse_args(argv)

    runs = [one_run("timedice"), one_run("norandom")]
    document = {
        "schema": "bench-smoke/1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": runs,
        "faults_overhead": faults_overhead(),
        "hook_dispatch": hook_dispatch(),
        "sched_overhead": sched_overhead(),
        "events_overhead": events_overhead(),
        "store": store_throughput(),
        "batch_engine": batch_engine(),
        "cluster": cluster_overhead(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    for run in runs:
        print(
            f"{run['policy']:<10} "
            f"p50={run['decide_p50_ns'] / 1e3:8.1f} us  "
            f"p95={run['decide_p95_ns'] / 1e3:8.1f} us  "
            f"({run['decisions']} decisions)"
        )
    batch = document["batch_engine"]
    print(
        f"batch_engine scalar={batch['scalar_cells_per_s']:.1f} c/s  "
        f"batch={batch['batch_cells_per_s']:.1f} c/s  "
        f"speedup={batch['speedup']:.2f}x  identical={batch['bit_identical']}"
    )
    cluster = document["cluster"]
    print(
        f"cluster local={cluster['local_s']:.3f}s  "
        f"cluster={cluster['cluster_s']:.3f}s  "
        f"overhead={cluster['protocol_overhead_ms_per_cell']:.1f} ms/cell"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
