"""One benchmark run: set-up trials, the timed closed loop, checks, metrics.

An untraced run measures the end-to-end metrics over ``seconds`` of
campaigns. A traced run spends the first half untraced and the second half
traced, so it reports the tracing overhead beside the per-layer numbers.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy

import repro.obs as obs
from repro.obs.registry import Histogram, merge_registry_snapshots
from repro.runner import CampaignResult, CampaignSpec, canonical_json, drain_session

from benchmarks.suite import ROOT
from benchmarks.suite.trace import Tracer, install, layer_table, load_spans, thread_accounting
from benchmarks.suite.workloads import WORKLOADS, Workload

BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = Path(__file__).with_name("digests.json")
WORK_ROOT = ROOT / ".bench_work"
#: Set-ups per run; set-up time is their median (plus the one-off imports).
SETUP_TRIALS = 3


def digest(result: CampaignResult) -> str:
    """sha256 over the canonical JSON of a campaign's results."""
    return hashlib.sha256(canonical_json(result.results).encode("utf-8")).hexdigest()[:16]


@dataclass
class Campaign:
    """What a run keeps of one campaign. Results are summarized as soon as
    the campaign ends, so the benchmark's own memory stays flat."""

    k: int
    build: float
    wall: float
    cells: int
    done: int
    computed: int
    failed: int
    retries: int
    simulated_s: float
    busy_s: float
    digest: str
    errors: List[str]
    obs: Optional[Dict[str, Any]]

    @classmethod
    def of(cls, workload: Workload, k: int, spec: CampaignSpec, result: CampaignResult,
           build: float, wall: float) -> "Campaign":
        simulated_us = busy = 0.0
        for cell in spec:
            outcome = result.outcomes[cell.key]
            if outcome.ok and not outcome.cached:
                simulated_us += cell.params["runspec"]["horizon"]
                busy += outcome.wall
        tele = result.telemetry
        return cls(
            k=k,
            build=build,
            wall=wall,
            cells=len(spec),
            done=tele.cached + tele.computed,
            computed=tele.computed,
            failed=tele.failed,
            retries=tele.retries,
            simulated_s=simulated_us / 1e6,
            busy_s=busy,
            digest=digest(result),
            errors=workload.sanity(result),
            obs=tele.obs_rollup(),
        )


@dataclass
class Phase:
    campaigns: List[Campaign]
    start_ns: int
    end_ns: int
    #: The last campaign's spec and result, for the workload's cross-checks.
    last: Tuple[CampaignSpec, CampaignResult]

    @property
    def wall(self) -> float:
        """Seconds spent building and running campaigns (the benchmark's own
        bookkeeping between campaigns is excluded)."""
        return sum(c.build + c.wall for c in self.campaigns)

    def total(self, field: str) -> float:
        return sum(getattr(c, field) for c in self.campaigns)


def machine() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def timed_phase(workload: Workload, k: int, seconds: float, build=None) -> Phase:
    """Closed loop: build campaign ``k``, submit it, wait, repeat until
    ``seconds`` have passed (at least one campaign)."""
    build = build or workload.campaign
    campaigns: List[Campaign] = []
    started, start_ns = time.perf_counter(), time.monotonic_ns()
    while not campaigns or time.perf_counter() - started < seconds:
        begun = time.perf_counter()
        spec = build(k)
        submitted = time.perf_counter()
        result = workload.submit(spec)
        ended = time.perf_counter()
        campaigns.append(Campaign.of(workload, k, spec, result, submitted - begun, ended - submitted))
        drain_session()  # the loop is long-lived; keep the session registry empty
        k += 1
    return Phase(campaigns, start_ns, time.monotonic_ns(), (spec, result))


def cpu_seconds(pids: List[int]) -> float:
    """User+system CPU of this process, its reaped children, and the live
    processes ``pids`` (read from ``/proc``)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    tick = os.sysconf("SC_CLK_TCK")
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def end_to_end(phase: Phase, setup_s: float, cpu_s: float, ok_frac: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "ok_frac": ok_frac,
        "cells_per_s": phase.total("done") / phase.wall,
        "campaign_s_p50": statistics.median(c.wall for c in phase.campaigns),
        "sim_s_per_s": phase.total("simulated_s") / phase.wall,
        "cpu_ms_per_cell": cpu_s * 1000.0 / max(1, phase.total("computed")),
        "peak_rss_mb": peak_rss_mb(),
    }


def decide_stats(phase: Phase) -> Dict[str, float]:
    """Decide latency from the campaigns' merged ``decide.wall_ns`` histograms."""
    merged = merge_registry_snapshots([c.obs or {} for c in phase.campaigns])
    snap = merged.get("decide.wall_ns") or {}
    stats = {"count": snap.get("count", 0), "sum_s": snap.get("sum", 0.0) / 1e9}
    if stats["count"]:
        histogram = Histogram("decide.wall_ns", snap["bounds"])
        histogram.buckets = list(snap["buckets"])
        histogram.count, histogram.vmin, histogram.vmax = snap["count"], snap["min"], snap["max"]
        stats["p50_us"] = histogram.percentile(0.50) / 1e3
        stats["p99_us"] = histogram.percentile(0.99) / 1e3
    return stats


def per_layer(
    workload: Workload,
    plain: Phase,
    traced: Phase,
    spans: Dict[int, List[list]],
    facts: Dict[str, float],
) -> Dict[str, Any]:
    """The per-layer metrics of a traced run, plus the full layer table.

    Shares are self time summed over every process, over the traced
    window's wall; with parallel workers they can sum past 1.
    """
    main = os.getpid()
    window = (traced.start_ns, traced.end_ns)
    wall = (traced.end_ns - traced.start_ns) / 1e9
    layers = layer_table(spans, *window)
    workers = layer_table({pid: s for pid, s in spans.items() if pid != main}, *window)

    def get(name: str, key: str = "calls") -> float:
        return layers.get(name, {}).get(key, 0)

    def share(name: str) -> float:
        return get(name, "self_s") / wall

    decisions = get("sim.engine", "decisions") + get("sim.batch", "decisions")
    simulated = get("sim.engine") + get("sim.batch", "cells")
    memo = get("sim.engine", "memo_hits") + get("sim.engine", "memo_misses")
    busy = traced.total("busy_s")
    decide = decide_stats(traced)
    accounting = thread_accounting(
        spans.get(main, []), threading.main_thread().ident, *window, traced.wall
    )
    metrics = {
        "trace.wall_s": wall,
        "trace.overhead_frac": (plain.total("done") / plain.wall)
        / (traced.total("done") / traced.wall) - 1.0,
        "trace.unspanned_frac": accounting["unspanned_s"] / wall,
        "setup.import_s": facts["import_s"],
        "setup.cluster_hello_frac": facts["hello_s"] / facts["setup_trial_s"],
        "experiments.spec_build_frac": share("experiments.spec_build"),
        "sim.engine.self_frac": share("sim.engine"),
        "sim.engine.calls": get("sim.engine"),
        "sim.engine.decisions": get("sim.engine", "decisions"),
        "sim.us_per_decision": (get("sim.engine", "self_s") + get("sim.batch", "self_s"))
        * 1e6 / max(1, decisions),
        "core.decide.count": decide["count"],
        "core.decide.frac": decide["sum_s"] / wall,
        "core.memo.hit_rate": get("sim.engine", "memo_hits") / max(1, memo),
        "sim.batch.self_frac": share("sim.batch"),
        "sim.batch.groups": get("sim.batch"),
        "sim.batch.cells_per_group": get("sim.batch", "cells") / max(1, get("sim.batch")),
        "sim.batch.cell_frac": get("sim.batch", "cells") / max(1, simulated),
        "channel.harvest.self_frac": share("channel.harvest"),
        "channel.bayes.self_frac": share("channel.bayes"),
        "ml.svm.self_frac": share("ml.svm"),
        "runner.pool.self_frac": share("runner.pool"),
        "runner.pool.busy_s": busy,
        "runner.pool.wait_frac": 1.0 - busy / (workload.slots * wall),
        "runner.pool.retries": traced.total("retries"),
        "runner.pool.failed": traced.total("failed"),
        "runner.spec.hash_frac": share("runner.spec.hash"),
        "runner.spec.hash_calls": get("runner.spec.hash"),
        "store.get.self_frac": share("store.get"),
        "store.get.calls": get("store.get"),
        "store.hit_rate": get("store.get", "hits") / max(1, get("store.get")),
        "store.put.self_frac": share("store.put"),
        "store.put.calls": get("store.put"),
        "store.entries": facts["store_entries"],
        "service.journal.append_frac": share("service.journal.append"),
        "service.journal.appends": get("service.journal.append"),
        "cluster.cells_per_lease": get("cluster.dispatch.lease", "cells")
        / max(1, get("cluster.dispatch.lease", "granted")),
        "cluster.worker.request_frac": share("cluster.worker.request"),
        "cluster.worker_busy_frac": workers.get("runner.pool", {}).get("total_s", 0.0)
        / (workload.slots * wall),
        "cluster.stolen": facts["stolen"],
    }
    # hello and bye fall outside the timed phase: their cost shows in set-up.
    for kind in ("lease", "result", "heartbeat"):
        metrics[f"cluster.dispatch.{kind}.self_frac"] = share(f"cluster.dispatch.{kind}")
        metrics[f"cluster.dispatch.{kind}.calls"] = get(f"cluster.dispatch.{kind}")
    table = {
        name: {**row, "share": row["self_s"] / wall} for name, row in sorted(layers.items())
    }
    return {"metrics": metrics, "layers": table, "decide": decide, "accounting": accounting}


def check(workload: Workload, seed: int, phases: List[Phase]) -> Dict[int, List[str]]:
    """Digest, paper-shape and cross-checks; errors per campaign index."""
    campaigns = [c for phase in phases for c in phase.campaigns]
    pinned = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(seed), [])
    errors = workload.verify([c.k for c in campaigns], *phases[-1].last)
    for campaign in campaigns:
        found = errors.setdefault(campaign.k, [])
        index = campaign.k - workload.first
        if index < len(pinned) and campaign.digest != pinned[index]:
            found.append(f"results digest {campaign.digest} != pinned {pinned[index]}")
        found.extend(campaign.errors)
    return {k: v for k, v in errors.items() if v}


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    trace_dir: Optional[Path] = None,
    import_s: float = 0.0,
    setup_trials: int = SETUP_TRIALS,
    small: bool = False,
) -> Dict[str, Any]:
    """Run one workload; returns the full report document."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT))
    try:
        if trace and trace_dir is None:
            trace_dir = work / "trace"
        return _run(WORKLOADS[name], seed, seconds, work, trace_dir if trace else None,
                    import_s, setup_trials, small)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(cls, seed, seconds, work, trace_dir, import_s, setup_trials, small) -> Dict[str, Any]:
    trials: List[float] = []
    workload: Optional[Workload] = None
    phases: List[Phase] = []
    try:
        for trial in range(setup_trials):
            if workload is not None:
                workload.close()
            started = time.perf_counter()
            workload = cls(seed, work / f"setup-{trial}", small)
            workload.setup()
            trials.append(time.perf_counter() - started)
        setup_s = import_s + statistics.median(trials)
        facts = {"import_s": import_s, "setup_trial_s": trials[-1], "hello_s": workload.hello_s}

        cpu = cpu_seconds(workload.worker_pids())
        plain = timed_phase(workload, workload.first, seconds / 2 if trace_dir else seconds)
        cpu = cpu_seconds(workload.worker_pids()) - cpu
        phases.append(plain)
        if trace_dir is not None:
            k = plain.campaigns[-1].k + 1
            phases.append(_traced_phase(workload, Path(trace_dir), k, seconds / 2, facts))
            facts["store_entries"] = workload.store_entries()
        errors = check(workload, seed, phases)
    finally:
        if workload is not None:
            workload.close()

    campaigns = [c for phase in phases for c in phase.campaigns]
    retries = sum(c.retries for c in campaigns)
    failed = retries + sum(c.cells if c.k in errors else c.failed for c in campaigns)
    attempted = sum(c.cells for c in campaigns) + retries
    doc: Dict[str, Any] = {
        "workload": cls.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace_dir is not None,
        "machine": machine(),
        "setup_trials_s": trials,
        "campaigns": [
            {"k": c.k, "build_s": c.build, "wall_s": c.wall, "cells": c.cells,
             "computed": c.computed, "digest": c.digest}
            for c in campaigns
        ],
        "attempted": attempted,
        "failed": failed,
        "errors": {str(k): v for k, v in sorted(errors.items())},
    }
    if trace_dir is None:
        doc["metrics"] = end_to_end(plain, setup_s, cpu, 1.0 - failed / attempted)
    else:
        layered = per_layer(workload, plain, phases[1], load_spans(trace_dir), facts)
        doc.update(layered)
        if abs(layered["accounting"]["accounted"] - 1.0) > 0.05:
            doc["errors"]["trace"] = [f"spans account for {layered['accounting']}"]
    doc["correct"] = not doc["errors"] and failed == 0
    return doc


def _traced_phase(
    workload: Workload, trace_dir: Path, k: int, seconds: float, facts: Dict[str, float]
) -> Phase:
    tracer = Tracer(trace_dir)
    uninstall = install(tracer)
    try:
        workload.trace_with(trace_dir)
        stolen = workload.stolen()
        if workload.obs:
            obs.enable()
        tracer.enabled = True
        build = tracer.wrap(workload.campaign, "experiments.spec_build")
        phase = timed_phase(workload, k, seconds, build)
        facts["stolen"] = workload.stolen() - stolen
        return phase
    finally:
        tracer.enabled = False
        obs.disable()
        tracer.flush()
        uninstall()


def pin(name: str, seed: int, campaigns: int) -> List[str]:
    """Run the first ``campaigns`` timed campaigns of ``name`` for ``seed``
    and record their result digests in ``digests.json``."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=WORK_ROOT))
    workload = WORKLOADS[name](seed, work)
    try:
        workload.setup()
        first = workload.first
        digests = [
            digest(workload.submit(workload.campaign(k))) for k in range(first, first + campaigns)
        ]
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    pinned = json.loads(DIGESTS.read_text())
    pinned.setdefault(name, {})[str(seed)] = digests
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return digests


def result_line(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The run's last output line, with exactly the metrics BENCHMARK.json
    declares for this kind of run."""
    table = json.loads(BENCHMARK.read_text())["per_layer" if doc["trace"] else "end_to_end"]
    values = doc["metrics"]
    declared = {m["name"] for m in table}
    if set(values) != declared:
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ declared)} are computed but not declared, "
            "or declared but not computed"
        )
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table},
    }
