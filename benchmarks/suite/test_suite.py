"""Tests of the benchmark itself: ``python -m pytest benchmarks/suite -q``."""

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from benchmarks.suite import ROOT, compare, measure
from benchmarks.suite.trace import (
    Tracer,
    install,
    layer_table,
    load_spans,
    self_times,
    thread_accounting,
)
from benchmarks.suite.workloads import WORKLOADS, bench_env, grid_spec

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, traced):
    # Seed 0 has no pinned digests: the smoke inputs are smaller than the
    # benchmark's, so only the emitted metrics are under test here.
    doc = measure.run(workload, seed=0, seconds=0, trace=traced, setup_trials=1, small=True)
    line = measure.result_line(doc)
    table = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    assert line["attempted"] >= 1
    values = [m["value"] for m in line["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not traced:
        assert all(v > 0 for v in values)


def _span(span_id, start, end, parent=0, name="x", attrs=None, tid=1):
    return [span_id, name, start, end, parent, tid, "t", attrs]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0, 100, name="root"),
        _span(2, 10, 40, parent=1, name="a"),
        _span(3, 30, 60, parent=1, name="b"),  # overlaps a: counted once
        _span(4, 15, 20, parent=2, name="a.child"),
        _span(5, 90, 130, parent=1, name="late"),  # clipped to the root's end
    ]
    assert self_times(spans) == {1: 100 - 50 - 10, 2: 25, 3: 30, 4: 5, 5: 40}


def test_layer_table_and_thread_accounting():
    spans = [
        _span(1, 0, 50, name="runner.pool"),
        _span(2, 10, 30, parent=1, name="sim.engine", attrs={"decisions": 7}),
        _span(3, 60, 80, name="runner.pool"),
        _span(4, 70, 75, parent=3, name="sim.engine", attrs={"decisions": 3}),
        _span(5, 0, 500, name="outside", tid=2),
    ]
    table = layer_table({1: spans}, 0, 100)
    assert table["sim.engine"]["calls"] == 2
    assert table["sim.engine"]["decisions"] == 10
    assert table["runner.pool"]["self_s"] == pytest.approx((30 + 15) / 1e9)
    accounting = thread_accounting(spans, 1, 0, 100, timed_s=70 / 1e9)
    assert accounting["self_s"] == pytest.approx(70 / 1e9)
    assert accounting["unspanned_s"] == pytest.approx(30 / 1e9)
    assert accounting["accounted"] == pytest.approx(1.0)


def test_thread_accounting_catches_time_no_span_covers():
    # The caller timed 0-100 inside traced calls, but the spans leave 40-60
    # uncovered (a call that was never wrapped).
    spans = [_span(1, 0, 40, name="runner.pool"), _span(2, 60, 100, name="runner.pool")]
    accounting = thread_accounting(spans, 1, 0, 100, timed_s=100 / 1e9)
    assert accounting["unspanned_s"] == pytest.approx(0.0)
    assert accounting["accounted"] == pytest.approx(0.8)
    # A span counted twice overshoots instead.
    doubled = spans + [_span(3, 0, 40, name="runner.pool")]
    assert thread_accounting(doubled, 1, 0, 80, timed_s=80 / 1e9)["accounted"] > 1.05


def _series(base, step=0.1, n=10):
    return [base + step * i for i in range(n)]


def test_verdict_improved_needs_nine_of_ten_pairs():
    parent = _series(100.0)
    change = [p + 1.0 for p in parent]
    assert compare.verdict(parent, change, "higher", 0.1)["verdict"] == "improved"
    nine = list(change)
    nine[0] = parent[0] - 0.5  # loses one pair: 9/10 still wins
    assert compare.verdict(parent, nine, "higher", 0.1)["verdict"] == "improved"
    eight = list(nine)
    eight[1] = parent[1] - 0.5  # 8/10: no claim
    row = compare.verdict(parent, eight, "higher", 0.1)
    assert row["won"] == pytest.approx(0.8)
    assert row["verdict"] == "unchanged"


def test_verdict_regressed_and_unresolved():
    parent = _series(100.0)
    assert compare.verdict(parent, [p * 1.2 for p in parent], "lower", 0.1)["verdict"] == "regressed"
    assert compare.verdict(parent, [p * 1.05 for p in parent], "lower", 0.1)["verdict"] == "unchanged"
    noisy = [100.0, 140.0] * 5
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)["verdict"] == "unresolved"
    # Noisy but every change run beats every parent run: a resolved gain.
    assert compare.verdict(noisy, [50.0, 60.0] * 5, "lower", 0.1)["verdict"] == "improved"


@pytest.mark.parametrize("parent_runs,change_runs", [(3, 3), (10, 9), (9, 10)])
def test_verdict_needs_ten_pairs_of_equal_sides(parent_runs, change_runs):
    parent = _series(100.0, n=parent_runs)
    faster = [p + 50.0 for p in _series(100.0, n=change_runs)]
    row = compare.verdict(parent, faster, "higher", 0.1)
    assert row["verdict"] == "unresolved"
    assert row["pairs"] == min(parent_runs, change_runs)


def test_compare_reports_each_workload_and_metric():
    def doc(value, ok_frac=1.0):
        metrics = {m["name"]: value for m in BENCHMARK["end_to_end"]}
        return {"workload": "fig12", "trace": False, "metrics": {**metrics, "ok_frac": ok_frac}}

    same = [doc(1.0 + 0.001 * i) for i in range(10)]
    lines, ok = compare.compare(same, list(reversed(same)), BENCHMARK)
    assert ok
    assert sum("unchanged" in line for line in lines) == len(BENCHMARK["end_to_end"])
    # Every change run loses a few cells out of a thousand: any loss regresses.
    lines, ok = compare.compare(same, [doc(1.0, ok_frac=0.997) for _ in same], BENCHMARK)
    assert not ok
    assert [line.split()[0] for line in lines if "regressed" in line] == ["ok_frac"]


def test_forked_pool_worker_spans_reach_the_trace_dir(tmp_path):
    from repro.runner import pool

    tracer = Tracer(tmp_path)
    uninstall = install(tracer)
    tracer.enabled = True
    try:
        pool.run_campaign(grid_spec(0, 0, 2, "fork-test"), jobs=2, batch="off")
    finally:
        tracer.enabled = False
        tracer.flush()
        uninstall()
    spans = load_spans(tmp_path)
    workers = [pid for pid in spans if pid != os.getpid()]
    assert workers, "no forked worker flushed its spans"
    assert {"sim.engine"} <= {s[1] for pid in workers for s in spans[pid]}
    assert "runner.pool" in {s[1] for s in spans[os.getpid()]}


def test_cluster_worker_spans_reach_the_trace_dir(tmp_path):
    from repro.cluster import ClusterCoordinator
    from repro.runner import pool

    coordinator = ClusterCoordinator().start()
    host, port = coordinator.address
    worker = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.suite", "worker", f"{host}:{port}",
         "--name", "traced", "--trace-dir", str(tmp_path)],
        cwd=ROOT,
        env=bench_env(),
    )
    try:
        with coordinator.installed():
            result = pool.run_campaign(grid_spec(0, 0, 8, "cluster-test"), jobs=1)
        assert len(result.results) == 8
    finally:
        worker.send_signal(signal.SIGTERM)
        worker.wait(timeout=30)
        coordinator.stop()
    spans = load_spans(tmp_path)
    assert list(spans) == [worker.pid]
    names = {s[1] for s in spans[worker.pid]}
    assert {"runner.pool", "sim.batch", "cluster.worker.request"} <= names
    assert {s[6] for s in spans[worker.pid] if s[1] == "runner.pool"} == {"cluster-test"}


def test_run_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "suite",
        tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "run", "--workload", "fig12",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
