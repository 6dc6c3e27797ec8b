"""Guard: disabled instrumentation must stay almost free.

The observability call sites live inside the per-quantum decide loop, so
the whole design hinges on the gated no-op path costing next to nothing.
This bench times the same simulation with the gate off (instrumentation
attached but dormant) against the gate on, and asserts the dormant run
stays within a generous bound of the enabled one being *more* expensive —
i.e. the gate actually gates.

A micro-benchmark pins the primitive itself: a disabled ``Counter.inc``
must cost no more than a small multiple of a raw attribute increment.
"""

import time


import repro.obs as obs
from repro.model.configs import three_partition_example
from repro.sim.engine import Simulator


def _simulate(horizon_ms=300, seed=3):
    sim = Simulator(three_partition_example(), policy="timedice", seed=seed)
    return sim.run_for_ms(horizon_ms)


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_obs_overhead_is_bounded(benchmark):
    obs.disable()
    _simulate(horizon_ms=50)  # warm caches before timing

    disabled = _best_of(lambda: _simulate())
    obs.enable()
    try:
        enabled = _best_of(lambda: _simulate())
    finally:
        obs.disable()

    benchmark.extra_info["disabled_s"] = disabled
    benchmark.extra_info["enabled_s"] = enabled
    benchmark.extra_info["enabled_over_disabled"] = enabled / disabled
    benchmark.pedantic(_simulate, rounds=1, iterations=1)

    # The dormant gate must not cost anything close to live instrumentation:
    # allow generous noise (shared CI boxes), but a dormant run 1.25x the
    # enabled run would mean the gate is not gating.
    assert disabled <= enabled * 1.25, (disabled, enabled)


def test_disabled_counter_inc_is_cheap():
    obs.disable()
    counter = obs.Counter("c")
    n = 200_000

    def raw_loop():
        x = 0
        for _ in range(n):
            x += 1
        return x

    def gated_loop():
        for _ in range(n):
            counter.inc()

    raw = _best_of(raw_loop, repeats=5)
    gated = _best_of(gated_loop, repeats=5)
    assert counter.value == 0
    # One attribute read + branch + method call: bounded by a small multiple
    # of a bare integer add (interpreter call overhead dominates).
    assert gated <= raw * 12, (gated, raw)


def test_bench_smoke_writes_artifact(tmp_path):
    from benchmarks.bench_smoke import main

    target = tmp_path / "BENCH_smoke.json"
    assert main(["--out", str(target)]) == 0
    import json

    document = json.loads(target.read_text())
    assert document["schema"] == "bench-smoke/1"
    assert [run["policy"] for run in document["runs"]] == ["timedice", "norandom"]
    for run in document["runs"]:
        assert run["decide_p50_ns"] > 0
        assert run["decide_p50_ns"] <= run["decide_p95_ns"]
    # the script must leave the process-wide gate off
    assert not obs.is_enabled()
