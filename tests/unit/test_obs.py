"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

import repro.obs as obs
from repro.obs.export import (
    IDLE_LANE,
    format_metrics,
    metrics_json,
    schedule_trace_events,
    span_trace_events,
    trace_event_document,
    write_trace,
)
from repro.obs.gate import GATE
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_histogram_snapshots,
)
from repro.obs.spans import Span, SpanBuffer
from repro.runner.telemetry import COMPUTED, CampaignTelemetry, CellEvent
from repro.sim.trace import Segment


class TestGate:
    def test_disabled_by_default(self):
        assert obs.is_enabled() is False

    def test_enable_disable_roundtrip(self):
        obs.enable(sample_every=4, warmup=2, span_capacity=10)
        assert obs.is_enabled()
        assert GATE.sample_every == 4
        assert GATE.warmup == 2
        assert GATE.span_capacity == 10
        obs.disable()
        assert not obs.is_enabled()
        # disable restores the default sampling knobs
        assert GATE.sample_every == obs.DEFAULT_SAMPLE_EVERY
        assert GATE.warmup == obs.DEFAULT_WARMUP
        assert GATE.span_capacity == obs.DEFAULT_SPAN_CAPACITY

    def test_enable_clamps_degenerate_knobs(self):
        obs.enable(sample_every=0, warmup=-3)
        assert GATE.sample_every == 1
        assert GATE.warmup == 0


class TestCounterAndGauge:
    def test_disabled_increment_is_noop(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(10)
        assert counter.value == 0

    def test_enabled_increment_counts(self):
        counter = Counter("c")
        obs.enable()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_add_always_bypasses_gate(self):
        counter = Counter("c")
        counter.add_always(7)
        assert counter.value == 7

    def test_gauge_gated(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        assert gauge.value == 0.0
        obs.enable()
        gauge.set(3.5)
        assert gauge.value == 3.5


class TestHistogram:
    def test_disabled_observe_is_noop(self):
        hist = Histogram("h")
        hist.observe(1000)
        assert hist.count == 0

    def test_exact_extrema_and_mean(self):
        obs.enable()
        hist = Histogram("h")
        for v in (300, 1000, 70_000):
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 300
        assert snap["max"] == 70_000
        assert snap["mean"] == pytest.approx((300 + 1000 + 70_000) / 3)

    def test_percentiles_clamped_to_extrema(self):
        obs.enable()
        hist = Histogram("h")
        hist.observe(500)
        assert hist.percentile(0.0) == 500
        assert hist.percentile(1.0) == 500
        assert 500 <= hist.percentile(0.5) <= 500

    def test_percentile_monotone(self):
        obs.enable()
        hist = Histogram("h")
        for v in range(100, 100_000, 700):
            hist.observe(v)
        p50, p95 = hist.percentile(0.5), hist.percentile(0.95)
        assert hist.vmin <= p50 <= p95 <= hist.vmax

    def test_overflow_bucket(self):
        obs.enable()
        hist = Histogram("h", bounds=(10, 100))
        hist.observe(5000)
        assert hist.buckets == [0, 0, 1]
        # overflow percentile resolves to exact max
        assert hist.percentile(0.5) == 5000

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(100, 10))

    def test_empty_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["p50"] is None and snap["mean"] is None


class TestMergeHistogramSnapshots:
    def _filled(self, values):
        obs.enable()
        hist = Histogram("h")
        for v in values:
            hist.observe(v)
        return hist.snapshot()

    def test_merge_sums_counts_and_buckets(self):
        a = self._filled([300, 600])
        b = self._filled([10_000])
        merged = merge_histogram_snapshots([a, b])
        assert merged["count"] == 3
        assert merged["min"] == 300
        assert merged["max"] == 10_000
        assert sum(merged["buckets"]) == 3

    def test_merge_skips_empty(self):
        empty = Histogram("h").snapshot()
        a = self._filled([512])
        merged = merge_histogram_snapshots([empty, a])
        assert merged["count"] == 1

    def test_merge_all_empty(self):
        merged = merge_histogram_snapshots([])
        assert merged["count"] == 0 and merged["p50"] is None

    def test_merge_rejects_mismatched_bounds(self):
        obs.enable()
        a = Histogram("a", bounds=(10, 100))
        b = Histogram("b", bounds=(20, 200))
        a.observe(5)
        b.observe(5)
        with pytest.raises(ValueError):
            merge_histogram_snapshots([a.snapshot(), b.snapshot()])


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry("t")
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_keeps_zero_values(self):
        registry = MetricsRegistry("t")
        registry.counter("never.incremented")
        snap = registry.snapshot()
        assert snap["never.incremented"] == 0

    def test_snapshot_is_json_serializable(self):
        obs.enable()
        registry = MetricsRegistry("t")
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(999)
        json.dumps(registry.snapshot())

    def test_reset(self):
        obs.enable()
        registry = MetricsRegistry("t")
        registry.counter("c").inc(5)
        registry.histogram("h").observe(100)
        registry.reset()
        assert registry.snapshot()["c"] == 0
        assert registry.snapshot()["h"]["count"] == 0


class TestSpanBuffer:
    def test_disabled_span_is_shared_noop(self):
        buffer = SpanBuffer()
        ctx = buffer.span("decide")
        with ctx:
            pass
        assert len(buffer) == 0
        assert buffer.span("other") is ctx  # shared singleton

    def test_enabled_span_records(self):
        obs.enable()
        buffer = SpanBuffer()
        with buffer.span("decide", sim_ts=42):
            pass
        assert len(buffer) == 1
        span = buffer.spans[0]
        assert span.name == "decide" and span.sim_ts == 42
        assert span.wall_dur_ns >= 0

    def test_warmup_then_sampling(self):
        obs.enable()
        buffer = SpanBuffer(capacity=1000, sample_every=5, warmup=10)
        for i in range(10 + 50):
            buffer.record("decide", 0, 100)
        # all 10 warmup spans + 1-in-5 of the next 50
        assert len(buffer) == 10 + 10
        assert buffer.sampled_out == 40
        # aggregates stay exact regardless of thinning
        assert buffer.summary()["decide"]["count"] == 60
        assert buffer.summary()["decide"]["total_ns"] == 6000

    def test_sampling_is_per_name(self):
        obs.enable()
        buffer = SpanBuffer(capacity=1000, sample_every=2, warmup=1)
        for _ in range(4):
            buffer.record("a", 0, 1)
            buffer.record("b", 0, 1)
        a = [s for s in buffer.spans if s.name == "a"]
        b = [s for s in buffer.spans if s.name == "b"]
        assert len(a) == len(b)

    def test_capacity_drops(self):
        obs.enable()
        buffer = SpanBuffer(capacity=3, sample_every=1, warmup=0)
        for _ in range(5):
            buffer.record("x", 0, 1)
        assert len(buffer) == 3
        assert buffer.dropped == 2
        assert buffer.summary()["x"]["count"] == 5

    def test_clear(self):
        obs.enable()
        buffer = SpanBuffer()
        buffer.record("x", 0, 1)
        buffer.clear()
        assert len(buffer) == 0 and buffer.summary() == {}


class TestRunObsAndRunLog:
    def test_run_log_only_collects_while_enabled(self):
        obs.drain_run_log()
        obs.RunObs("off")
        assert obs.drain_run_log() == []
        obs.enable()
        scope = obs.RunObs("on")
        drained = obs.drain_run_log()
        assert drained == [scope]
        assert obs.drain_run_log() == []

    def test_decide_rollup_merges_runs(self):
        obs.enable()
        telemetry = CampaignTelemetry("c")
        for key, values in (("a", [1000, 2000]), ("b", [4000]), ("batch", [])):
            scope = obs.RunObs("r")
            scope.registry.counter("engine.segments").inc()
            if values:
                hist = scope.registry.histogram("decide.wall_ns")
                for v in values:
                    hist.observe(v)
            telemetry.emit(CellEvent(COMPUTED, key, obs=obs.runs_snapshot([scope])))
        rollup = telemetry.decide_rollup()
        assert (rollup["cells"], rollup["count"]) == (2, 3)
        assert rollup["max_ns"] == 4000
        assert rollup["cells_skipped"] == 1  # reported, but no decide histogram

    def test_decide_rollup_none_without_observations(self):
        obs.enable()
        telemetry = CampaignTelemetry("c")
        scope = obs.RunObs("empty")
        scope.registry.histogram("decide.wall_ns")  # created, never observed
        telemetry.emit(CellEvent(COMPUTED, "a", obs=obs.runs_snapshot([scope])))
        assert telemetry.cell_obs
        assert telemetry.decide_rollup() is None


class TestTraceCapture:
    def test_capture_lifecycle(self):
        assert obs.trace_capture() is None
        capture = obs.start_trace_capture(max_runs=1)
        assert obs.trace_capture() is capture
        run = obs.CapturedRun("r", ["P1"], [])
        capture.register(run)
        assert not capture.has_room()
        capture.register(obs.CapturedRun("ignored", [], []))
        assert obs.stop_trace_capture() == [run]
        assert obs.trace_capture() is None

    def test_stop_without_start(self):
        assert obs.stop_trace_capture() == []


class TestExport:
    SEGMENTS = [
        Segment(0, 1000, "P1", "t1"),
        Segment(1000, 1500, None, None),
        Segment(1500, 1500, "P2", "t2"),  # zero-length: must be dropped
        Segment(1500, 2000, "P2", "t2"),
    ]

    def test_schedule_events_lanes_and_idle(self):
        events = schedule_trace_events(self.SEGMENTS, ["P1", "P2"], pid=0, label="run")
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lanes == {"P1", "P2", IDLE_LANE}
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3  # zero-length segment dropped
        assert xs[0]["ts"] == 0 and xs[0]["dur"] == 1000

    def test_span_events_min_duration_and_exact_args(self):
        spans = [Span("decide", wall_start_ns=10, wall_dur_ns=250, sim_ts=7)]
        events = span_trace_events(spans, pid=1, label="sched")
        xs = [e for e in events if e["ph"] == "X"]
        assert xs[0]["ts"] == 7  # simulated anchor wins
        assert xs[0]["dur"] == 1  # floored at 1 us for visibility
        assert xs[0]["args"]["wall_ns"] == 250

    def test_wall_only_spans_use_relative_wall_time(self):
        spans = [
            Span("io", wall_start_ns=5_000_000, wall_dur_ns=2000),
            Span("io", wall_start_ns=8_000_000, wall_dur_ns=2000),
        ]
        xs = [e for e in span_trace_events(spans, 0, "l") if e["ph"] == "X"]
        assert xs[0]["ts"] == 0
        assert xs[1]["ts"] == 3000

    def test_document_pids_and_roundtrip(self, tmp_path):
        run = obs.CapturedRun("r0", ["P1", "P2"], self.SEGMENTS)
        doc = trace_event_document([run, run])
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {0, 2}  # no spans -> only schedule pids
        target = tmp_path / "trace.json"
        count = write_trace(target, [run])
        loaded = json.loads(target.read_text())
        assert len(loaded["traceEvents"]) == count
        assert loaded["otherData"]["runs"] == 1

    def test_metrics_json_writes_file(self, tmp_path):
        target = tmp_path / "metrics.json"
        text = metrics_json({"a": 1, "h": {"count": 0}}, path=target)
        assert json.loads(target.read_text()) == json.loads(text)

    def test_format_metrics_units(self):
        obs.enable()
        ns_hist = Histogram("decide.wall_ns")
        ns_hist.observe(1500)
        plain_hist = Histogram("decide.candidates", bounds=tuple(range(1, 33)))
        plain_hist.observe(3)
        text = format_metrics(
            {
                "decide.schedulability_tests": 12,
                "decide.wall_ns": ns_hist.snapshot(),
                "decide.candidates": plain_hist.snapshot(),
            },
            {"decide": {"count": 1, "total_ns": 1500, "mean_ns": 1500.0, "recorded": 1}},
        )
        assert "decide.schedulability_tests = 12" in text
        assert "1.500 us" in text  # _ns histogram rendered as time
        assert "p50=3" in text  # plain histogram rendered as a number
        assert "decide: count=1" in text
