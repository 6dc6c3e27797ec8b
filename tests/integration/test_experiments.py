"""Every experiment module runs end-to-end at smoke-test scale and produces
the structural content its table/figure needs."""

import numpy as np
import pytest

from repro.experiments import (
    fig04_feasibility,
    fig06_trace,
    fig12_accuracy,
    fig13_heatmap,
    fig14_distributions,
    fig15_capacity,
    fig18_blinder,
    table2_wcrt,
    table3_car,
    table4_latency,
)


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig04_feasibility.run(profile_sizes=(10, 20), message_windows=60, seed=3)

    def test_distributions_render(self, result):
        text = result.format_distributions()
        assert "Pr(R|X=0)" in text and "Pr(R|X=1)" in text

    def test_heatmap_renders_both_classes(self, result):
        text = result.format_heatmap()
        assert "X=0" in text and "X=1" in text

    def test_sweep_contains_norandom_only(self, result):
        policies = {key[1] for key in result.sweep.results}
        assert policies == {"norandom"}

    def test_full_format(self, result):
        assert "[Fig. 12]" in result.format()


class TestFig6:
    def test_norandom_trace_repeats_every_hyperperiod(self):
        # Hyperperiod of the 3-partition example is LCM(20,30,50) = 300ms.
        trace = fig06_trace.run("norandom", horizon_ms=600, seed=1)
        assert trace.grid[:300] == trace.grid[300:600]

    def test_timedice_trace_differs_across_hyperperiods(self):
        trace = fig06_trace.run("timedice", horizon_ms=600, seed=1)
        assert trace.grid[:300] != trace.grid[300:600]

    def test_pair(self):
        nr, td = fig06_trace.run_pair(horizon_ms=120, seed=1)
        assert nr.policy == "norandom" and td.policy == "timedice"
        assert "Fig. 6" in nr.format()


class TestFig12:
    @pytest.fixture(scope="class")
    def sweep(self):
        return fig12_accuracy.accuracy_sweep(
            policies=("norandom", "timedice"),
            profile_sizes=(10, 20),
            message_windows=60,
            seed=3,
        )

    def test_all_cells_present(self, sweep):
        assert len(sweep.results) == 2 * 2 * 2 * 2  # loads x policies x methods x sizes

    def test_accuracies_are_probabilities(self, sweep):
        assert all(0.0 <= v <= 1.0 for v in sweep.results.values())

    def test_format_has_both_loads(self, sweep):
        text = sweep.format()
        assert "base load" in text and "light load" in text


class TestFig13:
    def test_pattern_distance_small_under_timedice(self):
        result = fig13_heatmap.run(n_windows=60, seed=3)
        for policy in ("timedice-uniform", "timedice"):
            assert result.pattern_distance(policy) < 0.45
        assert "X=0" in result.format()


class TestFig14:
    def test_separation_ordering(self):
        result = fig14_distributions.run(n_windows=80, seed=3)
        tv_nr, _ = result.separation("norandom")
        tv_tdw, _ = result.separation("timedice")
        assert tv_nr > tv_tdw
        assert "TV=" in result.format()


class TestFig15:
    def test_capacity_ordering_and_bounds(self):
        result = fig15_capacity.run(n_samples=120, seed=3)
        for (load, policy), (mi, cap) in result.values.items():
            assert 0.0 <= mi <= 1.0 + 1e-9
            assert cap >= mi - 1e-6
        assert result.mutual_information("light", "norandom") > result.mutual_information(
            "light", "timedice"
        )
        assert "Fig. 15" in result.format()


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2_wcrt.run(seconds=5.0, seed=1)

    def test_analytic_rows_complete(self, result):
        assert len(result.analytic) == 25

    def test_empirical_below_analytic(self, result):
        for row in result.analytic:
            for policy, analytic in (("norandom", row.norandom_ms), ("timedice", row.timedice_ms)):
                empirical = result.empirical_wcrt_ms(policy, row.task)
                if empirical is not None:
                    assert empirical <= analytic + 0.5, (row.task, policy)

    def test_formats(self, result):
        assert "Table II" in result.format()
        assert "Fig. 16" in result.format_boxplots()


class TestTable3Car:
    @pytest.fixture(scope="class")
    def result(self):
        # 160 message windows: at 80 the defended-vs-undefended gap is within
        # sampling noise of the small-sample classifier (the corrected,
        # stricter candidate search admits slightly fewer inversions).
        return table3_car.run(
            profile_windows=40, message_windows=160, responsiveness_seconds=5.0, seed=5
        )

    def test_channel_defended(self, result):
        nr = result.channel["norandom"]
        td = result.channel["timedice"]
        assert nr.accuracy_execution_vector > 0.85
        assert td.accuracy_execution_vector < nr.accuracy_execution_vector

    def test_location_never_on_bus(self, result):
        assert not result.channel["norandom"].location_on_bus

    def test_responsiveness_within_deadlines(self, result):
        for policy in ("norandom", "timedice"):
            for task, stats in result.responsiveness[policy].items():
                assert stats["max"] <= table3_car.DEADLINES_MS[task]

    def test_format(self, result):
        assert "Table III" in result.format()


class TestOverhead:
    @pytest.fixture(scope="class")
    def result(self):
        return table4_latency.run(factors=(1, 2), seconds=2.0, seed=1)

    def test_latencies_grow_with_partitions(self, result):
        medians = {
            n: float(np.median(lat)) for n, lat in result.latencies_us.items()
        }
        assert medians[10] > medians[5]

    def test_timedice_more_decisions_than_norandom(self, result):
        for n in (5, 10):
            assert (
                result.rates[(n, "timedice")]["decisions_per_sec"]
                > result.rates[(n, "norandom")]["decisions_per_sec"]
            )

    def test_formats(self, result):
        assert "Table IV" in result.format_table4()
        assert "Fig. 17" in result.format_fig17()
        assert "Table V" in result.format_table5()


class TestFig18:
    @pytest.fixture(scope="class")
    def result(self):
        return fig18_blinder.run(
            n_windows=80, profile_windows=40, message_windows=80, seed=5
        )

    def test_order_channel_works_under_norandom(self, result):
        assert result.order_channel_accuracy["NoRandom + FP locals"] > 0.9

    def test_blinder_kills_order_channel(self, result):
        assert result.order_channel_accuracy["NoRandom + BLINDER locals"] < 0.65

    def test_timedice_kills_order_channel(self, result):
        assert result.order_channel_accuracy["TimeDice + FP locals"] < 0.7

    def test_blinder_does_not_stop_our_channel(self, result):
        fp = result.feasibility_vs_blinder["FP locals"]["execution-vector"]
        blinder = result.feasibility_vs_blinder["BLINDER locals"]["execution-vector"]
        assert blinder > 0.85
        assert abs(fp - blinder) < 0.1

    def test_format(self, result):
        assert "Fig. 18" in result.format()
