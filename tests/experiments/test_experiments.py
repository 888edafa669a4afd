"""Experiment suite: each table/figure regenerates with the paper's shape.

These tests run reduced configurations (single pairs, short phases) so
the full suite stays fast; the benchmarks run the complete sweeps.
"""

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    fig1_case_study,
    fig3_emc_sweep,
    fig4_intervals,
    fig5_scenario1,
    fig6_slowdown,
    solver_race,
    table2_layer_groups,
    table5_standalone,
    table6_scenarios,
    table7_overhead,
    table8_exhaustive,
)


class TestFig1:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig1_case_study.run()

    def test_three_cases(self, rows):
        assert len(rows) == 3

    def test_haxconn_fastest(self, rows):
        latencies = {r["case"]: float(r["latency_ms"]) for r in rows}
        assert (
            latencies["Case 3: HaX-CoNN split"]
            <= min(latencies.values()) + 1e-9
        )

    def test_haxconn_beats_serial_visibly(self, rows):
        serial = float(rows[0]["latency_ms"])
        hax = float(rows[2]["latency_ms"])
        assert hax < serial * 0.95

    def test_formatting(self, rows):
        text = fig1_case_study.format_results(rows)
        assert "Case 1" in text and "latency_ms" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return table2_layer_groups.run()

    def test_ten_groups(self, rows):
        assert len(rows) == 10

    def test_ratio_varies_as_in_paper(self, rows):
        """Paper: 1.40x-2.02x spread across GoogleNet groups."""
        ratios = [float(r["ratio"]) for r in rows if r["ratio"]]
        assert len(ratios) >= 5
        assert max(ratios) / min(ratios) > 1.2

    def test_memory_throughput_in_paper_range(self, rows):
        utils = [float(r["mem_thr_pct"]) for r in rows]
        assert all(5 < u < 95 for u in utils)

    def test_dla_always_slower(self, rows):
        for r in rows:
            if r["dla_ms"] is not None:
                assert float(r["dla_ms"]) > float(r["gpu_ms"])


class TestFig3:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig3_emc_sweep.run()

    def test_full_sweep(self, rows):
        assert len(rows) == 25  # 5 inputs x 5 filters

    def test_util_decreases_with_filter_size(self, rows):
        """Larger filters raise arithmetic intensity and lower the
        requested throughput (paper Section 3.3)."""
        for input_label in ("i1", "i3", "i5"):
            utils = [
                float(r["gpu_util_pct"])
                for r in rows
                if r["input"] == input_label
            ]
            assert utils[0] > utils[-1]

    def test_gpu_dla_correlated(self, rows):
        gpu = np.array([float(r["gpu_util_pct"]) for r in rows])
        dla = np.array([float(r["dla_util_pct"]) for r in rows])
        corr = np.corrcoef(gpu, dla)[0, 1]
        assert corr > 0.6


class TestFig4:
    def test_intervals_partition_time(self):
        rows = fig4_intervals.run()
        assert rows
        for a, b in zip(rows, rows[1:]):
            assert float(b["start_ms"]) >= float(a["start_ms"]) - 1e-9

    def test_layers_experience_nonuniform_slowdown(self):
        slowdowns = fig4_intervals.layer_slowdowns()
        assert len(slowdowns) == 5
        assert max(slowdowns.values()) > 1.3
        assert max(slowdowns.values()) - min(slowdowns.values()) > 0.2


class TestTable5:
    @pytest.fixture(scope="class")
    def rows(self):
        return table5_standalone.run()

    def test_all_cells_present(self, rows):
        assert len(rows) == 40  # 2 platforms x 2 accels x 10 models

    def test_densenet_dash(self, rows):
        cell = next(
            r
            for r in rows
            if r["platform"] == "xavier"
            and r["accelerator"] == "dla"
            and r["model"] == "densenet121"
        )
        assert cell["modeled_ms"] is None

    def test_ratios_in_band(self, rows):
        for r in rows:
            if r["ratio"] is not None:
                assert 0.4 < float(r["ratio"]) < 2.5


class TestTable6:
    @pytest.fixture(scope="class")
    def row(self):
        # experiment 10 (sd865, min-latency, Inception + ResNet152)
        return table6_scenarios.run(numbers=[10])[0]

    def test_all_schedulers_reported(self, row):
        for s in table6_scenarios.SCHEDULERS:
            assert float(row[f"{s}_lat_ms"]) > 0

    def test_haxconn_never_loses(self, row):
        assert float(row["improvement_pct"]) >= -3.0  # noise tolerance

    def test_experiment_definitions_match_paper(self):
        assert len(table6_scenarios.EXPERIMENTS) == 10
        platforms = [e.platform for e in table6_scenarios.EXPERIMENTS]
        assert platforms.count("xavier") == 5
        assert platforms.count("orin") == 3
        assert platforms.count("sd865") == 2


class TestFig6:
    def test_haxconn_reduces_contention_overall(self):
        """Across the co-runner set, HaX-CoNN lowers GoogleNet's mean
        contention slowdown and never meaningfully regresses a pair
        (the paper reports reductions for every pair; our substrate
        reproduces the aggregate shape -- see EXPERIMENTS.md)."""
        rows = fig6_slowdown.run(
            corunners=("resnet50", "resnet101", "inception")
        )
        naive = [float(r["naive_slowdown"]) for r in rows]
        hax = [float(r["haxconn_slowdown"]) for r in rows]
        assert sum(hax) < sum(naive)
        for n, h in zip(naive, hax):
            assert h <= n * 1.06

    def test_naive_slowdowns_in_paper_range(self):
        rows = fig6_slowdown.run(corunners=("resnet101",))
        assert 1.1 < float(rows[0]["naive_slowdown"]) < 1.8


class TestTable7:
    def test_overhead_below_two_percent(self):
        rows = table7_overhead.run(corunners=("googlenet", "resnet18"))
        for r in rows:
            assert 0 <= float(r["overhead_pct"]) <= 2.0


class TestTable8:
    @pytest.fixture(scope="class")
    def row(self):
        return table8_exhaustive.run_pair("googlenet", "resnet101")

    def test_googlenet_pair_improves(self, row):
        """Paper: every GoogleNet pairing improves.  HaX-CoNN beats
        the naive baselines and never loses to any baseline (a
        contention-blind scheduler may tie when the optimum needs no
        contention awareness)."""
        assert row["speedup"] != "x"
        assert float(row["speedup_value"]) >= 0.99
        assert float(row["speedup_vs_naive"]) > 1.02

    def test_balanced_repeats(self):
        r1, r2 = table8_exhaustive.balanced_repeats(
            "resnet152", "resnet18", "orin"
        )
        assert r1 == 1 and r2 > 1

    def test_vgg19_pair_mostly_gpu_only(self):
        """Paper: VGG19 x VGG19 stays GPU-only ('x')."""
        row = table8_exhaustive.run_pair("vgg19", "vgg19")
        assert row["speedup"] == "x" or float(row["speedup_value"]) < 1.1


class TestFig5:
    def test_single_model_row(self):
        rows = fig5_scenario1.run(models=("googlenet",))
        row = rows[0]
        assert float(row["haxconn_fps"]) > 0
        assert float(row["improvement_pct"]) >= -3.0


class TestAblations:
    def test_pccs_accuracy(self):
        result = ablations.pccs_accuracy_ablation(grid=6)
        assert result["mean_rel_err"] < 0.05
        assert result["max_rel_err"] < 0.15

    def test_contention_awareness_improves_prediction(self):
        rows = ablations.contention_model_ablation(
            pair=("googlenet", "resnet101")
        )
        by_variant = {str(r["variant"]): r for r in rows}
        assert (
            float(by_variant["pccs"]["misprediction_pct"])
            <= float(by_variant["no-contention"]["misprediction_pct"]) + 2.0
        )

    def test_solver_ordering_helps(self):
        rows = ablations.solver_anytime_ablation(
            pair=("googlenet", "resnet18")
        )
        by_variant = {str(r["variant"]): r for r in rows}
        assert by_variant["bound-ordered"]["nodes"] <= by_variant[
            "unordered"
        ]["nodes"]


def test_solver_race_title_names_the_race_it_ran():
    """The table title reports the platform and limits of the race
    that produced the rows, not the module defaults."""
    rows = solver_race.race(
        "xavier", ("googlenet", "resnet18"), max_groups=3, max_transitions=1
    )
    title = solver_race.format_results(rows).splitlines()[0]
    assert title.endswith("(xavier, groups<=3, transitions<=1)")
