"""Roofline latency model: physicality and monotonicity."""

import dataclasses

import pytest

from repro.dnn import zoo
from repro.dnn.fusion import fuse
from repro.dnn.grouping import group_layers
from repro.perf.model import (
    ZERO_COST,
    UnsupportedLayerError,
    group_cost,
    standalone_latency,
    transition_cost,
    unit_cost,
    utilization,
)
from repro.soc.platform import available_platforms, get_platform


@pytest.fixture(scope="module")
def googlenet_units(xavier):
    return fuse(zoo.build("googlenet"))


@pytest.fixture(scope="module")
def resnet_groups():
    return group_layers(zoo.build("resnet18"), max_groups=8)


class TestUnitCost:
    def test_positive_time(self, xavier, googlenet_units):
        for unit in googlenet_units[:20]:
            cost = unit_cost(unit, xavier.gpu, xavier)
            assert cost.time_s > 0
            assert cost.dram_bytes > 0

    def test_req_bw_never_exceeds_dram(self, xavier, orin, sd865, googlenet_units):
        """Physicality: no unit can request more than the controller
        delivers, on any platform, for any accelerator -- the
        calibration scale must not break this."""
        for platform in (xavier, orin, sd865):
            for accel in platform.accelerators:
                for unit in googlenet_units:
                    try:
                        cost = unit_cost(unit, accel, platform)
                    except UnsupportedLayerError:
                        continue
                    assert cost.req_bw <= platform.dram_bandwidth + 1e-6
                    assert (
                        cost.req_bw
                        <= accel.standalone_bw_frac * platform.dram_bandwidth
                        + 1e-6
                    )

    def test_bytes_time_bw_consistent(self, xavier, googlenet_units):
        for unit in googlenet_units[:20]:
            cost = unit_cost(unit, xavier.gpu, xavier)
            assert cost.req_bw == pytest.approx(
                min(
                    cost.dram_bytes / cost.time_s,
                    xavier.gpu.standalone_bw_frac * xavier.dram_bandwidth,
                ),
                rel=1e-9,
            )

    def test_unsupported_kind_raises(self, xavier):
        graph = zoo.build("alexnet")
        lrn_unit = next(u for u in fuse(graph) if u.kind == "lrn")
        with pytest.raises(UnsupportedLayerError):
            unit_cost(lrn_unit, xavier.dsa, xavier)

    def test_compute_never_exceeds_total(self, xavier, googlenet_units):
        for unit in googlenet_units[:20]:
            cost = unit_cost(unit, xavier.gpu, xavier)
            assert cost.compute_s <= cost.time_s + 1e-12

    def test_dla_slower_than_gpu_overall(self, xavier):
        total_gpu = total_dla = 0.0
        for unit in fuse(zoo.build("resnet18")):
            if not xavier.dsa.supports_kinds(frozenset({unit.kind})):
                continue
            total_gpu += unit_cost(unit, xavier.gpu, xavier).time_s
            total_dla += unit_cost(unit, xavier.dsa, xavier).time_s
        assert total_dla > total_gpu


class TestUtilization:
    def test_monotone_in_outputs(self, xavier):
        assert utilization(1_000, xavier.gpu) < utilization(100_000, xavier.gpu)

    def test_saturates_below_one(self, xavier):
        assert utilization(10**9, xavier.gpu) <= 1.0

    def test_dla_saturates_earlier(self, xavier):
        outputs = 10_000
        assert utilization(outputs, xavier.dsa) > utilization(
            outputs, xavier.gpu
        )


class TestGroupCost:
    def test_additive_over_units(self, xavier, resnet_groups):
        group = resnet_groups[2]
        total = group_cost(group, xavier.gpu, xavier)
        summed = sum(
            unit_cost(u, xavier.gpu, xavier).time_s for u in group.units
        )
        assert total.time_s == pytest.approx(summed, rel=1e-9)

    def test_group_req_bw_is_average(self, xavier, resnet_groups):
        group = resnet_groups[2]
        cost = group_cost(group, xavier.gpu, xavier)
        assert cost.req_bw == pytest.approx(
            cost.dram_bytes / cost.time_s, rel=1e-9
        )


def fresh_group_cost(group, accel, platform, batch=1):
    """The unmemoized definition: unit costs summed in unit order."""
    total = ZERO_COST
    for unit in group.units:
        total = total + unit_cost(unit, accel, platform, batch=batch)
    return total


class TestGroupCostMemo:
    @pytest.mark.parametrize("name", available_platforms())
    def test_memo_equals_fresh_sum_bit_for_bit(self, name, resnet_groups):
        platform = get_platform(name)
        checked = 0
        for accel in platform.accelerators:
            for group in resnet_groups:
                if not accel.supports_kinds(group.layer_kinds):
                    continue
                for batch in (1, 2):
                    try:
                        expected = fresh_group_cost(
                            group, accel, platform, batch
                        )
                    except UnsupportedLayerError:
                        with pytest.raises(UnsupportedLayerError):
                            group_cost(group, accel, platform, batch=batch)
                        continue
                    first = group_cost(group, accel, platform, batch=batch)
                    again = group_cost(group, accel, platform, batch=batch)
                    assert first == expected  # exact float equality
                    assert again is first  # served from the memo
                    checked += 1
        assert checked >= len(resnet_groups)

    def test_with_scales_variant_starts_empty(self, xavier, resnet_groups):
        group = resnet_groups[2]
        base = group_cost(group, xavier.gpu, xavier)
        scaled = xavier.with_scales({"gpu": xavier.gpu.time_scale * 2.0})
        assert len(scaled.gpu._cost_memo) == 0
        variant = group_cost(group, scaled.gpu, scaled)
        assert variant == fresh_group_cost(group, scaled.gpu, scaled)
        assert variant.time_s == pytest.approx(2.0 * base.time_s)
        # the original spec still serves its own entry
        assert group_cost(group, xavier.gpu, xavier) is base

    def test_bandwidth_variant_shares_spec_not_entries(
        self, xavier, resnet_groups
    ):
        """``dataclasses.replace`` on the platform keeps the same
        accelerator specs, so the memo key must carry the bandwidth."""
        narrow = dataclasses.replace(
            xavier, dram_bandwidth=xavier.dram_bandwidth / 100
        )
        assert narrow.gpu is xavier.gpu
        for group in resnet_groups:
            base = group_cost(group, xavier.gpu, xavier)
            variant = group_cost(group, narrow.gpu, narrow)
            assert variant == fresh_group_cost(group, narrow.gpu, narrow)
            assert variant.time_s > base.time_s
            assert group_cost(group, xavier.gpu, xavier) == (
                fresh_group_cost(group, xavier.gpu, xavier)
            )

    def test_replaced_spec_starts_empty(self, xavier, resnet_groups):
        group_cost(resnet_groups[0], xavier.gpu, xavier)
        assert len(xavier.gpu._cost_memo) > 0
        assert len(dataclasses.replace(xavier.gpu)._cost_memo) == 0
        assert len(xavier.gpu.scaled(3.0)._cost_memo) == 0

    def test_memo_is_outside_repr_and_equality(self, xavier, resnet_groups):
        group_cost(resnet_groups[0], xavier.gpu, xavier)
        twin = dataclasses.replace(xavier.gpu)
        assert twin == xavier.gpu
        assert "_cost_memo" not in repr(xavier.gpu)

    def test_memo_does_not_keep_groups_alive(self, xavier):
        import gc

        groups = group_layers(zoo.build("alexnet"), max_groups=4)
        for group in groups:
            group_cost(group, xavier.gpu, xavier)
        held, count = len(xavier.gpu._cost_memo), len(groups)
        del groups, group
        gc.collect()
        assert len(xavier.gpu._cost_memo) <= held - count


    def test_threads_sharing_one_spec_agree(self, xavier, resnet_groups):
        """Threads (the thread fleet/portfolio backends) share a spec's
        memo; a racing fill may compute an entry twice but every caller
        must see the unmemoized value."""
        import sys
        import threading

        spec = dataclasses.replace(xavier.gpu)  # empty memo
        expected = [fresh_group_cost(g, spec, xavier) for g in resnet_groups]
        seen, errors = [], []

        def worker():
            try:
                for _ in range(20):
                    seen.append(
                        [group_cost(g, spec, xavier) for g in resnet_groups]
                    )
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(seen) == 8 * 20
        assert all(costs == expected for costs in seen)


class TestTransitionCost:
    def test_monotone_in_tensor_size(self, xavier):
        small = transition_cost(10_000, xavier.gpu, xavier.dsa, xavier)
        large = transition_cost(1_000_000, xavier.gpu, xavier.dsa, xavier)
        assert large[0] > small[0]
        assert large[1] > small[1]

    def test_dla_flush_slower_than_gpu_flush(self, xavier):
        """Paper Table 2: D->G transitions cost more than G->D."""
        g2d = sum(transition_cost(100_000, xavier.gpu, xavier.dsa, xavier))
        d2g = sum(transition_cost(100_000, xavier.dsa, xavier.gpu, xavier))
        assert d2g > g2d

    def test_includes_fixed_latency(self, xavier):
        out_s, in_s = transition_cost(1, xavier.gpu, xavier.dsa, xavier)
        assert out_s > 0 and in_s > 0


class TestStandaloneLatency:
    def test_sums_groups(self, xavier, resnet_groups):
        latency = standalone_latency(resnet_groups, xavier.gpu, xavier)
        summed = sum(
            group_cost(g, xavier.gpu, xavier).time_s for g in resnet_groups
        )
        assert latency == pytest.approx(summed, rel=1e-9)

    def test_fallback_for_unsupported_groups(self, xavier):
        groups = group_layers(zoo.build("alexnet"), max_groups=8)
        with pytest.raises(UnsupportedLayerError):
            standalone_latency(groups, xavier.dsa, xavier)
        latency = standalone_latency(
            groups, xavier.dsa, xavier, fallback=xavier.gpu
        )
        assert latency > 0

    def test_fallback_adds_transitions(self, xavier):
        groups = group_layers(zoo.build("alexnet"), max_groups=8)
        with_fallback = standalone_latency(
            groups, xavier.dsa, xavier, fallback=xavier.gpu
        )
        pure_sum = 0.0
        for g in groups:
            accel = (
                xavier.dsa
                if xavier.dsa.supports_kinds(g.layer_kinds)
                else xavier.gpu
            )
            pure_sum += group_cost(g, accel, xavier).time_s
        assert with_fallback > pure_sum  # transition overhead included
