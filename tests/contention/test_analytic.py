"""Analytic (oracle) contention model properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.contention.analytic import AnalyticShareModel
from repro.soc.engine import max_min_allocate


def allocate(demands, capacity):
    """The engine's allocator over a demand list, as a list."""
    alloc = max_min_allocate(dict(enumerate(demands)), capacity)
    return [alloc[i] for i in range(len(demands))]


class TestMaxMinAllocate:
    def test_sum_bounded_by_capacity(self):
        alloc = allocate([60.0, 80.0, 90.0], 100.0)
        assert sum(alloc) <= 100.0 + 1e-9

    def test_demand_capped(self):
        alloc = allocate([10.0, 500.0], 100.0)
        assert alloc[0] == pytest.approx(10.0)
        assert alloc[1] == pytest.approx(90.0)

    def test_equal_demands_split_equally(self):
        alloc = allocate([80.0, 80.0], 100.0)
        assert alloc[0] == pytest.approx(alloc[1])

    @given(
        demands=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=6),
        capacity=st.floats(1.0, 300.0),
    )
    def test_properties(self, demands, capacity):
        alloc = allocate(demands, capacity)
        assert sum(alloc) <= capacity + 1e-6
        for a, d in zip(alloc, demands):
            assert -1e-9 <= a <= d + 1e-6

    def test_share_helper(self):
        assert allocate([50.0, 50.0], 200.0)[0] == pytest.approx(50.0)


class TestAnalyticShareModel:
    def test_no_externals_no_slowdown(self, xavier):
        model = AnalyticShareModel(xavier)
        assert model.slowdown(100e9, []) == 1.0
        assert model.slowdown(100e9, [0.0]) == 1.0

    def test_zero_own_demand_no_slowdown(self, xavier):
        model = AnalyticShareModel(xavier)
        assert model.slowdown(0.0, [100e9]) == 1.0

    def test_slowdown_at_least_one(self, xavier):
        model = AnalyticShareModel(xavier)
        bw = xavier.dram_bandwidth
        for own in (0.1, 0.4, 0.8):
            for ext in (0.1, 0.4, 0.8):
                assert model.slowdown(own * bw, [ext * bw]) >= 1.0

    def test_monotone_in_external_traffic(self, xavier):
        model = AnalyticShareModel(xavier)
        bw = xavier.dram_bandwidth
        values = [
            model.slowdown(0.5 * bw, [f * bw]) for f in (0.1, 0.3, 0.6, 0.9)
        ]
        assert values == sorted(values)

    def test_heavy_corun_slows_significantly(self, xavier):
        model = AnalyticShareModel(xavier)
        bw = xavier.dram_bandwidth
        assert model.slowdown(0.6 * bw, [0.6 * bw]) > 1.3

    def test_sub_saturation_interference(self, xavier):
        """Even when total demand fits, the interference term bites --
        the PCCS insight that max-min alone misses."""
        model = AnalyticShareModel(xavier)
        bw = xavier.dram_bandwidth
        assert model.slowdown(0.3 * bw, [0.3 * bw]) > 1.0

    def test_three_clients_worse_than_two(self, xavier):
        model = AnalyticShareModel(xavier)
        bw = xavier.dram_bandwidth
        two = model.slowdown(0.4 * bw, [0.3 * bw])
        three = model.slowdown(0.4 * bw, [0.3 * bw, 0.3 * bw])
        assert three > two

    def test_bulk_prices_repeated_cells_like_slowdown(self, xavier):
        """The default ``slowdown_bulk`` loop prices each distinct cell
        once; every cell, repeats included, equals its scalar query,
        with external traffic split evenly over the other clients."""
        model = AnalyticShareModel(xavier)
        bw = xavier.dram_bandwidth
        own = np.array([[0.4, 0.2, 0.4], [0.4, 0.0, 0.6]]) * bw
        ext = np.array([[0.3, 0.5, 0.3], [0.3, 0.5, 0.9]]) * bw
        n = np.array([[2, 3, 2], [2, 2, 3]])
        bulk = model.slowdown_bulk(own, ext, n)
        assert bulk.shape == own.shape
        for o, e, k, got in zip(own.ravel(), ext.ravel(), n.ravel(), bulk.ravel()):
            want = model.slowdown(float(o), [float(e) / (k - 1)] * (k - 1))
            assert got == want
        assert model.slowdown_bulk(0.4 * bw, 0.3 * bw, 2).shape == (1,)
