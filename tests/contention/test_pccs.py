"""PCCS: decoupled calibration accuracy."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.contention.analytic import AnalyticShareModel
from repro.contention.base import NoContentionModel
from repro.contention.pccs import calibrate_pccs, measure_corun_slowdown


@pytest.fixture(scope="module")
def pccs(xavier):
    return calibrate_pccs(xavier, grid_points=10)


class TestCalibration:
    def test_tables_for_two_and_three_clients(self, pccs):
        assert set(pccs.tables) == {2, 3}

    def test_surface_at_least_one(self, pccs):
        for table in pccs.tables.values():
            assert (table >= 1.0 - 1e-9).all()

    def test_surface_monotone_in_external(self, pccs):
        table = pccs.tables[2]
        diffs = np.diff(table, axis=1)
        assert (diffs >= -1e-6).all()

    def test_rejects_tiny_grid(self, xavier):
        with pytest.raises(ValueError):
            calibrate_pccs(xavier, grid_points=1)

    def test_matches_analytic_oracle(self, pccs, xavier):
        """The fitted surface approximates the engine's arbitration to
        a few percent -- the decoupled characterization works."""
        oracle = AnalyticShareModel(xavier)
        bw = xavier.dram_bandwidth
        worst = 0.0
        for own in np.linspace(0.05, 0.9, 8):
            for ext in np.linspace(0.05, 0.9, 8):
                p = pccs.slowdown(own * bw, [ext * bw])
                o = oracle.slowdown(own * bw, [ext * bw])
                worst = max(worst, abs(p - o) / o)
        assert worst < 0.08

    def test_probe_measurement_direct(self, xavier):
        bw = xavier.dram_bandwidth
        s = measure_corun_slowdown(xavier, 0.6 * bw, [0.6 * bw])
        assert s > 1.2

    def test_too_many_clients_rejected(self, xavier):
        with pytest.raises(ValueError):
            measure_corun_slowdown(
                xavier, 1e9, [1e9, 1e9, 1e9, 1e9]
            )


class TestQueries:
    def test_no_external_no_slowdown(self, pccs):
        assert pccs.slowdown(100e9, []) == 1.0

    def test_clamps_out_of_grid_queries(self, pccs, xavier):
        bw = xavier.dram_bandwidth
        assert pccs.slowdown(2 * bw, [2 * bw]) >= 1.0

    def test_client_count_snaps_to_fitted(self, pccs, xavier):
        bw = xavier.dram_bandwidth
        # 5 clients snaps to the 3-client surface
        many = pccs.slowdown(0.4 * bw, [0.2 * bw] * 4)
        three = pccs.slowdown(0.4 * bw, [0.4 * bw, 0.4 * bw])
        assert many >= 1.0 and three >= 1.0

    @given(own=st.floats(0.01, 0.95), ext=st.floats(0.01, 0.95))
    def test_bulk_matches_scalar(self, pccs, xavier, own, ext):
        bw = xavier.dram_bandwidth
        scalar = pccs.slowdown(own * bw, [ext * bw])
        bulk = pccs.slowdown_bulk(
            np.array([own * bw]), np.array([ext * bw]), np.array([2])
        )
        assert bulk[0] == pytest.approx(scalar, rel=1e-9)

    def test_bulk_shapes(self, pccs, xavier):
        bw = xavier.dram_bandwidth
        own = np.full((3, 4), 0.5 * bw)
        ext = np.full((3, 4), 0.5 * bw)
        n = np.full((3, 4), 2)
        out = pccs.slowdown_bulk(own, ext, n)
        assert out.shape == (3, 4)
        assert (out >= 1.0).all()


class TestNoContentionModel:
    def test_always_one(self):
        model = NoContentionModel()
        assert model.slowdown(1e12, [1e12, 1e12]) == 1.0

    def test_bulk_always_one(self):
        model = NoContentionModel()
        out = model.slowdown_bulk(
            np.array([1e9, 2e9]), np.array([1e9, 1e9]), np.array([2, 3])
        )
        assert (out == 1.0).all()
