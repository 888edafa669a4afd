"""Calibration against paper Table 5."""

import math

import pytest

from repro.perf.calibration import (
    TABLE5_REFERENCE_MS,
    calibration_report,
    fit_scales,
)
from repro.soc.platform import get_platform


@pytest.fixture(scope="module", params=["orin", "xavier", "sd865"])
def report(request):
    platform = get_platform(request.param)
    return request.param, calibration_report(platform)


class TestFitScales:
    def test_scales_positive(self):
        raw = get_platform("xavier", calibrated=False)
        scales = fit_scales(raw)
        assert set(scales) == {"gpu", "dla"}
        assert all(s > 0 for s in scales.values())

    def test_unknown_platform_rejected(self, xavier):
        import dataclasses

        nameless = dataclasses.replace(xavier, name="mystery")
        with pytest.raises(KeyError):
            fit_scales(nameless)

    def test_calibration_is_geometric_mean_optimal(self):
        """After fitting, the mean log ratio per accelerator is ~0.

        The DLA column mixes in GPU-fallback groups and transition
        costs, so the bias is only approximately zero there; the GPU
        column is exact up to that coupling.
        """
        platform = get_platform("xavier")
        rows = calibration_report(platform)
        by_accel: dict[str, list[float]] = {}
        for r in rows:
            if r["ratio"]:
                by_accel.setdefault(str(r["accelerator"]), []).append(
                    math.log(float(r["ratio"]))  # type: ignore[arg-type]
                )
        for logs in by_accel.values():
            assert abs(sum(logs) / len(logs)) < 0.05


class TestProxyCalibration:
    """trident and matcha borrow orin's fit instead of refitting it."""

    def test_proxied_scales_equal_a_fresh_orin_fit(self):
        scales = fit_scales(get_platform("orin", calibrated=False))
        for name in ("trident", "matcha"):
            platform = get_platform(name)
            for accel, scale in scales.items():
                assert platform.accel(accel).time_scale == scale
            for accel in platform.accelerators:
                if accel.name not in scales:
                    assert accel.time_scale == 1.0

    def test_proxy_is_fitted_once(self, monkeypatch):
        from repro.perf import calibration

        fitted: list[str] = []

        def counting_fit(platform):
            fitted.append(platform.name)
            return fit_scales(platform)

        monkeypatch.setattr(calibration, "fit_scales", counting_fit)
        get_platform.cache_clear()
        for name in ("orin", "trident", "matcha"):
            get_platform(name)
        get_platform.cache_clear()
        get_platform("matcha")
        assert fitted == ["orin", "orin"]


class TestReportQuality:
    def test_every_reference_cell_reported(self, report):
        name, rows = report
        expected = sum(
            len(models) for models in TABLE5_REFERENCE_MS[name].values()
        )
        assert len(rows) == expected

    def test_all_cells_within_tolerance_band(self, report):
        """Modeled latencies land within ~2.5x of the paper's numbers
        (typical deviation is far smaller; VGG19 is the worst case --
        see EXPERIMENTS.md)."""
        _, rows = report
        for r in rows:
            if r["ratio"] is None:
                continue
            assert 0.4 < float(r["ratio"]) < 2.5, r  # type: ignore[arg-type]

    def test_rms_log_error_small(self, report):
        _, rows = report
        errs = [
            math.log(float(r["ratio"])) ** 2  # type: ignore[arg-type]
            for r in rows
            if r["ratio"]
        ]
        assert math.sqrt(sum(errs) / len(errs)) < 0.40

    def test_densenet_xavier_dla_unbuildable(self):
        rows = calibration_report(get_platform("xavier"))
        cell = next(
            r
            for r in rows
            if r["model"] == "densenet121" and r["accelerator"] == "dla"
        )
        assert cell["modeled_ms"] is None


class TestShapeProperties:
    """The relative structure the scheduler exploits (paper Table 5)."""

    def _times(self, platform_name, accel):
        rows = calibration_report(get_platform(platform_name))
        return {
            str(r["model"]): float(r["modeled_ms"])  # type: ignore[arg-type]
            for r in rows
            if r["accelerator"] == accel and r["modeled_ms"] is not None
        }

    def test_dla_always_slower_than_gpu(self):
        for name in ("orin", "xavier"):
            gpu = self._times(name, "gpu")
            dla = self._times(name, "dla")
            for model in dla:
                assert dla[model] > gpu[model]

    def test_vgg19_worst_on_dla(self):
        """VGG19's DLA/GPU ratio is the largest of the set (paper:
        2.74x on Orin, 3.2x on Xavier)."""
        for name in ("orin", "xavier"):
            gpu = self._times(name, "gpu")
            dla = self._times(name, "dla")
            ratios = {m: dla[m] / gpu[m] for m in dla}
            assert max(ratios, key=ratios.get) in ("vgg19", "caffenet")
            assert ratios["vgg19"] > 2.0

    def test_xavier_slower_than_orin(self):
        orin_gpu = self._times("orin", "gpu")
        xavier_gpu = self._times("xavier", "gpu")
        for model in orin_gpu:
            assert xavier_gpu[model] > orin_gpu[model]

    def test_resnet_depth_ordering_preserved(self):
        gpu = self._times("orin", "gpu")
        assert gpu["resnet18"] < gpu["resnet50"] < gpu["resnet101"] < gpu["resnet152"]
