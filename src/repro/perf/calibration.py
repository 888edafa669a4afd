"""Calibration of the analytical model against paper Table 5.

The paper profiles each DNN on real hardware; we fit one multiplicative
time scale per accelerator (log-space least squares across the model
zoo) so the analytical model's standalone latencies land in Table 5's
value range.  The *relative* structure -- which layers favor which DSA,
who is memory-bound -- comes from the model itself; calibration only
anchors the absolute scale, mirroring how the paper's offline profiling
anchors its cost tables.

Snapdragon 865 has no Table 5 column; its reference targets are derived
from the GPU-only / GPU&DSP rows of Table 6 (experiments 9-10) and
documented in EXPERIMENTS.md.
"""

from __future__ import annotations

import math

from repro.dnn import zoo
from repro.dnn.grouping import LayerGroup, group_layers
from repro.soc.platform import Platform

#: paper Table 5 standalone runtimes (milliseconds); ``None`` marks the
#: DenseNet-on-Xavier-DLA entry the paper could not build.
TABLE5_REFERENCE_MS: dict[str, dict[str, dict[str, float | None]]] = {
    "orin": {
        "gpu": {
            "caffenet": 0.74,
            "densenet121": 2.19,
            "googlenet": 0.99,
            "inception_resnet_v2": 3.06,
            "inception_v4": 2.49,
            "resnet18": 0.41,
            "resnet50": 0.91,
            "resnet101": 1.56,
            "resnet152": 2.19,
            "vgg19": 1.07,
        },
        "dla": {
            "caffenet": 1.79,
            "densenet121": 3.10,
            "googlenet": 1.52,
            "inception_resnet_v2": 5.15,
            "inception_v4": 5.66,
            "resnet18": 0.74,
            "resnet50": 1.67,
            "resnet101": 2.47,
            "resnet152": 3.26,
            "vgg19": 2.93,
        },
    },
    "xavier": {
        "gpu": {
            "caffenet": 2.26,
            "densenet121": 7.84,
            "googlenet": 1.98,
            "inception_resnet_v2": 15.12,
            "inception_v4": 8.31,
            "resnet18": 1.37,
            "resnet50": 2.88,
            "resnet101": 5.34,
            "resnet152": 7.7,
            "vgg19": 5.95,
        },
        "dla": {
            "caffenet": 5.51,
            "densenet121": None,
            "googlenet": 3.68,
            "inception_resnet_v2": 17.95,
            "inception_v4": 15.94,
            "resnet18": 2.81,
            "resnet50": 6.01,
            "resnet101": 10.6,
            "resnet152": 12.71,
            "vgg19": 19.05,
        },
    },
    # Derived from Table 6 rows 9-10 (no direct Table 5 data): GPU-only
    # GoogleNet+ResNet101 = 98.3 ms, Inception+ResNet152 = 219.6 ms,
    # with the paper's note that GPU and DSP are closely balanced.
    "sd865": {
        "gpu": {
            "googlenet": 17.0,
            "resnet101": 80.0,
            "inception_v4": 100.0,
            "resnet152": 118.0,
        },
        "dsp": {
            "googlenet": 26.0,
            "resnet101": 118.0,
            "inception_v4": 160.0,
            "resnet152": 175.0,
        },
    },
}


def _modeled_latency_ms(
    model_name: str,
    accel_name: str,
    platform: Platform,
    grouped: dict[str, list[LayerGroup]],
) -> float:
    """Uncalibrated standalone latency of a zoo model on one DSA.

    ``grouped`` maps model names to their minimal layer groups; the
    caller passes one dict per pass over the reference table, so each
    model is built and grouped once however many DSAs reference it.
    """
    from repro.perf.model import standalone_latency

    groups = grouped.get(model_name)
    if groups is None:
        groups = grouped[model_name] = group_layers(zoo.build(model_name))
    accel = platform.accel(accel_name)
    fallback = platform.gpu if accel.name != platform.gpu.name else None
    return (
        standalone_latency(groups, accel, platform, fallback=fallback) * 1e3
    )


def fit_scales(platform: Platform) -> dict[str, float]:
    """Per-accelerator time scales via log-space least squares.

    The optimal multiplicative correction under squared log error is
    the geometric mean of (reference / modeled) over the zoo.
    """
    reference = TABLE5_REFERENCE_MS.get(platform.name)
    if reference is None:
        raise KeyError(
            f"no calibration reference for platform {platform.name!r}"
        )
    scales: dict[str, float] = {}
    grouped: dict[str, list[LayerGroup]] = {}
    for accel_name, targets in reference.items():
        log_ratios: list[float] = []
        for model_name, ref_ms in targets.items():
            if ref_ms is None or platform.blocked(accel_name, model_name):
                continue
            modeled = _modeled_latency_ms(
                model_name, accel_name, platform, grouped
            )
            log_ratios.append(math.log(ref_ms / modeled))
        if not log_ratios:
            raise RuntimeError(
                f"no usable calibration points for {platform.name}/{accel_name}"
            )
        scales[accel_name] = math.exp(sum(log_ratios) / len(log_ratios))
    return scales


def calibrate(platform: Platform) -> Platform:
    """Return a copy of ``platform`` with fitted per-DSA time scales."""
    return platform.with_scales(fit_scales(platform))


def calibration_report(platform: Platform) -> list[dict[str, object]]:
    """Paper-vs-model rows for EXPERIMENTS.md and the Table 5 bench.

    ``platform`` should already be calibrated; each row carries the
    reference and modeled latency plus their ratio.
    """
    reference = TABLE5_REFERENCE_MS.get(platform.name, {})
    rows: list[dict[str, object]] = []
    grouped: dict[str, list[LayerGroup]] = {}
    for accel_name, targets in reference.items():
        for model_name, ref_ms in sorted(targets.items()):
            blocked = platform.blocked(accel_name, model_name)
            modeled = (
                None
                if blocked
                else _modeled_latency_ms(
                    model_name, accel_name, platform, grouped
                )
            )
            rows.append(
                {
                    "platform": platform.name,
                    "accelerator": accel_name,
                    "model": model_name,
                    "paper_ms": ref_ms,
                    "modeled_ms": modeled,
                    "ratio": (
                        modeled / ref_ms
                        if modeled is not None and ref_ms
                        else None
                    ),
                }
            )
    return rows
