"""SoC platform specifications (paper Table 4) and registry.

Three shared-memory SoCs are modeled:

* **NVIDIA AGX Orin** -- Ampere GPU + NVDLA v2, 204.8 GB/s LPDDR5,
* **NVIDIA Xavier AGX** -- Volta GPU + NVDLA v1, 136.5 GB/s LPDDR4,
* **Qualcomm Snapdragon 865** -- Adreno 650 GPU + Hexagon 698 DSP,
  34.1 GB/s LPDDR5.

The compute-side constants (peak FLOP/s, saturation, efficiency) are
not vendor datasheet numbers: they are model parameters chosen so the
analytical latency model reproduces the *standalone runtimes of paper
Table 5* after :func:`repro.perf.calibration.calibrate` fits the final
per-DSA scale factor.  ``get_platform`` returns calibrated platforms by
default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from repro.soc.accelerator import (
    AcceleratorSpec,
    DSA_KIND_EFF,
    GPU_KIND_EFF,
    npu_core_grid,
)


@dataclass(frozen=True)
class Platform:
    """A shared-memory SoC: a set of DSAs around one DRAM controller."""

    name: str
    accelerators: tuple[AcceleratorSpec, ...]
    #: peak DRAM bandwidth in bytes/s (Table 4)
    dram_bandwidth: float
    #: bytes per tensor element (FP16 engines throughout the paper)
    dtype_bytes: int = 2
    #: effective EMC capacity fraction when N clients are active
    #: (index = N - 1; arbitration between concurrent DSAs wastes a
    #: slice of the theoretical peak, which is why naive concurrent
    #: execution can lose to serial GPU-only runs)
    emc_capacity_frac: tuple[float, ...] = (1.0, 0.86, 0.80)
    #: strength of sub-saturation interference: even when the EMC has
    #: spare bandwidth, concurrent clients degrade each other through
    #: bank conflicts and row-buffer misses.  A client allocated ``b``
    #: achieves ``b * (1 - coeff * other_traffic / capacity)`` -- the
    #: reason PCCS-style models predict slowdown below saturation.
    interference_coeff: float = 0.45
    #: per-DSA model names whose engines cannot be built at all
    #: (e.g. NVDLA v1 fails on DenseNet's concat cascades -- the "-"
    #: entry of paper Table 5)
    model_blocklist: Mapping[str, frozenset[str]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.dram_bandwidth <= 0:
            raise ValueError(f"{self.name}: dram_bandwidth must be > 0")
        if len(self.accelerators) < 1:
            raise ValueError(f"{self.name}: needs at least one accelerator")
        names = [a.name for a in self.accelerators]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: duplicate accelerator names")
        if not self.emc_capacity_frac or any(
            not 0 < f <= 1 for f in self.emc_capacity_frac
        ):
            raise ValueError(f"{self.name}: bad emc_capacity_frac")
        if not 0 <= self.interference_coeff < 1:
            raise ValueError(f"{self.name}: interference_coeff out of [0, 1)")

    def accel(self, name: str) -> AcceleratorSpec:
        """Look up an accelerator by name."""
        for a in self.accelerators:
            if a.name == name:
                return a
        raise KeyError(
            f"platform {self.name} has no accelerator {name!r}; "
            f"available: {[a.name for a in self.accelerators]}"
        )

    @property
    def accelerator_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.accelerators)

    @property
    def gpu(self) -> AcceleratorSpec:
        """The programmable GPU (every modeled SoC has exactly one)."""
        for a in self.accelerators:
            if a.family == "gpu":
                return a
        raise KeyError(f"platform {self.name} has no GPU")

    @property
    def dsa(self) -> AcceleratorSpec:
        """The first non-GPU DSA (DLA, Hexagon DSP, or NPU core grid)."""
        for a in self.accelerators:
            if a.family in ("dla", "dsp", "npu"):
                return a
        raise KeyError(f"platform {self.name} has no DSA")

    def emc_capacity(self, active_clients: int) -> float:
        """Effective shared-memory bandwidth with N concurrent clients."""
        if active_clients <= 0:
            return self.dram_bandwidth
        idx = min(active_clients, len(self.emc_capacity_frac)) - 1
        return self.dram_bandwidth * self.emc_capacity_frac[idx]

    def blocked(self, accel_name: str, model_name: str) -> bool:
        """True when ``model_name`` cannot be compiled for that DSA."""
        return model_name in self.model_blocklist.get(accel_name, frozenset())

    def with_scales(self, scales: Mapping[str, float]) -> "Platform":
        """Copy with per-accelerator calibration time scales applied."""
        accels = tuple(
            a.scaled(scales[a.name]) if a.name in scales else a
            for a in self.accelerators
        )
        return replace(self, accelerators=accels)


# --------------------------------------------------------------------------
# Table 4 instantiations.  DLA kinds unsupported per TensorRT docs: LRN
# and softmax always fall back to GPU; deconvolution is restricted on
# NVDLA (we model it as unsupported).  Hexagon via SNPE behaves alike.
# --------------------------------------------------------------------------

_DLA_UNSUPPORTED = frozenset({"lrn", "softmax", "deconv", "matmul"})

#: GPUs stream large FC weight matrices in sequential bursts well above
#: the scattered-access conv fraction; DSAs handle FC and concat
#: reformatting poorly.
_GPU_KIND_BW = MappingProxyType({"fc": 2.0})
_DSA_KIND_BW = MappingProxyType({"fc": 1.1, "concat": 0.5})
_GPU_KIND_EFF_TUNED = MappingProxyType({**GPU_KIND_EFF, "conv": 0.55})


def _orin() -> Platform:
    gpu = AcceleratorSpec(
        name="gpu",
        family="gpu",
        peak_flops=85e12,  # Ampere iGPU, FP16 tensor-core sustained
        active_power_w=28.0,
        kind_eff=_GPU_KIND_EFF_TUNED,
        saturation_outputs=150_000.0,
        standalone_bw_frac=0.70,
        launch_overhead_s=5e-6,
        kind_bw=_GPU_KIND_BW,
        act_traffic_factor=4.0,
        flush_latency_s=6e-6,
        load_latency_s=8e-6,
        transition_bw_frac=0.30,
    )
    dla = AcceleratorSpec(
        name="dla",
        family="dla",
        peak_flops=11e12,  # NVDLA v2.0 FP16
        active_power_w=6.5,
        kind_eff=DSA_KIND_EFF,
        saturation_outputs=6_000.0,
        standalone_bw_frac=0.55,
        launch_overhead_s=9e-6,
        unsupported_kinds=_DLA_UNSUPPORTED,
        kind_bw=_DSA_KIND_BW,
        act_traffic_factor=4.5,
        kernel_sweet_spot=4,
        flush_latency_s=22e-6,
        load_latency_s=12e-6,
        transition_bw_frac=0.20,
    )
    return Platform(
        name="orin",
        accelerators=(gpu, dla),
        dram_bandwidth=204.8e9,
    )


def _xavier() -> Platform:
    gpu = AcceleratorSpec(
        name="gpu",
        family="gpu",
        peak_flops=20e12,  # Volta iGPU, FP16 tensor cores
        active_power_w=20.0,
        kind_eff=_GPU_KIND_EFF_TUNED,
        saturation_outputs=100_000.0,
        standalone_bw_frac=0.68,
        launch_overhead_s=6e-6,
        kind_bw=_GPU_KIND_BW,
        act_traffic_factor=4.0,
        flush_latency_s=8e-6,
        load_latency_s=10e-6,
        transition_bw_frac=0.28,
    )
    dla = AcceleratorSpec(
        name="dla",
        family="dla",
        peak_flops=2.8e12,  # NVDLA v1.0 FP16
        active_power_w=4.5,
        kind_eff=DSA_KIND_EFF,
        saturation_outputs=4_000.0,
        standalone_bw_frac=0.55,
        launch_overhead_s=14e-6,
        unsupported_kinds=_DLA_UNSUPPORTED,
        kind_bw=MappingProxyType({"fc": 0.9, "concat": 0.5}),
        act_traffic_factor=4.5,
        kernel_sweet_spot=4,
        flush_latency_s=35e-6,
        load_latency_s=15e-6,
        transition_bw_frac=0.18,
    )
    return Platform(
        name="xavier",
        accelerators=(gpu, dla),
        dram_bandwidth=136.5e9,
        emc_capacity_frac=(1.0, 0.84, 0.78),
        model_blocklist={"dla": frozenset({"densenet121"})},
    )


def _sd865() -> Platform:
    gpu = AcceleratorSpec(
        name="gpu",
        family="gpu",
        peak_flops=1.4e12,  # Adreno 650 FP16
        active_power_w=4.0,
        kind_eff=_GPU_KIND_EFF_TUNED,
        saturation_outputs=25_000.0,
        standalone_bw_frac=0.60,
        launch_overhead_s=20e-6,
        kind_bw=_GPU_KIND_BW,
        act_traffic_factor=4.0,
        flush_latency_s=40e-6,
        load_latency_s=40e-6,
        transition_bw_frac=0.25,
    )
    dsp = AcceleratorSpec(
        name="dsp",
        family="dsp",
        peak_flops=1.0e12,  # Hexagon 698 HVX/HTA
        active_power_w=1.5,
        kind_eff=DSA_KIND_EFF,
        saturation_outputs=8_000.0,
        standalone_bw_frac=0.55,
        launch_overhead_s=30e-6,
        unsupported_kinds=_DLA_UNSUPPORTED,
        kind_bw=_DSA_KIND_BW,
        act_traffic_factor=4.5,
        kernel_sweet_spot=4,
        flush_latency_s=60e-6,
        load_latency_s=50e-6,
        transition_bw_frac=0.22,
    )
    return Platform(
        name="sd865",
        accelerators=(gpu, dsp),
        dram_bandwidth=34.1e9,
        emc_capacity_frac=(1.0, 0.82, 0.75),
    )


def _trident() -> Platform:
    """A hypothetical 3-DSA SoC (extension).

    The paper caps its evaluation at two DSAs because "there are no
    off-the-shelf SoCs that offer more than two types of programmable
    DSAs for DNN acceleration" -- the formulation itself generalizes.
    Trident pairs an Orin-class GPU and DLA with a Hexagon-class DSP
    on the same 204.8 GB/s memory system to exercise that generality.
    """
    base = _orin()
    dsp = AcceleratorSpec(
        name="dsp",
        family="dsp",
        peak_flops=3.0e12,
        kind_eff=DSA_KIND_EFF,
        saturation_outputs=8_000.0,
        standalone_bw_frac=0.50,
        launch_overhead_s=20e-6,
        unsupported_kinds=_DLA_UNSUPPORTED,
        kind_bw=_DSA_KIND_BW,
        act_traffic_factor=4.0,
        kernel_sweet_spot=4,
        flush_latency_s=40e-6,
        load_latency_s=35e-6,
        transition_bw_frac=0.22,
        active_power_w=2.5,
    )
    return Platform(
        name="trident",
        accelerators=(*base.accelerators, dsp),
        dram_bandwidth=base.dram_bandwidth,
        emc_capacity_frac=(1.0, 0.86, 0.80, 0.76),
    )


def _matcha() -> Platform:
    """A MATCHA-style 4-DSA SoC (extension).

    MATCHA ("Efficient Deployment of DNNs on Multi-Accelerator
    Heterogeneous Edge SoCs") argues for SoCs carrying *several*
    heterogeneous DNN engines behind one memory controller.  Matcha
    models that point in the design space: an Orin-class GPU and DLA
    plus an NPU core grid (the neuromorphic-SoC accelerator class:
    many small DMA-fed MAC cores, strong on dense matmul/conv, weak
    on data-dependent ops) and a Hexagon-class DSP, all sharing
    204.8 GB/s of DRAM.  Four concurrent clients push the EMC
    arbitration further down the capacity curve than any 2-DSA
    platform can.
    """
    base = _orin()
    npu = npu_core_grid()
    dsp = AcceleratorSpec(
        name="dsp",
        family="dsp",
        peak_flops=3.0e12,
        kind_eff=DSA_KIND_EFF,
        saturation_outputs=8_000.0,
        standalone_bw_frac=0.50,
        launch_overhead_s=20e-6,
        unsupported_kinds=_DLA_UNSUPPORTED,
        kind_bw=_DSA_KIND_BW,
        act_traffic_factor=4.0,
        kernel_sweet_spot=4,
        flush_latency_s=40e-6,
        load_latency_s=35e-6,
        transition_bw_frac=0.22,
        active_power_w=2.5,
    )
    return Platform(
        name="matcha",
        accelerators=(*base.accelerators, npu, dsp),
        dram_bandwidth=base.dram_bandwidth,
        emc_capacity_frac=(1.0, 0.86, 0.80, 0.76, 0.72),
    )


_FACTORIES = {
    "orin": _orin,
    "xavier": _xavier,
    "sd865": _sd865,
    "trident": _trident,
    "matcha": _matcha,
}

#: platforms without Table 5 reference data borrow their component
#: scales from a calibrated sibling
_CALIBRATION_PROXY = {"trident": "orin", "matcha": "orin"}


def available_platforms() -> list[str]:
    """Names of the modeled SoCs."""
    return sorted(_FACTORIES)


@lru_cache(maxsize=None)
def get_platform(name: str, *, calibrated: bool = True) -> Platform:
    """Return a platform by name.

    With ``calibrated=True`` (the default) the per-DSA time scales are
    fitted against the paper's Table 5 standalone runtimes so modeled
    latencies land in the paper's value range; ``calibrated=False``
    returns the raw analytical model.
    """
    key = name.lower()
    try:
        platform = _FACTORIES[key]()
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; available: {available_platforms()}"
        ) from None
    if calibrated:
        from repro.perf.calibration import TABLE5_REFERENCE_MS, calibrate

        proxy = _CALIBRATION_PROXY.get(key)
        if proxy is None:
            platform = calibrate(platform)
        else:
            # borrow the fitted scales of the (cached) calibrated
            # sibling for the accelerators it fits; others keep 1.0
            fitted = TABLE5_REFERENCE_MS[proxy]
            scales = {
                a.name: a.time_scale
                for a in get_platform(proxy).accelerators
                if a.name in fitted
            }
            platform = platform.with_scales(scales)
    return platform
