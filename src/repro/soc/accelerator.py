"""Accelerator (DSA) execution parameters.

An :class:`AcceleratorSpec` carries everything the performance model
needs to predict a layer's standalone execution time on that DSA:

* ``peak_flops`` -- achievable FP16 throughput at full utilization,
* ``kind_eff`` -- relative efficiency per layer kind (GPUs are tuned
  for large dense convolutions; DLAs are fixed-function conv engines
  that keep their efficiency on small layers but fall off on
  fully-connected and exotic ops),
* ``saturation_outputs`` -- how much output-level parallelism the DSA
  needs before it approaches peak (wide GPUs need much more work to
  saturate than the narrow DLA, which is the mechanism behind the
  paper's Table 2 observation that the DLA/GPU ratio varies 1.4-2x
  across layer groups),
* ``standalone_bw_frac`` -- the share of the SoC's DRAM bandwidth the
  DSA can pull when running alone,
* transition parameters for the flush/reload across shared memory when
  execution moves between DSAs (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping
from weakref import WeakKeyDictionary

if TYPE_CHECKING:  # the memo's owner sits above this layer
    from repro.dnn.fusion import FusedLayer
    from repro.dnn.grouping import LayerGroup
    from repro.perf.model import UnitCost

#: default relative efficiency by layer kind for programmable GPUs
GPU_KIND_EFF: Mapping[str, float] = MappingProxyType(
    {
        "conv": 0.50,
        "dwconv": 0.08,
        "deconv": 0.30,
        "fc": 0.50,
        "matmul": 0.45,
        "pool": 0.08,
        "lrn": 0.10,
        "bn": 0.04,
        "ln": 0.04,
        "act": 0.04,
        "eltwise": 0.04,
        "softmax": 0.03,
        "concat": 0.04,
        "reshape": 1.0,
        "dropout": 1.0,
        "input": 1.0,
    }
)

#: fixed-function DNN accelerators (NVDLA, Hexagon tensor unit)
DSA_KIND_EFF: Mapping[str, float] = MappingProxyType(
    {
        "conv": 0.70,
        "dwconv": 0.30,
        "deconv": 0.20,
        "fc": 0.25,
        "matmul": 0.10,
        "pool": 0.30,
        "lrn": 0.05,
        "bn": 0.10,
        "ln": 0.08,
        "act": 0.10,
        "eltwise": 0.10,
        "softmax": 0.03,
        "concat": 0.10,
        "reshape": 1.0,
        "dropout": 1.0,
        "input": 1.0,
    }
)

#: NPU core grids: a mesh of small MAC cores fed by DMA descriptors
#: (the neuromorphic-SoC class of accelerator).  Dense matmul/conv map
#: almost perfectly onto the grid; data-dependent normalizations and
#: scatter-style ops run on the grid's scalar units and crawl.
NPU_KIND_EFF: Mapping[str, float] = MappingProxyType(
    {
        "conv": 0.60,
        "dwconv": 0.35,
        "deconv": 0.10,
        "fc": 0.55,
        "matmul": 0.65,
        "pool": 0.25,
        "lrn": 0.05,
        "bn": 0.15,
        "ln": 0.12,
        "act": 0.15,
        "eltwise": 0.15,
        "softmax": 0.08,
        "concat": 0.10,
        "reshape": 1.0,
        "dropout": 1.0,
        "input": 1.0,
    }
)


@dataclass(frozen=True)
class AcceleratorSpec:
    """Static execution model of one DSA on a shared-memory SoC."""

    name: str
    #: architectural family: "gpu", "dla", "dsp", "cpu"
    family: str
    #: achievable FP16 FLOP/s at 100% utilization
    peak_flops: float
    #: relative efficiency per layer kind
    kind_eff: Mapping[str, float]
    #: output elements at which utilization reaches ~63% (1 - 1/e)
    saturation_outputs: float
    #: fraction of SoC DRAM bandwidth reachable when running alone
    standalone_bw_frac: float
    #: fixed per-fused-unit dispatch overhead (kernel launch, HW pipe)
    launch_overhead_s: float
    #: layer kinds this DSA cannot execute (TensorRT/SNPE restrictions)
    unsupported_kinds: frozenset[str] = field(default_factory=frozenset)
    #: per-kind multiplier on achievable DRAM bandwidth; GPUs stream
    #: large fully-connected weight matrices in long sequential bursts
    #: near the controller peak (> the scattered-access conv fraction),
    #: while fixed-function DSAs handle FC poorly -- the mechanism
    #: behind the paper's "DLA is generally less effective in running
    #: fully-connected layers" (Section 5.2)
    kind_bw: Mapping[str, float] = field(
        default_factory=lambda: MappingProxyType({})
    )
    #: fixed latency to flush transient state out to shared memory
    flush_latency_s: float = 10e-6
    #: fixed latency to (re)load state when execution enters this DSA
    load_latency_s: float = 10e-6
    #: fraction of DRAM bandwidth used while flushing/loading boundary
    #: tensors on a transition
    transition_bw_frac: float = 0.25
    #: multiplier on activation DRAM traffic: real engines re-read
    #: inputs (im2col, tiling, partial sums) several times, which is
    #: why the paper's Table 2 measures 42-78% EMC utilization where
    #: the algorithmic-minimum traffic would predict far less
    act_traffic_factor: float = 1.0
    #: multiplier on weight DRAM traffic (weights stream once at
    #: batch 1, so this stays ~1)
    weight_traffic_factor: float = 1.0
    #: convolution kernel extent the DSA's internal buffer is sized
    #: for; kernels larger than this lose efficiency proportionally
    #: (0 disables the penalty).  Fixed-function DLAs favor small
    #: kernels -- paper Table 2 / Section 3.2.
    kernel_sweet_spot: int = 0
    #: multiplicative correction applied to every modeled time on this
    #: DSA; set by :mod:`repro.perf.calibration`
    time_scale: float = 1.0
    #: board power draw while executing (energy-objective extension;
    #: fixed-function DSAs burn far less than the GPU, which is why
    #: energy-aware mappers like AxoNN shift layers onto them)
    active_power_w: float = 10.0
    #: standalone-cost memo owned by :func:`repro.perf.model.group_cost`:
    #: layer group or fused unit ->
    #: {(dtype_bytes, dram_bandwidth, batch): UnitCost}.  Weakly keyed
    #: so it never keeps a profiled graph alive; outside init, repr and
    #: comparison so ``replace``/``scaled`` copies start empty.
    _cost_memo: WeakKeyDictionary[
        LayerGroup | FusedLayer, dict[tuple[int, float, int], UnitCost]
    ] = field(
        default_factory=WeakKeyDictionary,
        init=False,
        repr=False,
        compare=False,
    )

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise ValueError(f"{self.name}: peak_flops must be positive")
        if not 0 < self.standalone_bw_frac <= 1:
            raise ValueError(f"{self.name}: standalone_bw_frac out of (0, 1]")
        if not 0 < self.transition_bw_frac <= 1:
            raise ValueError(f"{self.name}: transition_bw_frac out of (0, 1]")
        if self.saturation_outputs <= 0:
            raise ValueError(f"{self.name}: saturation_outputs must be > 0")
        if self.time_scale <= 0:
            raise ValueError(f"{self.name}: time_scale must be > 0")
        if self.active_power_w <= 0:
            raise ValueError(f"{self.name}: active_power_w must be > 0")

    def efficiency(self, kind: str) -> float:
        """Relative efficiency for a layer kind (0 when unsupported)."""
        if kind in self.unsupported_kinds:
            return 0.0
        return self.kind_eff.get(kind, 0.05)

    def bandwidth_factor(self, kind: str) -> float:
        """Relative achievable-DRAM-bandwidth multiplier for a kind."""
        return self.kind_bw.get(kind, 1.0)

    def kernel_factor(self, kernel_max: int) -> float:
        """Efficiency multiplier for a convolution kernel extent."""
        if self.kernel_sweet_spot <= 0 or kernel_max <= self.kernel_sweet_spot:
            return 1.0
        return self.kernel_sweet_spot / kernel_max

    def supports_kinds(self, kinds: frozenset[str]) -> bool:
        """Whether every layer kind in ``kinds`` can run on this DSA."""
        return not (kinds & self.unsupported_kinds)

    def scaled(self, time_scale: float) -> "AcceleratorSpec":
        """Copy with a different calibration scale."""
        return replace(self, time_scale=time_scale)

    def __str__(self) -> str:
        return self.name


def npu_core_grid(
    name: str = "npu",
    *,
    cores: int = 512,
    mac_lanes: int = 32,
    clock_hz: float = 1.0e9,
    outputs_per_core: int = 24,
    standalone_bw_frac: float = 0.60,
    active_power_w: float = 4.0,
    unsupported_kinds: frozenset[str] = frozenset({"lrn", "deconv"}),
) -> AcceleratorSpec:
    """An NPU modeled as a DMA-fed grid of small MAC cores.

    The class of accelerator the neuromorphic-SoC scheduling work
    targets: ``cores`` identical processing elements, each with
    ``mac_lanes`` multiply-accumulate lanes, tiled over the output
    tensor.  Peak throughput is the grid's aggregate MAC rate
    (2 FLOPs/MAC); saturation needs roughly one output tile per core
    (``cores * outputs_per_core``), so the grid sits between the
    narrow fixed-function DLA and the wide GPU in how much
    parallelism it needs.  Descriptor-driven DMA dispatch makes the
    per-unit launch overhead higher than the GPU's stream launch but
    flush/reload cheap (state lives in the cores' local SRAM).
    """
    if cores <= 0 or mac_lanes <= 0 or clock_hz <= 0:
        raise ValueError(f"{name}: core-grid parameters must be positive")
    return AcceleratorSpec(
        name=name,
        family="npu",
        peak_flops=2.0 * cores * mac_lanes * clock_hz,
        kind_eff=NPU_KIND_EFF,
        saturation_outputs=float(cores * outputs_per_core),
        standalone_bw_frac=standalone_bw_frac,
        launch_overhead_s=12e-6,
        unsupported_kinds=unsupported_kinds,
        kind_bw=MappingProxyType({"fc": 1.3, "matmul": 1.2, "concat": 0.6}),
        act_traffic_factor=3.5,
        flush_latency_s=8e-6,
        load_latency_s=10e-6,
        transition_bw_frac=0.25,
        active_power_w=active_power_w,
    )
