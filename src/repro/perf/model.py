"""Roofline-style per-layer latency and memory-throughput model.

For a fused unit *u* on accelerator *a* of platform *p*:

``t_compute = flops(u) / (peak(a) * kind_eff(a, u) * util(a, u))``
    where ``util = 1 - exp(-outputs / saturation)`` captures how much
    output-level parallelism the DSA needs to approach its peak.  This
    single term reproduces the paper's Table 2 observation: wide GPUs
    lose efficiency on small late-network layers, so the DLA/GPU time
    ratio swings between ~1.4x and ~2x within one network.

``t_memory = dram_bytes(u) / (standalone_bw_frac(a) * BW(p))``
    with ``dram_bytes = (external inputs + outputs + weights) * dtype``;
    fusion already removed intra-chain intermediates from the input
    term.

``time = (max(t_compute, t_memory) + launch_overhead) * time_scale``

The *requested memory throughput* -- the quantity PCCS consumes -- is
``dram_bytes / time``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.dnn.grouping import LayerGroup
from repro.soc.accelerator import AcceleratorSpec
from repro.soc.platform import Platform


class UnsupportedLayerError(RuntimeError):
    """A layer kind cannot execute on the requested accelerator."""


class CostableUnit(Protocol):
    """What the model needs from a fused unit (or bare layer)."""

    name: str

    @property
    def kind(self) -> str: ...

    @property
    def flops(self) -> int: ...

    @property
    def weight_params(self) -> int: ...

    @property
    def input_elems(self) -> int: ...

    @property
    def output_elems(self) -> int: ...


@dataclass(frozen=True, slots=True)
class UnitCost:
    """Standalone execution profile of one unit/group on one DSA."""

    #: wall-clock seconds when the DSA runs alone
    time_s: float
    #: pure compute seconds at the DSA's achievable rate (incl. launch)
    compute_s: float
    #: bytes moved through the shared memory controller
    dram_bytes: float
    #: bytes/s requested from the EMC while executing standalone
    req_bw: float

    def __add__(self, other: "UnitCost") -> "UnitCost":
        time_s = self.time_s + other.time_s
        dram_bytes = self.dram_bytes + other.dram_bytes
        return UnitCost(
            time_s=time_s,
            compute_s=self.compute_s + other.compute_s,
            dram_bytes=dram_bytes,
            req_bw=dram_bytes / time_s if time_s > 0 else 0.0,
        )


ZERO_COST = UnitCost(0.0, 0.0, 0.0, 0.0)


def _kernel_extent(unit: CostableUnit) -> int:
    """Largest convolution kernel extent of a unit (0 for non-convs)."""
    target = getattr(unit, "primary", unit)
    return int(getattr(target, "kernel_max", 0) or 0)


def utilization(output_elems: int, accel: AcceleratorSpec) -> float:
    """Fraction of peak the DSA reaches for a given output parallelism."""
    return 1.0 - math.exp(-output_elems / accel.saturation_outputs)


def unit_cost(
    unit: CostableUnit,
    accel: AcceleratorSpec,
    platform: Platform,
    *,
    batch: int = 1,
) -> UnitCost:
    """Standalone cost of one fused unit on one accelerator.

    ``batch`` scales compute and activation traffic linearly while
    weights stream once -- larger batches amortize weight traffic and
    raise DSA utilization, the classic batching trade the
    batching-vs-concurrency study quantifies.

    Raises :class:`UnsupportedLayerError` when the DSA cannot execute
    the unit's kind (callers implement GPU fallback at group level).
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    eff = accel.efficiency(unit.kind)
    if eff <= 0.0:
        raise UnsupportedLayerError(
            f"layer kind {unit.kind!r} ({unit.name}) is not supported "
            f"on accelerator {accel.name!r}"
        )
    util = utilization(unit.output_elems * batch, accel)
    kernel_max = _kernel_extent(unit)
    eff *= accel.kernel_factor(kernel_max)
    flops = unit.flops * batch
    compute_s = (
        flops / (accel.peak_flops * eff * util) if flops else 0.0
    )
    # the per-kind bandwidth factor folds into the traffic (a kind the
    # DSA streams efficiently *moves fewer effective bytes*), so the
    # requested throughput can never exceed the physical DRAM rate
    raw_bytes = float(
        (unit.input_elems + unit.output_elems)
        * batch
        * platform.dtype_bytes
        * accel.act_traffic_factor
        + unit.weight_params
        * platform.dtype_bytes
        * accel.weight_traffic_factor
    ) / accel.bandwidth_factor(unit.kind)
    max_bw = accel.standalone_bw_frac * platform.dram_bandwidth
    memory_s = raw_bytes / max_bw
    raw = max(compute_s, memory_s) + accel.launch_overhead_s
    time_s = raw * accel.time_scale
    compute_total = (compute_s + accel.launch_overhead_s) * accel.time_scale
    # bytes scale with the calibration factor so (bytes, time, req_bw)
    # stay mutually consistent and physically bounded
    dram_bytes = raw_bytes * accel.time_scale
    return UnitCost(
        time_s=time_s,
        compute_s=compute_total,
        dram_bytes=dram_bytes,
        req_bw=min(dram_bytes / time_s, max_bw) if time_s > 0 else 0.0,
    )


def group_cost(
    group: LayerGroup,
    accel: AcceleratorSpec,
    platform: Platform,
    *,
    batch: int = 1,
) -> UnitCost:
    """Standalone cost of a layer group: fused units run back-to-back.

    Computed once per (group, DSA): the sum is memoized on ``accel``
    under the group plus the two platform fields the model reads and
    ``batch``, so the simulator lowering every dispatched round and
    the profiler share one walk of the group's units.
    """
    key = (platform.dtype_bytes, platform.dram_bandwidth, batch)
    per_group = accel._cost_memo.setdefault(group, {})
    cost = per_group.get(key)
    if cost is None:
        cost = ZERO_COST
        for unit in group.units:
            cost = cost + unit_cost(unit, accel, platform, batch=batch)
        per_group[key] = cost
    return cost


def transition_cost(
    boundary_elems: int,
    src: AcceleratorSpec,
    dst: AcceleratorSpec,
    platform: Platform,
) -> tuple[float, float]:
    """(flush seconds on ``src``, load seconds on ``dst``).

    On a transition the boundary tensor is flushed from the source
    DSA's private pipeline out to shared memory and re-formatted /
    loaded by the destination (paper Section 3.2, Table 2 columns
    "T. Time G to D" / "D to G").
    """
    bytes_ = boundary_elems * platform.dtype_bytes
    out_s = (
        src.flush_latency_s
        + bytes_ / (src.transition_bw_frac * platform.dram_bandwidth)
    ) * src.time_scale
    in_s = (
        dst.load_latency_s
        + bytes_ / (dst.transition_bw_frac * platform.dram_bandwidth)
    ) * dst.time_scale
    return out_s, in_s


def standalone_latency(
    groups: Sequence[LayerGroup],
    accel: AcceleratorSpec,
    platform: Platform,
    *,
    fallback: AcceleratorSpec | None = None,
) -> float:
    """Whole-network standalone latency on one DSA, in seconds.

    Groups the DSA cannot execute run on ``fallback`` instead (the
    TensorRT ``GPUFallbackMode`` the paper's DLA baselines rely on),
    including the flush/load transitions in and out of the fallback
    device.  Raises :class:`UnsupportedLayerError` when a group is
    unsupported and no fallback is given.
    """
    total = 0.0
    prev: AcceleratorSpec | None = None
    for i, group in enumerate(groups):
        target = accel
        if not accel.supports_kinds(group.layer_kinds):
            if fallback is None:
                raise UnsupportedLayerError(
                    f"group {group.label} of {group.dnn_name} cannot run "
                    f"on {accel.name} and no fallback is configured"
                )
            target = fallback
        total += group_cost(group, target, platform).time_s
        if prev is not None and prev.name != target.name:
            prev_group = groups[i - 1]
            out_s, in_s = transition_cost(
                prev_group.output_elems, prev, target, platform
            )
            total += out_s + in_s
        prev = target
    return total
