"""Layer grouping: the atomic units the scheduler assigns to DSAs.

Section 3.1 of the paper derives *minimal layer groups* such that

1. fused chains are never split (we group fused units, never raw
   layers -- see :mod:`repro.dnn.fusion`),
2. transitions only occur where a single tensor crosses the boundary,
   so no input/output reformatting cascades are triggered (we use the
   graph's single-live-tensor cut points), and
3. accelerator/software limitations are respected (each group carries
   the set of layer kinds it contains; the scheduler checks those
   against per-accelerator capability lists).

The boundary *after* each group is a potential transition point.
"""

from __future__ import annotations

import bisect

from dataclasses import dataclass, field
from typing import Sequence

from repro.dnn.fusion import FusedLayer, fuse
from repro.dnn.graph import DNNGraph
from repro.dnn.shapes import TensorShape


@dataclass(frozen=True)
class LayerGroup:
    """A contiguous, indivisible run of fused units of one DNN."""

    index: int
    dnn_name: str
    units: tuple[FusedLayer, ...]
    first_layer_index: int
    last_layer_index: int

    #: layer kinds present in the group (capability checking)
    layer_kinds: frozenset[str] = field(default_factory=frozenset)

    @property
    def label(self) -> str:
        """Span label in the paper's Table 2 style, e.g. ``"0-9"``."""
        return f"{self.first_layer_index}-{self.last_layer_index}"

    @property
    def flops(self) -> int:
        return sum(u.flops for u in self.units)

    @property
    def weight_params(self) -> int:
        return sum(u.weight_params for u in self.units)

    @property
    def out_shape(self) -> TensorShape:
        return self.units[-1].out_shape

    @property
    def output_elems(self) -> int:
        """Elements of the boundary tensor flushed on a transition."""
        return self.units[-1].output_elems

    @property
    def input_elems(self) -> int:
        """Elements of the tensor entering the group."""
        return self.units[0].input_elems

    @property
    def activation_traffic_elems(self) -> int:
        """Activation elements crossing DRAM while the group executes.

        Every fused unit streams its external inputs in and its output
        out, except intermediates that an accelerator might keep in its
        scratchpad; the performance model applies that reuse factor,
        this property reports the raw demand.
        """
        return sum(u.input_elems + u.output_elems for u in self.units)

    def __repr__(self) -> str:
        return (
            f"<LayerGroup {self.dnn_name}[{self.label}] "
            f"{len(self.units)} units, {self.flops / 1e6:.1f} MFLOPs>"
        )


def _segment_units(
    graph: DNNGraph, units: Sequence[FusedLayer], position: dict[str, int]
) -> list[list[FusedLayer]]:
    """Split fused units at the graph's cut points.

    A unit belongs to the segment of the first cut point at or after
    its *last* layer position (``position`` maps each compute layer to
    its topological index).  Assigning by position (rather than by
    unit list order) keeps side branches -- e.g. a residual downsample
    conv whose fused Add lives in the main-path unit -- inside the
    block segment they are part of.
    """
    cut_positions = sorted(position[l.name] for l in graph.cut_points())
    segments: list[list[FusedLayer]] = [[] for _ in cut_positions]
    for unit in units:
        last = max(position[l.name] for l in unit.layers)
        seg = bisect.bisect_left(cut_positions, last)
        if seg >= len(segments):  # trailing layers past the last cut
            seg = len(segments) - 1
        segments[seg].append(unit)
    return [seg for seg in segments if seg]


def _coalesce(flops: Sequence[int], target: int) -> list[tuple[int, int]]:
    """Greedily merge the cheapest adjacent segment pair until at most
    ``target`` segments remain; returns the ``[start, stop)`` range of
    segments each merged group covers.

    Cost of a merge is the combined FLOPs of the pair, so the result
    stays roughly balanced -- mirroring how the paper coarsens
    GoogleNet's 140 layers into the 10 groups of Table 2.  ``flops``
    holds each segment's FLOPs; the sums are kept current across
    merges, so each merge costs one pass over the segments, not over
    every layer.
    """
    spans = [(i, i + 1) for i in range(len(flops))]
    sums = list(flops)
    while len(spans) > target:
        best = min(range(len(spans) - 1), key=lambda i: sums[i] + sums[i + 1])
        spans[best] = (spans[best][0], spans.pop(best + 1)[1])
        sums[best] += sums.pop(best + 1)
    return spans


def group_layers(
    graph: DNNGraph,
    *,
    max_groups: int | None = None,
    units: Sequence[FusedLayer] | None = None,
) -> list[LayerGroup]:
    """Derive the layer groups of ``graph``.

    Parameters
    ----------
    graph:
        The DNN to group.
    max_groups:
        Optional upper bound on the number of groups.  Adjacent
        segments are merged (smallest combined FLOPs first) until the
        bound holds; ``None`` keeps the minimal grouping, i.e. the
        maximal set of transition points.
    units:
        Pre-fused units, if the caller already ran :func:`fuse`.
    """
    return CompiledModel(graph, units).groups(max_groups)


class CompiledModel:
    """A model's fused units and minimal grouping: the
    platform-independent half of characterization.

    Construction fuses the graph (unless ``units`` are given) and
    splits the units at the graph's cut points; the graph itself is
    not kept.  Every grouping (:meth:`groups`, one per ``max_groups``)
    coalesces the same minimal groups of the same units, so a cost
    memoized per unit (:func:`repro.perf.model.group_cost`) is shared
    by all of them.  Nothing here is mutated after construction.
    """

    def __init__(
        self, graph: DNNGraph, units: Sequence[FusedLayer] | None = None
    ) -> None:
        self.name = graph.name
        self.units: tuple[FusedLayer, ...] = tuple(
            fuse(graph) if units is None else units
        )
        position = {l.name: i for i, l in enumerate(graph.compute_layers)}
        self._minimal: tuple[LayerGroup, ...] = tuple(
            _span_group(idx, graph.name, seg, position)
            for idx, seg in enumerate(
                _segment_units(graph, self.units, position)
            )
        )
        self._flops = [group.flops for group in self._minimal]

    def groups(self, max_groups: int | None = None) -> list[LayerGroup]:
        """The layer groups at ``max_groups`` (see :func:`group_layers`)."""
        if max_groups is None:
            return list(self._minimal)
        if max_groups < 1:
            raise ValueError(f"max_groups must be >= 1, got {max_groups}")
        groups: list[LayerGroup] = []
        for idx, (start, stop) in enumerate(_coalesce(self._flops, max_groups)):
            parts = self._minimal[start:stop]
            groups.append(
                LayerGroup(
                    index=idx,
                    dnn_name=self.name,
                    units=tuple(u for part in parts for u in part.units),
                    first_layer_index=min(p.first_layer_index for p in parts),
                    last_layer_index=max(p.last_layer_index for p in parts),
                    layer_kinds=frozenset().union(
                        *(p.layer_kinds for p in parts)
                    ),
                )
            )
        return groups


def _span_group(
    index: int,
    dnn_name: str,
    units: Sequence[FusedLayer],
    position: dict[str, int],
) -> LayerGroup:
    """One segment of fused units as a group, labelled by the positions
    of its layers."""
    layers = [l for u in units for l in u.layers]
    positions = [position[l.name] for l in layers]
    return LayerGroup(
        index=index,
        dnn_name=dnn_name,
        units=tuple(units),
        first_layer_index=min(positions),
        last_layer_index=max(positions),
        layer_kinds=frozenset(l.kind for l in layers),
    )
