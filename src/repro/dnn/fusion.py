"""TensorRT-style vertical operator fusion.

Execution frameworks fuse element-wise followers (BatchNorm,
Activation, Add, Dropout, Flatten) into their producing convolution /
dense layer so the intermediate activation never leaves the chip.
Section 3.1 of the paper requires that transition points never split a
fused chain; we realize this by running fusion *first* and treating
each :class:`FusedLayer` as indivisible from then on.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.dnn.graph import DNNGraph
from repro.dnn.layers import Layer
from repro.dnn.shapes import TensorShape

#: layer kinds that carry the "real" compute of a fused unit, in
#: priority order when picking the unit's primary layer
_PRIMARY_KINDS = (
    "conv",
    "dwconv",
    "deconv",
    "fc",
    "matmul",
    "pool",
    "lrn",
    "softmax",
)


class FusedLayer:
    """A maximal fusible chain treated as one executable unit.

    Quacks like :class:`~repro.dnn.layers.Layer` for the analytical
    properties the performance model and profiler consume.

    ``external_input_elems`` counts activation elements the unit must
    fetch from memory, i.e. inputs whose producer lies outside the
    chain; intra-chain intermediates stay on chip, which is the whole
    point of fusion.

    ``primary``, ``flops`` and ``weight_params`` are derived from the
    layers once, at construction; the sums are integers, so they are
    exact.
    """

    __slots__ = (
        "layers",
        "name",
        "_external_input_elems",
        "primary",
        "flops",
        "weight_params",
        "__weakref__",
    )

    def __init__(
        self,
        layers: Sequence[Layer],
        external_input_elems: int | None = None,
    ) -> None:
        if not layers:
            raise ValueError("FusedLayer needs at least one layer")
        self.layers: tuple[Layer, ...] = tuple(layers)
        self.name = self.layers[0].name
        if len(self.layers) > 1:
            self.name += f"+{len(self.layers) - 1}"
        if external_input_elems is None:
            external_input_elems = self.layers[0].input_elems
        self._external_input_elems = external_input_elems
        #: the layer that dominates the unit's execution behaviour
        self.primary: Layer = next(
            (
                layer
                for kind in _PRIMARY_KINDS
                for layer in self.layers
                if layer.kind == kind
            ),
            self.layers[0],
        )
        self.flops: int = sum(l.flops for l in self.layers)
        self.weight_params: int = sum(l.weight_params for l in self.layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def kind(self) -> str:
        return self.primary.kind

    @property
    def input_elems(self) -> int:
        """Activation elements fetched from memory by the fused unit."""
        return self._external_input_elems

    @property
    def out_shape(self) -> TensorShape:
        shape = self.layers[-1].out_shape
        assert shape is not None
        return shape

    @property
    def output_elems(self) -> int:
        return self.out_shape.numel

    @property
    def arithmetic_intensity(self) -> float:
        moved = self.input_elems + self.output_elems + self.weight_params
        return self.flops / moved if moved else 0.0

    def __repr__(self) -> str:
        inner = ",".join(l.name for l in self.layers)
        return f"<FusedLayer [{inner}] -> {self.out_shape}>"


def fuse(graph: DNNGraph) -> list[FusedLayer]:
    """Fuse element-wise followers into their producers.

    A layer merges into its predecessor's unit when it is marked
    ``fusible``, is the direct consumer of that unit's current tail,
    and the tail has no other consumer (so the intermediate tensor is
    private to the chain).  Returns fused units in topological order
    covering every compute layer exactly once.
    """
    unit_of: dict[str, list[Layer]] = {}
    units: list[list[Layer]] = []
    for layer in graph.compute_layers:
        preds = graph.predecessors(layer)
        merged = False
        if layer.fusible:
            for p in preds:
                unit = unit_of.get(p.name)
                if unit is None or unit[-1] is not p:
                    continue
                if len(graph.successors(p)) != 1:
                    continue
                unit.append(layer)
                unit_of[layer.name] = unit
                merged = True
                break
        if not merged:
            unit = [layer]
            units.append(unit)
            unit_of[layer.name] = unit

    fused: list[FusedLayer] = []
    for unit in units:
        members = {l.name for l in unit}
        external = 0
        for layer in unit:
            assert layer.in_shapes is not None
            for pred, shape in zip(graph.predecessors(layer), layer.in_shapes):
                if pred.name not in members:
                    external += shape.numel
        fused.append(FusedLayer(unit, external_input_elems=external))
    return fused
