"""DNN computation graph.

:class:`DNNGraph` is a single-input, single-output DAG of
:class:`~repro.dnn.layers.Layer` nodes built in topological order.
Besides shape propagation it provides the two structural queries that
layer grouping (Section 3.1 of the paper) needs:

* :meth:`DNNGraph.cut_points` -- layers after which exactly one live
  tensor crosses to the rest of the network.  Only there can execution
  *transition* between accelerators with a single flush/reload.
* :meth:`DNNGraph.linear_segments` -- the partition of the graph into
  atomic blocks between consecutive cut points (e.g. one inception
  module or one residual block per segment).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.dnn.layers import InputLayer, Layer
from repro.dnn.shapes import TensorShape


class GraphError(ValueError):
    """Raised on malformed graph construction or queries."""


class DNNGraph:
    """Single-input single-output DNN DAG.

    Layers are appended in topological order: every predecessor named
    in ``inputs`` must already be part of the graph.  When ``inputs``
    is omitted the previously added layer is used, which makes chain
    construction read like the prototxt files the paper ships.
    """

    def __init__(self, name: str, input_shape: TensorShape) -> None:
        self.name = name
        self._layers: list[Layer] = []
        self._preds: dict[str, tuple[str, ...]] = {}
        self._succs: dict[str, list[str]] = {}
        self._by_name: dict[str, Layer] = {}
        root = InputLayer("input", input_shape)
        self._register(root, ())

    # -- construction ----------------------------------------------------
    def _register(self, layer: Layer, pred_names: tuple[str, ...]) -> None:
        if layer.name in self._by_name:
            raise GraphError(f"duplicate layer name {layer.name!r} in {self.name}")
        self._layers.append(layer)
        self._by_name[layer.name] = layer
        self._preds[layer.name] = pred_names
        self._succs[layer.name] = []
        for p in pred_names:
            self._succs[p].append(layer.name)

    def add(
        self,
        layer: Layer,
        inputs: Sequence[str | Layer] | str | Layer | None = None,
    ) -> Layer:
        """Append ``layer``, wire it to ``inputs``, and infer its shape."""
        if inputs is None:
            preds: list[Layer] = [self._layers[-1]]
        else:
            if isinstance(inputs, (str, Layer)):
                inputs = [inputs]
            preds = []
            for ref in inputs:
                name = ref if isinstance(ref, str) else ref.name
                try:
                    preds.append(self._by_name[name])
                except KeyError:
                    raise GraphError(
                        f"unknown input {name!r} for layer {layer.name!r}"
                    ) from None
        layer.bind([p.out_shape for p in preds])  # type: ignore[misc]
        self._register(layer, tuple(p.name for p in preds))
        return layer

    # -- accessors ---------------------------------------------------------
    @property
    def layers(self) -> tuple[Layer, ...]:
        """All layers in topological order, including the input node."""
        return tuple(self._layers)

    @property
    def compute_layers(self) -> tuple[Layer, ...]:
        """Layers excluding the input placeholder."""
        return tuple(l for l in self._layers if not isinstance(l, InputLayer))

    def __len__(self) -> int:
        return len(self.compute_layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.compute_layers)

    def __getitem__(self, name: str) -> Layer:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(f"no layer named {name!r} in {self.name}") from None

    def predecessors(self, layer: str | Layer) -> tuple[Layer, ...]:
        name = layer if isinstance(layer, str) else layer.name
        return tuple(self._by_name[p] for p in self._preds[name])

    def successors(self, layer: str | Layer) -> tuple[Layer, ...]:
        name = layer if isinstance(layer, str) else layer.name
        return tuple(self._by_name[s] for s in self._succs[name])

    @property
    def output_layer(self) -> Layer:
        """The unique sink of the graph."""
        sinks = [l for l in self._layers if not self._succs[l.name]]
        if len(sinks) != 1:
            raise GraphError(
                f"{self.name} has {len(sinks)} sinks; expected exactly 1"
            )
        return sinks[0]

    @property
    def input_shape(self) -> TensorShape:
        shape = self._layers[0].out_shape
        assert shape is not None
        return shape

    # -- aggregate statistics -----------------------------------------------
    @property
    def total_flops(self) -> int:
        return sum(l.flops for l in self.compute_layers)

    @property
    def total_params(self) -> int:
        return sum(l.weight_params for l in self.compute_layers)

    def validate(self) -> None:
        """Check single-sink connectivity; raise :class:`GraphError` if broken."""
        self.output_layer  # raises when not exactly one sink
        dangling = [
            l.name
            for l in self._layers[1:]
            if not self._preds[l.name]
        ]
        if dangling:
            raise GraphError(f"{self.name}: layers with no inputs: {dangling}")

    # -- structural queries ---------------------------------------------------
    def cut_points(self) -> list[Layer]:
        """Layers after which exactly one tensor is live.

        Walking the topological order, a tensor produced by layer ``u``
        stays *live* until all successors of ``u`` have been visited.
        Layer ``v`` is a cut point iff, right after visiting ``v``, the
        only live tensor is ``v``'s own output.  The final layer is
        always a cut point.  The input node is excluded.
        """
        remaining = {name: len(succ) for name, succ in self._succs.items()}
        live: set[str] = set()
        cuts: list[Layer] = []
        for layer in self._layers:
            for p in self._preds[layer.name]:
                remaining[p] -= 1
                if remaining[p] == 0:
                    live.discard(p)
            if self._succs[layer.name] or layer is self._layers[-1]:
                live.add(layer.name)
            if live == {layer.name} and not isinstance(layer, InputLayer):
                cuts.append(layer)
        out = self.output_layer
        if not cuts or cuts[-1] is not out:
            cuts.append(out)
        return cuts

    def linear_segments(self) -> list[tuple[Layer, ...]]:
        """Partition compute layers into blocks ending at cut points.

        Every segment is a contiguous run of the topological order whose
        last layer is a cut point; intra-segment tensors never cross a
        segment boundary, so transitions between accelerators are only
        meaningful *between* segments.
        """
        cut_names = {l.name for l in self.cut_points()}
        segments: list[tuple[Layer, ...]] = []
        current: list[Layer] = []
        for layer in self.compute_layers:
            current.append(layer)
            if layer.name in cut_names:
                segments.append(tuple(current))
                current = []
        if current:  # trailing layers without a cut point: fold into last
            if segments:
                segments[-1] = segments[-1] + tuple(current)
            else:
                segments.append(tuple(current))
        return segments

    def __repr__(self) -> str:
        return (
            f"<DNNGraph {self.name}: {len(self)} layers, "
            f"{self.total_flops / 1e9:.2f} GFLOPs, "
            f"{self.total_params / 1e6:.2f} M params>"
        )


def chain(graph: DNNGraph, layers: Iterable[Layer]) -> Layer:
    """Append ``layers`` sequentially to ``graph``; return the last one."""
    last: Layer | None = None
    for layer in layers:
        last = graph.add(layer)
    if last is None:
        raise GraphError("chain() got an empty layer list")
    return last
