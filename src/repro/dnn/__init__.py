"""DNN graph intermediate representation and model zoo.

The IR is deliberately *analytical*: layers carry shapes, parameter
counts, FLOPs and DRAM-byte accounting rather than weights.  That is
all the scheduler (and the paper's profiling pipeline) ever consumes.

Public entry points:

- :class:`repro.dnn.shapes.TensorShape`
- layer classes in :mod:`repro.dnn.layers`
- :class:`repro.dnn.graph.DNNGraph`
- :func:`repro.dnn.fusion.fuse`
- :func:`repro.dnn.grouping.group_layers`
- :func:`repro.dnn.zoo.build` / :data:`repro.dnn.zoo.MODEL_REGISTRY`
- :func:`repro.dnn.zoo.compiled` (the shared fused form of a zoo model)
"""

from repro.dnn.shapes import TensorShape
from repro.dnn.layers import (
    Layer,
    InputLayer,
    Conv2d,
    DepthwiseConv2d,
    Deconv2d,
    Dense,
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool2d,
    BatchNorm,
    Activation,
    LRN,
    Add,
    Concat,
    Flatten,
    Softmax,
    Dropout,
)
from repro.dnn.graph import DNNGraph, GraphError
from repro.dnn.fusion import fuse, FusedLayer
from repro.dnn.grouping import LayerGroup, group_layers
from repro.dnn.synth import synth_dnn
from repro.dnn import zoo

__all__ = [
    "TensorShape",
    "Layer",
    "InputLayer",
    "Conv2d",
    "DepthwiseConv2d",
    "Deconv2d",
    "Dense",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "BatchNorm",
    "Activation",
    "LRN",
    "Add",
    "Concat",
    "Flatten",
    "Softmax",
    "Dropout",
    "DNNGraph",
    "GraphError",
    "fuse",
    "FusedLayer",
    "LayerGroup",
    "group_layers",
    "synth_dnn",
    "zoo",
]
