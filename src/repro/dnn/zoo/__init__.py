"""Model zoo: the DNNs used in the paper's evaluation.

Every network the paper benchmarks (Tables 5, 6, 8; Figs 1, 5, 6) is
built layer-by-layer at its canonical input resolution:

========================  =============  ==========================
name                      input          architecture
========================  =============  ==========================
``alexnet``               3x227x227      Krizhevsky et al. 2012
``caffenet``              3x227x227      AlexNet single-column variant
``vgg16`` / ``vgg19``     3x224x224      Simonyan & Zisserman 2014
``googlenet``             3x224x224      Szegedy et al. 2015
``inception_v4``          3x299x299      Szegedy et al. 2017
``inception_resnet_v2``   3x299x299      Szegedy et al. 2017
``resnet18/50/101/152``   3x224x224      He et al. 2016
``densenet121``           3x224x224      Huang et al. 2017
``mobilenet_v1``          3x224x224      Howard et al. 2017
``fcn_resnet18``          3x224x224      Long et al. 2015 head on R18
========================  =============  ==========================

Aliases follow the paper's spelling (``inception`` = Inception-v4,
``inc-res-v2``, ``resnet52`` = ResNet-50, ``fc_resn18``).
"""

from __future__ import annotations

from typing import Callable
from weakref import WeakValueDictionary

from repro.dnn.graph import DNNGraph
from repro.dnn.grouping import CompiledModel
from repro.dnn.zoo.alexnet import build_alexnet, build_caffenet
from repro.dnn.zoo.vgg import build_vgg16, build_vgg19
from repro.dnn.zoo.googlenet import build_googlenet
from repro.dnn.zoo.inception import (
    build_inception_v4,
    build_inception_resnet_v2,
)
from repro.dnn.zoo.resnet import (
    build_resnet18,
    build_resnet50,
    build_resnet101,
    build_resnet152,
    build_fcn_resnet18,
)
from repro.dnn.zoo.densenet import build_densenet121
from repro.dnn.zoo.mobilenet import build_mobilenet_v1
from repro.dnn.zoo.transformer import build_vit_tiny

MODEL_REGISTRY: dict[str, Callable[[], DNNGraph]] = {
    "alexnet": build_alexnet,
    "caffenet": build_caffenet,
    "vgg16": build_vgg16,
    "vgg19": build_vgg19,
    "googlenet": build_googlenet,
    "inception_v4": build_inception_v4,
    "inception_resnet_v2": build_inception_resnet_v2,
    "resnet18": build_resnet18,
    "resnet50": build_resnet50,
    "resnet101": build_resnet101,
    "resnet152": build_resnet152,
    "densenet121": build_densenet121,
    "mobilenet_v1": build_mobilenet_v1,
    "fcn_resnet18": build_fcn_resnet18,
    "vit_tiny": build_vit_tiny,
}

#: paper spellings -> canonical registry names
ALIASES: dict[str, str] = {
    "inception": "inception_v4",
    "inc-res-v2": "inception_resnet_v2",
    "inc_res_v2": "inception_resnet_v2",
    "resnet52": "resnet50",
    "densenet": "densenet121",
    "mobilenet": "mobilenet_v1",
    "fc_resn18": "fcn_resnet18",
    "fcn-resnet18": "fcn_resnet18",
    "vgg-19": "vgg19",
    "vgg-16": "vgg16",
    "vit": "vit_tiny",
    "vit-tiny": "vit_tiny",
    "transformer": "vit_tiny",
}


def canonical_name(name: str) -> str:
    """Resolve a model name or paper alias to its registry key."""
    key = name.lower().replace(" ", "")
    key = ALIASES.get(key, key)
    if key not in MODEL_REGISTRY:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}"
        )
    return key


def build(name: str) -> DNNGraph:
    """Construct a fresh graph for ``name`` (accepts paper aliases)."""
    graph = MODEL_REGISTRY[canonical_name(name)]()
    graph.validate()
    return graph


#: canonical name -> the compiled form some caller still holds
_COMPILED: WeakValueDictionary[str, CompiledModel] = WeakValueDictionary()


def compiled(name: str) -> CompiledModel:
    """The shared compiled form (fused units, minimal grouping) of ``name``.

    A model is built and fused once for as long as any caller holds its
    compiled form (every :class:`~repro.profiling.database.ProfileDB`
    that profiled it); once the last holder drops it, the next call
    builds afresh, so no compiled model outlives its users.  The weak
    map is read with one ``get`` whose result is held, so a collection
    between lookup and use cannot lose the entry.
    """
    key = canonical_name(name)
    model = _COMPILED.get(key)
    if model is None:
        model = _COMPILED[key] = CompiledModel(build(key))
    return model


def available() -> list[str]:
    """Sorted canonical model names."""
    return sorted(MODEL_REGISTRY)


__all__ = [
    "MODEL_REGISTRY",
    "ALIASES",
    "build",
    "compiled",
    "available",
    "canonical_name",
]
