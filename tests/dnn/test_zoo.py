"""Model zoo: published FLOP/parameter counts and structure."""

import pytest

from repro.dnn import zoo
from repro.dnn.shapes import TensorShape

#: published reference values (batch 1, counting MAC = 2 FLOPs)
REFERENCE = {
    # model: (GFLOPs, M params), 10% tolerance
    "vgg16": (30.9, 138.4),
    "vgg19": (39.3, 143.7),
    "resnet18": (3.6, 11.7),
    "resnet50": (8.2, 25.6),
    "resnet101": (15.7, 44.5),
    "resnet152": (23.1, 60.2),
    "googlenet": (3.2, 7.0),
    "densenet121": (5.7, 8.0),
    "alexnet": (1.4, 61.0),
    "mobilenet_v1": (1.1, 4.2),
    "inception_v4": (24.6, 42.7),
}


class TestRegistry:
    def test_all_models_build_and_validate(self):
        for name in zoo.available():
            graph = zoo.build(name)
            assert len(graph) > 0

    def test_fifteen_models(self):
        # the paper's fourteen CNNs plus the vit_tiny transformer
        assert len(zoo.available()) == 15

    def test_aliases_resolve(self):
        assert zoo.canonical_name("Inception") == "inception_v4"
        assert zoo.canonical_name("inc-res-v2") == "inception_resnet_v2"
        assert zoo.canonical_name("resnet52") == "resnet50"
        assert zoo.canonical_name("VGG-19") == "vgg19"
        assert zoo.canonical_name("FC_ResN18") == "fcn_resnet18"

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            zoo.build("not_a_model")

    def test_build_returns_fresh_graphs(self):
        a = zoo.build("alexnet")
        b = zoo.build("alexnet")
        assert a is not b


class TestReferenceNumbers:
    @pytest.mark.parametrize("model", sorted(REFERENCE))
    def test_flops_match_published(self, model):
        ref_gflops, _ = REFERENCE[model]
        got = zoo.build(model).total_flops / 1e9
        assert got == pytest.approx(ref_gflops, rel=0.10)

    @pytest.mark.parametrize("model", sorted(REFERENCE))
    def test_params_match_published(self, model):
        _, ref_mparams = REFERENCE[model]
        got = zoo.build(model).total_params / 1e6
        assert got == pytest.approx(ref_mparams, rel=0.10)


class TestStructure:
    @pytest.mark.parametrize(
        "model",
        [
            m
            for m in zoo.available()
            # fcn emits a segmentation map; vit_tiny carries a
            # 100-class head (tests/dnn/test_transformer.py)
            if m not in ("fcn_resnet18", "vit_tiny")
        ],
    )
    def test_classifiers_emit_logits(self, model):
        graph = zoo.build(model)
        assert graph.output_layer.out_shape == TensorShape(1000)

    def test_fcn_emits_segmentation_map(self):
        graph = zoo.build("fcn_resnet18")
        assert graph.output_layer.out_shape == TensorShape(21, 224, 224)

    def test_inception_inputs_are_299(self):
        for model in ("inception_v4", "inception_resnet_v2"):
            assert zoo.build(model).input_shape == TensorShape(3, 299, 299)

    def test_alexnet_input_is_227(self):
        assert zoo.build("alexnet").input_shape == TensorShape(3, 227, 227)

    def test_depth_ordering(self):
        depths = {
            m: len(zoo.build(m))
            for m in ("resnet18", "resnet50", "resnet101", "resnet152")
        }
        assert (
            depths["resnet18"]
            < depths["resnet50"]
            < depths["resnet101"]
            < depths["resnet152"]
        )

    def test_vgg19_has_16_convs(self):
        graph = zoo.build("vgg19")
        convs = [l for l in graph if l.kind == "conv"]
        assert len(convs) == 16

    def test_googlenet_has_nine_inception_modules(self):
        graph = zoo.build("googlenet")
        concats = [l for l in graph if l.kind == "concat"]
        assert len(concats) == 9

    def test_inception_resnet_block_counts(self):
        graph = zoo.build("inception_resnet_v2")
        adds = [l for l in graph if l.kind == "eltwise"]
        assert len(adds) == 40  # 10 A + 20 B + 10 C residual joins
