"""Synthetic-DNN invariants (random chains / residual / branchy nets).

Moved from the old ``tests/test_fuzz_pipeline.py`` when pipeline-level
fuzzing migrated to :mod:`repro.fuzz`; these hypothesis properties
still guard the graph builder the fuzzer's models share machinery
with.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnn.fusion import fuse
from repro.dnn.grouping import group_layers
from repro.dnn.synth import synth_dnn
from repro.profiling.profiler import profile_dnn
from tests.dnn.numeric import NumericExecutor

SEEDS = st.integers(0, 10_000)


class TestSynthGraphs:
    @given(seed=SEEDS)
    def test_generated_graphs_validate(self, seed):
        graph = synth_dnn(seed)
        assert len(graph) >= 5
        assert graph.output_shape.is_flat

    @given(seed=SEEDS)
    def test_deterministic(self, seed):
        a = synth_dnn(seed)
        b = synth_dnn(seed)
        assert [l.name for l in a.layers] == [l.name for l in b.layers]
        assert a.total_flops == b.total_flops

    @given(seed=SEEDS)
    def test_fusion_covers_graph(self, seed):
        graph = synth_dnn(seed)
        units = fuse(graph)
        names = sorted(l.name for u in units for l in u)
        assert names == sorted(l.name for l in graph.compute_layers)
        assert sum(u.flops for u in units) == graph.total_flops

    @given(seed=SEEDS)
    def test_grouping_partitions(self, seed):
        graph = synth_dnn(seed)
        groups = group_layers(graph, max_groups=6)
        assert 1 <= len(groups) <= 6
        assert sum(g.num_layers for g in groups) == len(graph)
        assert sum(g.flops for g in groups) == graph.total_flops

    @settings(max_examples=10)
    @given(seed=st.integers(0, 500))
    def test_numeric_shapes_agree(self, seed):
        """Every intermediate tensor of a random net matches the IR's
        shape inference (the executor raises otherwise)."""
        graph = synth_dnn(seed, input_hw=16, max_blocks=4)
        out = NumericExecutor(graph).run()
        assert out.ndim == 1


class TestSynthProfiling:
    @settings(max_examples=10)
    @given(seed=st.integers(0, 500))
    def test_profiles_stay_physical(self, seed, xavier):
        graph = synth_dnn(seed)
        profile = profile_dnn(graph, xavier, max_groups=5)
        for group in profile:
            for accel, t in group.time_s.items():
                assert t > 0
                assert (
                    group.req_bw[accel]
                    <= xavier.dram_bandwidth + 1e-6
                )
