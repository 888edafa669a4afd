"""Layer grouping: partition properties and coalescing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dnn import zoo
from repro.dnn.fusion import fuse
from repro.dnn.grouping import _segment_units, group_layers


class TestGroupingPartition:
    @pytest.mark.parametrize("model", ["alexnet", "resnet18", "googlenet"])
    def test_groups_cover_all_layers(self, model):
        g = zoo.build(model)
        groups = group_layers(g)
        total = sum(len(u) for grp in groups for u in grp.units)
        assert total == len(g)

    def test_flops_conserved(self):
        g = zoo.build("resnet18")
        groups = group_layers(g)
        assert sum(grp.flops for grp in groups) == g.total_flops

    def test_params_conserved(self):
        g = zoo.build("vgg16")
        groups = group_layers(g)
        assert sum(grp.weight_params for grp in groups) == g.total_params

    def test_indices_contiguous(self):
        g = zoo.build("googlenet")
        groups = group_layers(g)
        assert groups[0].first_layer_index == 0
        for a, b in zip(groups, groups[1:]):
            assert b.first_layer_index == a.last_layer_index + 1
        assert groups[-1].last_layer_index == len(g) - 1

    def test_labels_match_indices(self):
        g = zoo.build("alexnet")
        grp = group_layers(g)[0]
        assert grp.label == f"{grp.first_layer_index}-{grp.last_layer_index}"

    def test_layer_kinds_recorded(self):
        g = zoo.build("alexnet")
        kinds = set()
        for grp in group_layers(g):
            kinds |= grp.layer_kinds
        assert "conv" in kinds and "fc" in kinds and "lrn" in kinds


class TestCoalescing:
    @given(target=st.integers(1, 20))
    def test_respects_max_groups(self, target):
        g = zoo.build("googlenet")
        groups = group_layers(g, max_groups=target)
        assert 1 <= len(groups) <= target

    def test_googlenet_to_ten_groups(self):
        """Paper Table 2 coarsens GoogleNet to 10 groups."""
        g = zoo.build("googlenet")
        groups = group_layers(g, max_groups=10)
        assert len(groups) == 10
        assert sum(len(u) for grp in groups for u in grp.units) == len(g)

    def test_no_coalesce_keeps_minimal_groups(self):
        g = zoo.build("googlenet")
        assert len(group_layers(g)) > len(group_layers(g, max_groups=10))

    def test_rejects_non_positive_target(self):
        g = zoo.build("alexnet")
        with pytest.raises(ValueError):
            group_layers(g, max_groups=0)

    @pytest.mark.parametrize("model", zoo.available())
    def test_running_sums_match_quadratic_reference(self, model):
        """Coalescing on running segment sums picks the same merges as
        the original loop that re-summed every segment per merge."""

        def reference(segments, target):
            segs = [list(s) for s in segments]
            while len(segs) > target:
                flops = [sum(u.flops for u in s) for s in segs]
                best = min(
                    range(len(segs) - 1),
                    key=lambda i: flops[i] + flops[i + 1],
                )
                segs[best] = segs[best] + segs.pop(best + 1)
            return segs

        g = zoo.build(model)
        units = fuse(g)
        position = {l.name: i for i, l in enumerate(g.compute_layers)}
        segments = _segment_units(g, units, position)
        # the greedy merge order does not depend on the target, so one
        # reference run down from the widest target serves them all
        for target in (16, 12, 10, 8, 4, 1):
            segments = reference(segments, target)
            expected = []
            for seg in segments:
                spots = [position[l.name] for u in seg for l in u.layers]
                expected.append((f"{min(spots)}-{max(spots)}", tuple(seg)))
            groups = group_layers(g, max_groups=target, units=units)
            assert [(grp.label, grp.units) for grp in groups] == expected

    def test_coalescing_balances_flops(self):
        """Merging smallest pairs first avoids one giant group."""
        g = zoo.build("resnet50")
        groups = group_layers(g, max_groups=8)
        flops = [grp.flops for grp in groups]
        assert max(flops) < g.total_flops * 0.6


class TestGroupProperties:
    def test_output_elems_is_boundary_tensor(self):
        g = zoo.build("alexnet")
        groups = group_layers(g, max_groups=6)
        for grp in groups:
            assert grp.output_elems == grp.out_shape.numel
            assert grp.output_elems > 0

    def test_activation_traffic_at_least_io(self):
        g = zoo.build("resnet18")
        for grp in group_layers(g, max_groups=8):
            assert (
                grp.activation_traffic_elems
                >= grp.output_elems
            )

    def test_repr_readable(self):
        g = zoo.build("alexnet")
        text = repr(group_layers(g)[0])
        assert "alexnet" in text and "MFLOPs" in text
