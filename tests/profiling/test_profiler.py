"""Standalone profiler: group profiles, transitions, concatenation."""

import pytest

from repro.profiling.profiler import concat_profiles, profile_dnn


@pytest.fixture(scope="module")
def googlenet_profile(xavier):
    return profile_dnn("googlenet", xavier, max_groups=10)


class TestProfileStructure:
    def test_group_count(self, googlenet_profile):
        assert len(googlenet_profile) == 10

    def test_times_positive(self, googlenet_profile):
        for group in googlenet_profile:
            for t in group.time_s.values():
                assert t > 0

    def test_gpu_supports_everything(self, googlenet_profile):
        assert googlenet_profile.supports("gpu")

    def test_lrn_groups_not_on_dla(self, googlenet_profile):
        """GoogleNet's stem contains LRN, which TensorRT cannot place
        on the DLA -- those groups must be GPU-only."""
        assert not googlenet_profile.supports("dla")
        lrn_groups = [
            g
            for g in googlenet_profile
            if "lrn" in g.group.layer_kinds
        ]
        assert lrn_groups
        for g in lrn_groups:
            assert "dla" not in g.time_s

    def test_middle_groups_run_on_both(self, googlenet_profile):
        both = [g for g in googlenet_profile if len(g.supported) == 2]
        assert len(both) >= 5

    def test_req_bw_and_util_consistent(self, xavier, googlenet_profile):
        for g in googlenet_profile:
            for accel, bw in g.req_bw.items():
                assert g.emc_util[accel] == pytest.approx(
                    bw / xavier.dram_bandwidth
                )

    def test_dla_to_gpu_ratio_varies(self, googlenet_profile):
        """Paper Table 2: the DLA/GPU ratio swings across groups --
        the affinity signal HaX-CoNN exploits."""
        ratios = [
            g.time_s["dla"] / g.time_s["gpu"]
            for g in googlenet_profile
            if "dla" in g.time_s
        ]
        assert max(ratios) / min(ratios) > 1.25


class TestTransitions:
    def test_every_group_has_both_directions(self, googlenet_profile):
        for g in googlenet_profile:
            assert ("gpu", "dla") in g.transition_s
            assert ("dla", "gpu") in g.transition_s

    def test_transition_helper(self, googlenet_profile):
        assert googlenet_profile.transition(0, "gpu", "gpu") == 0.0
        assert googlenet_profile.transition(0, "gpu", "dla") > 0.0

    def test_dla_to_gpu_costlier(self, googlenet_profile):
        """Paper Table 2: D->G transitions cost more than G->D."""
        for g in googlenet_profile:
            assert sum(g.transition_s[("dla", "gpu")]) > sum(
                g.transition_s[("gpu", "dla")]
            )

    def test_split_sums_to_total(self, googlenet_profile):
        for g in googlenet_profile:
            for pair, (out_s, in_s) in g.transition_s.items():
                assert out_s > 0 and in_s > 0
                del pair


class TestTotals:
    def test_total_time_matches_table5_order(self, xavier):
        p_small = profile_dnn("resnet18", xavier)
        p_large = profile_dnn("resnet152", xavier)
        assert p_small.total_time("gpu") < p_large.total_time("gpu")

    def test_total_time_inf_when_unsupported(self, googlenet_profile):
        assert googlenet_profile.total_time("dla") == float("inf")

    def test_densenet_blocked_on_xavier_dla(self, xavier):
        profile = profile_dnn("densenet121", xavier, max_groups=8)
        assert all("dla" not in g.time_s for g in profile)

    def test_blocked_everywhere_raises(self, xavier):
        import dataclasses

        blocked = dataclasses.replace(
            xavier,
            model_blocklist={
                "dla": frozenset({"resnet18"}),
                "gpu": frozenset({"resnet18"}),
            },
        )
        with pytest.raises(RuntimeError):
            profile_dnn("resnet18", blocked, max_groups=6)


class TestConcat:
    def test_chained_profile(self, xavier):
        a = profile_dnn("googlenet", xavier, max_groups=6)
        b = profile_dnn("resnet18", xavier, max_groups=6)
        chained = concat_profiles([a, b])
        assert len(chained) == 12
        assert chained.dnn_name == "googlenet+resnet18"
        assert chained.total_time("gpu") == pytest.approx(
            a.total_time("gpu") + b.total_time("gpu")
        )

    def test_single_profile_passthrough(self, xavier):
        a = profile_dnn("resnet18", xavier, max_groups=6)
        assert concat_profiles([a]) is a

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concat_profiles([])

    def test_mixed_platforms_rejected(self, xavier, orin):
        a = profile_dnn("resnet18", xavier, max_groups=6)
        b = profile_dnn("resnet18", orin, max_groups=6)
        with pytest.raises(ValueError):
            concat_profiles([a, b])
