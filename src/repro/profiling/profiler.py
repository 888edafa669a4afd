"""Layer-centric standalone profiler (the TensorRT ``IProfiler`` analogue).

``profile_dnn`` produces, for one DNN on one platform, the per-group
execution times on every supported DSA, the transition costs at every
group boundary for every DSA pair, and the requested memory throughput
per group -- all from *standalone* runs, which is the decoupled
characterization that keeps profiling cost linear in the number of
layer groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.dnn import zoo
from repro.dnn.graph import DNNGraph
from repro.dnn.grouping import LayerGroup, group_layers
from repro.perf.model import group_cost, transition_cost
from repro.soc.platform import Platform


@dataclass(frozen=True)
class GroupProfile:
    """Standalone profile of one layer group."""

    group: LayerGroup
    #: accelerator -> standalone execution time (s); only supported DSAs
    time_s: Mapping[str, float]
    #: accelerator -> requested memory throughput while running (B/s)
    req_bw: Mapping[str, float]
    #: accelerator -> fraction of the EMC the group utilizes standalone
    emc_util: Mapping[str, float]
    #: (src, dst) -> (flush seconds on src, load seconds on dst) for
    #: the transition *after* this group when execution moves src->dst
    transition_s: Mapping[tuple[str, str], tuple[float, float]] = field(
        default_factory=dict
    )

    @property
    def supported(self) -> frozenset[str]:
        """Accelerators that can execute this group."""
        return frozenset(self.time_s)

    def time_on(self, accel: str) -> float:
        try:
            return self.time_s[accel]
        except KeyError:
            raise KeyError(
                f"group {self.group.label} of {self.group.dnn_name} does "
                f"not run on {accel!r} (supported: {sorted(self.time_s)})"
            ) from None

    @property
    def label(self) -> str:
        return self.group.label


@dataclass(frozen=True)
class DNNProfile:
    """Complete standalone profile of one DNN on one platform."""

    dnn_name: str
    platform_name: str
    groups: tuple[GroupProfile, ...]

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    def __getitem__(self, index: int) -> GroupProfile:
        return self.groups[index]

    def supports(self, accel: str) -> bool:
        """Whether the *whole* network can run on one DSA (no fallback)."""
        return all(accel in g.time_s for g in self.groups)

    def total_time(self, accel: str) -> float:
        """Standalone whole-network latency on one DSA, no transitions.

        ``inf`` when some group is unsupported there.
        """
        total = 0.0
        for g in self.groups:
            t = g.time_s.get(accel)
            if t is None:
                return float("inf")
            total += t
        return total

    def transition(self, boundary_index: int, src: str, dst: str) -> float:
        """Total transition seconds after group ``boundary_index``."""
        out_s, in_s = self.transition_split(boundary_index, src, dst)
        return out_s + in_s

    def transition_split(
        self, boundary_index: int, src: str, dst: str
    ) -> tuple[float, float]:
        """(flush-on-src, load-on-dst) seconds for a transition."""
        if src == dst:
            return 0.0, 0.0
        return self.groups[boundary_index].transition_s[(src, dst)]


def concat_profiles(profiles: Sequence[DNNProfile]) -> DNNProfile:
    """Concatenate profiles into one chained-stream profile.

    Used for workload streams that run several models back-to-back
    (paper Scenario 4); the junction between two models becomes an
    ordinary group boundary with the usual transition costs.
    """
    if not profiles:
        raise ValueError("concat_profiles needs at least one profile")
    platforms = {p.platform_name for p in profiles}
    if len(platforms) != 1:
        raise ValueError(f"profiles span multiple platforms: {platforms}")
    if len(profiles) == 1:
        return profiles[0]
    return DNNProfile(
        dnn_name="+".join(p.dnn_name for p in profiles),
        platform_name=profiles[0].platform_name,
        groups=tuple(g for p in profiles for g in p.groups),
    )


def profile_dnn(
    model: str | DNNGraph,
    platform: Platform,
    *,
    max_groups: int | None = None,
) -> DNNProfile:
    """Profile one DNN on every accelerator of ``platform``.

    ``model`` is a zoo name (paper aliases accepted) or an already
    built graph.  ``max_groups`` coarsens the grouping as in paper
    Table 2 (GoogleNet's 140 layers -> 10 groups).
    """
    graph = zoo.build(model) if isinstance(model, str) else model
    groups = group_layers(graph, max_groups=max_groups)
    profiles: list[GroupProfile] = []
    for i, group in enumerate(groups):
        time_s: dict[str, float] = {}
        req_bw: dict[str, float] = {}
        emc_util: dict[str, float] = {}
        for accel in platform.accelerators:
            if platform.blocked(accel.name, graph.name):
                continue
            if not accel.supports_kinds(group.layer_kinds):
                continue
            cost = group_cost(group, accel, platform)
            time_s[accel.name] = cost.time_s
            req_bw[accel.name] = cost.req_bw
            emc_util[accel.name] = cost.req_bw / platform.dram_bandwidth
        if not time_s:
            raise RuntimeError(
                f"group {group.label} of {graph.name} is not supported on "
                f"any accelerator of {platform.name}"
            )
        # transition costs are computed for every group (including the
        # last) so profiles can be concatenated into chained streams
        # where today's last group becomes an interior boundary
        transitions: dict[tuple[str, str], tuple[float, float]] = {}
        for src in platform.accelerators:
            for dst in platform.accelerators:
                if src.name == dst.name:
                    continue
                transitions[(src.name, dst.name)] = transition_cost(
                    group.output_elems, src, dst, platform
                )
        profiles.append(
            GroupProfile(
                group=group,
                time_s=time_s,
                req_bw=req_bw,
                emc_util=emc_util,
                transition_s=transitions,
            )
        )
    return DNNProfile(
        dnn_name=graph.name,
        platform_name=platform.name,
        groups=tuple(profiles),
    )
