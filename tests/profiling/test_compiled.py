"""One compiled form per zoo model, one unit cost per (DSA, unit).

Counts, not timings: each model is fused once however many platforms
and groupings profile it, each fused unit is priced once per DSA, and
profiles derived from the shared compiled form equal profiles of a
freshly built graph field by field, before and after that form served
a solve and a serving run.
"""

from collections import Counter

import pytest

import repro.dnn.grouping as grouping
import repro.perf.model as perf_model
from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload
from repro.dnn import zoo
from repro.profiling.database import ProfileDB
from repro.profiling.profiler import profile_dnn
from repro.serve import CachedAnytimePolicy, Tenant
from repro.serve.requests import PeriodicArrivals
from repro.soc.platform import available_platforms, get_platform
from tests.serve.helpers import drain

MAX_GROUPS = (4, 8, None)


def fresh_copy(platform):
    """The same calibrated platform on new spec objects (empty memos)."""
    return platform.with_scales(
        {a.name: a.time_scale for a in platform.accelerators}
    )


def test_each_model_fused_once_each_unit_priced_once(monkeypatch):
    # calibrate first: the count covers profiling only
    dbs = [
        ProfileDB(fresh_copy(get_platform(name)))
        for name in available_platforms()
    ]
    fused: Counter = Counter()
    priced: Counter = Counter()
    fuse, unit_cost = grouping.fuse, perf_model.unit_cost

    def counting_fuse(graph):
        fused[graph.name] += 1
        return fuse(graph)

    def counting_unit_cost(unit, accel, platform, **kwargs):
        priced[id(accel), id(unit)] += 1
        return unit_cost(unit, accel, platform, **kwargs)

    monkeypatch.setattr(grouping, "fuse", counting_fuse)
    monkeypatch.setattr(perf_model, "unit_cost", counting_unit_cost)
    models = ("googlenet", "resnet152", "vit_tiny")
    units: dict[str, set[int]] = {model: set() for model in models}
    for db in dbs:
        for model in models:
            for max_groups in MAX_GROUPS:
                profile = db.profile(model, max_groups=max_groups)
                for g in profile:
                    units[model].update(id(u) for u in g.group.units)
    for model in models:
        assert fused[model] <= 1, model
        # every platform and grouping shares one set of unit objects
        assert len(units[model]) == len(zoo.compiled(model).units)
    assert priced and max(priced.values()) == 1


def unit_fields(unit):
    return (
        unit.name,
        unit.kind,
        unit.flops,
        unit.weight_params,
        unit.input_elems,
        unit.output_elems,
        unit.out_shape,
        tuple(layer.name for layer in unit.layers),
    )


def profile_fields(profile):
    """Every field of a profile, down to its fused units (floats are
    compared exactly)."""
    return (
        profile.dnn_name,
        profile.platform_name,
        [
            (
                g.group.index,
                g.group.dnn_name,
                g.group.label,
                g.group.layer_kinds,
                [unit_fields(u) for u in g.group.units],
                dict(g.time_s),
                dict(g.req_bw),
                dict(g.emc_util),
                dict(g.transition_s),
            )
            for g in profile
        ],
    )


@pytest.fixture(scope="module")
def platforms():
    return [get_platform(name) for name in available_platforms()]


@pytest.fixture(scope="module")
def fresh_profiles(platforms):
    """Every zoo model profiled from its own freshly built graph."""
    out = {}
    for model in zoo.available():
        graph = zoo.build(model)
        for platform in platforms:
            for max_groups in MAX_GROUPS:
                profile = profile_dnn(graph, platform, max_groups=max_groups)
                out[model, platform.name, max_groups] = profile_fields(
                    profile
                )
    return out


def test_shared_profiles_equal_fresh_graph_profiles(
    platforms, fresh_profiles
):
    dbs = {p.name: ProfileDB(p) for p in platforms}

    def check():
        for (model, name, max_groups), expected in fresh_profiles.items():
            db = dbs[name]
            cached = db.profile(model, max_groups=max_groups)
            assert profile_fields(cached) == expected, (model, name)
            again = profile_dnn(model, db.platform, max_groups=max_groups)
            assert profile_fields(again) == expected, (model, name)

    check()
    xavier = dbs["xavier"]
    scheduler = HaXCoNN(
        xavier.platform, db=xavier, max_groups=8, max_transitions=1
    )
    scheduler.schedule(Workload.concurrent("googlenet", "resnet152"))
    tenants = [
        Tenant.of(
            model,
            model,
            arrivals=PeriodicArrivals(70.0),
            slo_s=0.05,
        )
        for model in ("vgg19", "vit_tiny")
    ]
    policy = CachedAnytimePolicy(
        HaXCoNN(xavier.platform, db=xavier, max_groups=4, max_transitions=1)
    )
    drain(xavier.platform, tenants, policy, max_batch=2, horizon_s=0.2)
    check()
