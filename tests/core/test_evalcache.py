"""Differential property tests for the incremental evaluation engine.

The engine behind ``Formulation.evaluate`` (repro.core.evalcache) is a
pure speedup: every default-path mechanism -- item-tensor gathers,
the slowdown-structure cache, the bounded memo table and batch
evaluation -- must
reproduce the reference ``evaluate_scratch`` **bit for bit**,
including per-item timings and the type *and message* of every raised
exception.  These tests sweep 60+ seeded random formulations plus a
hypothesis layer over synthetic profiles; a dedicated case forces memo
eviction.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contention.pccs import PCCSModel
from repro.core import evalcache
from repro.core.evalcache import EvalEngine
from repro.core.formulation import Formulation, ScheduleInfeasible
from repro.dnn.graph import DNNGraph
from repro.dnn.grouping import group_layers
from repro.dnn.layers import Activation, Conv2d
from repro.dnn.shapes import TensorShape
from repro.profiling.profiler import DNNProfile, GroupProfile

ACCELS = ("gpu", "dla")


def make_pccs() -> PCCSModel:
    """A small hand-built slowdown surface (no calibration runs).

    Values > 1 whenever both clients stream, so the contention fixed
    point genuinely iterates and the slowdown caches are exercised.
    """
    grid = np.array([1e8, 8e8, 4e9])
    t2 = np.array(
        [
            [1.02, 1.10, 1.30],
            [1.05, 1.22, 1.48],
            [1.12, 1.38, 1.90],
        ]
    )
    return PCCSModel(
        own_grid=grid,
        ext_grid=grid,
        tables={2: t2, 3: np.maximum(t2 * 1.18, 1.0)},
    )


def make_profile(
    name: str,
    times: list[dict[str, float]],
    bws: list[dict[str, float]],
    *,
    drop_transition: bool = False,
) -> DNNProfile:
    """Hand-built profile with one tiny real group per entry.

    ``drop_transition`` omits the gpu->dla pair on the first boundary
    so assignments crossing it raise the reference KeyError.
    """
    g = DNNGraph(name, TensorShape(3, 8, 8))
    for i in range(len(times)):
        g.add(Conv2d(f"c{i}", 4, 3, padding=1))
        g.add(Activation(f"r{i}"))
    groups = group_layers(g, max_groups=len(times))
    entries = []
    for i, (group, time_s) in enumerate(zip(groups, times)):
        transition_s = {
            ("gpu", "dla"): (1e-5, 1.5e-5),
            ("dla", "gpu"): (2e-5, 1e-5),
        }
        if drop_transition and i == 0:
            del transition_s[("gpu", "dla")]
        entries.append(
            GroupProfile(
                group=group,
                time_s=time_s,
                req_bw={a: bws[i].get(a, 1e9) for a in time_s},
                emc_util={a: 0.1 for a in time_s},
                transition_s=transition_s,
            )
        )
    return DNNProfile(
        dnn_name=name, platform_name="synthetic", groups=tuple(entries)
    )


def random_formulation(seed: int) -> tuple[Formulation, random.Random]:
    rng = random.Random(seed)
    n_streams = rng.choice((2, 2, 2, 3))
    objective = rng.choice(("latency", "latency", "throughput", "energy"))
    profiles = []
    for s in range(n_streams):
        n_groups = rng.randint(2, 4)
        times = [
            {a: rng.uniform(1e-4, 3e-3) for a in ACCELS}
            for _ in range(n_groups)
        ]
        bws = [
            {a: rng.uniform(1e8, 6e9) for a in ACCELS}
            for _ in range(n_groups)
        ]
        profiles.append(
            make_profile(
                f"net{s}", times, bws, drop_transition=(seed % 7 == 0)
            )
        )
    repeats = tuple(rng.choice((1, 1, 2)) for _ in range(n_streams))
    return (
        Formulation(
            profiles,
            repeats,
            objective,
            make_pccs(),
            resource_constrained=rng.random() < 0.8,
            accel_power_w=(
                {"gpu": 18.0, "dla": 6.0} if objective == "energy" else None
            ),
        ),
        rng,
    )


def clone(form: Formulation) -> Formulation:
    """Same-spec formulation with cold engine caches."""
    return Formulation(
        form.profiles,
        form.repeats,
        form.objective,
        form.contention_model,
        include_transitions=form.include_transitions,
        resource_constrained=form.resource_constrained,
        pipeline=form.pipeline,
        accel_power_w=form.accel_power_w,
    )


def random_sequence(
    form: Formulation, rng: random.Random, length: int = 10
) -> list[list[tuple[str, ...]]]:
    """Descent-shaped assignments: each step rewrites one stream's
    suffix (the B&B sibling shape), with duplicates and infeasible
    entries mixed in."""
    n_groups = [len(p) for p in form.profiles]
    current = [
        tuple(rng.choice(ACCELS) for _ in range(g)) for g in n_groups
    ]
    sequence = [list(current)]
    for step in range(length - 1):
        n = rng.randrange(len(current))
        cut = rng.randrange(n_groups[n])
        tail = tuple(rng.choice(ACCELS) for _ in range(n_groups[n] - cut))
        current = list(current)
        current[n] = current[n][:cut] + tail
        if step % 5 == 3:
            # unsupported accelerator: the infeasible-path comparison
            bad = list(current)
            bad[n] = ("nsp",) * n_groups[n]
            sequence.append(bad)
        sequence.append(list(current))
    sequence.append(sequence[0])  # duplicate: memo-hit path
    return sequence


Outcome = tuple


def outcomes(fn, sequence, **kwargs) -> list[Outcome]:
    """(tag, payload) per assignment; exceptions captured, not raised."""
    out: list[Outcome] = []
    for assignment in sequence:
        try:
            out.append(("ok", fn(assignment, **kwargs)))
        except Exception as exc:  # noqa: BLE001 -- differential capture
            out.append(("err", type(exc), str(exc)))
    return out


def assert_identical(
    got: list[Outcome], ref: list[Outcome], *, items_every: int = 4
) -> None:
    """Bitwise equality of outcomes, including exception type+message.

    Per-item timings are compared on a subsample (``items_every``):
    they are derived from the same arrays the scalars come from, so a
    subsample keeps the test fast without weakening the check much.
    """
    assert len(got) == len(ref)
    for i, (g, r) in enumerate(zip(got, ref)):
        assert g[0] == r[0], f"entry {i}: {g[0]} vs {r[0]}"
        if g[0] == "err":
            assert g[1] is r[1], f"entry {i}: exception type differs"
            assert g[2] == r[2], f"entry {i}: exception message differs"
            continue
        a, b = g[1], r[1]
        assert a.objective == b.objective, f"entry {i}"
        assert a.per_dnn_time == b.per_dnn_time, f"entry {i}"
        assert a.makespan == b.makespan, f"entry {i}"
        assert a.energy_j == b.energy_j, f"entry {i}"
        assert a.fixed_point_iterations == b.fixed_point_iterations, (
            f"entry {i}"
        )
        if i % items_every == 0:
            assert a.items == b.items, f"entry {i}: items differ"


@pytest.mark.parametrize("seed", range(48))
def test_engine_matches_scratch_bitwise(seed):
    """Incremental + memoized evaluation == from-scratch, bit for bit.

    Two passes over the same engine: the first exercises gathers, the
    event-loop plan cache and the slowdown cache; the second is all
    memo hits.  Both
    must equal the reference exactly -- scalars, items, exceptions.
    """
    form, rng = random_formulation(seed)
    sequence = random_sequence(form, rng)
    scratch = clone(form)
    ref = outcomes(scratch.evaluate_scratch, sequence)

    inc = clone(form)
    first = outcomes(inc.evaluate, sequence)
    assert_identical(first, ref)

    hits_before = inc.engine.counters.memo_hits
    second = outcomes(inc.evaluate, sequence)
    assert_identical(second, ref)
    # everything memoizable (results + ScheduleInfeasible) must hit;
    # reference KeyErrors (unprofiled transitions) are never memoized
    memoizable = sum(
        1
        for o in ref
        if o[0] == "ok" or issubclass(o[1], ScheduleInfeasible)
    )
    assert inc.engine.counters.memo_hits - hits_before == memoizable

    # serialized evaluation shares the engine but not the replay state
    serial_ref = outcomes(
        scratch.evaluate_scratch, sequence[:3], serialized=True
    )
    serial_got = outcomes(inc.evaluate, sequence[:3], serialized=True)
    assert_identical(serial_got, serial_ref, items_every=1)


@pytest.mark.parametrize("seed", (0, 3, 8, 11, 17, 23, 31, 42))
def test_memo_eviction_preserves_identity(seed, monkeypatch):
    """A capacity-2 memo under a long distinct sequence evicts
    constantly; results must stay bit-identical and the table bounded."""
    form, rng = random_formulation(seed)
    sequence = random_sequence(form, rng, length=12)
    ref = outcomes(clone(form).evaluate_scratch, sequence)

    monkeypatch.setattr(evalcache, "MEMO_CAPACITY", 2)
    tiny = EvalEngine(clone(form))
    assert_identical(outcomes(tiny.evaluate, sequence), ref)
    # second pass re-computes what was evicted -- identity must hold
    assert_identical(outcomes(tiny.evaluate, sequence), ref)
    assert len(tiny.memo) <= 2


@pytest.mark.parametrize("seed", (2, 7, 14, 21, 28, 35))
def test_batch_parity(seed):
    """evaluate_many == per-call evaluate == scratch, with infeasible
    siblings returned as exception instances in place."""
    form, rng = random_formulation(seed)
    raw = random_sequence(form, rng)
    ref_all = outcomes(clone(form).evaluate_scratch, raw)
    # evaluate_many absorbs ScheduleInfeasible only; reference
    # KeyErrors (unprofiled transitions) propagate by contract
    keep = [
        i
        for i, o in enumerate(ref_all)
        if o[0] == "ok" or issubclass(o[1], ScheduleInfeasible)
    ]
    sequence = [raw[i] for i in keep]
    ref = [ref_all[i] for i in keep]

    batch_form = clone(form)
    batch = batch_form.evaluate_many(sequence)
    as_outcomes: list[Outcome] = [
        ("err", type(r), str(r)) if isinstance(r, Exception) else ("ok", r)
        for r in batch
    ]
    assert_identical(as_outcomes, ref)
    assert batch_form.engine.counters.batch_items == len(sequence)


times_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "gpu": st.floats(1e-4, 4e-3),
            "dla": st.floats(1e-4, 4e-3),
        }
    ),
    min_size=2,
    max_size=4,
)


class TestHypothesisDifferential:
    @given(t1=times_strategy, t2=times_strategy, split=st.integers(0, 3))
    @settings(max_examples=30)
    def test_engine_matches_scratch(self, t1, t2, split):
        bw1 = [dict.fromkeys(t, 2.5e9) for t in t1]
        bw2 = [dict.fromkeys(t, 1.5e9) for t in t2]
        form = Formulation(
            (make_profile("a", t1, bw1), make_profile("b", t2, bw2)),
            (1, 1),
            "latency",
            make_pccs(),
        )
        cut = min(split, len(t1))
        assignments = [
            ("gpu",) * cut + ("dla",) * (len(t1) - cut),
            ("dla",) * len(t2),
        ]
        ref = clone(form).evaluate_scratch(assignments)
        got = clone(form).evaluate(assignments)
        assert got.objective == ref.objective
        assert got.per_dnn_time == ref.per_dnn_time
        assert got.makespan == ref.makespan
        assert got.fixed_point_iterations == ref.fixed_point_iterations
        assert got.items == ref.items
