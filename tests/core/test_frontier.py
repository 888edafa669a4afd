"""Frontier-batched evaluation: the byte-identity test wall.

``EvalEngine.evaluate_frontier`` (repro.core.frontier) replays a whole
B&B sibling frontier as one lockstep NumPy batch -- event loop and
Eq. 7-8 contention fixed point vectorized over members.  Like every
other engine path it is a *pure speedup*: each member's result must
equal both per-member ``evaluate`` and the ``evaluate_scratch``
reference **bit for bit** -- scalars, per-item timings, and the type
*and message* of every infeasibility.  These tests sweep 60+ seeded
random formulations, every real platform (including the 4-DSA
``matcha`` with the ``vit_tiny`` transformer), and the adversarial
paths: memo eviction mid-frontier, singleton frontiers, duplicate
members, all-infeasible frontiers, frontiers split across several
lockstep batches, slowdown-cache entries read across paths -- plus
the solver-level guarantee that the leaf prewarm hook leaves the B&B
tree untouched.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core.evalcache import EvalEngine
from repro.core.formulation import ScheduleInfeasible
from repro.core.haxconn import HaXCoNN, enumerate_assignments
from repro.core.workload import Workload
from repro.profiling.database import ProfileDB
from repro.soc.platform import get_platform
from repro.solver import BranchAndBound, PortfolioSolver
from tests.core.test_evalcache import (
    ACCELS,
    assert_identical,
    clone,
    outcomes,
    random_formulation,
    random_sequence,
)

SEEDS = range(64)


@pytest.fixture
def lockstep_from_two(monkeypatch):
    """Lockstep from two pending members on, whatever the tuned
    minimum: the byte-identity wall targets the lockstep path."""
    from repro.core import frontier

    monkeypatch.setattr(frontier, "MIN_LOCKSTEP", 2)


def frontier_outcomes(form_or_engine, batch, **kwargs):
    """``evaluate_frontier`` results in the (tag, payload) shape of
    :func:`tests.core.test_evalcache.outcomes`."""
    out = []
    for res in form_or_engine.evaluate_frontier(batch, **kwargs):
        if isinstance(res, Exception):
            out.append(("err", type(res), str(res)))
        else:
            out.append(("ok", res))
    return out


# -- seeded differential wall: frontier == scalar == scratch -----------
@pytest.mark.parametrize("seed", SEEDS)
def test_frontier_matches_scalar_and_scratch_bitwise(seed, lockstep_from_two):
    """One batch vs per-member evaluate vs from-scratch, bit for bit.

    The sequence mixes sibling rewrites, duplicates, and infeasible
    members -- the exact population a solver leaf frontier hands the
    batched evaluator.
    """
    form, rng = random_formulation(seed)
    sequence = random_sequence(form, rng, length=12)

    ref = outcomes(clone(form).evaluate_scratch, sequence)
    scalar = outcomes(clone(form).evaluate, sequence)
    assert_identical(scalar, ref)

    front_form = clone(form)
    got = frontier_outcomes(front_form, sequence)
    assert_identical(got, ref, items_every=1)
    counters = front_form.engine.counters
    assert counters.frontier_batches == 1
    assert counters.frontier_members == len(sequence)
    if form.resource_constrained:
        assert counters.frontier_lockstep > 0

    # a second pass over the same frontier is all memo hits -- and
    # still bit-identical
    again = frontier_outcomes(front_form, sequence)
    assert_identical(again, ref, items_every=1)

    # serialized members take the scalar fallback; same contract
    serial_ref = outcomes(
        clone(form).evaluate_scratch, sequence[:4], serialized=True
    )
    serial_got = frontier_outcomes(
        clone(form), sequence[:4], serialized=True
    )
    assert_identical(serial_got, serial_ref, items_every=1)


# -- adversarial paths --------------------------------------------------
@pytest.mark.parametrize("seed", (0, 3, 8, 11, 17, 23, 31, 42))
def test_memo_eviction_mid_frontier_preserves_identity(
    seed, lockstep_from_two
):
    """A capacity-2 memo evicts while the frontier's own results are
    being inserted; every member must still match scratch exactly."""
    form, rng = random_formulation(seed)
    sequence = random_sequence(form, rng, length=14)
    ref = outcomes(clone(form).evaluate_scratch, sequence)

    tiny = EvalEngine(clone(form), memo_capacity=2)
    got = frontier_outcomes(tiny, sequence)
    assert_identical(got, ref, items_every=1)
    assert len(tiny.memo) <= 2

    # and again: almost everything was evicted, so the batch recomputes
    again = frontier_outcomes(tiny, sequence)
    assert_identical(again, ref, items_every=1)


@pytest.mark.parametrize("seed", (1, 5, 9, 13))
def test_singleton_frontiers(seed):
    """A one-member frontier (below the lockstep minimum) must take
    the scalar fallback and still match scratch -- feasible and
    infeasible members alike."""
    form, rng = random_formulation(seed)
    sequence = random_sequence(form, rng, length=8)
    ref = outcomes(clone(form).evaluate_scratch, sequence)
    front_form = clone(form)
    for member, expect in zip(sequence, ref):
        got = frontier_outcomes(front_form, [member])
        assert_identical(got, [expect], items_every=1)


@pytest.mark.parametrize("seed", (2, 7, 19))
def test_duplicate_members_share_one_evaluation(seed, lockstep_from_two):
    """Duplicates inside a frontier dedup onto one computation and
    every slot receives the identical result."""
    form, rng = random_formulation(seed)
    base = random_sequence(form, rng, length=6)
    batch = base + base  # every member duplicated
    ref = outcomes(clone(form).evaluate_scratch, batch)

    front_form = clone(form)
    got = frontier_outcomes(front_form, batch)
    assert_identical(got, ref, items_every=1)
    counters = front_form.engine.counters
    assert counters.frontier_members == len(batch)
    # the duplicated half is answered by in-frontier dedup (memo hits)
    assert counters.memo_hits >= len(base)


def test_all_infeasible_frontier_reproduces_exceptions():
    """A frontier of unschedulable members returns the same exception
    type and message scratch raises -- fresh and memoized."""
    form, _rng = random_formulation(4)
    n_groups = [len(p) for p in form.profiles]
    batch = [
        [("nsp",) * g if s == k else ("gpu",) * g
         for s, g in enumerate(n_groups)]
        for k in range(len(n_groups))
    ] * 3  # duplicates exercise the memoized-"bad" path too
    ref = outcomes(clone(form).evaluate_scratch, batch)
    assert all(tag == "err" for tag, *_ in ref)
    assert all(issubclass(o[1], ScheduleInfeasible) for o in ref)

    front_form = clone(form)
    got = frontier_outcomes(front_form, batch)
    assert_identical(got, ref)
    again = frontier_outcomes(front_form, batch)  # all memo hits now
    assert_identical(again, ref)


def test_frontier_rejects_malformed_members():
    """Wrong per-stream arity fails loudly, like scalar evaluate."""
    form, _rng = random_formulation(6)
    good = [tuple("gpu" for _ in range(len(p))) for p in form.profiles]
    with pytest.raises(ValueError):
        clone(form).evaluate_frontier([good[:1]])


# -- chunked lockstep batches and the shared slowdown cache ------------
def _distinct_members(form, count):
    """The first ``count`` distinct complete assignments (product order)."""
    domains = [
        list(itertools.product(ACCELS, repeat=len(p))) for p in form.profiles
    ]
    members = [list(m) for m in itertools.islice(itertools.product(*domains), count)]
    assert len(members) == count
    return members


@pytest.mark.parametrize("seed", (1, 2, 3, 12))
def test_chunked_frontier_matches_scratch_bitwise(seed, monkeypatch):
    """A frontier wider than one lockstep batch runs as several
    batches; with an infeasible member on each side of the first
    boundary and a duplicate whose first copy sits before it and whose
    repeat sits after it, every slot still equals ``evaluate_scratch``
    field for field."""
    from repro.core import frontier

    monkeypatch.setattr(frontier, "MIN_LOCKSTEP", 4)
    monkeypatch.setattr(frontier, "CELLS", 0)  # batches of MIN_LOCKSTEP
    sizes = []
    lockstep = frontier._lockstep

    def recording(engine, keys, *args):
        sizes.append(len(keys))
        return lockstep(engine, keys, *args)

    monkeypatch.setattr(frontier, "_lockstep", recording)

    form, _rng = random_formulation(seed)
    assert form.resource_constrained  # the lockstep path applies
    distinct = _distinct_members(form, 14)
    bad = [("nsp",) * len(p) for p in form.profiles]
    n = clone(form).engine._n_items
    cut = frontier._chunks(len(distinct), n)[0][1]
    distinct[cut - 1] = [bad[0], *distinct[cut - 1][1:]]
    distinct[cut] = [*distinct[cut][:-1], bad[-1]]
    batch = distinct[: cut + 1] + [distinct[cut - 2]] + distinct[cut + 1 :]

    ref = outcomes(clone(form).evaluate_scratch, batch)
    assert [o[0] for o in ref].count("err") >= 2
    front_form = clone(form)
    got = frontier_outcomes(front_form, batch)
    assert_identical(got, ref, items_every=1)
    assert sizes == [hi - lo for lo, hi in frontier._chunks(len(distinct), n)]
    assert len(sizes) >= 2
    assert front_form.engine.counters.frontier_lockstep == len(distinct)


def _cached_matrices(engine):
    """Every slowdown-cache entry with its decoded overlap structure."""
    for (k, act, bw), vals in list(engine._s_cache._data.items()):
        active = np.frombuffer(act, dtype=bool).reshape(k, -1)
        yield active, np.frombuffer(bw), vals


@pytest.mark.parametrize("seed", (1, 2, 3, 12))
def test_slowdown_cache_entries_shared_across_paths(seed, lockstep_from_two):
    """A slowdown entry the lockstep path writes reads back on the
    scalar path bit for bit, and the reverse: both store the active
    cells of the same `_s_matrix` algebra."""
    form, _rng = random_formulation(seed)
    members = _distinct_members(form, 10)
    ref = outcomes(clone(form).evaluate_scratch, members)

    for first, second in (("lockstep", "scalar"), ("scalar", "lockstep")):
        writer = EvalEngine(clone(form))
        if first == "lockstep":
            writer.evaluate_frontier(members)
            assert writer.counters.frontier_lockstep == len(members)
        else:
            outcomes(writer.evaluate, members)
        entries = list(_cached_matrices(writer))
        assert entries
        for active, bw, vals in entries:
            dense = (
                writer._s_matrix(active, bw)
                if first == "lockstep"
                else writer._s_matrix_many([active], [bw])[0]
            )
            assert vals.tobytes() == dense[active].tobytes()

        # a second engine (cold memo) reading the writer's cache
        reader = EvalEngine(clone(form))
        reader._s_cache = writer._s_cache
        if second == "scalar":
            got = outcomes(reader.evaluate, members)
        else:
            got = frontier_outcomes(reader, members)
            assert reader.counters.frontier_lockstep == len(members)
        assert_identical(got, ref, items_every=1)
        c = reader.counters
        assert c.slowdown_queries > 0
        assert c.slowdown_cache_hits == c.slowdown_queries


# -- real platforms, including matcha + vit_tiny ------------------------
REAL_CASES = (
    ("xavier", ("alexnet", "resnet18")),
    ("orin", ("googlenet", "mobilenet_v1")),
    ("sd865", ("vgg16", "resnet18")),
    ("trident", ("alexnet", "googlenet")),
    ("matcha", ("vit_tiny", "alexnet")),
)


@pytest.mark.parametrize(
    "platform_name,models",
    REAL_CASES,
    ids=[f"{p}-{'+'.join(m)}" for p, m in REAL_CASES],
)
def test_real_platform_frontiers(platform_name, models, lockstep_from_two):
    """Profiled workloads on every platform class: a genuine sibling
    frontier (stream 0 sweeps its candidates) matches scratch and the
    scalar engine bit for bit."""
    platform = get_platform(platform_name)
    scheduler = HaXCoNN(
        platform,
        db=ProfileDB(platform),
        max_groups=3,
        max_transitions=1,
    )
    workload = Workload.concurrent(*models)
    formulation, profiles = scheduler.build_formulation(workload)
    accels = [a.name for a in platform.accelerators]
    cands = [
        enumerate_assignments(p, accels, max_transitions=1)
        for p in profiles
    ]
    batch = [
        [a0, cands[1][k % len(cands[1])]]
        for k, a0 in enumerate(cands[0][:12])
    ]

    ref = outcomes(clone(formulation).evaluate_scratch, batch)
    scalar = outcomes(clone(formulation).evaluate, batch)
    assert_identical(scalar, ref, items_every=1)
    got = frontier_outcomes(clone(formulation), batch)
    assert_identical(got, ref, items_every=1)


# -- solver invisibility ------------------------------------------------
def _reverse_bound_order(variable, children):
    """A non-default value ordering (worst bound first)."""
    return sorted(children, key=lambda c: -c[0])


def _first_feasible(problem):
    """A deliberately mediocre warm start: the first feasible leaf."""
    for values in itertools.product(*(v.domain for v in problem.variables)):
        leaf = {v.name: x for v, x in zip(problem.variables, values)}
        if problem.feasible(leaf):
            try:
                problem.objective(leaf)
            except ScheduleInfeasible:
                continue
            return leaf
    raise AssertionError("no feasible leaf")


#: (case id, solver set-up) on a three-stream mix, whose
#: leaf-grandparents sit below the root
THREE = ("fcn_resnet18", "resnet18", "resnet50")
SEARCH_SETUPS = (
    ("three-stream", "plain"),
    ("initial", "initial"),
    ("node-budget", "budget"),
    ("child-order", "order"),
    ("portfolio-serial", "portfolio"),
)


def _solve(problem, setup, budget):
    if setup == "initial":
        return BranchAndBound().solve(
            problem, initial=_first_feasible(problem)
        )
    if setup == "budget":
        return BranchAndBound(node_budget=budget).solve(problem)
    if setup == "order":
        return BranchAndBound(child_order=_reverse_bound_order).solve(
            problem
        )
    if setup == "portfolio":
        return PortfolioSolver(clock="nodes").solve(problem)
    return BranchAndBound().solve(problem)


@pytest.mark.parametrize("objective", ("latency", "throughput", "energy"))
def test_bnb_tree_identical_with_and_without_frontier_hint(
    xavier, xavier_db, objective
):
    """Stripping ``frontier_evaluate`` (per-leaf scalar evaluation)
    must reproduce the same tree: node count, incumbent objectives
    and assignments, certified optimum -- the mirror of the
    ``child_bounds`` invisibility test."""
    _assert_hint_invisible(
        xavier, xavier_db, objective, ("vgg16", "resnet50"), 6, 2, "plain"
    )


@pytest.mark.parametrize("objective", ("latency", "throughput", "energy"))
@pytest.mark.parametrize(
    "setup", [c[1] for c in SEARCH_SETUPS], ids=[c[0] for c in SEARCH_SETUPS]
)
def test_frontier_hint_invisible_across_search_setups(
    xavier, xavier_db, objective, setup
):
    """The same invisibility on a three-stream mix under every way the
    search can be driven: a leaf-grandparent below the root, a limit
    that is finite from the start (seeded ``initial``), a truncated
    search, a reordering hook and the portfolio's serial path (whose
    sync points move the limit mid-loop)."""
    _assert_hint_invisible(xavier, xavier_db, objective, THREE, 4, 1, setup)


def _assert_hint_invisible(
    xavier, xavier_db, objective, models, groups, transitions, setup
):
    scheduler = HaXCoNN(
        xavier, db=xavier_db, max_groups=groups, max_transitions=transitions
    )
    workload = Workload.concurrent(*models, objective=objective)
    formulation, _ = scheduler.build_formulation(workload)
    problem = scheduler.build_problem(workload, formulation)
    assert problem.frontier_evaluate is not None
    batches = []

    def recording(assignments):
        batches.append([dict(a) for a in assignments])
        problem.frontier_evaluate(assignments)

    # the scalar side runs on its own formulation, so the hinted run
    # cannot lean on memo entries it left behind
    fresh_form, _ = scheduler.build_formulation(workload)
    scalar = dataclasses.replace(
        scheduler.build_problem(workload, fresh_form), frontier_evaluate=None
    )
    # a budget that cuts the search roughly in half
    budget = BranchAndBound().solve(scalar).nodes_explored // 2
    slow = _solve(scalar, setup, budget)
    fast = _solve(
        dataclasses.replace(problem, frontier_evaluate=recording),
        setup,
        budget,
    )

    assert fast.optimal == slow.optimal == (setup != "budget")
    assert fast.nodes_explored == slow.nodes_explored
    assert fast.best is not None and slow.best is not None
    assert fast.best.objective == slow.best.objective
    assert fast.best.assignment == slow.best.assignment
    assert [i.objective for i in fast.incumbents] == [
        i.objective for i in slow.incumbents
    ]
    assert [i.assignment for i in fast.incumbents] == [
        i.assignment for i in slow.incumbents
    ]
    # the hint actually ran, and at least one batch spanned several
    # leaf-parents (a leaf-grandparent's prewarm)
    assert formulation.engine.counters.frontier_batches > 0
    leaf = problem.variables[-1].name
    parents_per_batch = [
        len({tuple(sorted((k, v) for k, v in a.items() if k != leaf))
             for a in batch})
        for batch in batches
    ]
    assert max(parents_per_batch) >= 2, parents_per_batch


def test_frontier_counters_in_stats():
    """The engine surfaces frontier telemetry through ``stats``."""
    form, rng = random_formulation(10)
    sequence = random_sequence(form, rng, length=10)
    front_form = clone(form)
    front_form.evaluate_frontier(sequence)
    stats = front_form.engine.stats()
    assert stats["frontier_batches"] == 1
    assert stats["frontier_members"] == len(sequence)
    assert (
        stats["frontier_lockstep"] + stats["frontier_fallback"] >= 0
    )


# keep the imported-but-unused guard honest: ACCELS backs the docstring
# claim that sequences draw from the synthetic two-DSA universe
assert set(ACCELS) == {"gpu", "dla"}
