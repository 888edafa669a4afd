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
lockstep batches, lockstep-priced slowdown cells against the scalar
``_s_matrix`` (three or more co-active items included), per-member
structure reuse across fixed-point iterations -- plus
the solver-level guarantee that the leaf prewarm hook leaves the B&B
tree untouched.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core import evalcache
from repro.core.evalcache import EvalEngine, FIFOCache
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
    seed, lockstep_from_two, monkeypatch
):
    """A capacity-2 memo evicts while the frontier's own results are
    being inserted; every member must still match scratch exactly."""
    form, rng = random_formulation(seed)
    sequence = random_sequence(form, rng, length=14)
    ref = outcomes(clone(form).evaluate_scratch, sequence)

    monkeypatch.setattr(evalcache, "MEMO_CAPACITY", 2)
    tiny = EvalEngine(clone(form))
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


# -- lockstep cell pricing equals the scalar `_s_matrix` ---------------
#: matcha mixes of three and four streams: its four DSAs let three or
#: more items share an interval, where a padded batched matmul can
#: drift from the reference's 2-D ``act @ bw``
MATCHA_MIXES = {
    "matcha-3": ("vit_tiny", "alexnet", "resnet18"),
    "matcha-4": ("alexnet", "resnet18", "googlenet", "mobilenet_v1"),
}


def _matcha_case(models):
    """A profiled matcha formulation and 24 members that vary every
    stream's assignment."""
    platform = get_platform("matcha")
    scheduler = HaXCoNN(
        platform, db=ProfileDB(platform), max_groups=3, max_transitions=1
    )
    form, profiles = scheduler.build_formulation(Workload.concurrent(*models))
    accels = [a.name for a in platform.accelerators]
    cands = [
        enumerate_assignments(p, accels, max_transitions=1) for p in profiles
    ]
    members = [
        [c[(k * (s + 1)) % len(c)] for s, c in enumerate(cands)]
        for k in range(24)
    ]
    return form, members


def _assert_rows_are_s_matrix(engine, act3, keep, bw2, rows):
    """Each structure's kept rows equal ``_s_matrix`` on its kept
    structure bit for bit; its dropped rows are all 1.0."""
    for i in range(len(act3)):
        act = act3[i][keep[i]]
        want = engine._s_matrix(act, bw2[i])
        assert rows[i][keep[i]].tobytes() == want.tobytes()
        assert (rows[i][~keep[i]] == 1.0).all()


@pytest.mark.parametrize("case", ("1", "2", "3", "12", *MATCHA_MIXES))
def test_lockstep_priced_cells_equal_s_matrix(case, lockstep_from_two, monkeypatch):
    """Every changed structure the lockstep path prices gets exactly
    the cells the scalar path's ``_s_matrix`` computes for it; the
    matcha mixes price structures with three or more co-active
    items."""
    from repro.core import frontier

    if case in MATCHA_MIXES:
        form, members = _matcha_case(MATCHA_MIXES[case])
    else:
        form, _rng = random_formulation(int(case))
        members = _distinct_members(form, 10)
    priced = []
    price = frontier._slowdown_rows

    def recording(model, act3, keep, bw2):
        rows = price(model, act3, keep, bw2)
        priced.append((act3.copy(), keep.copy(), bw2.copy(), rows.copy()))
        return rows

    monkeypatch.setattr(frontier, "_slowdown_rows", recording)
    ref = outcomes(clone(form).evaluate_scratch, members)
    got = frontier_outcomes(clone(form), members)
    assert_identical(got, ref, items_every=1)
    assert priced
    engine = EvalEngine(clone(form))
    for act3, keep, bw2, rows in priced:
        _assert_rows_are_s_matrix(engine, act3, keep, bw2, rows)
    if case in MATCHA_MIXES:  # an interval of three or more items
        assert any((act3.sum(axis=2) > 2).any() for act3, *_ in priced)


def test_slowdown_rows_take_the_reference_product_past_two_items():
    """A crafted stack of dense structures on which the padded batched
    matmul of each interval's demand drifts from the reference's 2-D
    ``act @ bw``, far enough to move priced cells: ``_slowdown_rows``
    still equals ``_s_matrix`` on every structure, so it fails here
    if the three-item guard is dropped."""
    from repro.core import frontier

    form, _rng = random_formulation(1)
    model = form.contention_model
    rng = np.random.default_rng(0)
    m, n = 200, 16
    keep = rng.random((m, 2 * n - 1)) < 0.8
    act3 = (rng.random((m, 2 * n - 1, n)) < 0.25) & keep[:, :, None]
    bw2 = rng.uniform(1e8, 1e9, (m, n))
    engine = EvalEngine(clone(form))
    padded = np.matmul(act3, bw2[:, :, None])[:, :, 0]
    moved = 0
    for i in range(m):
        act, bw = act3[i][keep[i]], bw2[i]
        ext = np.where(act, padded[i][keep[i]][:, None] - bw[None, :], 0.0)
        cells = act & (ext > 0)
        unguarded = np.ones(act.shape)
        unguarded[cells] = model.slowdown_bulk(
            np.broadcast_to(bw, act.shape)[cells],
            ext[cells],
            np.broadcast_to(act.sum(axis=1)[:, None], act.shape)[cells],
        )
        moved += unguarded.tobytes() != engine._s_matrix(act, bw).tobytes()
    assert moved > 0  # the crafted stack hits the drift
    rows = frontier._slowdown_rows(model, act3, keep, bw2)
    _assert_rows_are_s_matrix(engine, act3, keep, bw2, rows)


@pytest.mark.parametrize("seed", (1, 2, 3, 12))
def test_lockstep_leaves_slowdown_cache_empty(seed, lockstep_from_two, monkeypatch):
    """The lockstep path neither reads nor writes the slowdown
    structure cache or the per-cell memo: its ``slowdown_cache_hits``
    are exactly the carried structures, the members whose overlap
    structure did not change since their previous step."""
    from repro.core import frontier

    carried = []
    step = frontier._slowdowns_batch

    def recording(*args):
        structures = args[6]
        before = dict(
            zip(structures.rows.tolist(), map(bytes, structures.bits))
        )
        out = step(*args)
        carried.append(
            sum(
                before.get(r) == bytes(b)
                for r, b in zip(structures.rows.tolist(), structures.bits)
            )
        )
        return out

    monkeypatch.setattr(frontier, "_slowdowns_batch", recording)
    form, _rng = random_formulation(seed)
    members = _lockstep_members(form, 24)
    ref = outcomes(clone(form).evaluate_scratch, members)
    engine = EvalEngine(clone(form))
    got = frontier_outcomes(engine, members)
    assert_identical(got, ref, items_every=1)
    c = engine.counters
    assert c.frontier_lockstep == len(members)
    assert len(engine._s_cache) == 0
    assert not engine._trip_cache
    assert sum(carried) > 0
    assert c.slowdown_cache_hits == sum(carried)


# -- per-member structure reuse across fixed-point iterations ----------
def _lockstep_members(form, count):
    """``count`` distinct members (fewer when the space is smaller)."""
    space = 1
    for p in form.profiles:
        space *= len(ACCELS) ** len(p)
    return _distinct_members(form, min(space, count))


@pytest.mark.parametrize("seed", (19, 21, 38))
def test_structure_that_changes_back_is_rebuilt(seed, monkeypatch):
    """A member whose overlap structure goes A -> B -> A over three
    iterations must get A's slowdown rows back, not B's: reuse is
    keyed on the previous iteration's structure, which the B step
    replaced."""
    from repro.core import frontier

    monkeypatch.setattr(frontier, "MIN_LOCKSTEP", 2)
    step = frontier._slowdowns_batch
    history = {}

    def recording(*args):
        out = step(*args)
        structures = args[6]
        for row, bits in zip(structures.rows.tolist(), structures.bits):
            history.setdefault(row, []).append(bits.tobytes())
        return out

    monkeypatch.setattr(frontier, "_slowdowns_batch", recording)
    form, _rng = random_formulation(seed)
    members = _lockstep_members(form, 24)
    ref = outcomes(clone(form).evaluate_scratch, members)
    front_form = clone(form)
    got = frontier_outcomes(front_form, members)
    assert_identical(got, ref, items_every=1)
    assert front_form.engine.counters.frontier_lockstep == len(members)
    assert any(
        h[t] == h[t + 2] != h[t + 1]
        for h in history.values()
        for t in range(len(h) - 2)
    )


@pytest.mark.parametrize("seed", range(16))
def test_one_entry_slowdown_cache(seed):
    """With a one-entry slowdown cache every put on the scalar path
    (the cache's only user) evicts; every member still equals scratch
    bit for bit."""
    form, _rng = random_formulation(seed)
    members = _lockstep_members(form, 20)
    ref = outcomes(clone(form).evaluate_scratch, members)
    engine = EvalEngine(clone(form))
    engine._s_cache = FIFOCache(1)
    got = outcomes(engine.evaluate, members)
    assert_identical(got, ref, items_every=1)
    assert len(engine._s_cache) <= 1
    assert engine.counters.slowdown_queries > 0


@pytest.mark.parametrize("width", (24, 96), ids=("narrow", "compressed"))
@pytest.mark.parametrize("seed", (0, 9, 17, 38))
def test_mixed_convergence_batches(seed, width, monkeypatch):
    """Members converge at different iterations: frozen members leave
    the slowdown step (and, from ``_COMPRESS_MIN`` members on, the
    timeline passes) while the rest keep iterating on their carried
    structures; all equal scratch bit for bit."""
    from repro.core import frontier

    monkeypatch.setattr(frontier, "MIN_LOCKSTEP", 2)
    sizes = []
    lockstep = frontier._lockstep

    def recording(engine, keys, *args):
        sizes.append(len(keys))
        return lockstep(engine, keys, *args)

    monkeypatch.setattr(frontier, "_lockstep", recording)
    form, _rng = random_formulation(seed)
    members = _distinct_members(form, width)
    ref = outcomes(clone(form).evaluate_scratch, members)
    got = frontier_outcomes(clone(form), members)
    assert_identical(got, ref, items_every=1)
    assert (min(sizes) >= frontier._COMPRESS_MIN) == (width > 64)
    iterations = {o[1].fixed_point_iterations for o in got if o[0] == "ok"}
    assert len(iterations) > 1


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
    ("portfolio-serial", "portfolio"),
    ("portfolio-seeded", "portfolio-seeded"),
)


def _solve(problem, setup, budget):
    if setup == "initial":
        return BranchAndBound().solve(
            problem, initial=_first_feasible(problem)
        )
    if setup == "budget":
        return BranchAndBound(node_budget=budget).solve(problem)
    if setup == "portfolio":
        return PortfolioSolver(clock="nodes").solve(problem)
    if setup == "portfolio-seeded":
        return PortfolioSolver(clock="nodes").solve(
            problem, initial=_first_feasible(problem)
        )
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
    search can be driven: a lookahead window across subtrees, a limit
    that is finite from the start (seeded ``initial``), a truncated
    search, the portfolio without a seed, and the portfolio's seeded
    root sweep (whose candidates are priced one variable per batch)."""
    run = _assert_hint_invisible(
        xavier, xavier_db, objective, THREE, 4, 1, setup
    )
    if setup == "budget":
        # the lookahead stops at the budget's reach: every leaf a batch
        # holds is one the truncated search read, or one a limit
        # tightened after the batch pruned (its bound is then at least
        # the final objective)
        for batch in run.batches:
            for member in batch:
                leaf = tuple(sorted(member.items()))
                assert leaf in run.read or (
                    run.problem.lower_bound(member) >= run.best
                ), leaf
    if setup in ("plain", "initial"):
        # the lookahead window crosses subtrees: one batch spans
        # several leaf-grandparents
        grand = {v.name for v in run.problem.variables[-2:]}
        assert any(
            len({
                tuple(sorted((k, v) for k, v in a.items() if k not in grand))
                for a in batch
            }) >= 2
            for batch in run.batches
        )
    if setup == "portfolio-seeded":
        # the root sweep ran under the hint: one batch holds the seed's
        # alternatives in its first variable alone
        seed = _first_feasible(run.problem)
        first = run.problem.variables[0].name
        assert any(
            all(
                {k for k in seed if member[k] != seed[k]} == {first}
                for member in batch
            )
            for batch in run.batches
        )


@dataclasses.dataclass
class _HintedRun:
    problem: object
    #: every ``frontier_evaluate`` batch of the hinted search
    batches: list
    #: the leaves the unhinted search read (computed the objective of)
    read: set
    best: float


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
    # a budget that cuts the last quarter of the search: every
    # objective's truncated search still reads enough leaves after its
    # first incumbent for a lookahead batch (half the tree does not on
    # the energy objective)
    budget = BranchAndBound().solve(scalar).nodes_explored * 3 // 4
    leaf = problem.variables[-1].name
    read = set()

    def tracking(assignment):
        read.add(tuple(sorted(assignment.items())))
        return scalar.objective(assignment)

    slow = _solve(
        dataclasses.replace(scalar, objective=tracking), setup, budget
    )
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
    assert [i.nodes_explored for i in fast.incumbents] == [
        i.nodes_explored for i in slow.incumbents
    ]
    if setup.startswith("portfolio"):
        # node-clock timestamps and the warm-start log, too
        assert [i.wall_time_s for i in fast.incumbents] == [
            i.wall_time_s for i in slow.incumbents
        ]
        assert fast.warm_starts == slow.warm_starts
    # the hint actually ran, and unless a budget cut the lookahead
    # short, at least one batch spanned several leaf-parents
    assert formulation.engine.counters.frontier_batches > 0
    parents = [
        {tuple(sorted((k, v) for k, v in a.items() if k != leaf)) for a in batch}
        for batch in batches
    ]
    if setup != "budget":
        assert max(map(len, parents)) >= 2, parents
    return _HintedRun(
        problem, batches, read, slow.best.objective
    )


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
