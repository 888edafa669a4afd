"""Guidance is reordering-only: guided search, identical optima.

The 60-seed differential pin of ISSUE-10: a portfolio running the
``learned`` strategy with an arbitrary (even adversarial) score table
must return bit-identical optima to single-threaded branch and bound,
because branch scores reorder feasible children and seed hunters but
never touch bounds, pruning, or incumbent admission.
"""

import pytest

from repro.solver import BranchAndBound, PortfolioSolver
from repro.solver.portfolio import (
    Strategy,
    _child_order,
    default_strategies,
    guided_strategies,
)
from repro.solver.random_instances import InstanceSpec, random_problem

SEEDS = range(60)


def synthetic_guide(problem, salt=0):
    """A deterministic, meaningless score table over every domain."""
    return {
        v.name: {
            value: ((3 * n + 5 * j + salt) % 7) / 7.0
            for j, value in enumerate(v.domain)
        }
        for n, v in enumerate(problem.variables)
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_learned_strategy_matches_bnb_bitwise(seed):
    problem = random_problem(seed)
    bnb = BranchAndBound().solve(problem)
    guided = PortfolioSolver(
        workers=3,
        backend="threads",
        clock="nodes",
        sync_every=8,
        seed=1,
        guide=synthetic_guide(problem, salt=seed),
    ).solve(problem)
    assert bnb.optimal and guided.optimal
    if bnb.best is None:
        assert guided.best is None
    else:
        assert guided.best is not None
        # bit-identical, not approximately equal
        assert guided.best.objective == bnb.best.objective


def test_adversarial_guide_cannot_change_the_optimum():
    """Scores that rank the true optimum last only slow the search."""
    problem = random_problem(3, InstanceSpec(variables=5, max_domain=4))
    reference = BranchAndBound().solve(problem)
    assert reference.best is not None
    inverted = {
        name: {value: -score for value, score in table.items()}
        for name, table in synthetic_guide(problem).items()
    }
    guided = PortfolioSolver(
        workers=2, backend="threads", clock="nodes", guide=inverted
    ).solve(problem)
    assert guided.optimal
    assert guided.best.objective == reference.best.objective


class TestStrategySelection:
    def test_guided_ladder_races_learned_in_front(self):
        problem = random_problem(0)
        strategies = guided_strategies(problem, 4)
        assert strategies[0] == Strategy("learned", values="learned")
        assert strategies[1:] == default_strategies(problem, 3)

    def test_single_worker_is_learned_only(self):
        problem = random_problem(0)
        assert guided_strategies(problem, 1) == (
            Strategy("learned", values="learned"),
        )

    @staticmethod
    def _trace(result):
        return [
            (i.objective, i.nodes_explored, i.wall_time_s)
            for i in result.incumbents
        ]

    def test_no_guide_is_byte_identical_to_default_ladder(self):
        """``guide=None`` must keep the pre-guidance portfolio exactly:
        the default ladder's strategies, one deterministic trace."""
        problem = random_problem(5)
        runs = [
            PortfolioSolver(
                workers=3, backend="threads", clock="nodes", seed=1
            ).solve(problem)
            for _ in range(2)
        ]
        assert [w.name for w in runs[0].workers] == [
            s.name for s in default_strategies(problem, 3, seed=1)
        ]
        assert self._trace(runs[0]) == self._trace(runs[1])

    def test_guide_without_explicit_strategies_races_guided_ladder(self):
        problem = random_problem(5)
        table = synthetic_guide(problem)
        guided = PortfolioSolver(
            workers=3,
            backend="threads",
            clock="nodes",
            seed=1,
            guide=table,
        ).solve(problem)
        plain = PortfolioSolver(
            workers=3, backend="threads", clock="nodes", seed=1
        ).solve(problem)
        assert [w.name for w in guided.workers] == [
            s.name for s in guided_strategies(problem, 3, seed=1)
        ]
        # guidance reorders the search, never the certified optimum
        assert guided.optimal and plain.optimal
        assert guided.best.objective == plain.best.objective


class TestSearchGuide:
    """The trained guide end to end, through the scheduler stack."""

    @pytest.fixture()
    def guide(self, trained_store):
        from repro.learn.guide import SearchGuide

        guide = SearchGuide.from_store(trained_store)
        assert guide is not None
        return guide

    @pytest.fixture()
    def scheduler(self, xavier, xavier_db, guide):
        from repro.core.haxconn import HaXCoNN

        def build(with_guide):
            return HaXCoNN(
                xavier,
                db=xavier_db,
                max_groups=4,
                max_transitions=1,
                solver="portfolio",
                solver_workers=3,
                solver_backend="threads",
                solver_clock="nodes",
                guide=guide if with_guide else None,
            )

        return build

    def test_from_empty_store_is_none(self, tmp_path):
        from repro.core.solve_store import SolveStore
        from repro.learn.guide import SearchGuide

        empty = SolveStore(tmp_path / "empty.jsonl")
        assert SearchGuide.from_store(empty) is None

    def test_malformed_record_is_none(self, tmp_path):
        from repro.core.solve_store import SolveStore
        from repro.learn.features import feature_schema_id
        from repro.learn.guide import SearchGuide
        from repro.learn.models import model_sig

        store = SolveStore(tmp_path / "bad.jsonl")
        store.append_model(
            model_sig(feature_schema_id()), {"v": 1, "garbage": True}
        )
        assert SearchGuide.from_store(store) is None

    def test_scores_cover_every_domain(self, guide, scheduler):
        from repro.core.workload import Workload

        sched = scheduler(with_guide=False)
        workload = Workload.concurrent("googlenet", "resnet18")
        pg = guide.for_problem(sched, workload)
        formulation, _ = sched.build_formulation(workload)
        problem = sched.build_problem(workload, formulation)
        for variable in problem.variables:
            table = pg.scores[variable.name]
            assert set(table) == set(variable.domain)
            assert all(0.0 <= p <= 1.0 for p in table.values())

    def test_synthesized_seeds_are_complete_and_labeled(
        self, guide, scheduler
    ):
        from repro.core.workload import Workload

        sched = scheduler(with_guide=False)
        workload = Workload.concurrent("googlenet", "resnet18")
        pg = guide.for_problem(sched, workload)
        problem = sched.build_problem(
            workload, sched.build_formulation(workload)[0]
        )
        seeds = pg.synthesized_seeds()
        assert seeds[0][0] == "learned-greedy"
        domains = {v.name: set(v.domain) for v in problem.variables}
        for _label, assignment in seeds:
            assert set(assignment) == set(domains)
            for name, value in assignment.items():
                assert value in domains[name]
            assert pg.seed_quality(assignment) > 0.0
        if len(seeds) > 1:
            assert seeds[1][0] == "learned-second"
            diff = [
                name
                for name in domains
                if seeds[0][1][name] != seeds[1][1][name]
            ]
            assert len(diff) == 1

    def test_guided_scheduler_certifies_the_unguided_optimum(
        self, scheduler
    ):
        from repro.core.workload import Workload

        workload = Workload.concurrent("googlenet", "resnet18")
        plain = scheduler(with_guide=False).schedule(workload)
        guided = scheduler(with_guide=True).schedule(workload)
        assert plain.solver.optimal and guided.solver.optimal
        assert (
            guided.solver.best.objective == plain.solver.best.objective
        )
        warm = dict(guided.solver.warm_starts)
        assert "learned-greedy" in warm

    def test_fragment_ranker_scores_and_tolerates_stale(
        self, guide, scheduler
    ):
        from repro.core.workload import Workload

        sched = scheduler(with_guide=False)
        workload = Workload.concurrent("googlenet", "resnet18")
        rank = guide.fragment_ranker(sched)
        problem = sched.build_problem(
            workload, sched.build_formulation(workload)[0]
        )
        fragment = problem.variables[0].domain[0]
        score = rank(workload, "googlenet", fragment)
        assert 0.0 <= score <= 1.0
        assert rank(workload, "googlenet", fragment[:-1]) == 0.0
        assert rank(workload, "never-profiled", fragment) == 0.0


class TestChildOrder:
    def test_learned_order_is_a_permutation(self):
        problem = random_problem(0)
        variable = problem.variables[0]
        order = _child_order(
            Strategy("learned", values="learned"),
            synthetic_guide(problem),
        )
        children = [
            (float(j), value) for j, value in enumerate(variable.domain)
        ]
        reordered = order(variable, list(children))
        assert sorted(reordered) == sorted(children)

    def test_unscored_values_fall_back_to_given_order(self):
        problem = random_problem(0)
        variable = problem.variables[0]
        order = _child_order(Strategy("learned", values="learned"), {})
        children = [
            (float(j), value) for j, value in enumerate(variable.domain)
        ]
        assert list(order(variable, list(children))) == children
