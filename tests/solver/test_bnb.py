"""Branch-and-bound: certified optimality, anytime behaviour, budgets."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.solver import bnb
from repro.solver.bnb import BranchAndBound
from repro.solver.exhaustive import solve_exhaustive
from repro.solver.problem import Infeasible, Problem, Variable
from repro.solver.random_instances import InstanceSpec, random_problem


def knapsack_like(weights, values, capacity):
    """0/1 selection: minimize -value subject to weight <= capacity."""
    n = len(weights)

    def total_weight(a):
        return sum(weights[i] for i in range(n) if a.get(f"v{i}") == 1)

    def objective(a):
        return -sum(values[i] for i in range(n) if a[f"v{i}"] == 1)

    def lower_bound(a):
        # admissible: assume every unassigned item is taken for free
        fixed = -sum(
            values[i] for i in range(n) if a.get(f"v{i}") == 1
        )
        free = -sum(values[i] for i in range(n) if f"v{i}" not in a)
        return fixed + free

    return Problem(
        variables=[Variable(f"v{i}", (0, 1)) for i in range(n)],
        objective=objective,
        constraints=[lambda a: total_weight(a) <= capacity],
        lower_bound=lower_bound,
    )


class TestOptimality:
    @given(
        data=st.lists(
            st.tuples(st.integers(1, 9), st.integers(1, 9)),
            min_size=1,
            max_size=7,
        ),
        capacity=st.integers(1, 25),
    )
    def test_matches_exhaustive(self, data, capacity):
        weights = [w for w, _ in data]
        values = [v for _, v in data]
        problem = knapsack_like(weights, values, capacity)
        bnb = BranchAndBound().solve(problem)
        brute = solve_exhaustive(problem)
        assert bnb.optimal
        assert bnb.best is not None and brute.best is not None
        assert bnb.best.objective == pytest.approx(brute.best.objective)

    def test_prunes_the_tree(self):
        """B&B visits fewer nodes than the full tree (internal nodes
        included: sum of 2^k for k=1..5 is 62 for five binary vars)."""
        problem = knapsack_like([3, 4, 5, 6, 7], [5, 6, 7, 8, 9], 12)
        bnb = BranchAndBound().solve(problem)
        assert bnb.optimal
        assert bnb.nodes_explored < 62

    def test_infeasible_problem(self):
        problem = Problem(
            variables=[Variable("x", (0, 1))],
            objective=lambda a: 0.0,
            constraints=[lambda a: False],
        )
        result = BranchAndBound().solve(problem)
        assert result.best is None
        assert result.optimal
        with pytest.raises(Infeasible):
            result.assignment

    def test_objective_raising_infeasible_is_skipped(self):
        def objective(a):
            if a["x"] == 0:
                raise Infeasible("nope")
            return float(a["x"])

        problem = Problem(
            variables=[Variable("x", (0, 1, 2))], objective=objective
        )
        result = BranchAndBound().solve(problem)
        assert result.objective == 1.0


class TestAnytime:
    def test_incumbents_strictly_improve(self):
        problem = knapsack_like([2, 3, 4, 5], [3, 4, 5, 6], 9)
        result = BranchAndBound().solve(problem)
        objs = [i.objective for i in result.incumbents]
        assert objs == sorted(objs, reverse=True)
        assert len(set(objs)) == len(objs)

    def test_callback_invoked_per_incumbent(self):
        seen = []
        problem = knapsack_like([2, 3, 4], [3, 4, 5], 7)
        BranchAndBound(on_incumbent=seen.append).solve(problem)
        assert seen
        assert seen[-1].objective == min(i.objective for i in seen)

    def test_seed_bounds_the_result(self):
        problem = knapsack_like([2, 3, 4], [3, 4, 5], 7)
        optimal = BranchAndBound().solve(problem).objective
        seeded = BranchAndBound().solve(
            problem, initial={"v0": 1, "v1": 0, "v2": 1}
        )
        assert seeded.objective <= -8  # seed value
        assert seeded.objective == pytest.approx(optimal)

    def test_infeasible_seed_ignored(self):
        problem = knapsack_like([5, 5], [1, 1], 4)
        result = BranchAndBound().solve(
            problem, initial={"v0": 1, "v1": 1}
        )
        assert result.optimal


class TestBudgets:
    def test_node_budget_stops_search(self):
        problem = knapsack_like(
            list(range(1, 11)), list(range(1, 11)), 30
        )
        result = BranchAndBound(node_budget=5).solve(problem)
        assert not result.optimal

    def test_node_budget_overshoot_is_below_one_domain(self):
        """The budget is checked between child subtrees, after a whole
        sibling set is priced, so a truncated search overshoots by less
        than the widest domain -- and never stops short of it."""
        problem = random_problem(2, InstanceSpec(variables=6, max_domain=5))
        assert BranchAndBound(node_budget=1).solve(problem).nodes_explored == 2
        assert BranchAndBound(node_budget=5).solve(problem).nodes_explored == 6
        truncated = 0
        for seed in range(8):
            problem = random_problem(
                seed, InstanceSpec(variables=6, max_domain=5)
            )
            widest = max(len(v.domain) for v in problem.variables)
            for budget in range(1, 40, 3):
                result = BranchAndBound(node_budget=budget).solve(problem)
                if result.optimal:
                    continue
                truncated += 1
                assert budget <= result.nodes_explored < budget + widest
        assert truncated > 50

    def test_budget_result_is_best_so_far(self):
        problem = knapsack_like([2, 3, 4, 5], [3, 4, 5, 6], 9)
        full = BranchAndBound().solve(problem)
        capped = BranchAndBound(node_budget=8).solve(problem)
        if capped.best is not None:
            assert capped.objective >= full.objective

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            BranchAndBound(node_budget=0)
        with pytest.raises(ValueError):
            BranchAndBound(node_budget=-1)
        with pytest.raises(TypeError):  # node budgets only
            BranchAndBound(time_budget_s=1.0)


def _priced(problem, calls, batches=None):
    """``problem`` with a halved (still admissible: objectives are
    positive) bound, priced by a vectorized ``child_bounds`` that logs
    each sibling set it prices, and with a recording no-op
    ``frontier_evaluate`` when ``batches`` is given.  The loose bound
    lets several leaf-parents survive each prewarm."""

    def lower_bound(partial):
        return 0.5 * problem.lower_bound(partial)

    def child_bounds(partial, variable):
        calls.append((tuple(sorted(partial.items())), variable.name))
        return [
            lower_bound({**partial, variable.name: value})
            for value in variable.domain
        ]

    return dataclasses.replace(
        problem,
        lower_bound=lower_bound,
        child_bounds=child_bounds,
        frontier_evaluate=None if batches is None else batches.append,
    )


class TestPrewarmPricing:
    @pytest.mark.parametrize("seed", (0, 1, 3, 4, 5, 7, 9))
    def test_each_sibling_set_is_priced_once(self, seed):
        """The lookahead prices the children of every node it expands;
        the search's own loops reuse those prices instead of calling
        ``child_bounds`` again.  The tree, node count and incumbents
        equal the search without the hint."""
        problem = random_problem(seed, InstanceSpec(variables=5, max_domain=5))
        plain_calls, calls, batches = [], [], []
        plain = BranchAndBound().solve(_priced(problem, plain_calls))
        hinted = BranchAndBound().solve(_priced(problem, calls, batches))
        assert len(calls) == len(set(calls))
        # the prewarm may price leaf-parents a tightened limit prunes
        # later, never fewer than the search reaches
        assert set(plain_calls) <= set(calls)
        assert hinted.nodes_explored == plain.nodes_explored
        assert [(i.assignment, i.objective) for i in hinted.incumbents] == [
            (i.assignment, i.objective) for i in plain.incumbents
        ]
        # a prewarm ran and spanned several leaf-parents
        leaf = problem.variables[-1].name
        assert any(
            len({tuple(sorted((k, v) for k, v in a.items() if k != leaf))
                 for a in batch}) >= 2
            for batch in batches
        )


class TestLookahead:
    @pytest.mark.parametrize("window", (4, bnb.LOOKAHEAD))
    @pytest.mark.parametrize("budgeted", (False, True))
    # instances with 4-5 variables
    @pytest.mark.parametrize("seed", (0, 5, 7, 9, 12, 17))
    def test_window_follows_the_search(self, seed, budgeted, window, monkeypatch):
        """Each lookahead hands over at most ``LOOKAHEAD`` leaves, none
        twice, listed in the order the search reads them, and only
        leaves the search reads or a tightened limit prunes (within the
        node budget's reach).  The tree and incumbents equal the search
        without the hint."""
        monkeypatch.setattr(bnb, "LOOKAHEAD", window)
        problem = random_problem(seed, InstanceSpec(variables=5, max_domain=5))
        assert len(problem.variables) >= 4
        plain = BranchAndBound().solve(_priced(problem, []))
        budget = plain.nodes_explored // 2 if budgeted else None
        batches, reads = [], []
        hinted = _priced(problem, [], batches)

        def reading(assignment):
            reads.append(tuple(sorted(assignment.items())))
            return hinted.objective(assignment)

        unhinted = (
            BranchAndBound(node_budget=budget).solve(_priced(problem, []))
            if budgeted
            else plain
        )
        result = BranchAndBound(node_budget=budget).solve(
            dataclasses.replace(hinted, objective=reading)
        )
        assert result.nodes_explored == unhinted.nodes_explored
        assert [(i.assignment, i.objective, i.nodes_explored)
                for i in result.incumbents] == [
            (i.assignment, i.objective, i.nodes_explored)
            for i in unhinted.incumbents
        ]
        assert batches
        assert all(len(batch) <= window for batch in batches)
        handed = [tuple(sorted(a.items())) for batch in batches for a in batch]
        assert len(handed) == len(set(handed))
        handed_set, read_set = set(handed), set(reads)
        assert [h for h in handed if h in read_set] == [
            r for r in reads if r in handed_set
        ]
        assert all(
            h in read_set
            or hinted.lower_bound(dict(h)) >= result.best.objective
            for h in handed
        )


class TestExhaustive:
    def test_counts_all_assignments(self):
        problem = knapsack_like([1, 1], [1, 1], 5)
        result = solve_exhaustive(problem)
        assert result.nodes_explored == 4
        assert result.optimal
