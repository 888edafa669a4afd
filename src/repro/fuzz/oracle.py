"""The differential oracle stack run on every generated scenario.

Each scenario is cheap enough to solve several ways; any disagreement
between the independent paths is a bug somewhere:

``solver-certificate``
    Branch-and-bound's full run (best + incumbent stream) audited by
    :func:`repro.analysis.verify.verify_solve`.
``exhaustive-agreement``
    On small instances, full enumeration must reproduce B&B's optimum
    (and agree on infeasibility).
``portfolio-agreement``
    The anytime solver (warm-started root plus one B&B, node clock --
    deterministic) must land on the same optimum, or at least a
    feasible incumbent no better than it.
``schedule-certificate``
    The adopted schedule re-derived through the independent
    Eq. 1-11 checker (:func:`repro.analysis.verify.verify_result`).
``schedule-objective``
    A concurrent (non-fallback) schedule's predicted objective must
    equal the solver's claimed optimum.
``evaluate-byte-identity``
    The memoized incremental evaluator vs the from-scratch reference
    on the adopted assignments -- bit-for-bit equal fields and items.
``frontier-byte-identity``
    The lockstep engine (``frontier._lockstep``) over a sweep of every
    stream's domain, on a fresh formulation, vs the per-member scratch
    reference -- equal fields for feasible members, equal exception
    type and message for infeasible ones.  Pipelines, which have no
    lockstep path, batch sibling variations of the adopted assignment
    through ``evaluate_frontier`` instead.
``baseline-dominance``
    The adopted schedule never loses to the serialized GPU-only
    fallback *under the same formulation*.
``baseline-optimality``
    The naive concurrent baseline, wherever it is feasible in the
    solver's own search space, can never beat the claimed optimum.

Everything runs in virtual time (``repro.fuzz`` is one of HAX002's
virtual-time modules): no wall-clock reads, so two runs of the same
seed range produce byte-identical reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.analysis.verify import verify_result, verify_solve
from repro.core import frontier
from repro.core.baselines import naive_concurrent
from repro.core.formulation import EvaluationResult, ScheduleInfeasible
from repro.core.haxconn import HaXCoNN, ScheduleResult
from repro.experiments.common import get_db
from repro.fuzz.universe import ScenarioSpec
from repro.soc.platform import get_platform
from repro.solver.bnb import BranchAndBound
from repro.solver.exhaustive import solve_exhaustive
from repro.solver.portfolio import PortfolioSolver
from repro.solver.problem import Infeasible

#: full enumeration only below this search-space size; larger
#: instances keep the certificate + portfolio + baseline oracles
DEFAULT_EXHAUSTIVE_CAP = 2_000

#: members of the frontier-byte-identity batch (a cap on the sweep)
FRONTIER_MEMBERS = 32

#: relative tolerance for objective agreement between solvers that
#: evaluate through the same (memoized, deterministic) formulation
REL_TOL = 1e-9

@dataclass(frozen=True)
class Discrepancy:
    """One oracle disagreement on one scenario."""

    check: str
    detail: str

    def describe(self) -> str:
        return f"{self.check}: {self.detail}"


@dataclass(frozen=True)
class OracleOutcome:
    """Everything the oracle stack learned about one scenario."""

    spec: ScenarioSpec
    checks: tuple[str, ...]
    discrepancies: tuple[Discrepancy, ...]
    #: solver-cost objective of the adopted schedule (None if the
    #: oracle aborted before scheduling)
    objective: float | None
    search_space: int
    serialized: bool
    assignments: tuple[tuple[str, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_dict(self) -> dict[str, object]:
        """Deterministic payload for digests and corpus artifacts."""
        return {
            "spec": self.spec.to_dict(),
            "checks": list(self.checks),
            "discrepancies": [
                {"check": d.check, "detail": d.detail}
                for d in self.discrepancies
            ],
            "objective": (
                None if self.objective is None else repr(self.objective)
            ),
            "search_space": self.search_space,
            "serialized": self.serialized,
            "assignments": [list(a) for a in self.assignments],
        }


def _close(a: float, b: float) -> bool:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) <= REL_TOL * scale


def _identical(a: EvaluationResult, b: EvaluationResult) -> list[str]:
    """Field-level byte-identity differences (empty = identical)."""
    diffs = []
    if a.per_dnn_time != b.per_dnn_time:
        diffs.append(f"per_dnn_time {a.per_dnn_time} != {b.per_dnn_time}")
    if a.objective != b.objective:
        diffs.append(f"objective {a.objective!r} != {b.objective!r}")
    if a.makespan != b.makespan:
        diffs.append(f"makespan {a.makespan!r} != {b.makespan!r}")
    if a.energy_j != b.energy_j:
        diffs.append(f"energy_j {a.energy_j!r} != {b.energy_j!r}")
    if a.items != b.items:
        diffs.append("item timelines differ")
    return diffs


def run_oracles(spec: ScenarioSpec) -> OracleOutcome:
    """Run the full oracle stack on one scenario."""
    checks: list[str] = []
    discrepancies: list[Discrepancy] = []

    def flag(check: str, detail: str) -> None:
        discrepancies.append(Discrepancy(check=check, detail=detail))

    platform = get_platform(spec.platform)
    db = get_db(spec.platform)
    scheduler = HaXCoNN(
        platform,
        db=db,
        max_groups=spec.max_groups,
        max_transitions=1,
    )
    workload = spec.workload()

    try:
        result: ScheduleResult = scheduler.schedule(workload)
    except Infeasible as exc:
        # generation never emits unschedulable mixes; reaching this is
        # itself a finding
        return OracleOutcome(
            spec=spec,
            checks=("schedule",),
            discrepancies=(
                Discrepancy(
                    check="schedule",
                    detail=f"scheduler declared infeasible: {exc}",
                ),
            ),
            objective=None,
            search_space=0,
            serialized=False,
            assignments=(),
        )

    formulation = result.formulation
    problem = scheduler.build_problem(workload, formulation)
    space = problem.search_space_size

    # -- solver certificates and cross-solver agreement ----------------
    checks.append("solver-certificate")
    bnb = BranchAndBound().solve(problem)
    certificate = verify_solve(problem, bnb)
    if not certificate.ok:
        flag("solver-certificate", certificate.describe())

    if space <= DEFAULT_EXHAUSTIVE_CAP:
        checks.append("exhaustive-agreement")
        exhaustive = solve_exhaustive(problem)
        if (bnb.best is None) != (exhaustive.best is None):
            flag(
                "exhaustive-agreement",
                f"feasibility disagrees: bnb={bnb.best is not None} "
                f"exhaustive={exhaustive.best is not None}",
            )
        elif bnb.best is not None and exhaustive.best is not None:
            if not _close(bnb.best.objective, exhaustive.best.objective):
                flag(
                    "exhaustive-agreement",
                    f"bnb {bnb.best.objective!r} != exhaustive "
                    f"{exhaustive.best.objective!r}",
                )

    checks.append("portfolio-agreement")
    portfolio = PortfolioSolver(clock="nodes", node_budget=50_000).solve(
        problem
    )
    port_cert = verify_solve(problem, portfolio)
    if not port_cert.ok:
        flag("portfolio-agreement", port_cert.describe())
    if (portfolio.best is None) != (bnb.best is None):
        flag(
            "portfolio-agreement",
            f"feasibility disagrees: portfolio="
            f"{portfolio.best is not None} bnb={bnb.best is not None}",
        )
    elif portfolio.best is not None and bnb.best is not None:
        if portfolio.optimal and not _close(
            portfolio.best.objective, bnb.best.objective
        ):
            flag(
                "portfolio-agreement",
                f"portfolio {portfolio.best.objective!r} != bnb "
                f"{bnb.best.objective!r}",
            )
        elif (
            portfolio.best.objective
            < bnb.best.objective - REL_TOL * abs(bnb.best.objective)
        ):
            flag(
                "portfolio-agreement",
                "anytime incumbent beats the certified optimum: "
                f"{portfolio.best.objective!r} < "
                f"{bnb.best.objective!r}",
            )

    # -- adopted-schedule certificates ---------------------------------
    checks.append("schedule-certificate")
    schedule_cert = verify_result(
        result, max_transitions=scheduler.max_transitions
    )
    if not schedule_cert.ok:
        flag("schedule-certificate", schedule_cert.describe())

    serialized = result.schedule.serialized
    if not serialized:
        checks.append("schedule-objective")
        if bnb.best is None:
            flag(
                "schedule-objective",
                "concurrent schedule adopted but bnb found no optimum",
            )
        elif not _close(result.predicted.objective, bnb.best.objective):
            flag(
                "schedule-objective",
                f"adopted {result.predicted.objective!r} != solver "
                f"optimum {bnb.best.objective!r}",
            )

    assignments = tuple(
        tuple(s.assignment) for s in result.schedule.per_dnn
    )

    checks.append("evaluate-byte-identity")
    try:
        fast = formulation.evaluate(
            assignments, serialized=serialized, check_exclusive=False
        )
        scratch = formulation.evaluate_scratch(
            assignments, serialized=serialized, check_exclusive=False
        )
    except ScheduleInfeasible as exc:
        flag(
            "evaluate-byte-identity",
            f"adopted assignments fail re-evaluation: {exc}",
        )
    else:
        for diff in _identical(fast, scratch):
            flag("evaluate-byte-identity", diff)

    # -- frontier batch vs scalar reference ----------------------------
    checks.append("frontier-byte-identity")
    # a leaf frontier straight into the lockstep engine, whatever its
    # width: every stream sweeps its domain (capped), priced concurrent
    # on a fresh formulation so no member is memoized.  Pipelines have
    # no lockstep path and keep the dispatching entry point.
    if workload.pipeline:
        heads = [v.domain for v in problem.variables[:2]]
        siblings = [
            [*map(tuple, values), *assignments[len(heads):]]
            for values in itertools.islice(
                itertools.product(*heads), FRONTIER_MEMBERS
            )
        ]
        reference, front_serialized = formulation, serialized
        batched = formulation.evaluate_frontier(
            siblings, serialized=serialized, check_exclusive=False
        )
    else:
        siblings = [
            list(values)
            for values in itertools.islice(
                itertools.product(*(v.domain for v in problem.variables)),
                FRONTIER_MEMBERS,
            )
        ]
        reference = scheduler.build_formulation(workload)[0]
        front_serialized = False
        batched = frontier._lockstep(
            reference.engine, [tuple(m) for m in siblings], False, False
        )
    for j, (member, got) in enumerate(zip(siblings, batched)):
        try:
            ref = reference.evaluate_scratch(
                member, serialized=front_serialized, check_exclusive=False
            )
        except ScheduleInfeasible as exc:
            if type(got) is not type(exc) or str(got) != str(exc):
                flag(
                    "frontier-byte-identity",
                    f"member {j}: frontier {got!r} != scratch "
                    f"infeasibility {exc!r}",
                )
            continue
        if isinstance(got, Exception):
            flag(
                "frontier-byte-identity",
                f"member {j}: frontier raised {got!r} where scratch "
                "evaluated",
            )
            continue
        for diff in _identical(got, ref):
            flag("frontier-byte-identity", f"member {j}: {diff}")

    # -- baseline differentials ----------------------------------------
    checks.append("baseline-dominance")
    _, serial_predicted = scheduler.serialized_gpu_schedule(
        workload, formulation
    )
    margin = REL_TOL * max(abs(serial_predicted.objective), 1e-12)
    if result.predicted.objective > serial_predicted.objective + margin:
        flag(
            "baseline-dominance",
            f"adopted {result.predicted.objective!r} worse than "
            f"serialized GPU {serial_predicted.objective!r}",
        )

    if bnb.best is not None:
        checks.append("baseline-optimality")
        naive = naive_concurrent(
            workload, platform, db=db, max_groups=spec.max_groups
        )
        candidate = scheduler.canonicalize_assignment(
            workload,
            {
                f"dnn{n}": tuple(s.assignment)
                for n, s in enumerate(naive.schedule.per_dnn)
            },
        )
        domains = {v.name: set(v.domain) for v in problem.variables}
        in_space = all(
            candidate.get(name) in domain
            for name, domain in domains.items()
        )
        try:
            if in_space and problem.feasible(candidate):
                naive_objective = problem.evaluate(candidate)
                if (
                    naive_objective
                    < bnb.best.objective
                    - REL_TOL * abs(bnb.best.objective)
                ):
                    flag(
                        "baseline-optimality",
                        f"naive baseline {naive_objective!r} beats the "
                        f"certified optimum {bnb.best.objective!r}",
                    )
        except (Infeasible, ScheduleInfeasible):
            # the naive mapping lies outside the bounded-transition
            # search space on this scenario; nothing to compare
            pass

    return OracleOutcome(
        spec=spec,
        checks=tuple(checks),
        discrepancies=tuple(discrepancies),
        objective=result.predicted.objective,
        search_space=space,
        serialized=serialized,
        assignments=assignments,
    )
