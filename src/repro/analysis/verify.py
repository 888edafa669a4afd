"""Independent schedule-certificate checker (paper Eqs. 1-11).

The solvers in this repository are cross-checked only against each
other; if all of them misread a constraint the same way, every
differential test still passes.  This module is the independent
auditor: given a :class:`~repro.core.formulation.Formulation` (the
problem data -- profiles, repeats, contention model, objective) and a
candidate :class:`~repro.core.schedule.Schedule`, it re-derives the
objective **from first principles** -- per-group standalone latencies
(Eq. 2), flush/load transition charges at every DSA switch (Eq. 3),
and contention slowdowns over the actual overlap windows (Eqs. 4-8,
iterated to a fixed point) -- and checks every structural constraint
(Eq. 1 assignment shape and contiguity, Eq. 9 exclusivity, Eq. 10/11
objective composition).

The re-derivation shares **no timeline code** with
``Formulation.evaluate``: it is a scalar, name-keyed, event-driven
evaluation written against the paper's text, where the production cost
model is a vectorized fixed-point solver.  Agreement between the two
is therefore evidence, not tautology.

Every failed check yields a structured
:class:`~repro.analysis.diagnostics.Violation`; the returned
:class:`~repro.analysis.diagnostics.Certificate` exposes the minimal
failing-constraint core.  ``verify_assignment`` / ``verify_solve``
provide the same service for generic solver
:class:`~repro.solver.problem.Problem` s, which is what the fuzz
oracle and ``haxconn verify --random`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.analysis.diagnostics import (
    Certificate,
    Violation,
    ViolationKind,
)
from repro.contention.base import NoContentionModel
from repro.core.formulation import EvaluationResult, Formulation, ItemTiming
from repro.core.schedule import Schedule
from repro.solver.problem import Assignment, Infeasible, Problem

if TYPE_CHECKING:  # avoid import cycles with repro.core.haxconn
    from repro.core.haxconn import HaXCoNN, ScheduleResult
    from repro.core.workload import Workload
    from repro.solver.bnb import SolveResult

#: relative tolerance for objective agreement between the independent
#: re-derivation and a claimed value.  The production cost model stops
#: its damped fixed point at ``Formulation.tolerance`` (1e-4), so two
#: correct evaluators can legitimately disagree by a few parts in 1e4.
DEFAULT_REL_TOL = 2e-3
#: absolute tolerance on claimed per-item slowdowns vs the contention
#: model re-queried over the claimed overlap windows
DEFAULT_SLOWDOWN_TOL = 5e-3
#: absolute slack for timing comparisons (seconds)
_T_EPS = 1e-9


# ---------------------------------------------------------------------------
# independent re-derivation
# ---------------------------------------------------------------------------


@dataclass
class _Item:
    """One (stream, repeat, group) execution in the re-derivation."""

    dnn: int
    rep: int
    group: int
    accel: str
    t0: float
    bw: float
    lead_out: float
    lead_in: float
    prev_accel: str | None
    start: float = 0.0
    end: float = 0.0
    slowdown: float = 1.0


@dataclass(frozen=True)
class Rederivation:
    """The verifier's own evaluation of a schedule."""

    items: tuple[_Item, ...]
    per_dnn_time: tuple[float, ...]
    makespan: float
    objective: float
    energy_j: float | None
    fixed_point_iterations: int
    #: worst slowdown change if the fixed point were iterated once more
    fixed_point_residual: float


def _build_items(
    formulation: Formulation, assignments: Sequence[Sequence[str]]
) -> list[_Item]:
    items: list[_Item] = []
    for n, (profile, assignment) in enumerate(
        zip(formulation.profiles, assignments)
    ):
        for rep in range(formulation.repeats[n]):
            for g, accel in enumerate(assignment):
                gp = profile.groups[g]
                lead_out = lead_in = 0.0
                prev: str | None = None
                if (
                    g > 0
                    and assignment[g - 1] != accel
                    and formulation.include_transitions
                ):
                    lead_out, lead_in = profile.transition_split(
                        g - 1, assignment[g - 1], accel
                    )
                    prev = assignment[g - 1]
                items.append(
                    _Item(
                        dnn=n,
                        rep=rep,
                        group=g,
                        accel=accel,
                        t0=gp.time_s[accel],
                        bw=gp.req_bw[accel],
                        lead_out=lead_out,
                        lead_in=lead_in,
                        prev_accel=prev,
                    )
                )
    return items


def _timeline(
    formulation: Formulation, items: list[_Item], serialized: bool
) -> None:
    """Place ``items`` on the platform's serial DSAs (Eqs. 4-6).

    Semantics follow the paper and the runtime: per-stream chains, one
    item at a time per accelerator, FCFS tie-breaking by ready time
    then stream index, transition flushes occupying the source DSA and
    loads the destination.  ``serialized`` runs the streams strictly
    back-to-back.
    """
    n_streams = len(formulation.profiles)
    chains: list[list[_Item]] = [[] for _ in range(n_streams)]
    for item in items:
        chains[item.dnn].append(item)

    if serialized or not formulation.resource_constrained:
        clock = 0.0
        for n in range(n_streams):
            if not serialized:
                clock = 0.0
            for item in chains[n]:
                clock += item.lead_out + item.lead_in
                item.start = clock
                clock += item.t0 * item.slowdown
                item.end = clock
        return

    groups_per = [len(p) for p in formulation.profiles]
    upstreams: dict[int, list[int]] = {}
    for up, down in formulation.pipeline:
        upstreams.setdefault(down, []).append(up)

    pointer = [0] * n_streams
    ready = [0.0] * n_streams
    avail: dict[str, float] = {}

    def plan(n: int) -> tuple[float, float, _Item] | None:
        item = chains[n][pointer[n]]
        item_ready = ready[n]
        if n in upstreams and pointer[n] % groups_per[n] == 0:
            rep = pointer[n] // groups_per[n]
            for up in upstreams[n]:
                up_idx = (rep + 1) * groups_per[up] - 1
                if up_idx >= len(chains[up]):
                    continue  # upstream stream runs fewer frames
                if pointer[up] <= up_idx:
                    return None  # dependency not yet scheduled
                item_ready = max(item_ready, chains[up][up_idx].end)
        if item.lead_out > 0 or item.lead_in > 0:
            flush_end = item_ready + item.lead_out
            load_start = max(flush_end, avail.get(item.accel, 0.0))
            item_ready = load_start + item.lead_in
            candidate = item_ready
        else:
            candidate = max(item_ready, avail.get(item.accel, 0.0))
        return candidate, item_ready, item

    remaining = sum(len(c) for c in chains)
    while remaining:
        best: tuple[float, float, int] | None = None
        for n in range(n_streams):
            if pointer[n] >= len(chains[n]):
                continue
            planned = plan(n)
            if planned is None:
                continue
            key = (planned[0], planned[1], n)
            if best is None or key < best:
                best = key
        if best is None:
            raise Infeasible("pipeline dependencies form a deadlock")
        n = best[2]
        planned = plan(n)
        assert planned is not None
        start, _item_ready, item = planned
        if item.lead_out > 0 or item.lead_in > 0:
            src = item.prev_accel
            assert src is not None
            flush_end = ready[n] + item.lead_out
            avail[src] = max(avail.get(src, 0.0), flush_end)
        item.start = start
        item.end = start + item.t0 * item.slowdown
        ready[n] = item.end
        avail[item.accel] = item.end
        pointer[n] += 1
        remaining -= 1


def _interval_slowdowns(
    formulation: Formulation,
    spans: Sequence[tuple[float, float, float]],
) -> list[float]:
    """Duration-weighted slowdown per span under Eqs. 7-8.

    ``spans`` is ``(start, end, req_bw)`` per item.  Contention
    intervals are delimited by every span boundary; within one
    interval the active set is fixed and each active item is charged
    the contention model's slowdown against the cumulative external
    traffic of the others.
    """
    bounds = sorted({t for s, e, _ in spans for t in (s, e)})
    weighted = [0.0] * len(spans)
    covered = [0.0] * len(spans)
    model = formulation.contention_model
    for a, b in zip(bounds, bounds[1:]):
        dur = b - a
        if dur <= 1e-15:
            continue
        active = [
            i
            for i, (s, e, _) in enumerate(spans)
            if s <= a + 1e-15 and e >= b - 1e-15
        ]
        total_bw = sum(spans[i][2] for i in active)
        others = max(len(active) - 1, 1)
        for i in active:
            own = spans[i][2]
            ext = total_bw - own
            factor = 1.0
            if ext > 0:
                factor = model.slowdown(own, [ext / others] * others)
            weighted[i] += dur * factor
            covered[i] += dur
    return [
        weighted[i] / covered[i] if covered[i] > 0 else 1.0
        for i in range(len(spans))
    ]


def _cross_stream_overlap(
    items: Iterable[_Item | ItemTiming],
) -> dict[str, float]:
    """Total pairwise cross-stream overlap per accelerator (Eq. 9)."""
    per_accel: dict[str, list[tuple[float, float, int]]] = {}
    for item in items:
        per_accel.setdefault(item.accel, []).append(
            (item.start, item.end, item.dnn)
        )
    totals: dict[str, float] = {}
    for accel, spans in per_accel.items():
        total = 0.0
        for i, (s1, e1, d1) in enumerate(spans):
            for s2, e2, d2 in spans[i + 1 :]:
                if d1 == d2:
                    continue
                total += max(0.0, min(e1, e2) - max(s1, s2))
        totals[accel] = total
    return totals


def _objective_of(
    formulation: Formulation,
    per_dnn: Sequence[float],
    energy_j: float | None,
) -> float:
    """Eq. 10 (throughput) / Eq. 11 (latency) / energy extension."""
    if formulation.objective == "energy":
        assert energy_j is not None
        return energy_j
    if formulation.objective == "latency":
        return max(per_dnn)
    round_time = max(per_dnn)
    if round_time <= 0:
        return float("-inf")
    return -sum(formulation.repeats) / round_time


def rederive(
    formulation: Formulation,
    assignments: Sequence[Sequence[str]],
    *,
    serialized: bool = False,
) -> Rederivation:
    """Evaluate a schedule from first principles.

    Independent of ``Formulation.evaluate``: scalar arithmetic over
    name-keyed items, a plainly-damped fixed point, and an explicit
    residual so callers can tell "converged" from "gave up".
    """
    items = _build_items(formulation, assignments)
    contention_free = serialized or isinstance(
        formulation.contention_model, NoContentionModel
    )

    iterations = 0
    residual = 0.0
    max_iters = max(4 * formulation.max_iterations, 100)
    for iterations in range(1, max_iters + 1):
        _timeline(formulation, items, serialized)
        if contention_free:
            break
        spans = [(i.start, i.end, i.bw) for i in items]
        new = _interval_slowdowns(formulation, spans)
        residual = max(
            (abs(n - i.slowdown) for n, i in zip(new, items)),
            default=0.0,
        )
        if residual < formulation.tolerance:
            for item, s in zip(items, new):
                item.slowdown = s
            _timeline(formulation, items, serialized)
            break
        for item, s in zip(items, new):
            item.slowdown = 0.5 * item.slowdown + 0.5 * s

    per_dnn = tuple(
        max(
            (i.end for i in items if i.dnn == n),
            default=0.0,
        )
        for n in range(len(formulation.profiles))
    )
    makespan = max((i.end for i in items), default=0.0)
    energy_j = None
    if formulation.accel_power_w:
        energy_j = sum(
            (i.end - i.start)
            * formulation.accel_power_w.get(i.accel, 0.0)
            for i in items
        )
    return Rederivation(
        items=tuple(items),
        per_dnn_time=per_dnn,
        makespan=makespan,
        objective=_objective_of(formulation, per_dnn, energy_j),
        energy_j=energy_j,
        fixed_point_iterations=iterations,
        fixed_point_residual=residual,
    )


# ---------------------------------------------------------------------------
# schedule certificates
# ---------------------------------------------------------------------------


def _structural_violations(
    formulation: Formulation,
    schedule: Schedule,
    max_transitions: int | None,
) -> tuple[list[Violation], bool]:
    """Eq. 1 shape checks; second element: timing checks possible."""
    violations: list[Violation] = []
    profiles = formulation.profiles
    if len(schedule.per_dnn) != len(profiles):
        violations.append(
            Violation(
                kind=ViolationKind.ASSIGNMENT,
                where="schedule",
                message="stream count does not match the workload",
                expected=len(profiles),
                actual=len(schedule.per_dnn),
                equation="Eq. 1",
            )
        )
        return violations, False

    fatal = False
    for n, (profile, stream) in enumerate(zip(profiles, schedule.per_dnn)):
        if len(stream.assignment) != len(profile):
            violations.append(
                Violation(
                    kind=ViolationKind.ASSIGNMENT,
                    where=f"dnn{n}",
                    message="assignment does not cover every layer group "
                    "exactly once",
                    expected=len(profile),
                    actual=len(stream.assignment),
                    equation="Eq. 1",
                )
            )
            fatal = True
            continue
        for g, accel in enumerate(stream.assignment):
            if accel not in profile.groups[g].time_s:
                violations.append(
                    Violation(
                        kind=ViolationKind.CAPABILITY,
                        where=f"dnn{n} group {g}",
                        message=f"group cannot execute on {accel!r}",
                        expected="one of "
                        + ",".join(sorted(profile.groups[g].time_s)),
                        actual=accel,
                        equation="Eq. 1",
                    )
                )
                fatal = True
        if (
            max_transitions is not None
            and stream.num_transitions > max_transitions
        ):
            violations.append(
                Violation(
                    kind=ViolationKind.CONTIGUITY,
                    where=f"dnn{n}",
                    message="segmentation exceeds the transition budget; "
                    "layer groups must form contiguous per-DSA segments",
                    expected=max_transitions,
                    actual=stream.num_transitions,
                    equation="Eq. 1",
                )
            )
    return violations, not fatal


def _claimed_objective(claimed: object) -> float | None:
    if claimed is None:
        return None
    if isinstance(claimed, (int, float)):
        return float(claimed)
    objective = getattr(claimed, "objective", None)
    return float(objective) if objective is not None else None


def verify_schedule(
    formulation: Formulation,
    schedule: Schedule,
    *,
    claimed: EvaluationResult | float | None = None,
    max_transitions: int | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    slowdown_tol: float = DEFAULT_SLOWDOWN_TOL,
) -> Certificate:
    """Check a schedule against every Eq. 1-11 constraint.

    ``claimed`` optionally supplies the certificate under test: the
    producing scheduler's predicted :class:`EvaluationResult` (whose
    objective, per-stream times, and per-item timings are all audited)
    or a bare claimed objective value.
    """
    checks = ["assignment", "capability"]
    if max_transitions is not None:
        checks.append("contiguity")
    violations, timing_ok = _structural_violations(
        formulation, schedule, max_transitions
    )
    if not timing_ok:
        return Certificate(
            violations=tuple(violations),
            checks_run=tuple(checks),
            claimed_objective=_claimed_objective(claimed),
        )

    assignments = [s.assignment for s in schedule.per_dnn]
    derived = rederive(
        formulation, assignments, serialized=schedule.serialized
    )
    checks += ["timeline", "overlap", "contention-fixed-point"]

    if not schedule.serialized:
        makespan = derived.makespan
        allowed = formulation.epsilon_makespan_frac * makespan
        for accel, total in sorted(
            _cross_stream_overlap(derived.items).items()
        ):
            if total > allowed + _T_EPS:
                violations.append(
                    Violation(
                        kind=ViolationKind.OVERLAP,
                        where=f"accelerator {accel}",
                        message="cross-stream overlap exceeds the epsilon "
                        "window of the round makespan",
                        expected=allowed,
                        actual=total,
                        equation="Eq. 9",
                    )
                )

    if derived.fixed_point_residual >= 10 * formulation.tolerance:
        violations.append(
            Violation(
                kind=ViolationKind.CONTENTION,
                where="schedule",
                message="contention slowdowns did not reach a fixed "
                "point; the timeline is not self-consistent",
                expected=formulation.tolerance,
                actual=derived.fixed_point_residual,
                equation="Eqs. 7-8",
            )
        )

    claimed_obj = _claimed_objective(claimed)
    if claimed_obj is not None:
        checks.append("objective")
        scale = max(abs(derived.objective), abs(claimed_obj), 1e-12)
        if abs(derived.objective - claimed_obj) > rel_tol * scale:
            violations.append(
                Violation(
                    kind=ViolationKind.OBJECTIVE,
                    where="objective",
                    message="claimed objective disagrees with the "
                    "independent re-derivation",
                    expected=derived.objective,
                    actual=claimed_obj,
                    equation="Eq. 10/11",
                )
            )

    if isinstance(claimed, EvaluationResult) and claimed.items:
        item_cert = verify_items(
            formulation,
            schedule,
            claimed.items,
            claimed_objective=claimed.objective,
            rel_tol=rel_tol,
            slowdown_tol=slowdown_tol,
        )
        violations.extend(item_cert.violations)
        checks.extend(
            c for c in item_cert.checks_run if c not in checks
        )

    return Certificate(
        violations=tuple(violations),
        checks_run=tuple(checks),
        objective=derived.objective,
        claimed_objective=claimed_obj,
        per_dnn_time=derived.per_dnn_time,
        makespan=derived.makespan,
        fixed_point_iterations=derived.fixed_point_iterations,
    )


def verify_items(
    formulation: Formulation,
    schedule: Schedule,
    items: Sequence[ItemTiming],
    *,
    claimed_objective: float | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    slowdown_tol: float = DEFAULT_SLOWDOWN_TOL,
) -> Certificate:
    """Audit a *timed* certificate: per-item claims against Eqs. 2-11.

    ``items`` is the producing scheduler's claimed timeline
    (:attr:`EvaluationResult.items`).  Each claim is re-checked
    independently: standalone latencies against the profile (Eq. 2),
    transition charges against the flush+load costs (Eq. 3), per-item
    slowdowns against the contention model queried over the *claimed*
    overlap windows (Eqs. 7-8), exclusivity (Eq. 9), and the objective
    composition (Eq. 10/11).
    """
    violations: list[Violation] = []
    checks = [
        "item-shape",
        "item-latency",
        "item-ordering",
        "item-transition",
    ]
    profiles = formulation.profiles
    expected_counts = [
        len(p) * r for p, r in zip(profiles, formulation.repeats)
    ]
    by_stream: dict[int, list[ItemTiming]] = {}
    for item in items:
        by_stream.setdefault(item.dnn, []).append(item)

    for n, expected in enumerate(expected_counts):
        got = len(by_stream.get(n, []))
        if got != expected:
            violations.append(
                Violation(
                    kind=ViolationKind.ASSIGNMENT,
                    where=f"dnn{n}",
                    message="timed certificate does not cover every "
                    "(repeat, group) item exactly once",
                    expected=expected,
                    actual=got,
                    equation="Eq. 1",
                )
            )
    if violations:
        return Certificate(
            violations=tuple(violations),
            checks_run=tuple(checks),
            claimed_objective=claimed_objective,
        )

    for n, stream_items in sorted(by_stream.items()):
        profile = profiles[n]
        assignment = schedule.per_dnn[n].assignment
        ordered = sorted(stream_items, key=lambda i: (i.rep, i.group))
        prev: ItemTiming | None = None
        for item in ordered:
            where = f"dnn{n} rep {item.rep} group {item.group}"
            if item.accel != assignment[item.group]:
                violations.append(
                    Violation(
                        kind=ViolationKind.ASSIGNMENT,
                        where=where,
                        message="item runs on a different DSA than the "
                        "schedule assigns",
                        expected=assignment[item.group],
                        actual=item.accel,
                        equation="Eq. 1",
                    )
                )
                prev = item
                continue
            t0 = profile.groups[item.group].time_s.get(item.accel)
            if t0 is None:
                violations.append(
                    Violation(
                        kind=ViolationKind.CAPABILITY,
                        where=where,
                        message=f"group cannot execute on {item.accel!r}",
                        actual=item.accel,
                        equation="Eq. 1",
                    )
                )
                prev = item
                continue
            if abs(item.standalone_s - t0) > _T_EPS + 1e-6 * t0:
                violations.append(
                    Violation(
                        kind=ViolationKind.LATENCY,
                        where=where,
                        message="claimed standalone latency disagrees "
                        "with the profile",
                        expected=t0,
                        actual=item.standalone_s,
                        equation="Eq. 2",
                    )
                )
            duration = item.end - item.start
            modeled = item.standalone_s * item.slowdown
            if abs(duration - modeled) > _T_EPS + rel_tol * max(
                modeled, _T_EPS
            ):
                violations.append(
                    Violation(
                        kind=ViolationKind.CONTENTION,
                        where=where,
                        message="item duration is not standalone time "
                        "times claimed slowdown",
                        expected=modeled,
                        actual=duration,
                        equation="Eq. 7",
                    )
                )
            if prev is not None:
                if item.start < prev.end - _T_EPS:
                    violations.append(
                        Violation(
                            kind=ViolationKind.ORDERING,
                            where=where,
                            message="item starts before its predecessor "
                            "in the stream chain finished",
                            expected=prev.end,
                            actual=item.start,
                            equation="Eqs. 4-6",
                        )
                    )
                elif (
                    formulation.include_transitions
                    and item.group > 0
                    and item.rep == prev.rep
                    and prev.accel != item.accel
                    and item.accel == assignment[item.group]
                    and prev.accel == assignment[item.group - 1]
                ):
                    required = profile.transition(
                        item.group - 1, prev.accel, item.accel
                    )
                    gap = item.start - prev.end
                    if gap < required - _T_EPS:
                        violations.append(
                            Violation(
                                kind=ViolationKind.TRANSITION,
                                where=f"dnn{n} boundary "
                                f"{item.group - 1} rep {item.rep}",
                                message="DSA switch is charged less "
                                "than its flush+load transition cost",
                                expected=required,
                                actual=gap,
                                equation="Eq. 3",
                            )
                        )
            prev = item

    makespan = max((i.end for i in items), default=0.0)
    if not schedule.serialized:
        checks.append("item-overlap")
        allowed = formulation.epsilon_makespan_frac * makespan
        for accel, total in sorted(_cross_stream_overlap(items).items()):
            if total > allowed + _T_EPS:
                violations.append(
                    Violation(
                        kind=ViolationKind.OVERLAP,
                        where=f"accelerator {accel}",
                        message="cross-stream overlap exceeds the "
                        "epsilon window of the round makespan",
                        expected=allowed,
                        actual=total,
                        equation="Eq. 9",
                    )
                )

        checks.append("item-contention")
        spans = [(i.start, i.end, i.req_bw) for i in items]
        expected_slow = _interval_slowdowns(formulation, spans)
        for item, exp in zip(items, expected_slow):
            if abs(item.slowdown - exp) > slowdown_tol:
                violations.append(
                    Violation(
                        kind=ViolationKind.CONTENTION,
                        where=f"dnn{item.dnn} rep {item.rep} "
                        f"group {item.group}",
                        message="claimed slowdown disagrees with the "
                        "contention model over the claimed overlap "
                        "windows",
                        expected=exp,
                        actual=item.slowdown,
                        equation="Eqs. 7-8",
                    )
                )

    objective = None
    if claimed_objective is not None:
        checks.append("item-objective")
        per_dnn = [
            max(i.end for i in by_stream[n])
            for n in sorted(by_stream)
        ]
        energy_j = None
        if formulation.accel_power_w:
            energy_j = sum(
                (i.end - i.start)
                * formulation.accel_power_w.get(i.accel, 0.0)
                for i in items
            )
        objective = _objective_of(formulation, per_dnn, energy_j)
        scale = max(abs(objective), abs(claimed_objective), 1e-12)
        if abs(objective - claimed_objective) > rel_tol * scale:
            violations.append(
                Violation(
                    kind=ViolationKind.OBJECTIVE,
                    where="objective",
                    message="claimed objective does not follow from "
                    "the claimed per-item timeline",
                    expected=objective,
                    actual=claimed_objective,
                    equation="Eq. 10/11",
                )
            )

    return Certificate(
        violations=tuple(violations),
        checks_run=tuple(checks),
        objective=objective,
        claimed_objective=claimed_objective,
        makespan=makespan,
    )


def verify_result(
    result: "ScheduleResult",
    *,
    max_transitions: int | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> Certificate:
    """Verify a :class:`ScheduleResult` against its own formulation."""
    return verify_schedule(
        result.formulation,
        result.schedule,
        claimed=result.predicted,
        max_transitions=max_transitions,
        rel_tol=rel_tol,
    )


# ---------------------------------------------------------------------------
# generic solver certificates
# ---------------------------------------------------------------------------


def verify_assignment(
    problem: Problem,
    assignment: Assignment,
    claimed_objective: float | None = None,
    *,
    rel_tol: float = 1e-9,
) -> Certificate:
    """Independently check a solver answer on a generic problem.

    Domain membership (Eq. 1's full/unique assignment, generalized),
    every constraint individually, and the objective recomputed from
    the problem's own definition -- none of the solver's bookkeeping
    is trusted.
    """
    violations: list[Violation] = []
    checks = ["domain", "constraints", "objective"]
    for variable in problem.variables:
        if variable.name not in assignment:
            violations.append(
                Violation(
                    kind=ViolationKind.ASSIGNMENT,
                    where=variable.name,
                    message="variable is unassigned",
                    equation="Eq. 1",
                )
            )
        elif assignment[variable.name] not in variable.domain:
            violations.append(
                Violation(
                    kind=ViolationKind.ASSIGNMENT,
                    where=variable.name,
                    message="assigned value is outside the domain",
                    actual=repr(assignment[variable.name]),
                    equation="Eq. 1",
                )
            )
    extra = set(assignment) - {v.name for v in problem.variables}
    for name in sorted(extra):
        violations.append(
            Violation(
                kind=ViolationKind.ASSIGNMENT,
                where=name,
                message="assignment binds an undeclared variable",
                equation="Eq. 1",
            )
        )
    if violations:
        return Certificate(
            violations=tuple(violations),
            checks_run=("domain",),
            claimed_objective=claimed_objective,
        )

    for k, constraint in enumerate(problem.constraints):
        try:
            satisfied = bool(constraint(assignment))
        except Infeasible as exc:
            satisfied = False
            detail = f" ({exc})"
        else:
            detail = ""
        if not satisfied:
            violations.append(
                Violation(
                    kind=ViolationKind.CONSTRAINT,
                    where=f"constraint {k}",
                    message="constraint rejects the assignment" + detail,
                )
            )

    objective: float | None = None
    try:
        objective = problem.objective(assignment)
    except Infeasible as exc:
        violations.append(
            Violation(
                kind=ViolationKind.CONSTRAINT,
                where="objective",
                message=f"objective declares the assignment infeasible "
                f"({exc})",
            )
        )
    if objective is not None and claimed_objective is not None:
        scale = max(abs(objective), abs(claimed_objective), 1e-12)
        if abs(objective - claimed_objective) > rel_tol * scale:
            violations.append(
                Violation(
                    kind=ViolationKind.OBJECTIVE,
                    where="objective",
                    message="claimed objective disagrees with a fresh "
                    "evaluation",
                    expected=objective,
                    actual=claimed_objective,
                )
            )
    return Certificate(
        violations=tuple(violations),
        checks_run=tuple(checks),
        objective=objective,
        claimed_objective=claimed_objective,
    )


def verify_solve(
    problem: Problem, result: "SolveResult"
) -> Certificate:
    """Audit a full solver run: best answer plus incumbent stream.

    The incumbent sequence must be strictly improving with
    monotonically non-decreasing progress counters (the contract the
    serving layer's update points rely on), and every incumbent --
    including the final best -- must independently verify.
    """
    violations: list[Violation] = []
    checks = ["incumbent-monotone", "incumbent-feasible", "best"]
    previous = float("inf")
    last_nodes = -1
    for k, inc in enumerate(result.incumbents):
        if inc.objective >= previous:
            violations.append(
                Violation(
                    kind=ViolationKind.ORDERING,
                    where=f"incumbent {k}",
                    message="incumbent does not strictly improve on "
                    "its predecessor",
                    expected=f"< {previous}",
                    actual=inc.objective,
                )
            )
        if inc.nodes_explored < last_nodes:
            violations.append(
                Violation(
                    kind=ViolationKind.ORDERING,
                    where=f"incumbent {k}",
                    message="incumbent progress counter went backwards",
                    expected=f">= {last_nodes}",
                    actual=inc.nodes_explored,
                )
            )
        previous = inc.objective
        last_nodes = max(last_nodes, inc.nodes_explored)
        cert = verify_assignment(
            problem, inc.assignment, inc.objective
        )
        violations.extend(cert.violations)

    best_objective = None
    if result.best is not None:
        best_objective = result.best.objective
        if (
            result.incumbents
            and result.best is not result.incumbents[-1]
        ):
            violations.append(
                Violation(
                    kind=ViolationKind.ORDERING,
                    where="best",
                    message="best is not the last recorded incumbent",
                )
            )
    return Certificate(
        violations=tuple(violations),
        checks_run=tuple(checks),
        claimed_objective=best_objective,
    )


# ---------------------------------------------------------------------------
# cache-admission certificates
# ---------------------------------------------------------------------------


def verify_cache_entry(
    scheduler: "HaXCoNN",
    workload: "Workload",
    schedule: Schedule,
    *,
    stored_signature: str | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> Certificate:
    """Admission-time audit of a schedule destined for the cache.

    Stale-entry detection first: the schedule must actually describe
    *this* workload under *this* scheduler configuration (stream
    names, per-stream group counts from the current grouping, and --
    when the entry carries one -- the stored workload signature).
    Structural and timing checks then run via
    :func:`verify_schedule`.
    """
    from repro.core.schedule_cache import workload_signature

    violations: list[Violation] = []
    checks = ["signature"]
    expected_signature = workload_signature(workload, scheduler)
    if (
        stored_signature is not None
        and stored_signature != expected_signature
    ):
        violations.append(
            Violation(
                kind=ViolationKind.SIGNATURE,
                where="cache",
                message="stored signature is stale for this scheduler "
                "configuration",
                expected=expected_signature,
                actual=stored_signature,
            )
        )
    names = workload.names
    if len(schedule.per_dnn) != len(names):
        violations.append(
            Violation(
                kind=ViolationKind.SIGNATURE,
                where="cache",
                message="cached schedule covers a different stream set",
                expected=len(names),
                actual=len(schedule.per_dnn),
            )
        )
        return Certificate(
            violations=tuple(violations), checks_run=tuple(checks)
        )
    for n, stream in enumerate(schedule.per_dnn):
        if stream.dnn_name != names[n]:
            violations.append(
                Violation(
                    kind=ViolationKind.SIGNATURE,
                    where=f"dnn{n}",
                    message="cached stream name does not match the "
                    "workload",
                    expected=names[n],
                    actual=stream.dnn_name,
                )
            )

    formulation, _profiles = scheduler.build_formulation(workload)
    for n, (profile, stream) in enumerate(
        zip(formulation.profiles, schedule.per_dnn)
    ):
        if len(stream.assignment) != len(profile):
            violations.append(
                Violation(
                    kind=ViolationKind.SIGNATURE,
                    where=f"dnn{n}",
                    message="cached assignment was produced under a "
                    "different layer grouping",
                    expected=len(profile),
                    actual=len(stream.assignment),
                )
            )
    if violations:
        return Certificate(
            violations=tuple(violations), checks_run=tuple(checks)
        )

    schedule_cert = verify_schedule(
        formulation,
        schedule,
        max_transitions=scheduler.max_transitions,
        rel_tol=rel_tol,
    )
    return Certificate(
        violations=schedule_cert.violations,
        checks_run=tuple(checks) + schedule_cert.checks_run,
        objective=schedule_cert.objective,
        per_dnn_time=schedule_cert.per_dnn_time,
        makespan=schedule_cert.makespan,
        fixed_point_iterations=schedule_cert.fixed_point_iterations,
    )

