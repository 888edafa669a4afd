"""The scheduling cost model of paper Section 3.4 (Eqs. 1-11).

Given a workload (one profile per concurrent stream), an assignment of
every layer group to an accelerator (Eq. 1), and a contention model,
:class:`Formulation` computes each stream's total execution time
(Eq. 2): standalone group times, inter-DSA transition costs (Eq. 3),
and contention slowdowns evaluated over *contention intervals* --
periods delimited by group starts/ends during which the set of
co-running groups is fixed (Eqs. 4-8, Fig. 4).

The slowdowns change the timeline and the timeline changes the
slowdowns, so the evaluation iterates to a fixed point (the role the
SMT solver's simultaneous equations play in the paper).

Feasibility follows Eq. 9: two groups of different streams may overlap
on the same accelerator for at most an epsilon interval.  Objectives
follow Eq. 10 (throughput) and Eq. 11 (min-max latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.contention.base import ContentionModel, NoContentionModel
from repro.profiling.profiler import DNNProfile
from repro.solver.problem import Infeasible

if TYPE_CHECKING:  # evalcache imports this module's names lazily
    from repro.core.evalcache import EvalCounters, EvalEngine


class ScheduleInfeasible(Infeasible):
    """The assignment violates a scheduling constraint (e.g. Eq. 9)."""


@dataclass(frozen=True, slots=True)
class ItemTiming:
    """Predicted execution of one (stream, repeat, group) item."""

    dnn: int
    rep: int
    group: int
    accel: str
    start: float
    end: float
    standalone_s: float
    slowdown: float
    req_bw: float


@dataclass(frozen=True)
class EvaluationResult:
    """Predicted timing of one complete assignment.

    ``items`` is materialized lazily: the solver evaluates thousands
    of candidates and only ever reads ``objective``.
    """

    #: T_n per stream: completion time since round start (Eq. 2)
    per_dnn_time: tuple[float, ...]
    #: solver cost (minimize); negated stream-rate sum for throughput
    objective: float
    makespan: float
    fixed_point_iterations: int
    #: active energy of the round (set when accel powers are known)
    energy_j: float | None = None
    _item_builder: Callable[[], tuple[ItemTiming, ...]] | None = None

    @property
    def items(self) -> tuple[ItemTiming, ...]:
        if self._item_builder is None:
            return ()
        cached = self.__dict__.get("_items_cache")
        if cached is None:
            cached = self._item_builder()
            object.__setattr__(self, "_items_cache", cached)
        return cached

    def mean_slowdown(self, dnn: int) -> float:
        """Duration-weighted mean contention slowdown of one stream."""
        sel = [i for i in self.items if i.dnn == dnn]
        base = sum(i.standalone_s for i in sel)
        if base <= 0:
            return 1.0
        return sum(i.end - i.start for i in sel) / base


class Formulation:
    """Cost model for one workload on one platform.

    Parameters
    ----------
    profiles:
        One (possibly concatenated) profile per concurrent stream.
    repeats:
        Frames per stream per scheduling round.
    objective:
        ``"latency"`` (Eq. 11) or ``"throughput"`` (Eq. 10).
    contention_model:
        PCCS in HaX-CoNN; :class:`NoContentionModel` reproduces what
        Herald/H2H predict.
    include_transitions:
        Disable to reproduce Herald's transition-blind cost model.
    resource_constrained:
        With the default, the predicted timeline serializes items that
        land on a busy accelerator (what the runtime's per-DSA queues
        do).  Disabled, the timeline is the naive chain sum of Eq. 4 --
        the mode Herald/H2H reason in, which is why the paper observes
        their co-located layer groups "end up waiting for each other"
        while the other accelerator idles.
    pipeline:
        Per-frame (upstream, downstream) stream dependencies (paper
        Scenario 3); honored by the resource-constrained timeline,
        invisible to the chain-sum one.
    """

    #: Eq. 9's epsilon: the *total* time items of different streams
    #: overlap on the same accelerator may not exceed this fraction of
    #: the round makespan.  The paper keeps epsilon to "mitigate the
    #: prediction errors and facilitate more transition points"; the
    #: runtime absorbs such overlaps with a short queueing delay.
    epsilon_makespan_frac = 0.06
    #: contention fixed point: at most this many damped rounds, stopped
    #: once no slowdown moves by ``tolerance`` or more
    max_iterations = 25
    tolerance = 1e-4

    def __init__(
        self,
        profiles: Sequence[DNNProfile],
        repeats: Sequence[int],
        objective: str,
        contention_model: ContentionModel | None = None,
        *,
        include_transitions: bool = True,
        resource_constrained: bool = True,
        pipeline: tuple[tuple[int, int], ...] = (),
        accel_power_w: Mapping[str, float] | None = None,
        eval_counters: "EvalCounters | None" = None,
    ) -> None:
        if len(profiles) != len(repeats):
            raise ValueError("profiles and repeats length mismatch")
        if objective not in ("latency", "throughput", "energy"):
            raise ValueError(f"unknown objective {objective!r}")
        if objective == "energy" and not accel_power_w:
            raise ValueError("energy objective needs accel_power_w")
        self.profiles = tuple(profiles)
        self.repeats = tuple(repeats)
        self.objective = objective
        self.contention_model = contention_model or NoContentionModel()
        self.include_transitions = include_transitions
        self.resource_constrained = resource_constrained
        self.pipeline = tuple(pipeline)
        self.accel_power_w = dict(accel_power_w or {})
        # accelerator-id table, frozen at construction: the sorted
        # union over every group's supported DSAs.  Any assignment's
        # accelerators are a subset, and a sorted subset induces the
        # same relative order as the union, so ids are stable across
        # evaluations.  The evaluation engine's item tensor reads this
        # same table, so the id order is decided here only.
        self._accel_names: list[str] = sorted(
            {a for p in self.profiles for g in p.groups for a in g.time_s}
        )
        self._accel_index: dict[str, int] = {
            a: i for i, a in enumerate(self._accel_names)
        }
        self._eval_counters = eval_counters
        self._engine: "EvalEngine | None" = None

    @property
    def accel_names(self) -> tuple[str, ...]:
        """The frozen accelerator-id table (sorted support union)."""
        return tuple(self._accel_names)

    @property
    def engine(self) -> "EvalEngine":
        """The incremental evaluation engine behind :meth:`evaluate`.

        Built lazily: plain cost-model uses (verifier re-derivations,
        one-off audits) never pay the tensor precomputation.
        """
        if self._engine is None:
            from repro.core.evalcache import EvalEngine

            self._engine = EvalEngine(self, counters=self._eval_counters)
        return self._engine

    # ------------------------------------------------------------------
    def _build_items(
        self, assignments: Sequence[Sequence[str]]
    ) -> tuple[np.ndarray, ...]:
        """Flatten the workload into item arrays.

        Returns (t0, bw, stream_id, accel_id, lead_out, lead_in,
        prev_accel_id).  ``lead_out``/``lead_in`` split the Eq. 3
        transition cost preceding an item into the flush on the
        predecessor's accelerator (``prev_accel_id``) and the load on
        the item's own; both DSAs are *occupied* for those spans, the
        way the runtime's explicit flush/load tasks behave.  Accel ids
        index into ``self._accel_names``.
        """
        t0: list[float] = []
        bw: list[float] = []
        stream: list[int] = []
        accels: list[str] = []
        lead_out: list[float] = []
        lead_in: list[float] = []
        prev_accels: list[str | None] = []
        for n, (profile, assignment) in enumerate(
            zip(self.profiles, assignments)
        ):
            if len(assignment) != len(profile):
                raise ValueError(
                    f"stream {n}: assignment covers {len(assignment)} "
                    f"groups, profile has {len(profile)}"
                )
            for rep in range(self.repeats[n]):
                for g, accel in enumerate(assignment):
                    gp = profile.groups[g]
                    if accel not in gp.time_s:
                        raise ScheduleInfeasible(
                            f"group {gp.label} of {profile.dnn_name} "
                            f"cannot run on {accel!r}"
                        )
                    out_s = in_s = 0.0
                    prev: str | None = None
                    if g > 0 and assignment[g - 1] != accel:
                        # inter-rep boundaries carry no flush: frames
                        # are independent inputs
                        if self.include_transitions:
                            out_s, in_s = profile.transition_split(
                                g - 1, assignment[g - 1], accel
                            )
                            prev = assignment[g - 1]
                    t0.append(gp.time_s[accel])
                    bw.append(gp.req_bw[accel])
                    stream.append(n)
                    accels.append(accel)
                    lead_out.append(out_s)
                    lead_in.append(in_s)
                    prev_accels.append(prev)
        index = self._accel_index
        accel_id = np.array([index[a] for a in accels], dtype=int)
        prev_accel_id = np.array(
            [index.get(p, -1) if p is not None else -1 for p in prev_accels],
            dtype=int,
        )
        return (
            np.array(t0),
            np.array(bw),
            np.array(stream, dtype=int),
            accel_id,
            np.array(lead_out),
            np.array(lead_in),
            prev_accel_id,
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        assignments: Sequence[Sequence[str]],
        *,
        serialized: bool = False,
        check_exclusive: bool = True,
    ) -> EvaluationResult:
        """Predict the workload timing under ``assignments``.

        Raises :class:`ScheduleInfeasible` on capability violations or
        Eq. 9 same-accelerator overlaps (unless ``serialized``, where
        streams run back-to-back and never contend).

        Delegates to the incremental engine (:mod:`repro.core.evalcache`):
        memoized, cached-gather evaluation that is bit-identical to
        :meth:`evaluate_scratch` -- the reference implementation kept
        as the differential baseline.
        """
        return self.engine.evaluate(
            assignments,
            serialized=serialized,
            check_exclusive=check_exclusive,
        )

    def evaluate_many(
        self,
        batch: Sequence[Sequence[Sequence[str]]],
        *,
        serialized: bool = False,
        check_exclusive: bool = True,
    ) -> "list[EvaluationResult | Exception]":
        """Evaluate a batch of sibling assignments in one engine pass.

        Infeasible entries come back as :class:`ScheduleInfeasible`
        *instances* in place of a result, so one bad sibling does not
        abort the batch.  Results are bit-identical to per-call
        :meth:`evaluate`.
        """
        return self.engine.evaluate_many(
            batch, serialized=serialized, check_exclusive=check_exclusive
        )

    def evaluate_frontier(
        self,
        batch: Sequence[Sequence[Sequence[str]]],
        *,
        serialized: bool = False,
        check_exclusive: bool = True,
    ) -> "list[EvaluationResult | Exception]":
        """Evaluate a B&B frontier in lockstep NumPy batches.

        Same calling convention and bit-identical results as
        :meth:`evaluate_many`; the members run together through the
        tensor event loop and contention fixed point, split into
        batches of bounded memory (:mod:`repro.core.frontier`).
        """
        return self.engine.evaluate_frontier(
            batch, serialized=serialized, check_exclusive=check_exclusive
        )

    def evaluate_scratch(
        self,
        assignments: Sequence[Sequence[str]],
        *,
        serialized: bool = False,
        check_exclusive: bool = True,
    ) -> EvaluationResult:
        """Reference from-scratch evaluation (no caches, no reuse).

        The engine's differential baseline: every optimization behind
        :meth:`evaluate` must reproduce this bit-for-bit (enforced by
        ``tests/core/test_evalcache.py`` and the PR-3 verifier).
        """
        (
            t0,
            bw,
            stream,
            accel_id,
            lead_out,
            lead_in,
            prev_accel_id,
        ) = self._build_items(assignments)
        n_items = len(t0)
        slow = np.ones(n_items)
        contention_free = serialized or isinstance(
            self.contention_model, NoContentionModel
        )

        start = np.zeros(n_items)
        end = np.zeros(n_items)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            self._timeline(
                t0,
                slow,
                stream,
                accel_id,
                lead_out,
                lead_in,
                prev_accel_id,
                serialized,
                start,
                end,
            )
            if contention_free:
                break
            new_slow = self._slowdowns(
                t0, bw, stream, accel_id, start, end, slow
            )
            if np.max(np.abs(new_slow - slow)) < self.tolerance:
                slow = new_slow
                self._timeline(
                    t0,
                    slow,
                    stream,
                    accel_id,
                    lead_out,
                    lead_in,
                    prev_accel_id,
                    serialized,
                    start,
                    end,
                )
                break
            slow = new_slow

        if (
            check_exclusive
            and not serialized
            and not self.resource_constrained
        ):
            # the resource-constrained timeline cannot overlap a DSA
            # structurally; Eq. 9 only guards the naive chain timeline
            self._check_eq9(stream, accel_id, start, end)

        per_dnn = tuple(
            float(end[stream == n].max()) for n in range(len(self.profiles))
        )
        makespan = float(end.max()) if n_items else 0.0
        energy_j = None
        if self.accel_power_w:
            power = np.array(
                [self.accel_power_w.get(a, 0.0) for a in self._accel_names]
            )
            energy_j = float(((end - start) * power[accel_id]).sum())
        objective = self._objective(per_dnn, serialized, energy_j)
        names = self._accel_names
        return EvaluationResult(
            per_dnn_time=per_dnn,
            objective=objective,
            makespan=makespan,
            energy_j=energy_j,
            fixed_point_iterations=iterations,
            _item_builder=lambda: tuple(
                self._item(
                    i, stream, accel_id, start, end, t0, slow, bw, names
                )
                for i in range(n_items)
            ),
        )

    # ------------------------------------------------------------------
    def _timeline(
        self,
        t0: np.ndarray,
        slow: np.ndarray,
        stream: np.ndarray,
        accel_id: np.ndarray,
        lead_out: np.ndarray,
        lead_in: np.ndarray,
        prev_accel_id: np.ndarray,
        serialized: bool,
        start: np.ndarray,
        end: np.ndarray,
    ) -> None:
        """Resource-constrained item timeline (Eqs. 4-6 plus Eq. 9).

        Items of one stream chain back-to-back; each accelerator
        executes one item at a time, so an item whose DSA is busy with
        another stream queues until it frees up -- the behaviour of
        the runtime's per-DSA queues.  A transition's flush occupies
        the source DSA and its load the destination DSA, mirroring the
        explicit flush/load tasks the executor creates.  Under
        ``serialized`` the streams run one after the other with
        transitions as plain delays.
        """
        n_streams = len(self.profiles)
        chains = [np.flatnonzero(stream == n) for n in range(n_streams)]
        if serialized or not self.resource_constrained:
            t = 0.0
            for n in range(n_streams):
                if not serialized:
                    t = 0.0
                for i in chains[n]:
                    t += lead_out[i] + lead_in[i]
                    start[i] = t
                    t += t0[i] * slow[i]
                    end[i] = t
            return

        pointer = [0] * n_streams
        ready = [0.0] * n_streams
        accel_avail: dict[int, float] = {}
        groups_per = [len(p) for p in self.profiles]
        upstreams: dict[int, list[int]] = {}
        for up, down in self.pipeline:
            upstreams.setdefault(down, []).append(up)

        def plan(n: int) -> tuple[float, float, int] | None:
            """(start, became-ready, item) for stream n's next item,
            or None while a pipeline dependency is unscheduled."""
            i = chains[n][pointer[n]]
            item_ready = ready[n]
            if n in upstreams and pointer[n] % groups_per[n] == 0:
                rep = pointer[n] // groups_per[n]
                for up in upstreams[n]:
                    up_idx = (rep + 1) * groups_per[up] - 1
                    if up_idx >= len(chains[up]):
                        continue  # upstream runs fewer frames
                    if pointer[up] <= up_idx:
                        return None
                    item_ready = max(item_ready, end[chains[up][up_idx]])
            if lead_out[i] > 0 or lead_in[i] > 0:
                # the flush starts right when the predecessor ends: in
                # the runtime it is queued with that early ready time
                # and wins FCFS on the (just-freed) source DSA, so it
                # never waits behind later-arriving work
                flush_end = item_ready + lead_out[i]
                load_start = max(
                    flush_end, accel_avail.get(int(accel_id[i]), 0.0)
                )
                item_ready = load_start + lead_in[i]
                candidate = item_ready
            else:
                candidate = max(
                    item_ready, accel_avail.get(int(accel_id[i]), 0.0)
                )
            return candidate, item_ready, int(i)

        remaining = sum(len(c) for c in chains)
        while remaining:
            best_n, best_key = -1, (float("inf"), float("inf"), -1)
            for n in range(n_streams):
                if pointer[n] >= len(chains[n]):
                    continue
                planned = plan(n)
                if planned is None:
                    continue
                candidate, item_ready, _i = planned
                # ties on start time go to the item that became ready
                # first -- the runtime's FCFS submission-queue policy
                key = (candidate, item_ready, n)
                if key < best_key:
                    best_n, best_key = n, key
            planned = plan(best_n)
            assert planned is not None
            best_start, _ready, i = planned
            # commit: the flush occupies the source DSA for its span;
            # the item (including its load) then occupies its own DSA
            if lead_out[i] > 0 or lead_in[i] > 0:
                src_accel = int(prev_accel_id[i])
                flush_end = ready[best_n] + lead_out[i]
                accel_avail[src_accel] = max(
                    accel_avail.get(src_accel, 0.0), flush_end
                )
            start[i] = best_start
            end[i] = best_start + t0[i] * slow[i]
            ready[best_n] = end[i]
            accel_avail[int(accel_id[i])] = end[i]
            pointer[best_n] += 1
            remaining -= 1

    def _slowdowns(
        self,
        t0: np.ndarray,
        bw: np.ndarray,
        stream: np.ndarray,
        accel_id: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        previous: np.ndarray,
    ) -> np.ndarray:
        """Contention-interval slowdown per item (Eqs. 7-8).

        Intervals are delimited by every item start/end; within one
        interval the active set is fixed, so each active item sees the
        cumulative external traffic of the others.
        """
        bounds = np.unique(np.concatenate([start, end]))
        a, b = bounds[:-1], bounds[1:]
        dur = b - a
        keep = dur > 1e-15
        a, b, dur = a[keep], b[keep], dur[keep]
        # active[k, i]: item i runs during interval k
        active = (start[None, :] <= a[:, None] + 1e-15) & (
            end[None, :] >= b[:, None] - 1e-15
        )
        total_bw = active @ bw
        n_clients = active.sum(axis=1)
        ext = np.where(active, total_bw[:, None] - bw[None, :], 0.0)
        own = np.broadcast_to(bw[None, :], active.shape)
        s = np.ones(active.shape)
        mask = active & (ext > 0)
        if mask.any():
            s[mask] = self.contention_model.slowdown_bulk(
                own[mask],
                ext[mask],
                np.broadcast_to(n_clients[:, None], active.shape)[mask],
            )
        weighted = (active * dur[:, None] * s).sum(axis=0)
        covered = (active * dur[:, None]).sum(axis=0)
        new = np.where(covered > 0, weighted / np.maximum(covered, 1e-30), 1.0)
        # light damping stabilizes the fixed point when slowdowns
        # shift the overlap structure between iterations
        return 0.25 * previous + 0.75 * new

    def _check_eq9(
        self,
        stream: np.ndarray,
        accel_id: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
    ) -> None:
        """Reject same-accelerator oversubscription (Eq. 9).

        The *total* time items of different streams overlap on any one
        accelerator must stay within epsilon of the round makespan --
        small handoff misalignments pass (the runtime absorbs them by
        briefly queueing); structural double-booking of a DSA does not.
        """
        makespan = float(end.max()) if len(end) else 0.0
        allowed = self.epsilon_makespan_frac * makespan
        n = len(stream)
        # vectorized pairwise overlaps
        ov = np.minimum(end[:, None], end[None, :]) - np.maximum(
            start[:, None], start[None, :]
        )
        cross = (stream[:, None] != stream[None, :]) & (
            accel_id[:, None] == accel_id[None, :]
        )
        np.fill_diagonal(cross, False)
        ov = np.where(cross, np.maximum(ov, 0.0), 0.0)
        for a in np.unique(accel_id):
            on_a = accel_id == a
            total = float(ov[np.ix_(on_a, on_a)].sum()) / 2.0
            if total > allowed:
                raise ScheduleInfeasible(
                    f"streams overlap {total:.2e}s in total on "
                    f"accelerator {self._accel_names[int(a)]!r} "
                    f"(allowed {allowed:.2e}s, Eq. 9)"
                )

    def _objective(
        self,
        per_dnn: tuple[float, ...],
        serialized: bool = False,
        energy_j: float | None = None,
    ) -> float:
        if self.objective == "energy":
            assert energy_j is not None
            return energy_j
        if self.objective == "latency":
            return max(per_dnn)  # Eq. 11
        # Eq. 10 maximizes the sum of stream rates.  The paper can use
        # per-stream completion times because Eq. 9 keeps streams on
        # disjoint accelerators; our runtime restarts every stream at
        # each round boundary, so the *sustained* rate of stream n is
        # repeats_n / round_time for all streams -- maximizing the rate
        # sum is then total frames over the round makespan.  (Without
        # this, a stream that finishes early by time-sharing a DSA
        # would be credited a rate it cannot sustain.)
        round_time = max(per_dnn)
        if round_time <= 0:
            return float("-inf")
        return -sum(self.repeats) / round_time

    def _item(
        self,
        i: int,
        stream: np.ndarray,
        accel_id: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        t0: np.ndarray,
        slow: np.ndarray,
        bw: np.ndarray,
        accel_names: Sequence[str],
    ) -> ItemTiming:
        n = int(stream[i])
        before = int((stream[:i] == n).sum())
        groups = len(self.profiles[n])
        return ItemTiming(
            dnn=n,
            rep=before // groups,
            group=before % groups,
            accel=accel_names[int(accel_id[i])],
            start=float(start[i]),
            end=float(end[i]),
            standalone_s=float(t0[i]),
            slowdown=float(slow[i]),
            req_bw=float(bw[i]),
        )

    # -- bounds for branch & bound ------------------------------------
    def busy_times(
        self, dnn: int, assignment: Sequence[str]
    ) -> dict[str, float]:
        """Total execution time stream ``dnn`` occupies each DSA.

        Each accelerator runs one item at a time, so the per-DSA sums
        across streams lower-bound the concurrent makespan -- a much
        tighter admissible bound than the per-stream chain whenever
        two streams compete for the same DSA.
        """
        profile = self.profiles[dnn]
        busy: dict[str, float] = {}
        for g, accel in enumerate(assignment):
            t = profile.groups[g].time_s.get(accel)
            if t is None:
                return {accel: float("inf")}
            busy[accel] = busy.get(accel, 0.0) + t
        reps = self.repeats[dnn]
        return {a: t * reps for a, t in busy.items()}

    def chain_energy(self, dnn: int, assignment: Sequence[str]) -> float:
        """Contention-free active energy of one stream (admissible LB:
        contention only stretches execution, which only adds energy)."""
        profile = self.profiles[dnn]
        total = 0.0
        for g, accel in enumerate(assignment):
            t = profile.groups[g].time_s.get(accel)
            if t is None:
                return float("inf")
            total += t * self.accel_power_w.get(accel, 0.0)
        return total * self.repeats[dnn]

    def chain_time(self, dnn: int, assignment: Sequence[str]) -> float:
        """Contention-free chained time of one stream (admissible LB)."""
        profile = self.profiles[dnn]
        total = 0.0
        for g, accel in enumerate(assignment):
            gp = profile.groups[g]
            t = gp.time_s.get(accel)
            if t is None:
                return float("inf")
            total += t
            if g > 0 and assignment[g - 1] != accel and self.include_transitions:
                total += profile.transition(g - 1, assignment[g - 1], accel)
        return total * self.repeats[dnn]
