"""Incremental, memoized schedule evaluation engine (the solver hot path).

Every node the branch-and-bound / anytime solvers expand pays one
:meth:`Formulation.evaluate`; D-HaX-CoNN and the serving layer re-solve
mixes online, so evaluation throughput bounds time-to-first-incumbent
(paper Fig. 7).  :class:`EvalEngine` makes the canonical evaluation
path fast **without changing a single bit of its results**:

* :class:`ItemTensor` -- an immutable per-formulation tensor holding
  t0 / requested-bandwidth / transition lead-in/out for *every*
  (group, accelerator) pair, with the accelerator-id table frozen at
  construction.  Per-assignment item arrays become pure NumPy gathers
  (no per-call Python list building, no per-call name re-sorting).
* an event-loop timeline with per-stream plan caching: each commit
  invalidates only the streams whose inputs it touched (same stream,
  same accelerator, pipeline downstreams) instead of re-planning every
  stream twice per commit.  Arithmetic order is identical to the
  reference loop, so timelines are bit-identical.
* a slowdown-structure cache: the contention-model query (Eqs. 7-8)
  depends only on the discrete overlap structure (the ``active``
  matrix) and the bandwidth vector, not on the continuous interval
  bounds.  The overlap structure stabilizes after the first few
  fixed-point iterations, so later iterations reuse the cached
  per-interval slowdown matrix bit-for-bit.  Entries hold the active
  cells only (every other cell is 1.0), about a tenth of the dense
  matrix.
* a bounded memo table (assignment -> objective / per-DNN latencies /
  iteration count) that lives as long as its formulation, i.e. one
  solve.  Memo entries store scalars only; ``EvaluationResult.items``
  is re-materialized lazily on the rare occasions it is read.

Every evaluation restarts the damped contention fixed point from
``slow = 1`` exactly like the reference implementation: a
warm-started fixed point stopped by a step tolerance is
path-dependent (~1e-4 relative), which would break the repo's
byte-identity contracts (anytime-vs-bnb equality, memo purity, the
certificate checker).

All caches hold *pure* values (identical no matter which solve
computed them), so a cache hit can only save a computation, never
change a result.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.contention.base import NoContentionModel

if TYPE_CHECKING:  # deferred: formulation imports this module
    from repro.core.formulation import EvaluationResult, Formulation, ItemTiming

#: assignment-tuple key: one tuple of accel names per stream
AssignKey = tuple[tuple[str, ...], ...]
#: memo payloads: ("ok", per_dnn, objective, makespan, energy, iters)
#: or ("bad", message) for memoized ScheduleInfeasible
MemoEntry = tuple[Any, ...]
#: bound of each engine's evaluation memo (FIFO eviction)
MEMO_CAPACITY = 16384
#: bound of each engine's slowdown-structure cache (FIFO eviction)
SLOWDOWN_CACHE_CAPACITY = 4096


@dataclass
class EvalCounters:
    """Hot-path instrumentation, aggregated across evaluations.

    One instance can be shared by every formulation a scheduler builds
    (see ``HaXCoNN.eval_counters``) so serving / experiment summaries
    report scheduler-wide rates.  Plain ints; merge with :meth:`merge`.
    """

    evals: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    #: evaluations actually computed (memo misses)
    computed_evals: int = 0
    #: contention fixed-point iterations across computed evaluations
    fp_iterations: int = 0
    timeline_passes: int = 0
    slowdown_queries: int = 0
    slowdown_cache_hits: int = 0
    batch_evals: int = 0
    batch_items: int = 0
    #: frontier-batched evaluation (repro.core.frontier)
    frontier_batches: int = 0
    frontier_members: int = 0
    #: members computed by the lockstep tensor path vs delegated to
    #: the scalar engine (tiny frontiers, pipelines, serialized, ...)
    frontier_lockstep: int = 0
    frontier_fallback: int = 0

    def merge(self, other: "EvalCounters") -> None:
        for f in fields(self):
            setattr(
                self, f.name, getattr(self, f.name) + getattr(other, f.name)
            )

    def as_dict(self) -> dict[str, float]:
        """Raw counters plus the derived rates the summaries print."""
        out: dict[str, float] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        lookups = self.memo_hits + self.memo_misses
        out["memo_hit_rate"] = self.memo_hits / lookups if lookups else 0.0
        out["fp_iter_mean"] = (
            self.fp_iterations / self.computed_evals
            if self.computed_evals
            else 0.0
        )
        queries = self.slowdown_queries
        out["slowdown_cache_hit_rate"] = (
            self.slowdown_cache_hits / queries if queries else 0.0
        )
        return out


class FIFOCache:
    """Bounded insert-only cache with first-in-first-out eviction.

    Backs the evaluation memo, the slowdown-structure cache and the
    item tensor's stream-gather cache.  Every value it holds is pure
    (bit-identical to recomputation), so eviction can only cost a
    recomputation, never change a result.
    """

    __slots__ = ("capacity", "_data")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any) -> Any:
        return self._data.get(key)

    def put(self, key: Any, value: Any) -> None:
        if key in self._data:
            return
        self._data[key] = value
        while len(self._data) > self.capacity:
            oldest = next(iter(self._data))
            if oldest == key:
                break
            del self._data[oldest]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class ItemTensor:
    """Immutable per-formulation (group, accelerator) item tensor.

    Accelerator ids index the formulation's frozen accelerator-id table
    (:attr:`Formulation.accel_names`, the sorted union of every group's
    supported accelerators), so ids, Eq. 9 audit order and the energy
    power gather all match the reference implementation observably.

    Unsupported (group, accel) cells and missing transition pairs hold
    NaN; gathers that touch one fall back to the reference lookup so
    the raised exception (type *and* message) is identical.
    """

    def __init__(self, formulation: "Formulation") -> None:
        f = formulation
        self.f = f
        self.names: tuple[str, ...] = f.accel_names
        self.index: dict[str, int] = f._accel_index
        A = len(self.names)
        self.t0: list[np.ndarray] = []
        self.bw: list[np.ndarray] = []
        self.sup: list[np.ndarray] = []
        self.trans_out: list[np.ndarray] = []
        self.trans_in: list[np.ndarray] = []
        for p in f.profiles:
            G = len(p)
            t0 = np.full((G, A), np.nan)
            bw = np.full((G, A), np.nan)
            sup = np.zeros((G, A), dtype=bool)
            for g, gp in enumerate(p.groups):
                for a, t in gp.time_s.items():
                    i = self.index[a]
                    t0[g, i] = t
                    sup[g, i] = True
                    b = gp.req_bw.get(a)
                    if b is not None:
                        bw[g, i] = b
            tout = np.full((max(G - 1, 0), A, A), np.nan)
            tin = np.full((max(G - 1, 0), A, A), np.nan)
            for g in range(G - 1):
                for (src, dst), (o, li) in p.groups[g].transition_s.items():
                    si, di = self.index.get(src), self.index.get(dst)
                    if si is not None and di is not None:
                        tout[g, si, di] = o
                        tin[g, si, di] = li
            self.t0.append(_frozen(t0))
            self.bw.append(_frozen(bw))
            self.sup.append(_frozen(sup))
            self.trans_out.append(_frozen(tout))
            self.trans_in.append(_frozen(tin))
        #: power per frozen accel id (energy objective, Eq. 10 family)
        self.power = _frozen(
            np.array([f.accel_power_w.get(a, 0.0) for a in self.names])
        )
        self._stream_cache = FIFOCache(4096)

    # ------------------------------------------------------------------
    def _raise_like_reference(
        self, n: int, assignment: Sequence[str]
    ) -> None:
        """Re-raise exactly what the reference item builder would."""
        from repro.core.formulation import ScheduleInfeasible

        profile = self.f.profiles[n]
        for g, accel in enumerate(assignment):
            gp = profile.groups[g]
            if accel not in gp.time_s:
                raise ScheduleInfeasible(
                    f"group {gp.label} of {profile.dnn_name} "
                    f"cannot run on {accel!r}"
                )
            if (
                g > 0
                and assignment[g - 1] != accel
                and self.f.include_transitions
            ):
                # KeyError when the (src, dst) transition is unprofiled
                profile.transition_split(g - 1, assignment[g - 1], accel)
            _ = gp.req_bw[accel]  # KeyError when req_bw misses the DSA
        raise AssertionError(
            f"tensor gather failed for stream {n} but the reference "
            f"scan accepts {tuple(assignment)!r}"
        )

    def stream_items(
        self, n: int, assignment: tuple[str, ...]
    ) -> tuple[np.ndarray, ...]:
        """Item arrays for stream ``n``: (t0, bw, accel_id, lead_out,
        lead_in, prev_accel_id), already tiled to ``repeats[n]``.

        Repeats are identical copies (inter-rep boundaries carry no
        flush: frames are independent inputs), so one rep is gathered
        and tiled.  Results are cached and frozen read-only.
        """
        f = self.f
        profile = f.profiles[n]
        G = len(profile)
        if len(assignment) != G:
            raise ValueError(
                f"stream {n}: assignment covers {len(assignment)} "
                f"groups, profile has {G}"
            )
        key = (n, assignment)
        cached = self._stream_cache.get(key)
        if cached is not None:
            return cached  # type: ignore[no-any-return]

        try:
            acc = np.array([self.index[a] for a in assignment], dtype=int)
        except KeyError:
            self._raise_like_reference(n, assignment)
        rows = np.arange(G)
        if not self.sup[n][rows, acc].all():
            self._raise_like_reference(n, assignment)
        t0 = self.t0[n][rows, acc]
        bw = self.bw[n][rows, acc]
        if np.isnan(bw).any():
            self._raise_like_reference(n, assignment)

        lead_out = np.zeros(G)
        lead_in = np.zeros(G)
        prev = np.full(G, -1, dtype=int)
        if G > 1 and f.include_transitions:
            moved = acc[1:] != acc[:-1]
            if moved.any():
                brows = np.arange(G - 1)
                o = self.trans_out[n][brows, acc[:-1], acc[1:]]
                li = self.trans_in[n][brows, acc[:-1], acc[1:]]
                if np.isnan(o[moved]).any() or np.isnan(li[moved]).any():
                    self._raise_like_reference(n, assignment)
                lead_out[1:] = np.where(moved, o, 0.0)
                lead_in[1:] = np.where(moved, li, 0.0)
                prev[1:] = np.where(moved, acc[:-1], -1)

        reps = f.repeats[n]
        out = tuple(
            _frozen(np.tile(a, reps) if reps != 1 else a)
            for a in (t0, bw, acc, lead_out, lead_in, prev)
        )
        self._stream_cache.put(key, out)
        return out


class EvalEngine:
    """Incremental evaluator behind :class:`Formulation`.

    ``formulation.evaluate`` delegates here; ``evaluate_scratch`` keeps
    the reference implementation alive as the differential baseline.
    Every default-path optimization is bit-identical by construction
    (see the module docstring for the argument per mechanism).
    """

    def __init__(
        self,
        formulation: "Formulation",
        *,
        counters: EvalCounters | None = None,
    ) -> None:
        self.f = formulation
        self.counters = counters if counters is not None else EvalCounters()
        self.tensor = ItemTensor(formulation)
        self.memo = FIFOCache(MEMO_CAPACITY)
        self._s_cache = FIFOCache(SLOWDOWN_CACHE_CAPACITY)
        #: (own_bw, ext_bw, n_clients) -> slowdown (see _slowdown_cells)
        self._trip_cache: dict[tuple[float, float, int], float] = {}
        # static workload geometry (independent of assignments)
        counts = [
            len(p) * r for p, r in zip(formulation.profiles, formulation.repeats)
        ]
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(int)
        self._counts = counts
        self._offsets = offsets
        self._n_items = int(offsets[-1])
        self._stream_vec = _frozen(
            np.repeat(np.arange(len(counts)), counts)
        )
        self._chains: list[list[int]] = [
            list(range(int(offsets[n]), int(offsets[n + 1])))
            for n in range(len(counts))
        ]
        self._groups_per = [len(p) for p in formulation.profiles]
        self._upstreams: dict[int, list[int]] = {}
        for up, down in formulation.pipeline:
            self._upstreams.setdefault(down, []).append(up)
        self._downstream: dict[int, list[int]] = {}
        for down, ups in self._upstreams.items():
            for up in ups:
                self._downstream.setdefault(up, []).append(down)
        self._lens = [len(c) for c in self._chains]
        self._down_lists = [
            tuple(self._downstream.get(n, ())) for n in range(len(counts))
        ]

    # -- public API ----------------------------------------------------
    def evaluate(
        self,
        assignments: Sequence[Sequence[str]],
        *,
        serialized: bool = False,
        check_exclusive: bool = True,
    ) -> "EvaluationResult":
        """Drop-in for the reference ``Formulation.evaluate``."""
        from repro.core.formulation import ScheduleInfeasible

        c = self.counters
        c.evals += 1
        key = tuple(tuple(a) for a in assignments)
        memo_key = (key, serialized, check_exclusive)
        hit = self.memo.get(memo_key)
        if hit is not None:
            c.memo_hits += 1
            if hit[0] == "bad":
                raise ScheduleInfeasible(hit[1])
            return self._result_from_memo(hit, key, serialized)
        c.memo_misses += 1
        try:
            computed = self._compute(key, serialized, check_exclusive)
        except ScheduleInfeasible as exc:
            self.memo.put(memo_key, ("bad", str(exc)))
            raise
        (per_dnn, objective, makespan, energy, iterations, arrays) = computed
        self.memo.put(
            memo_key,
            ("ok", per_dnn, objective, makespan, energy, iterations),
        )
        return self._result(
            per_dnn, objective, makespan, energy, iterations, arrays
        )

    def evaluate_many(
        self,
        batch: Sequence[Sequence[Sequence[str]]],
        *,
        serialized: bool = False,
        check_exclusive: bool = True,
    ) -> list["EvaluationResult | Exception"]:
        """Evaluate sibling assignments in one pass.

        Siblings share the engine's memo and its gather /
        slowdown-structure caches.  Infeasible entries come back as
        exception *instances* in place, so one bad sibling does not
        abort the batch; results are bit-identical to per-call
        :meth:`evaluate`.
        """
        from repro.core.formulation import ScheduleInfeasible

        self.counters.batch_evals += 1
        self.counters.batch_items += len(batch)
        out: list["EvaluationResult | Exception"] = []
        for assignments in batch:
            try:
                out.append(
                    self.evaluate(
                        assignments,
                        serialized=serialized,
                        check_exclusive=check_exclusive,
                    )
                )
            except ScheduleInfeasible as exc:
                out.append(exc)
        return out

    def evaluate_frontier(
        self,
        batch: Sequence[Sequence[Sequence[str]]],
        *,
        serialized: bool = False,
        check_exclusive: bool = True,
    ) -> list["EvaluationResult | Exception"]:
        """Evaluate a B&B frontier in lockstep NumPy batches.

        Results are bit-identical to per-member :meth:`evaluate`
        (infeasible members come back as exception instances in
        place, the :meth:`evaluate_many` convention); the batching is
        purely a throughput lever.  See :mod:`repro.core.frontier`.
        """
        from repro.core.frontier import evaluate_frontier

        return evaluate_frontier(
            self,
            batch,
            serialized=serialized,
            check_exclusive=check_exclusive,
        )

    def stats(self) -> dict[str, float]:
        out = self.counters.as_dict()
        out["memo_size"] = float(len(self.memo))
        out["slowdown_cache_size"] = float(len(self._s_cache))
        return out

    # -- result assembly ----------------------------------------------
    def _result(
        self,
        per_dnn: tuple[float, ...],
        objective: float,
        makespan: float,
        energy: float | None,
        iterations: int,
        arrays: tuple[np.ndarray, ...],
    ) -> "EvaluationResult":
        from repro.core.formulation import EvaluationResult

        f = self.f
        stream, accel_id, start, end, t0, slow, bw = arrays
        names = list(self.tensor.names)
        n_items = len(t0)

        def build() -> tuple["ItemTiming", ...]:
            return tuple(
                f._item(i, stream, accel_id, start, end, t0, slow, bw, names)
                for i in range(n_items)
            )

        return EvaluationResult(
            per_dnn_time=per_dnn,
            objective=objective,
            makespan=makespan,
            energy_j=energy,
            fixed_point_iterations=iterations,
            _item_builder=build,
        )

    def _result_from_memo(
        self, hit: MemoEntry, key: AssignKey, serialized: bool
    ) -> "EvaluationResult":
        from repro.core.formulation import EvaluationResult

        _tag, per_dnn, objective, makespan, energy, iterations = hit

        def build() -> tuple["ItemTiming", ...]:
            return self._materialize(key, serialized)

        return EvaluationResult(
            per_dnn_time=per_dnn,
            objective=objective,
            makespan=makespan,
            energy_j=energy,
            fixed_point_iterations=iterations,
            _item_builder=build,
        )

    def _materialize(
        self, key: AssignKey, serialized: bool
    ) -> tuple["ItemTiming", ...]:
        """Rebuild per-item timings for a memoized result (rare path).

        Pure recomputation: no memo, no counters -- materializing a
        display never perturbs the engine.
        """
        f = self.f
        (_pd, _obj, _mk, _en, _it, arrays) = self._compute(
            key, serialized, False, tally=False
        )
        stream, accel_id, start, end, t0, slow, bw = arrays
        names = list(self.tensor.names)
        return tuple(
            f._item(i, stream, accel_id, start, end, t0, slow, bw, names)
            for i in range(len(t0))
        )

    # -- core evaluation ----------------------------------------------
    def _gather(self, key: AssignKey) -> tuple[np.ndarray, ...]:
        """Concatenated item arrays for one assignment key."""
        if len(key) != len(self.f.profiles):
            raise ValueError(
                f"expected {len(self.f.profiles)} assignments, got {len(key)}"
            )
        per_stream = [
            self.tensor.stream_items(n, a) for n, a in enumerate(key)
        ]
        if not per_stream:
            z = np.zeros(0)
            zi = np.zeros(0, dtype=int)
            return z, z, zi, z, z, zi
        return tuple(
            np.concatenate([s[j] for s in per_stream]) for j in range(6)
        )

    def _compute(
        self,
        key: AssignKey,
        serialized: bool,
        check_exclusive: bool,
        *,
        tally: bool = True,
    ) -> tuple[
        tuple[float, ...],
        float,
        float,
        float | None,
        int,
        tuple[np.ndarray, ...],
    ]:
        """One full evaluation; mirrors the reference control flow."""
        f = self.f
        # a throwaway counter sinks the increments of untallied runs
        # (memo materialization) without branching every hot-path bump
        c = self.counters if tally else EvalCounters()
        c.computed_evals += 1
        t0, bw, accel_id, lead_out, lead_in, prev_id = self._gather(key)
        n_items = self._n_items
        contention_free = serialized or isinstance(
            f.contention_model, NoContentionModel
        )
        event_loop = not serialized and f.resource_constrained

        slow = np.ones(n_items)
        start = np.zeros(n_items)
        end = np.zeros(n_items)
        bw_bytes = bw.tobytes()
        # python-list views: scalar indexing in the event loop is far
        # cheaper than NumPy item access and bitwise-identical (both
        # are IEEE-754 doubles)
        t0_l = t0.tolist()
        lo_l = lead_out.tolist()
        li_l = lead_in.tolist()
        acc_l = accel_id.tolist()
        prev_l = prev_id.tolist()

        def timeline(slow_l: list[float]) -> None:
            if event_loop:
                self._timeline_rc(
                    t0_l, slow_l, acc_l, lo_l, li_l, prev_l, start, end
                )
            else:
                self._timeline_chain(
                    t0_l, slow_l, lo_l, li_l, serialized, start, end
                )
            c.timeline_passes += 1

        iterations = 0
        for iterations in range(1, f.max_iterations + 1):
            timeline(slow.tolist())
            if contention_free:
                break
            new_slow = self._slowdowns(bw, bw_bytes, start, end, slow, c)
            if np.max(np.abs(new_slow - slow)) < f.tolerance:
                slow = new_slow
                timeline(slow.tolist())
                break
            slow = new_slow
        c.fp_iterations += iterations

        if check_exclusive and not serialized and not f.resource_constrained:
            # the resource-constrained timeline cannot overlap a DSA
            # structurally; Eq. 9 only guards the naive chain timeline
            f._check_eq9(self._stream_vec, accel_id, start, end)

        offsets = self._offsets
        end_list = end.tolist()
        # python max over list slices: max() does no arithmetic, so
        # any reduction order gives the reference np.max bit-for-bit
        per_dnn = tuple(
            max(end_list[offsets[n] : offsets[n + 1]])
            if offsets[n + 1] > offsets[n]
            else float(end[offsets[n] : offsets[n + 1]].max())
            for n in range(len(f.profiles))
        )
        makespan = max(end_list) if n_items else 0.0
        energy = None
        if f.accel_power_w:
            energy = float(
                ((end - start) * self.tensor.power[accel_id]).sum()
            )
        objective = f._objective(per_dnn, serialized, energy)
        arrays = (self._stream_vec, accel_id, start, end, t0, slow, bw)
        return per_dnn, objective, makespan, energy, iterations, arrays

    # -- timelines -----------------------------------------------------
    def _timeline_chain(
        self,
        t0: list[float],
        slow: list[float],
        lead_out: list[float],
        lead_in: list[float],
        serialized: bool,
        start: np.ndarray,
        end: np.ndarray,
    ) -> None:
        """Serialized / naive chain timeline (Eq. 4), reference order."""
        t = 0.0
        for n in range(len(self._chains)):
            if not serialized:
                t = 0.0
            for i in self._chains[n]:
                t += lead_out[i] + lead_in[i]
                start[i] = t
                t += t0[i] * slow[i]
                end[i] = t

    def _timeline_rc(
        self,
        t0: list[float],
        slow: list[float],
        accel: list[int],
        lead_out: list[float],
        lead_in: list[float],
        prev_accel: list[int],
        start: np.ndarray,
        end: np.ndarray,
    ) -> None:
        """Resource-constrained FCFS event loop (Eqs. 4-6 plus Eq. 9).

        Semantics and arithmetic order match the reference loop
        exactly; the difference is purely mechanical: per-stream plans
        are cached and only re-derived when a commit touched one of
        their inputs (own stream, pipeline upstream, or the planned
        item's accelerator), and the winning plan is committed directly
        instead of being re-planned.
        """
        chains = self._chains
        n_streams = len(chains)
        groups_per = self._groups_per
        upstreams = self._upstreams
        down_lists = self._down_lists
        has_pipe = bool(upstreams)
        pointer = [0] * n_streams
        ready = [0.0] * n_streams
        avail = [0.0] * len(self.tensor.names)
        lens = self._lens
        remaining = self._n_items
        n_items = remaining
        # stage starts/ends in plain lists; one bulk copy into the
        # caller's arrays at the end (scalar ndarray writes are slow)
        start_l = [0.0] * n_items
        end_l = [0.0] * n_items

        # per-stream plan cache as parallel scalar lists (cheaper than
        # tuples): _valid gates recomputation, _none marks a stream
        # blocked on an unscheduled pipeline upstream
        p_valid = [False] * n_streams
        p_none = [False] * n_streams
        p_c = [0.0] * n_streams  # candidate start
        p_r = [0.0] * n_streams  # became-ready (FCFS tiebreak)
        p_i = [0] * n_streams  # planned item
        p_a = [0] * n_streams  # planned item's accelerator
        inf = float("inf")
        while remaining:
            best_n = -1
            best_c = inf
            best_r = inf
            for n in range(n_streams):
                pn = pointer[n]
                if pn >= lens[n]:
                    continue
                if not p_valid[n]:
                    # (re-)plan stream n's next item
                    i = chains[n][pn]
                    item_ready = ready[n]
                    if has_pipe and n in upstreams and pn % groups_per[n] == 0:
                        rep = pn // groups_per[n]
                        blocked = False
                        for up in upstreams[n]:
                            up_idx = (rep + 1) * groups_per[up] - 1
                            if up_idx >= lens[up]:
                                continue  # upstream runs fewer frames
                            if pointer[up] <= up_idx:
                                blocked = True
                                break
                            up_end = end_l[chains[up][up_idx]]
                            if up_end > item_ready:
                                item_ready = up_end
                        if blocked:
                            p_valid[n] = True
                            p_none[n] = True
                            continue
                    lo = lead_out[i]
                    li = lead_in[i]
                    a = avail[accel[i]]
                    if lo > 0 or li > 0:
                        # the flush starts right when the predecessor
                        # ends: it wins FCFS on the just-freed source
                        # DSA, so only the destination DSA's
                        # availability gates the load
                        flush_end = item_ready + lo
                        load_start = flush_end if flush_end > a else a
                        c = r = load_start + li
                    else:
                        c = item_ready if item_ready > a else a
                        r = item_ready
                    p_valid[n] = True
                    p_none[n] = False
                    p_c[n] = c
                    p_r[n] = r
                    p_i[n] = i
                    p_a[n] = accel[i]
                elif p_none[n]:
                    continue
                else:
                    c = p_c[n]
                    r = p_r[n]
                # ties on start go to the item that became ready first,
                # then the lower stream id -- the runtime's FCFS policy
                # (the ascending scan keeps the first, i.e. lowest, n)
                if c < best_c or (c == best_c and r < best_r):
                    best_n = n
                    best_c = c
                    best_r = r
            assert best_n >= 0, "pipeline deadlock in timeline"
            i = p_i[best_n]
            # commit: the flush occupies the source DSA for its span;
            # the item (including its load) then occupies its own DSA
            if lead_out[i] > 0 or lead_in[i] > 0:
                src = prev_accel[i]
                flush_end = ready[best_n] + lead_out[i]
                if flush_end > avail[src]:
                    avail[src] = flush_end
            else:
                src = -1
            e = best_c + t0[i] * slow[i]
            start_l[i] = best_c
            end_l[i] = e
            ready[best_n] = e
            own = accel[i]
            avail[own] = e
            pointer[best_n] += 1
            remaining -= 1
            # invalidate exactly the plans whose inputs this commit
            # could have touched
            p_valid[best_n] = False
            for d in down_lists[best_n]:
                p_valid[d] = False
            for n in range(n_streams):
                if p_valid[n] and not p_none[n]:
                    na = p_a[n]
                    if na == own or na == src:
                        p_valid[n] = False
        start[:] = start_l
        end[:] = end_l

    # -- slowdowns -----------------------------------------------------
    def _slowdowns(
        self,
        bw: np.ndarray,
        bw_bytes: bytes,
        start: np.ndarray,
        end: np.ndarray,
        previous: np.ndarray,
        c: EvalCounters,
    ) -> np.ndarray:
        """Contention-interval slowdowns (Eqs. 7-8), reference math.

        The contention-model query depends only on the boolean overlap
        structure and the bandwidth vector, so its result is cached
        under ``(active, bw)`` -- the structure stabilizes within a few
        fixed-point iterations while the continuous interval bounds
        keep drifting, and sibling evaluations often share structures.
        The cache stores the active cells ``s[active]`` only: every
        other cell of ``_s_matrix``'s result is 1.0.
        """
        # sorted-with-duplicates instead of the reference's np.unique:
        # duplicate bounds only add zero-length intervals, which the
        # dur filter below drops, so the kept (a, b) pairs -- and
        # everything derived from them -- are identical, at a fraction
        # of the cost (local buffer, in-place sort)
        n = len(start)
        bounds = np.empty(2 * n)
        bounds[:n] = start
        bounds[n:] = end
        bounds.sort()
        a, b = bounds[:-1], bounds[1:]
        dur = b - a
        keep = dur > 1e-15
        a, b, dur = a[keep], b[keep], dur[keep]
        # active[k, i]: item i runs during interval k
        active = (start[None, :] <= a[:, None] + 1e-15) & (
            end[None, :] >= b[:, None] - 1e-15
        )
        c.slowdown_queries += 1
        key = (active.shape[0], active.tobytes(), bw_bytes)
        vals = self._s_cache.get(key)
        if vals is None:
            s = self._s_matrix(active, bw)
            self._s_cache.put(key, _frozen(s[active]))
        else:
            c.slowdown_cache_hits += 1
            # compact entry: `_s_matrix` writes only active cells, so
            # the rebuilt matrix equals the computed one bit for bit
            s = np.ones(active.shape)
            s[active] = vals
        wd = active * dur[:, None]
        weighted = (wd * s).sum(axis=0)
        covered = wd.sum(axis=0)
        new = np.where(
            covered > 0, weighted / np.maximum(covered, 1e-30), 1.0
        )
        # light damping stabilizes the fixed point when slowdowns
        # shift the overlap structure between iterations
        return 0.25 * previous + 0.75 * new

    def _s_matrix(self, active: np.ndarray, bw: np.ndarray) -> np.ndarray:
        """Per-interval slowdown matrix for one overlap structure.

        The scalar path's ``_slowdowns`` computes its cache misses
        here; the frontier batcher computes its misses with
        :meth:`_s_matrix_many`, which runs this same algebra batched
        and returns bit-identical rows, so the two paths' cache
        entries are interchangeable.
        """
        total_bw = active @ bw
        n_clients = active.sum(axis=1)
        ext = np.where(active, total_bw[:, None] - bw[None, :], 0.0)
        own = np.broadcast_to(bw[None, :], active.shape)
        s = np.ones(active.shape)
        mask = active & (ext > 0)
        if mask.any():
            s[mask] = self._slowdown_cells(
                own[mask],
                ext[mask],
                np.broadcast_to(n_clients[:, None], active.shape)[mask],
            )
        return _frozen(s)

    def _s_matrix_many(
        self, acts: list[np.ndarray], bws: list[np.ndarray]
    ) -> list[np.ndarray]:
        """`_s_matrix` for several overlap structures in one shot.

        Structures are padded to a common interval count and run as
        one elementwise tensor program whose per-structure rows carry
        exactly the :meth:`_s_matrix` values: padding rows are
        all-inactive (no cells, slowdown stays 1.0) and every
        batched op is elementwise, except ``active @ bw``, which is
        kept as the reference per-structure matmul so the float
        reduction order cannot drift.  The contention-model cells are
        funneled through a single :meth:`_slowdown_cells` call --
        elementwise and per-triple memoized, so regrouping cells
        across structures cannot change any value.
        """
        if not acts:
            return []
        m = len(acts)
        n = len(bws[0])
        ks = [act.shape[0] for act in acts]
        kmax = max(ks)
        a3 = np.zeros((m, kmax, n), dtype=bool)
        tb = np.zeros((m, kmax))
        for i, (act, bw) in enumerate(zip(acts, bws)):
            a3[i, : ks[i]] = act
            tb[i, : ks[i]] = act @ bw
        bw2 = np.stack(bws)
        n_clients = a3.sum(axis=2)
        ext3 = np.where(a3, tb[:, :, None] - bw2[:, None, :], 0.0)
        own3 = np.broadcast_to(bw2[:, None, :], a3.shape)
        mask3 = a3 & (ext3 > 0)
        s3 = np.ones(a3.shape)
        own_c = own3[mask3]
        if len(own_c):
            ext_c = ext3[mask3]
            ncl_c = np.broadcast_to(n_clients[:, :, None], a3.shape)[mask3]
            # dedup triples vectorially before the per-cell memo: the
            # same (own, ext, n_clients) triple recurs across cells
            # and `_slowdown_cells` is elementwise, so evaluating one
            # representative per distinct triple and scattering back
            # returns the same cells in the same order
            trip = np.ascontiguousarray(
                np.stack([own_c, ext_c, ncl_c * 1.0], axis=1)
            )
            vt = trip.view(
                np.dtype((np.void, trip.dtype.itemsize * 3))
            ).ravel()
            _, first, inv = np.unique(
                vt, return_index=True, return_inverse=True
            )
            vals = self._slowdown_cells(
                own_c[first], ext_c[first], ncl_c[first]
            )
            s3[mask3] = vals[inv]
        return [
            _frozen(np.ascontiguousarray(s3[i, : ks[i]]))
            for i in range(m)
        ]

    def _slowdown_cells(
        self,
        own: np.ndarray,
        ext: np.ndarray,
        n_clients: np.ndarray,
    ) -> np.ndarray:
        """Contention-model lookups with a per-cell memo.

        Every ``slowdown_bulk`` implementation in this repo is
        elementwise: cell i's slowdown depends only on its own
        (own_bw, ext_bw, n_clients) triple, never on the other cells
        in the call.  The same triples recur across interval
        structures (the same pair of co-running groups contends
        identically no matter how the intervals around it shift), so
        only never-seen triples hit the model -- in one deduplicated
        vectorized call, which is bit-identical to the full call by
        elementwise-ness.
        """
        cache = self._trip_cache
        triples = list(
            zip(own.tolist(), ext.tolist(), n_clients.tolist())
        )
        need = [t for t in dict.fromkeys(triples) if t not in cache]
        if need:
            vals = self.f.contention_model.slowdown_bulk(
                np.array([t[0] for t in need]),
                np.array([t[1] for t in need]),
                np.array([t[2] for t in need]),
            )
            for t, v in zip(need, np.atleast_1d(vals).tolist()):
                cache[t] = v
            if len(cache) > 131072:  # runaway guard; never hit in practice
                cache.clear()
        return np.array([cache[t] for t in triples])
