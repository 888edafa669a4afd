"""Frontier-batched schedule evaluation (lockstep across B&B leaves).

Branch-and-bound hands the engine a *frontier*: once a finite limit
prunes, the next leaves it is about to read, up to ``LOOKAHEAD``
(256) in search order across subtree boundaries and within the node
budget's reach; the anytime solver's root sweep hands it one
variable's candidates the same way.  Each member still pays a full
contention fixed point (Eqs. 7-8) wrapped around the FCFS event-loop
timeline (Eqs. 4-6), and the scalar engine evaluates them one at a
time.  This module evaluates the whole frontier in **lockstep**: one
NumPy program whose arrays carry a leading member axis ``B``, so the
per-commit Python interpreter cost -- the dominant term in the scalar
event loop -- is paid once per batch instead of once per member.  The
setup only pays off on wide batches (see ``MIN_LOCKSTEP``), which is
why the solver widens them.

Why lockstep is possible: the event loop commits exactly one item per
iteration, every sibling schedules the same number of items (the
workload geometry is fixed by the formulation; only *which* DSA each
item runs on varies), and no sibling's decisions feed another's.  So
``n_items`` rounds of "plan every stream, pick the FCFS winner,
commit" advance every sibling by exactly one item per round, and each
round is a handful of ``(B, S)``-shaped tensor ops.

What batches and what stays scalar (the Eq. 7-8 split):

* **batched** -- the candidate-start planning algebra (Eq. 4-6 ready /
  availability maxima), the FCFS winner selection (lexicographic
  ``(c, r, n)`` minimum), the contention-interval construction (the
  Eq. 7 overlap structure: row-wise sorted bounds, durations, the
  ``active`` incidence tensor), and the Eq. 8 weighted-average
  slowdown projection with per-sibling damping and convergence masks.
  Each stream's timeline cursor is a flat index into padded item
  arrays, advanced through a next-item table.
* **reused per member** -- a member's overlap structure settles within
  a few fixed-point iterations while its bounds keep drifting, so each
  member keeps its last structure and dense slowdown rows for the
  next iteration.  Nothing is shared *across* members: siblings differ
  in one stream's assignment, so their bandwidth rows and structures
  differ (a whole solve-cold pass found no duplicate in 60,878 rows).
* **priced directly, per changed structure** -- Eq. 7's slowdown cells
  of every structure that changed this step go to the contention model
  in one ``slowdown_bulk`` call (``_slowdown_rows``), with no structure
  cache: on a solve-cold pass only 92 of 13,566 changed structures were
  in ``EvalEngine._s_cache`` already.  That cache and the per-cell memo
  serve the scalar path only.
* **scalar** -- per-DNN maxima, energy and the objective: the
  reference's exact expressions keep bit-identity trivial at a few
  microseconds per sibling.

Bit-identity argument (the contract every caller relies on):

* Planning arithmetic is the reference expression with ``+ 0.0`` /
  ``max(x, x)`` no-ops in the no-transition case; every quantity in
  the timeline is ``>= +0.0`` (times, leads, durations -- there is no
  subtraction), so adding ``+0.0`` and equal-value maxima preserve
  bit patterns exactly (IEEE-754: only ``-0.0`` could differ, and
  none can occur).
* The FCFS tie-break -- reference: ascending scan keeping the first
  strict improvement on ``(c, r)`` -- equals the lexicographic
  minimum with lowest stream id on ties, computed here as masked row
  minima plus ``argmax`` on the winner mask (first ``True`` wins).
* A carried slowdown row is the one ``_s_matrix`` would compute: the
  structure and the member's bandwidth row fix it.  Each interval's
  total demand is the reference's own 2-D ``act @ bw`` product
  whenever the batched one could differ from it (see
  ``_slowdown_rows``).
* Reductions that feed results are row-wise over the *last* axis or
  sequential over a middle axis with ``+0.0`` rows interleaved;
  ``tests/core/test_frontier.py`` certifies the end-to-end claim
  field-by-field against ``evaluate_scratch`` on 60+ seeds, and the
  fuzz oracle re-checks it per scenario.

Memory: the slowdown step holds ``(B, 2n - 1, n)`` tensors, so a
frontier wider than ``CELLS // ((2n - 1) * n)`` members runs as
several near-equal lockstep batches (``_chunks``).  Every row is
computed independently of the others, so the split changes no bit.

Fallbacks: serialized / non-resource-constrained formulations,
pipelines, empty workloads, and tiny frontiers fall back to the scalar
engine (``EvalEngine.evaluate`` per member), whose byte-identity is
already certified -- so ``evaluate_frontier`` is *always* exact, and
lockstep is purely a throughput decision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.contention.base import ContentionModel, NoContentionModel

if TYPE_CHECKING:  # deferred: evalcache imports create a cycle otherwise
    from repro.core.evalcache import EvalEngine
    from repro.core.formulation import EvaluationResult

#: below this many to-compute members the scalar engine beats the
#: lockstep setup cost.  Measured by replaying every engine call of
#: perfbench's solve-cold pass (seed 7) with each path forced, on 2
#: vCPUs: lockstep runs at 0.53x the scalar speed for 2-5
#: members, 0.96-1.00x at 6-7, 1.10-1.15x at 8-9, 1.25-1.37x at 10-11,
#: 1.4-1.5x at 12-15, 1.9x at 18-25 and 2.2x at 26-39
MIN_LOCKSTEP = 8

#: cell budget of one lockstep batch's (B, 2n - 1, n) slowdown
#: tensors: wider frontiers run as several batches (see `_chunks`)
CELLS = 2**17

#: below this batch width the per-iteration row-compression (dropping
#: converged members from timeline passes) costs more than it saves;
#: narrow batches just recompute frozen rows (idempotent: frozen
#: slowdowns reproduce the same start/end bits)
_COMPRESS_MIN = 64

_INF = float("inf")


def evaluate_frontier(
    engine: "EvalEngine",
    batch: Sequence[Sequence[Sequence[str]]],
    *,
    serialized: bool = False,
    check_exclusive: bool = True,
) -> list["EvaluationResult | Exception"]:
    """Evaluate a frontier; results match per-member ``evaluate`` bit
    for bit, with infeasible members returned as exception instances
    in place (the ``evaluate_many`` convention).

    *Every* per-member exception is captured in place, not just
    :class:`ScheduleInfeasible` -- a reference ``KeyError`` from an
    unprofiled transition must neither abort the rest of the batch
    nor leak out of the solver's prewarm hook (which would abort a
    search the scalar path would have continued).  Only
    ``ScheduleInfeasible`` is memoized as a "bad" entry, exactly like
    the scalar engine, so a later scalar call re-raises the same
    reference exception untouched."""
    from repro.core.formulation import ScheduleInfeasible

    c = engine.counters
    c.frontier_batches += 1
    c.frontier_members += len(batch)
    keys = [tuple(tuple(a) for a in m) for m in batch]
    out: list["EvaluationResult | Exception | None"] = [None] * len(batch)

    # memo pass + in-frontier dedup: `pending` maps each distinct
    # unmemoized memo-key to every slot waiting on it
    pending: dict[Any, list[int]] = {}
    for j, key in enumerate(keys):
        memo_key = (key, serialized, check_exclusive)
        slots = pending.get(memo_key)
        if slots is not None:  # duplicate of an in-flight member
            c.evals += 1
            c.memo_hits += 1
            slots.append(j)
            continue
        hit = engine.memo.get(memo_key)
        if hit is not None:
            c.evals += 1
            c.memo_hits += 1
            if hit[0] == "bad":
                out[j] = ScheduleInfeasible(hit[1])
            else:
                out[j] = engine._result_from_memo(hit, key, serialized)
            continue
        pending[memo_key] = [j]

    if pending:
        event_loop = not serialized and engine.f.resource_constrained
        lockstep_ok = (
            event_loop
            and not engine._upstreams
            and engine._n_items > 0
            and len(pending) >= MIN_LOCKSTEP
        )
        if lockstep_ok:
            c.frontier_lockstep += len(pending)
            keys_p = [mk[0] for mk in pending]
            computed = []
            for lo, hi in _chunks(len(keys_p), engine._n_items):
                computed += _lockstep(
                    engine, keys_p[lo:hi], serialized, check_exclusive
                )
        else:
            c.frontier_fallback += len(pending)
            computed = []
            for memo_key in pending:
                try:
                    computed.append(
                        engine.evaluate(
                            memo_key[0],
                            serialized=serialized,
                            check_exclusive=check_exclusive,
                        )
                    )
                except ValueError:
                    raise  # malformed member: a caller bug, not a result
                except Exception as exc:  # noqa: BLE001 -- in-place
                    computed.append(exc)
        for slots, result in zip(pending.values(), computed):
            for j in slots:
                out[j] = result
    return out  # type: ignore[return-value]


def _chunks(m: int, n: int) -> list[tuple[int, int]]:
    """Split ``m`` members into near-equal lockstep batches.

    The batched slowdown step holds ``(B, 2n - 1, n)`` tensors, so a
    batch takes at most ``CELLS // ((2n - 1) * n)`` members (never
    fewer than ``MIN_LOCKSTEP``).  Spreading ``m`` evenly over the
    fewest such batches keeps every batch at least half that wide
    instead of leaving a narrow tail.  Splitting is bit-safe: every
    row of a batch is computed independently of the others (see
    :meth:`_TimelineCtx.select`).
    """
    cap = max(MIN_LOCKSTEP, CELLS // ((2 * n - 1) * n))
    k = -(-m // cap)
    return [(i * m // k, (i + 1) * m // k) for i in range(k)]


def _lockstep(
    engine: "EvalEngine",
    keys: list[Any],
    serialized: bool,
    check_exclusive: bool,
) -> list["EvaluationResult | Exception"]:
    """Compute distinct unmemoized members in one lockstep batch."""
    from repro.core.formulation import ScheduleInfeasible

    c = engine.counters
    f = engine.f
    n = engine._n_items
    n_profiles = len(f.profiles)

    # -- gather: per-member item rows, reference exceptions in place
    results: list[Any] = [None] * len(keys)
    live: list[int] = []
    stream_rows: list[list[tuple[np.ndarray, ...]]] = []
    for j, key in enumerate(keys):
        c.evals += 1
        c.memo_misses += 1
        if len(key) != n_profiles:
            raise ValueError(
                f"expected {n_profiles} assignments, got {len(key)}"
            )
        try:
            rows = [
                engine.tensor.stream_items(s, a) for s, a in enumerate(key)
            ]
        except Exception as exc:  # noqa: BLE001 -- captured in place
            if isinstance(exc, ScheduleInfeasible):
                # only infeasibilities memoize; a reference KeyError
                # (unprofiled transition) must re-raise fresh later
                engine.memo.put(
                    (key, serialized, check_exclusive), ("bad", str(exc))
                )
            results[j] = exc
            continue
        live.append(j)
        stream_rows.append(rows)
    if not live:
        return results

    B = len(live)
    # (B, n) data matrices, filled stream-block by stream-block: the
    # members of a frontier share most stream rows (siblings differ in
    # one stream), so each block is one gather from the few unique
    # rows instead of B per-member concatenations
    offsets = engine._offsets
    dtypes = (float, float, int, float, float, int)
    mats = tuple(np.empty((B, n), dtype=t) for t in dtypes)
    t0_m, bw_m, acc_m, lo_m, li_m, prev_m = mats
    for s in range(n_profiles):
        uniq: dict[Any, int] = {}
        take: list[int] = []
        rows_u: list[tuple[np.ndarray, ...]] = []
        for pos, j in enumerate(live):
            a = keys[j][s]
            p = uniq.get(a)
            if p is None:
                p = len(uniq)
                uniq[a] = p
                rows_u.append(stream_rows[pos][s])
            take.append(p)
        sel = np.asarray(take)
        blk = slice(int(offsets[s]), int(offsets[s + 1]))
        for field, mat in enumerate(mats):
            mat[:, blk] = np.stack([r[field] for r in rows_u])[sel]
    # column n of every padded (B, n + 1) item array is the slot that
    # closed streams' cursors point at; its +inf leads push their
    # candidate starts to +inf so they lose the FCFS minimum without a
    # separate open-stream mask
    inf_col = np.full((B, 1), _INF)
    lo_p = np.concatenate([lo_m, inf_col], axis=1)
    li_p = np.concatenate([li_m, inf_col], axis=1)
    any_lead = bool((lo_m > 0).any() or (li_m > 0).any())

    ctx = _TimelineCtx(engine, lo_p, li_p, acc_m, t0_m, prev_m, any_lead)
    contention_free = serialized or isinstance(
        f.contention_model, NoContentionModel
    )
    slow = np.ones((B, n))
    iters = np.zeros(B, dtype=int)

    if contention_free:
        start, end = ctx.run(slow)
        c.timeline_passes += B
        iters[:] = 1
    else:
        structures = _Structures()
        #: slowdown vector frozen (tolerance met)
        conv = np.zeros(B, dtype=bool)
        #: frozen *and* the post-convergence extra pass has run --
        #: such members' start/end rows are final and drop out of
        #: subsequent timeline passes entirely
        done = np.zeros(B, dtype=bool)
        compress = B >= _COMPRESS_MIN
        start = np.empty((B, n))
        end = np.empty((B, n))
        for it in range(1, f.max_iterations + 1):
            alive = np.nonzero(~done)[0] if compress else ctx.rows
            if len(alive) == B:
                start, end = ctx.run(slow)
            else:
                start[alive], end[alive] = ctx.select(alive).run(slow[alive])
            c.timeline_passes += len(alive)
            # members already frozen just received their extra pass
            done[alive[conv[alive]]] = True
            if bool(done.all()):
                break
            u, new = _slowdowns_batch(
                engine, bw_m, start, end, slow, conv, structures, c
            )
            just = u[np.abs(new - slow[u]).max(axis=1) < f.tolerance]
            slow[u] = new
            iters[just] = it
            conv[just] = True
        else:
            # iteration budget exhausted: non-converged members keep
            # the arrays of the last in-loop pass (reference: the
            # timeline ran *before* the final slowdown update); those
            # frozen on the last iteration still get the extra pass
            iters[~conv] = f.max_iterations
            pend = np.nonzero(conv & ~done)[0]
            if len(pend):
                start[pend], end[pend] = ctx.select(pend).run(slow[pend])
                c.timeline_passes += len(pend)

    # -- per-member finalization: the reference's exact scalar
    # expressions on contiguous row views (no batched reductions feed
    # results directly, so no reduction-order risk here)
    power = engine.tensor.power
    for row, j in enumerate(live):
        c.computed_evals += 1
        iterations = int(iters[row])
        c.fp_iterations += iterations
        start_r = start[row]
        end_r = end[row]
        end_list = end_r.tolist()
        per_dnn = tuple(
            max(end_list[offsets[m] : offsets[m + 1]])
            if offsets[m + 1] > offsets[m]
            else float(end_r[offsets[m] : offsets[m + 1]].max())
            for m in range(n_profiles)
        )
        makespan = max(end_list) if n else 0.0
        energy = None
        if f.accel_power_w:
            acc_r = acc_m[row]
            energy = float(((end_r - start_r) * power[acc_r]).sum())
        objective = f._objective(per_dnn, serialized, energy)
        key = keys[j]
        engine.memo.put(
            (key, serialized, check_exclusive),
            ("ok", per_dnn, objective, makespan, energy, iterations),
        )
        arrays = (
            engine._stream_vec, acc_m[row], start_r, end_r,
            t0_m[row], slow[row], bw_m[row],
        )
        results[j] = engine._result(
            per_dnn, objective, makespan, energy, iterations, arrays
        )
    return results


class _TimelineCtx:
    """Per-frontier immutable inputs for the lockstep event loop.

    Item arrays are padded to ``(B, n + 1)`` and raveled: each
    stream's cursor is a flat index into them, advanced through the
    ``nxt`` table (a chain's last item maps to its row's pad slot,
    which maps to itself), so one ``take`` per array plans every
    stream of every member.  ``accf`` / ``srcf`` hold each item's flat
    index into the ``(B, A)`` DSA availability buffer.
    """

    __slots__ = (
        "engine", "B", "S", "n", "A", "lo_p", "li_p", "acc_m", "t0_m",
        "prev_m", "any_lead", "accf", "srcf", "nxt", "cur0", "rows",
    )

    def __init__(
        self,
        engine: "EvalEngine",
        lo_p: np.ndarray,
        li_p: np.ndarray,
        acc_m: np.ndarray,
        t0_m: np.ndarray,
        prev_m: np.ndarray,
        any_lead: bool,
    ) -> None:
        self.engine = engine
        B = self.B = len(t0_m)
        self.S = len(engine._chains)
        n = self.n = engine._n_items
        A = self.A = len(engine.tensor.names)
        self.lo_p, self.li_p, self.acc_m = lo_p, li_p, acc_m
        self.t0_m, self.prev_m, self.any_lead = t0_m, prev_m, any_lead
        rowp = (np.arange(B) * (n + 1))[:, None]
        rowa = (np.arange(B) * A)[:, None]
        # the pad slot's DSA 0 is never written: closed streams cannot
        # win, so it only feeds a harmless availability read
        pad = np.zeros((B, 1), dtype=int)
        self.accf = (np.concatenate([acc_m, pad], axis=1) + rowa).ravel()
        self.srcf = (np.concatenate([prev_m, pad], axis=1) + rowa).ravel()
        offsets, filled = engine._offsets, np.asarray(engine._lens) > 0
        nxt = np.arange(1, n + 2)
        nxt[offsets[1:][filled] - 1] = n  # chain ends -> pad slot
        nxt[n] = n
        self.nxt = (rowp + nxt).ravel()
        self.cur0 = rowp + np.where(filled, offsets[:-1], n)
        self.rows = np.arange(B)

    def select(self, rows_idx: np.ndarray) -> "_TimelineCtx":
        """Row-subset context (members still needing timeline passes).

        Pure row selection: every per-row computation in :meth:`run`
        is independent of the other rows, so a subset pass produces
        bit-identical rows to a full pass.
        """
        return _TimelineCtx(
            self.engine,
            self.lo_p[rows_idx],
            self.li_p[rows_idx],
            self.acc_m[rows_idx],
            self.t0_m[rows_idx],
            self.prev_m[rows_idx],
            self.any_lead,
        )

    def run(self, slow: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One FCFS event-loop pass for every sibling at once; returns
        the ``(B, n)`` start and end times.

        Each round plans every open stream's next item (Eq. 4-6
        candidate starts), picks the per-sibling FCFS winner
        (lexicographic minimum on candidate start, became-ready time,
        stream id -- the reference tie-break), and commits it.  All
        arithmetic matches the scalar loop expression for expression;
        see the module docstring for the ``+0.0`` bit-safety argument.
        """
        B, S, n, any_lead = self.B, self.S, self.n, self.any_lead
        lo_f, li_f = self.lo_p.ravel(), self.li_p.ravel()
        accf, srcf, nxt = self.accf, self.srcf, self.nxt
        # item durations t0 * slow, padded like the item arrays: the
        # same elementwise products the reference forms per commit
        dur = np.zeros((B, n + 1))
        np.multiply(self.t0_m, slow, out=dur[:, :n])
        dur_f = dur.ravel()
        # start/end staged in padded buffers, returned as (B, n) views
        start_p, end_p = np.empty((B, n + 1)), np.empty((B, n + 1))
        start_f, end_f = start_p.ravel(), end_p.ravel()
        rows_s = np.arange(B) * S  # flat (B, S) row bases
        cur = self.cur0.copy()
        ready = np.zeros((B, S))
        cur_f, ready_f = cur.ravel(), ready.ravel()
        avail_f = np.zeros(B * self.A)
        for _ in range(n):
            lo = lo_f.take(cur)
            li = li_f.take(cur)
            fe = ready + lo  # flush end (no-lead: + 0.0, bit-safe)
            ls = np.maximum(fe, avail_f.take(accf.take(cur)))
            cst = ls + li  # candidate start; closed streams get +inf
            if any_lead:
                hl = (lo + li) > 0.0  # exact: leads are >= 0
                r = np.where(hl, cst, ready)
            else:
                # closed streams keep a finite became-ready value, but
                # their +inf candidate start already excludes them
                # from the winner mask below
                r = ready
            best_c = cst.min(axis=1)
            rm = np.where(cst == best_c[:, None], r, _INF)
            best_r = rm.min(axis=1)
            # best_r is finite (some stream is open every round), so
            # equality with it implies the candidate-start tie too;
            # argmax picks the first True = lowest stream id
            w = rows_s + (rm == best_r[:, None]).argmax(axis=1)
            cw = cur_f.take(w)  # winner items, padded flat index
            if any_lead:
                # commit the flush: it occupies the source DSA
                srcw = srcf.take(cw)
                few = fe.ravel().take(w)
                sel = hl.ravel().take(w) & (few > avail_f.take(srcw))
                if bool(sel.any()):
                    avail_f[srcw[sel]] = few[sel]
            e = best_c + dur_f.take(cw)
            start_f[cw] = best_c
            end_f[cw] = e
            ready_f[w] = e
            avail_f[accf.take(cw)] = e
            cur_f[w] = nxt.take(cw)
        return start_p[:, :n], end_p[:, :n]


class _Structures:
    """Each unconverged member's overlap structure -- packed (active
    and kept, kept) interval bits -- and the dense ``(2n - 1, n)``
    slowdown rows it produced, carried from one fixed-point iteration
    to the next of one :func:`_lockstep` call."""

    __slots__ = ("rows", "bits", "s3")

    def __init__(self) -> None:
        self.rows = np.empty(0, dtype=int)  # the last step's members
        self.bits = np.empty((0, 0), dtype=np.uint8)
        self.s3 = np.empty((0, 0, 0))


def _slowdowns_batch(
    engine: "EvalEngine",
    bw_m: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    previous: np.ndarray,
    skip: np.ndarray,
    structures: _Structures,
    c: Any,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Eq. 7-8 step for the rows not in ``skip`` (their
    slowdowns are frozen by the caller); returns those rows and their
    damped slowdowns.

    The interval construction keeps *all* ``2n - 1`` sorted-bound
    intervals per row instead of filtering zero-length ones: dropped
    intervals contribute exactly ``+0.0`` to the weighted sums, and the
    middle-axis reduction accumulates rows sequentially in order, so
    the kept rows add up bit-identically to the reference's filtered
    sum (all summands are ``>= +0.0``; certified differentially).
    """
    n = start.shape[1]
    u = np.nonzero(~skip)[0]
    su, eu, U = start[u], end[u], len(u)
    c.slowdown_queries += U
    bounds = np.concatenate([su, eu], axis=1)
    bounds.sort(axis=1)
    a, b = bounds[:, :-1], bounds[:, 1:]
    dur = b - a
    keep = dur > 1e-15
    # kept-and-active cells: zero-length intervals carry no structure
    active3 = (su[:, None, :] <= a[:, :, None] + 1e-15) & (
        eu[:, None, :] >= b[:, :, None] - 1e-15
    )
    active3 &= keep[:, :, None]
    # the slowdown rows depend only on this structure and the member's
    # own bandwidth row: an unchanged structure reuses last step's rows
    bits = np.concatenate(
        [np.packbits(active3.reshape(U, -1), axis=1), np.packbits(keep, axis=1)],
        axis=1,
    )
    rows = structures.rows
    if len(rows) == 0:
        s3, changed = np.empty((U, 2 * n - 1, n)), np.arange(U)
    else:
        s3, old = structures.s3, structures.bits
        if len(rows) != U:
            # converged members left, nobody joins: keep the survivors
            pos = np.searchsorted(rows, u)
            s3, old = s3[pos], old[pos]
        changed = np.nonzero((bits != old).any(axis=1))[0]
    c.slowdown_cache_hits += U - len(changed)
    if len(changed):
        s3[changed] = _slowdown_rows(
            engine.f.contention_model,
            active3[changed],
            keep[changed],
            bw_m[u[changed]],
        )
    structures.rows, structures.bits, structures.s3 = u, bits, s3
    # `active3 * dur` == the reference's `np.where(keep, dur, 0.0)`
    # weights bitwise: durations are finite and >= +0.0, so * 1.0 is
    # the identity and * 0.0 is +0.0
    wd3 = active3 * dur[:, :, None]
    covered = wd3.sum(axis=1)
    wd3 *= s3
    weighted = wd3.sum(axis=1)
    new_u = np.where(covered > 0, weighted / np.maximum(covered, 1e-30), 1.0)
    return u, 0.25 * previous[u] + 0.75 * new_u


def _slowdown_rows(
    model: ContentionModel,
    act3: np.ndarray,
    keep: np.ndarray,
    bw2: np.ndarray,
) -> np.ndarray:
    """Dense ``(C, 2n - 1, n)`` slowdown rows of ``C`` overlap
    structures (``act3``: kept-and-active cells, ``keep``: kept
    intervals, ``bw2``: each structure's bandwidth row).

    Every contended cell is priced in one ``slowdown_bulk`` call: the
    model is elementwise in ``(own, ext, n_clients)``, so each cell
    gets the value the scalar path's ``EvalEngine._s_matrix`` gives it
    for the structure's kept rows ``act3[i][keep[i]]``.  Every other
    cell keeps 1.0, as there; a dropped (zero-length) interval row's
    weight is ``+0.0``, and ``+0.0 * 1.0 == +0.0 * s``.
    """
    n_clients = act3.sum(axis=2)
    total = np.matmul(act3, bw2[:, :, None])[:, :, 0]
    # a sum of at most two nonzero terms is exact in any order; with
    # three or more co-active items the padded batched matmul can
    # drift from the reference's 2-D `act @ bw` in the last bit, so
    # such a structure takes that very product
    for i in np.nonzero((n_clients > 2).any(axis=1))[0].tolist():
        kept = keep[i]
        total[i, kept] = act3[i][kept] @ bw2[i]
    # active cells in row-major order, the order `rows[act3]` fills
    c, k, j = np.nonzero(act3)
    own = bw2[c, j]
    ext = total[c, k] - own
    hot = ext > 0
    vals = np.ones(len(c))
    if hot.any():
        vals[hot] = model.slowdown_bulk(
            own[hot], ext[hot], n_clients[c[hot], k[hot]]
        )
    rows = np.ones(act3.shape)
    rows[act3] = vals
    return rows
