"""Schedule-selection policies for serving.

A :class:`ServingPolicy` answers the online question the server asks
every round: given the currently-active tenant mix and how long that
mix has been running, which schedule should the next round dispatch?
(Whether a request may join its tenant's queue at all is the
:class:`~repro.serve.slo.AdmissionController`'s decision, not the
policy's.)

:class:`CachedAnytimePolicy` is the D-HaX-CoNN-driven answer: known
mixes toggle instantly out of the static
:class:`~repro.core.schedule_cache.ScheduleCache` (paper Section 3.5's
offline path); novel mixes start on the best naive schedule
immediately and swap to better solver incumbents at the paper's update
points, with the converged schedule inserted into the cache so the mix
is never solved again.

Fidelity rule: policies compare candidates by *predicted* objective
only (decoupled profiles + contention model) -- they never peek at the
simulator.  Measured numbers come from the server executing rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.baselines import gpu_only, naive_concurrent
from repro.core.dynamic import DEFAULT_UPDATE_POINTS, DHaXCoNN, _AnytimePhase
from repro.core.haxconn import HaXCoNN, ScheduleResult
from repro.core.schedule_cache import ScheduleCache, workload_signature
from repro.core.workload import Workload
from repro.profiling.database import ProfileDB
from repro.soc.platform import Platform, get_platform


@dataclass(frozen=True)
class MixCandidate:
    """One backlogged tenant offered to :meth:`ServingPolicy.filter_mix`."""

    tenant: str
    models: tuple[str, ...]
    priority: int
    queue_depth: int


class ServingPolicy:
    """Base policy: delegate scheduling to a hook."""

    name = "policy"

    def filter_mix(
        self,
        candidates: Sequence[MixCandidate],
        *,
        round_index: int,
        now_s: float,
    ) -> frozenset[str] | None:
        """Runtime dispatch-rate throttle hook.

        Called once per round with every backlogged tenant; returning
        a set of tenant names defers the others to a later round,
        returning ``None`` (the default) keeps the full mix.  The
        decision may use only the arguments given -- virtual time and
        queue state -- so it stays deterministic and replayable.
        """
        return None

    # -- scheduling ----------------------------------------------------
    def result_for(
        self, workload: Workload, elapsed_s: float
    ) -> ScheduleResult:
        """Schedule for the active mix, ``elapsed_s`` into its phase."""
        raise NotImplementedError

    def stats(self) -> dict[str, object]:
        return {"policy": self.name}

    # -- cross-shard gossip (the fleet's epoch-sync protocol) ----------
    def export_delta(self, limit: int = 256) -> tuple[Any, ...]:
        """Drain locally-new solve artifacts for peer shards.

        Static policies share nothing; the cache-plus-anytime policy
        overrides this with schedule deltas.
        """
        return ()

    def merge(self, delta: Sequence[Any]) -> None:
        """Adopt peer artifacts (no-op for static policies)."""
        return None


class StaticPolicy(ServingPolicy):
    """One fixed scheduler, solved once per distinct mix (baselines)."""

    def __init__(
        self,
        name: str,
        solve: Callable[[Workload], ScheduleResult],
    ) -> None:
        self.name = name
        self._solve = solve
        self._results: dict[str, ScheduleResult] = {}
        self.solves = 0

    @staticmethod
    def _key(workload: Workload) -> str:
        return "|".join((workload.objective, *workload.names))

    def result_for(
        self, workload: Workload, elapsed_s: float
    ) -> ScheduleResult:
        key = self._key(workload)
        if key not in self._results:
            self.solves += 1
            self._results[key] = self._solve(workload)
        return self._results[key]

    def stats(self) -> dict[str, object]:
        return {**super().stats(), "solves": self.solves}


def gpu_only_policy(
    platform: Platform | str,
    *,
    db: ProfileDB | None = None,
    max_groups: int | None = 12,
) -> StaticPolicy:
    """Serialized GPU-only serving (the paper's strongest naive base)."""
    plat = get_platform(platform) if isinstance(platform, str) else platform
    return StaticPolicy(
        "gpu-only",
        lambda w: gpu_only(w, plat, db=db, max_groups=max_groups),
    )


def naive_policy(
    platform: Platform | str,
    *,
    db: ProfileDB | None = None,
    max_groups: int | None = 12,
) -> StaticPolicy:
    """Contention-oblivious fixed GPU & DSA mapping."""
    plat = get_platform(platform) if isinstance(platform, str) else platform
    return StaticPolicy(
        "naive",
        lambda w: naive_concurrent(w, plat, db=db, max_groups=max_groups),
    )


class DynamicThrottlePolicy(StaticPolicy):
    """MoCA-style runtime memory-contention throttling baseline.

    Where HaX-CoNN *plans ahead* (contention folded into the schedule
    before dispatch), MoCA reacts *at runtime*: it watches each
    client's memory aggressiveness and throttles the aggressive ones
    when contention would blow past a slowdown target.  This policy
    reproduces that control loop on the serving path: every tenant's
    aggressiveness is its time-weighted mean requested memory
    bandwidth on the GPU (from the profile database), the PCCS
    surface predicts the worst per-tenant slowdown of the proposed
    mix, and while that prediction exceeds :attr:`TARGET_SLOWDOWN` the
    most aggressive of the lowest-priority tenants is deferred to a
    later round.  A tenant deferred :attr:`COOLDOWN_ROUNDS` consecutive
    rounds becomes immune until it is dispatched again, so nothing
    starves.  Scheduling itself stays naive (fixed GPU & DSA mapping)
    -- the throttle, not the plan, is the contribution under test.

    Every input is deterministic (profiles, PCCS fit, queue state,
    round index), so decisions are replayable -- no wall clock, no
    measured samples.
    """

    #: worst predicted per-tenant slowdown a dispatched mix may reach
    TARGET_SLOWDOWN = 1.25
    #: consecutive deferrals after which a tenant is immune
    COOLDOWN_ROUNDS = 3

    def __init__(
        self,
        platform: Platform | str,
        *,
        db: ProfileDB | None = None,
        max_groups: int | None = 12,
    ) -> None:
        plat = (
            get_platform(platform) if isinstance(platform, str) else platform
        )
        self._db = db if db is not None else ProfileDB(plat)
        super().__init__(
            "moca-throttle",
            lambda w: naive_concurrent(
                w, plat, db=self._db, max_groups=max_groups
            ),
        )
        self._platform = plat
        self._max_groups = max_groups
        #: tenant -> consecutive rounds it has been deferred
        self._deferred_rounds: dict[str, int] = {}
        self._bw_cache: dict[tuple[str, ...], float] = {}
        self.throttled = 0
        self.throttle_rounds = 0

    def _aggressiveness(self, models: tuple[str, ...]) -> float:
        """Time-weighted mean requested DRAM bandwidth (B/s) of the
        tenant's model chain on the GPU (the MoCA monitor's proxy);
        groups the GPU cannot run fall back to their hungriest
        supported accelerator."""
        cached = self._bw_cache.get(models)
        if cached is not None:
            return cached
        gpu = self._platform.gpu.name
        weighted = 0.0
        seconds = 0.0
        for model in models:
            profile = self._db.profile(model, max_groups=self._max_groups)
            for grp in profile:
                accel = (
                    gpu
                    if gpu in grp.time_s
                    else max(
                        grp.time_s, key=lambda a: grp.req_bw.get(a, 0.0)
                    )
                )
                weighted += grp.req_bw[accel] * grp.time_s[accel]
                seconds += grp.time_s[accel]
        bw = weighted / seconds if seconds > 0 else 0.0
        self._bw_cache[models] = bw
        return bw

    def filter_mix(
        self,
        candidates: Sequence[MixCandidate],
        *,
        round_index: int,
        now_s: float,
    ) -> frozenset[str] | None:
        if len(candidates) < 2:
            for c in candidates:
                self._deferred_rounds[c.tenant] = 0
            return None
        kept = list(candidates)
        bw = {c.tenant: self._aggressiveness(c.models) for c in kept}
        pccs = self._db.pccs
        deferred = 0
        while len(kept) > 1:
            worst = max(
                pccs.slowdown(
                    bw[c.tenant],
                    [bw[o.tenant] for o in kept if o is not c],
                )
                for c in kept
            )
            if worst <= self.TARGET_SLOWDOWN:
                break
            # cooled-down tenants are immune until dispatched again
            victims = [
                c
                for c in kept
                if self._deferred_rounds.get(c.tenant, 0)
                < self.COOLDOWN_ROUNDS
            ]
            if not victims:
                break
            victim = min(
                victims,
                key=lambda c: (c.priority, -bw[c.tenant], c.tenant),
            )
            kept.remove(victim)
            deferred += 1
        if not deferred:
            for c in candidates:
                self._deferred_rounds[c.tenant] = 0
            return None
        self.throttled += deferred
        self.throttle_rounds += 1
        names = frozenset(c.tenant for c in kept)
        for c in candidates:
            if c.tenant in names:
                self._deferred_rounds[c.tenant] = 0
            else:
                self._deferred_rounds[c.tenant] = (
                    self._deferred_rounds.get(c.tenant, 0) + 1
                )
        return names

    def stats(self) -> dict[str, object]:
        return {
            **super().stats(),
            "throttled": self.throttled,
            "throttle_rounds": self.throttle_rounds,
        }


class CachedAnytimePolicy(ServingPolicy):
    """Schedule-cache lookups plus D-HaX-CoNN anytime solving.

    * mix in cache -> toggle instantly, zero solver work;
    * novel mix -> best naive schedule for the first round, better
      incumbents adopted at ``update_points`` of phase time, converged
      schedule inserted into the cache.  The swap plan is
      :meth:`repro.core.dynamic.DHaXCoNN.plan`, the same planner the
      offline Fig. 7 driver measures.
    """

    name = "haxconn-serve"

    def __init__(
        self,
        scheduler: HaXCoNN,
        *,
        cache: ScheduleCache | None = None,
        update_points: Sequence[float] = DEFAULT_UPDATE_POINTS,
    ) -> None:
        if cache is not None and cache.scheduler is not scheduler:
            raise ValueError("cache must wrap the same scheduler")
        self._planner = DHaXCoNN(scheduler, update_points=update_points)
        self.scheduler = scheduler
        self.cache = cache if cache is not None else ScheduleCache(scheduler)
        self._phases: dict[str, _AnytimePhase] = {}
        self.solves = 0
        self.swaps = 0
        self.verify_failures = 0

    # ------------------------------------------------------------------
    def _solve_anytime(self, workload: Workload) -> _AnytimePhase:
        """Plan the swaps for a novel mix (one solver run).

        Schedules already published for *other* mixes seed the solver
        through :meth:`ScheduleCache.warm_starts` -- with the
        anytime solver, a good seed pulls the first strong incumbent
        to the earliest update points.

        The phase's final schedule is already certified (the solver
        ran to completion; phase time only gates *serving* it, per
        D-HaX-CoNN's solver-co-runs-with-inference model), so it is
        published to the cache -- and through it to fleet gossip, which
        the fleet also appends to the solve store -- immediately.
        Locally the in-flight phase takes precedence over the cache
        entry (see :meth:`result_for`), so serving fidelity is
        unchanged; peers and future processes toggle without
        re-solving.
        """
        phase = self._planner.plan(
            workload, warm_starts=self.cache.warm_starts(workload)
        )
        final = phase.candidates[-1][1]
        if self._admit(workload, final):
            self.cache.put(workload, final.schedule)
        return phase

    # ------------------------------------------------------------------
    def result_for(
        self, workload: Workload, elapsed_s: float
    ) -> ScheduleResult:
        key = workload_signature(workload, self.scheduler)
        phase = self._phases.get(key)
        if phase is None:
            # one signature per round: the cache answers by key
            cached = self.cache._hit(key, workload)
            if cached is not None:
                return cached
            self.solves += 1
            phase = self._solve_anytime(workload)
            self._phases[key] = phase
        # an in-flight phase outranks the cache entry its own solve
        # published: the mix swaps through incumbents as D-HaX-CoNN
        # prescribes, and only *future* occurrences toggle instantly
        result, converged, swaps = phase.active(elapsed_s)
        self.swaps += swaps
        if converged:
            del self._phases[key]
        return result

    def _admit(self, workload: Workload, result: ScheduleResult) -> bool:
        """Cache-admission audit: a schedule is published to the
        shared cache only if the independent certificate checker
        re-derives it clean.  A bad schedule is still *served* (it is
        the best this phase produced) but never cached, so one cost-
        model bug cannot poison every future occurrence of the mix."""
        from repro.analysis.verify import verify_cache_entry

        certificate = verify_cache_entry(
            self.scheduler, workload, result.schedule
        )
        if not certificate.ok:
            self.verify_failures += 1
            return False
        return True

    # -- cross-shard gossip --------------------------------------------
    def export_delta(self, limit: int = 256) -> tuple[Any, ...]:
        """Schedules published since the last export, tagged.

        Items are ``("sched", sig, payload)`` plain tuples, mergeable
        by :meth:`merge` on any peer.
        """
        return tuple(
            ("sched", sig, payload)
            for sig, payload in self.cache.export_delta(limit)
        )

    def merge(self, delta: Sequence[Any]) -> None:
        """Adopt peer schedules and store-seeded ones into the cache."""
        for item in delta:
            kind = item[0]
            if kind == "sched":
                self.cache.merge([(item[1], item[2])])
            elif kind == "sched-store":
                # schedules seeded from the persistent solve store:
                # adopted like peer gossip, but lookups they answer
                # additionally count as store hits
                self.cache.adopt_stored([(item[1], item[2])])

    def stats(self) -> dict[str, object]:
        return {
            **super().stats(),
            "solves": self.solves,
            "swaps": self.swaps,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "store_hits": self.cache.store_hits,
            "verify_failures": self.verify_failures,
        }

    def eval_stats(self) -> dict[str, float]:
        """Evaluation-engine telemetry accumulated by the scheduler.

        Deliberately *not* part of :meth:`stats`: the hit/miss split
        and fixed-point iteration counts depend on how warm the
        evaluation memo happens to be (results never do), so folding
        them into ``stats()`` would break the byte-identical
        same-seed guarantee the serving reports are tested against.
        Summaries that want the telemetry (``haxconn serve``, the
        serving experiment) pull it from here explicitly.
        """
        return self.scheduler.eval_counters.as_dict()
