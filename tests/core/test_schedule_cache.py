"""Static schedule cache (paper Section 3.5's offline path)."""

import time

import pytest

from repro.core.haxconn import HaXCoNN
from repro.core.schedule import DNNSchedule, Schedule
from repro.core.schedule_cache import (
    ScheduleCache,
    schedule_to_payload,
    workload_signature,
)
from repro.core.workload import Workload, WorkloadDNN
from repro.runtime.executor import run_schedule


@pytest.fixture(scope="module")
def scheduler(xavier, xavier_db):
    return HaXCoNN(xavier, db=xavier_db, max_groups=6, max_transitions=1)


@pytest.fixture(scope="module")
def workload():
    return Workload.concurrent("googlenet", "resnet101", objective="latency")


class TestSignature:
    def test_stable(self, scheduler, workload):
        assert workload_signature(
            workload, scheduler
        ) == workload_signature(workload, scheduler)

    def test_bytes_pinned(self, scheduler, workload):
        """Solve-store records are keyed by these bytes: a moved
        signature would orphan every stored schedule."""
        assert workload_signature(workload, scheduler) == (
            "xavier|6|1|True|True|0.02|0.06|PCCSModel|latency|"
            "googlenetx1;resnet101x1|"
        )

    def test_distinguishes_objective(self, scheduler):
        a = Workload.concurrent("googlenet", "resnet101")
        b = Workload.concurrent(
            "googlenet", "resnet101", objective="throughput"
        )
        assert workload_signature(a, scheduler) != workload_signature(
            b, scheduler
        )

    def test_distinguishes_platform(self, scheduler, orin, orin_db, workload):
        other = HaXCoNN(orin, db=orin_db, max_groups=6, max_transitions=1)
        assert workload_signature(
            workload, scheduler
        ) != workload_signature(workload, other)


class TestCache:
    def test_first_get_solves(self, scheduler, workload):
        cache = ScheduleCache(scheduler)
        result = cache.get(workload)
        assert cache.misses == 1 and cache.hits == 0
        assert result.predicted.makespan > 0

    def test_second_get_toggles_instantly(self, scheduler, workload):
        cache = ScheduleCache(scheduler)
        first = cache.get(workload)
        t0 = time.perf_counter()
        second = cache.get(workload)
        toggle_time = time.perf_counter() - t0
        assert cache.hits == 1
        assert [s.assignment for s in second.schedule] == [
            s.assignment for s in first.schedule
        ]
        # the paper's point: no solver in the loop on a CFG switch
        assert toggle_time < 0.5

    def test_cached_result_is_executable(self, scheduler, workload, xavier):
        cache = ScheduleCache(scheduler)
        cache.get(workload)
        execution = run_schedule(cache.get(workload), xavier)
        assert execution.latency_ms > 0

    def test_precompute_and_contains(self, scheduler):
        cache = ScheduleCache(scheduler)
        workloads = [
            Workload.concurrent("googlenet", "resnet18"),
            Workload.concurrent("resnet18", "resnet50"),
        ]
        cache.precompute(workloads)
        assert len(cache) == 2
        assert all(w in cache for w in workloads)

    def test_signature_matches_free_function(self, scheduler, workload):
        cache = ScheduleCache(scheduler)
        assert cache.signature(workload) == workload_signature(
            workload, scheduler
        )

    def test_put_installs_external_schedule(self, scheduler, workload):
        """An externally-obtained schedule (e.g. a converged anytime
        incumbent) becomes a cache hit without any solver run."""
        cache = ScheduleCache(scheduler)
        donor = ScheduleCache(scheduler)
        solved = donor.get(workload)
        cache.put(workload, solved.schedule)
        assert workload in cache
        assert cache.misses == 0
        result = cache.get(workload)
        assert cache.hits == 1 and cache.misses == 0
        assert [s.assignment for s in result.schedule] == [
            s.assignment for s in solved.schedule
        ]

    def test_put_then_serve_policy_never_solves(self, scheduler, workload):
        """The serving policy's novel-mix path is skipped entirely for
        mixes whose schedule was installed up front."""
        from repro.serve.policy import CachedAnytimePolicy

        policy = CachedAnytimePolicy(scheduler)
        cache = policy.cache
        donor = ScheduleCache(scheduler)
        cache.put(workload, donor.get(workload).schedule)
        policy.result_for(workload, 0.0)
        policy.result_for(workload, 10.0)
        assert policy.solves == 0
        assert cache.hits == 2

    def test_novel_mix_misses_then_policy_fills(self, scheduler):
        """A mix the cache has never seen is a miss for the cache's own
        ``get`` but the anytime policy converges and fills it."""
        from repro.serve.policy import CachedAnytimePolicy

        policy = CachedAnytimePolicy(scheduler)
        cache = policy.cache
        novel = Workload.concurrent("googlenet", "resnet50")
        assert novel not in cache
        policy.result_for(novel, 0.0)
        policy.result_for(novel, 1e6)  # past every update point
        assert policy.solves == 1
        assert novel in cache

    def test_roundtrip(self, scheduler, workload, tmp_path, xavier):
        from repro.core.solve_store import SolveStore

        path = tmp_path / "solves.jsonl"
        cache = ScheduleCache(scheduler)
        cache.attach_store(SolveStore(path))
        original = cache.get(workload)  # solved, written through
        restored = ScheduleCache(scheduler)
        assert restored.attach_store(SolveStore(path, readonly=True)) == 1
        assert workload in restored
        result = restored.get(workload)
        assert restored.hits == 1
        assert [s.assignment for s in result.schedule] == [
            s.assignment for s in original.schedule
        ]
        measured = run_schedule(result, xavier)
        assert measured.latency_ms > 0


def uniform_schedule(scheduler, workload, accel):
    """Each stream's leading groups that run on ``accel`` go there, the
    rest on the GPU: a hand-built schedule (no solve) within the
    one-transition budget, so adopted copies pass the shape check."""
    formulation, _ = scheduler.build_formulation(workload)
    per_dnn = []
    for name, profile in zip(workload.names, formulation.profiles):
        assignment = []
        for group in profile.groups:
            on_accel = accel in group.time_s and (
                not assignment or assignment[-1] == accel
            )
            assignment.append(accel if on_accel else "gpu")
        per_dnn.append(DNNSchedule(dnn_name=name, assignment=tuple(assignment)))
    return Schedule(per_dnn=tuple(per_dnn), meta={"scheduler": "test"})


def assert_matches_fresh(scheduler, workload, result):
    """A served hit predicts exactly what a fresh materialization of
    its assignments predicts."""
    formulation, _ = scheduler.build_formulation(workload)
    fresh = scheduler.result_from_assignments(
        workload,
        formulation,
        [s.assignment for s in result.schedule],
        scheduler_name="cached",
        serialized=result.schedule.serialized,
    )
    assert result.predicted.objective == fresh.predicted.objective
    assert result.predicted.per_dnn_time == fresh.predicted.per_dnn_time
    assert result.predicted.items == fresh.predicted.items
    assert result.schedule == fresh.schedule


class TestHitReuse:
    """A hit is a toggle: materialized once, then served as is."""

    def test_repeated_hits_share_one_result(self, scheduler, workload):
        cache = ScheduleCache(scheduler)
        cache.put(workload, uniform_schedule(scheduler, workload, "gpu"))
        first = cache.get(workload)
        before = scheduler.eval_counters.evals
        again = [cache.get(workload) for _ in range(3)]
        assert all(hit is first for hit in again)
        assert scheduler.eval_counters.evals == before  # no re-evaluation
        assert_matches_fresh(scheduler, workload, first)

    @pytest.mark.parametrize("writer", ["put", "merge", "adopt_stored"])
    def test_replaced_entry_is_never_served_stale(
        self, scheduler, workload, writer
    ):
        gpu = uniform_schedule(scheduler, workload, "gpu")
        dla = uniform_schedule(scheduler, workload, "dla")
        sig = workload_signature(workload, scheduler)
        cache = ScheduleCache(scheduler)
        if writer != "put":
            # gossip and store seeding only install absent signatures
            getattr(cache, writer)([(sig, schedule_to_payload(dla))])
            assert [s.assignment for s in cache.get(workload).schedule] == [
                s.assignment for s in dla
            ]
        cache.put(workload, gpu)
        served = cache.get(workload)
        assert [s.assignment for s in served.schedule] == [
            s.assignment for s in gpu
        ]
        assert_matches_fresh(scheduler, workload, served)
        cache.put(workload, dla)
        served = cache.get(workload)
        assert [s.assignment for s in served.schedule] == [
            s.assignment for s in dla
        ]
        assert_matches_fresh(scheduler, workload, served)
        # a peer's entry for an installed signature changes nothing
        getattr(cache, "merge" if writer == "put" else writer)(
            [(sig, schedule_to_payload(gpu))]
        )
        assert cache.get(workload) is served

    def test_replacement_after_load_is_not_stale(
        self, scheduler, workload, tmp_path
    ):
        """An entry adopted from the solve store -- by ``attach_store``
        or, as fleet shards do, by ``adopt_stored`` -- yields to a later
        ``put`` once it has been served."""
        from repro.core.solve_store import SolveStore

        path = tmp_path / "solves.jsonl"
        gpu = uniform_schedule(scheduler, workload, "gpu")
        dla = uniform_schedule(scheduler, workload, "dla")
        donor = ScheduleCache(scheduler)
        donor.attach_store(SolveStore(path))
        donor.put(workload, gpu)
        store = SolveStore(path, readonly=True)
        attached = ScheduleCache(scheduler)
        attached.attach_store(store)
        adopted = ScheduleCache(scheduler)
        adopted.adopt_stored(sorted(store.schedules().items()))
        for restored in (attached, adopted):
            served = restored.get(workload)
            assert [s.assignment for s in served.schedule] == [
                s.assignment for s in gpu
            ]
            assert restored.store_hits == 1
            restored.put(workload, dla)
            served = restored.get(workload)
            assert [s.assignment for s in served.schedule] == [
                s.assignment for s in dla
            ]

    def test_same_signature_different_names(self, scheduler, workload):
        renamed = Workload(
            dnns=(
                workload.dnns[0],
                WorkloadDNN(models=workload.dnns[1].models, instance=2),
            ),
            objective=workload.objective,
        )
        assert renamed.names != workload.names
        assert workload_signature(renamed, scheduler) == workload_signature(
            workload, scheduler
        )
        cache = ScheduleCache(scheduler)
        cache.put(workload, uniform_schedule(scheduler, workload, "gpu"))
        for target in (workload, renamed, workload, renamed):
            hit = cache.get(target)
            assert tuple(s.dnn_name for s in hit.schedule) == target.names
            assert_matches_fresh(scheduler, target, hit)

    def test_counters_bump_on_every_hit(self, scheduler, workload):
        sig = workload_signature(workload, scheduler)
        payload = schedule_to_payload(
            uniform_schedule(scheduler, workload, "gpu")
        )
        cache = ScheduleCache(scheduler)
        cache.adopt_stored([(sig, payload)])
        for expected in range(1, 4):
            cache.get(workload)
            assert cache.hits == expected
            assert cache.store_hits == expected
        assert cache.misses == 0


class TestPersistence:
    """The static path: the JSONL solve store is the one on-disk
    schedule format."""

    def test_precompute_writes_through_then_serves_without_solving(
        self, scheduler, tmp_path, monkeypatch
    ):
        from repro.core.solve_store import SolveStore

        workloads = [
            Workload.concurrent("googlenet", "resnet101"),
            Workload.concurrent("alexnet", "resnet18"),
        ]
        path = tmp_path / "deployment.jsonl"
        offline = ScheduleCache(scheduler)
        offline.attach_store(SolveStore(path))
        offline.precompute(workloads)
        assert offline.misses == len(workloads)
        solved = {w.names: offline.get(w).schedule for w in workloads}

        def no_solve(workload, **kwargs):
            raise AssertionError(f"unexpected solve of {workload.names}")

        monkeypatch.setattr(scheduler, "schedule", no_solve)
        deployed = ScheduleCache(scheduler)
        store = SolveStore(path, readonly=True)
        assert deployed.attach_store(store) == len(workloads)
        for workload in workloads:
            served = deployed.get(workload)
            assert [s.assignment for s in served.schedule] == [
                s.assignment for s in solved[workload.names]
            ]
        assert deployed.misses == 0
        assert deployed.hits == deployed.store_hits == len(workloads)


class TestSolveStoreIntegration:
    def test_attach_store_adopts_and_counts_store_hits(
        self, scheduler, workload, tmp_path
    ):
        from repro.core.solve_store import SolveStore

        donor = ScheduleCache(scheduler)
        solved = donor.get(workload)
        store = SolveStore(tmp_path / "solves.jsonl")
        donor.attach_store(store)
        donor.put(workload, solved.schedule)  # write-through
        assert store.schedules()

        cache = ScheduleCache(scheduler)
        assert cache.attach_store(store) == 1
        assert workload in cache
        result = cache.get(workload)
        assert cache.hits == 1
        assert cache.store_hits == 1
        assert result.schedule.meta.get("scheduler") == "cached"

    def test_adopt_stored_marks_store_provenance(
        self, scheduler, workload
    ):
        donor = ScheduleCache(scheduler)
        solved = donor.get(workload)
        donor.put(workload, solved.schedule)
        delta = donor.export_delta()

        gossiped = ScheduleCache(scheduler)
        gossiped.merge(delta)
        gossiped.get(workload)
        assert gossiped.hits == 1 and gossiped.store_hits == 0

        seeded = ScheduleCache(scheduler)
        seeded.adopt_stored(delta)
        seeded.get(workload)
        assert seeded.hits == 1 and seeded.store_hits == 1

    def test_export_delta_drains_without_echo(
        self, scheduler, workload
    ):
        cache = ScheduleCache(scheduler)
        cache.get(workload)
        first = cache.export_delta()
        assert len(first) == 1
        assert cache.export_delta() == ()
        # merged entries are never re-exported (no gossip echo loops)
        peer = ScheduleCache(scheduler)
        peer.merge(first)
        assert peer.export_delta() == ()

    def test_hit_dispatches_as_cached_scheduler(
        self, scheduler, workload
    ):
        cache = ScheduleCache(scheduler)
        cache.get(workload)
        hit = cache.get(workload)
        assert hit.schedule.meta.get("scheduler") == "cached"


class TestWarmStarts:
    def test_empty_cache_yields_no_seeds(self, scheduler, workload):
        assert ScheduleCache(scheduler).warm_starts(workload) == []

    def test_fragments_compose_across_mixes(self, scheduler):
        """Streams seen under *other* mixes seed a novel combination."""
        cache = ScheduleCache(scheduler)
        cache.get(Workload.concurrent("googlenet", "resnet101"))
        cache.get(Workload.concurrent("resnet50", "resnet101"))
        novel = Workload.concurrent("googlenet", "resnet50")
        seeds = cache.warm_starts(novel)
        assert seeds, "both streams were cached under other mixes"
        label, per_stream = seeds[0]
        assert label == "cache-0"
        assert len(per_stream) == len(novel)
        profiles = [
            scheduler.db.profile(m, max_groups=scheduler.max_groups)
            for m in ("googlenet", "resnet50")
        ]
        for fragment, profile in zip(per_stream, profiles):
            assert len(fragment) == len(profile)

    def test_unseen_stream_blocks_composition(self, scheduler):
        cache = ScheduleCache(scheduler)
        cache.get(Workload.concurrent("googlenet", "resnet101"))
        novel = Workload.concurrent("googlenet", "vgg16")
        assert cache.warm_starts(novel) == []

    def test_seeds_accepted_by_portfolio_schedule(
        self, xavier, xavier_db
    ):
        """End to end: cached fragments feed the anytime solver's root."""
        scheduler = HaXCoNN(
            xavier,
            db=xavier_db,
            max_groups=4,
            max_transitions=1,
            solver="portfolio",
            solver_clock="nodes",
        )
        cache = ScheduleCache(scheduler)
        # both feeder mixes schedule concurrently on xavier, so each
        # stream leaves a non-serialized fragment behind
        cache.get(Workload.concurrent("googlenet", "resnet101"))
        cache.get(Workload.concurrent("googlenet", "resnet50"))
        novel = Workload.concurrent("resnet101", "resnet50")
        result = scheduler.schedule(
            novel, warm_starts=cache.warm_starts(novel)
        )
        warm = dict(result.solver.warm_starts)
        assert "cache-0" in warm
        # the composed fragments come from this scheduler's own domains,
        # so the seed must evaluate (not be dropped as invalid)
        assert warm["cache-0"] is not None
        assert result.solver.optimal


class TestWarmStartOrdering:
    """Candidate ordering is keyed by fragment sha, never an artifact
    of adoption order or store layout."""

    FEEDERS = (
        ("googlenet", "resnet101"),
        ("resnet50", "resnet101"),
        ("googlenet", "resnet50"),
    )

    def _filled(self, scheduler):
        cache = ScheduleCache(scheduler)
        for mix in self.FEEDERS:
            cache.get(Workload.concurrent(*mix))
        return cache

    def test_order_independent_of_adoption_order(self, scheduler):
        donor = self._filled(scheduler)
        delta = donor.export_delta()
        novel = Workload.concurrent("googlenet", "resnet50")
        forward = ScheduleCache(scheduler)
        forward.adopt_stored(delta)
        backward = ScheduleCache(scheduler)
        backward.adopt_stored(tuple(reversed(delta)))
        assert forward.warm_starts(novel) == backward.warm_starts(novel)

    def test_adopt_stored_provenance_stable_across_compaction(
        self, scheduler, tmp_path
    ):
        """Pinned: compacting the store must not change the seeds a
        fresh replica composes, nor the store-hit provenance."""
        import json

        from repro.core.solve_store import SolveStore

        store = SolveStore(tmp_path / "solves.jsonl")
        donor = self._filled(scheduler)
        donor.attach_store(store)
        for mix in self.FEEDERS:
            workload = Workload.concurrent(*mix)
            donor.put(workload, donor.get(workload).schedule)
        novel = Workload.concurrent("googlenet", "resnet50")

        before_cache = ScheduleCache(scheduler)
        adopted_before = before_cache.attach_store(store)
        before = json.dumps(before_cache.warm_starts(novel))

        result = store.compact()
        assert result["dropped"] >= 0  # compaction ran

        after_cache = ScheduleCache(scheduler)
        assert after_cache.attach_store(store) == adopted_before
        assert json.dumps(after_cache.warm_starts(novel)) == before
        # provenance survives: a hit on adopted entries is a store hit
        after_cache.get(novel)
        assert after_cache.store_hits == 1
