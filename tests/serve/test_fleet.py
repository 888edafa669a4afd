"""The sharded serving fleet: routing, gossip, store, determinism."""

import json

import pytest

from repro.core.haxconn import HaXCoNN
from repro.core.solve_store import SolveStore
from repro.serve import CachedAnytimePolicy, Tenant
from repro.serve import fleet as fleet_module
from repro.serve.fleet import (
    Fleet,
    ShardRouter,
    stable_shard,
)
from repro.serve.requests import (
    PeriodicArrivals,
    TraceArrivals,
    generate_requests,
)
from tests.serve.helpers import drain

HORIZON = 0.2


#: one ``memo`` record as older fleets wrote it (evaluation-memo
#: entries for a mix this file never serves); current fleets write
#: schedules only but must keep loading such stores
LEGACY_MEMO_LINE = (
    '{"v": 1, "kind": "memo", "sig": "xavier|4|1|True|True|0.05|0|'
    'PCCSModel|latency|vgg19x1;resnet152x1|", "id": "sha256:4eaa6e3cc30c'
    '2397e4fa1b376419c1ac7c2834f6ae44503453b605b3d0e9e521", "entries": '
    '[[[[["gpu", "dla"], ["dla", "gpu"]], false, true], ["ok", [0.0121, '
    '0.0098], 0.0121, 0.0121, null, 7]]]}'
)


def fleet_tenants(count=4):
    models = ("googlenet", "resnet18", "mobilenet_v1", "alexnet")
    return [
        Tenant.of(
            f"cam{k}",
            models[k % len(models)],
            arrivals=PeriodicArrivals(40.0),
            slo_s=0.1,
        )
        for k in range(count)
    ]


def gossip_tenants():
    """Shard 1 ("det") solves googlenet first; shard 0 ("seg") meets
    the same mix epochs later and adopts it through gossip."""
    return [
        Tenant.of(
            "det",
            "googlenet",
            arrivals=PeriodicArrivals(40.0),
            slo_s=0.1,
        ),
        Tenant.of(
            "d",
            "alexnet",
            arrivals=PeriodicArrivals(40.0),
            slo_s=0.1,
        ),
        Tenant.of(
            "seg",
            "googlenet",
            arrivals=TraceArrivals((0.16,)),
            slo_s=0.1,
        ),
    ]


def make_factory(
    xavier, xavier_db, policy_cls=CachedAnytimePolicy, **overrides
):
    """Cheap deterministic per-shard policy (nodes-clock anytime solver)."""
    kwargs = dict(
        max_groups=4,
        max_transitions=1,
        solver="portfolio",
        solver_clock="nodes",
        node_budget=300,
    )
    kwargs.update(overrides)

    def factory(shard_id):
        return policy_cls(
            HaXCoNN(xavier, db=xavier_db, **kwargs),
            update_points=(0.002, 0.01, 0.05),
        )

    return factory


def run_fleet(xavier, xavier_db, *, shards, **kwargs):
    fleet = Fleet(
        xavier,
        fleet_tenants(),
        make_factory(xavier, xavier_db),
        shards=shards,
        sync_rounds=4,
        **kwargs,
    )
    return fleet.run(horizon_s=HORIZON)


class TestStableShard:
    def test_deterministic_and_in_range(self):
        for name in ("cam0", "det", "a-very-long-tenant-name"):
            first = stable_shard(name, 4)
            assert first == stable_shard(name, 4)
            assert 0 <= first < 4

    def test_known_value(self):
        # pinned: crc32 is stable across processes and platforms,
        # unlike the salted builtin hash
        import zlib

        assert stable_shard("cam0", 8) == zlib.crc32(b"cam0") % 8

    def test_rejects_no_shards(self):
        with pytest.raises(ValueError):
            stable_shard("x", 0)


class TestShardRouter:
    def test_hash_mode_matches_stable_shard(self):
        router = ShardRouter(3)
        tenants = fleet_tenants(6)
        buckets = router.assign(tenants)
        for shard, bucket in enumerate(buckets):
            for tenant in bucket:
                assert stable_shard(tenant.name, 3) == shard

    def test_balanced_mode_spreads_load(self):
        router = ShardRouter(4, mode="balanced")
        buckets = router.assign(fleet_tenants(4), horizon_s=HORIZON)
        # equal-weight tenants land one per shard
        assert [len(b) for b in buckets] == [1, 1, 1, 1]

    def test_balanced_weights_by_request_count(self):
        heavy = Tenant.of(
            "heavy",
            "alexnet",
            arrivals=PeriodicArrivals(200.0),
            slo_s=0.1,
        )
        light = [
            Tenant.of(
                f"light{k}",
                "alexnet",
                arrivals=PeriodicArrivals(20.0),
                slo_s=0.1,
            )
            for k in range(4)
        ]
        buckets = ShardRouter(2, mode="balanced").assign(
            [heavy] + light, horizon_s=0.5
        )
        loads = [
            sum(
                len(generate_requests([t], horizon_s=0.5))
                for t in bucket
            )
            for bucket in buckets
        ]
        # the rebalancer puts the heavy tenant alone-ish: no shard
        # carries more than the heavy stream plus one light one
        assert max(loads) - min(loads) <= max(
            len(generate_requests([t], horizon_s=0.5))
            for t in [heavy] + light
        )

    def test_balanced_needs_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            ShardRouter(2, mode="balanced").assign(fleet_tenants(2))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown router mode"):
            ShardRouter(2, mode="roundrobin")


class TestFleetValidation:
    def test_rejects_bad_backend(self, xavier, xavier_db):
        with pytest.raises(ValueError, match="backend"):
            Fleet(
                xavier,
                fleet_tenants(2),
                make_factory(xavier, xavier_db),
                shards=2,
                backend="mpi",
            )

    def test_rejects_duplicate_tenants(self, xavier, xavier_db):
        tenants = fleet_tenants(2) + fleet_tenants(1)
        with pytest.raises(ValueError, match="duplicate"):
            Fleet(
                xavier,
                tenants,
                make_factory(xavier, xavier_db),
                shards=2,
            )

    def test_rejects_no_shards(self, xavier, xavier_db):
        with pytest.raises(ValueError):
            Fleet(
                xavier,
                fleet_tenants(2),
                make_factory(xavier, xavier_db),
                shards=0,
            )


class TestSerialFleet:
    @pytest.fixture(scope="class")
    def report(self, xavier, xavier_db):
        return run_fleet(xavier, xavier_db, shards=2)

    def test_every_request_accounted(self, report):
        expected = len(
            generate_requests(fleet_tenants(), horizon_s=HORIZON)
        )
        assert report.served + report.shed == expected

    def test_routing_respected(self, report):
        for outcome in report.outcomes:
            for name in outcome.tenants:
                assert stable_shard(name, 2) == outcome.index

    def test_aggregates_match_shards(self, report, tmp_path):
        assert report.shards == 2
        assert report.served == sum(
            o.served for o in report.outcomes
        )
        assert report.rounds == sum(
            len(o.report.rounds) for o in report.outcomes
        )
        assert len(report.latencies_s()) == report.served
        assert report.describe()  # formats without raising
        trace = tmp_path / "fleet.json"
        report.export_chrome_trace(trace)
        assert trace.exists()

    def test_single_shard_equals_plain_server(
        self, xavier, xavier_db
    ):
        """A single replica is a one-shard fleet: its shard report is
        byte-identical to one server session run to completion, although
        the fleet serves it in epochs and merges its own gossip back."""
        fleet = run_fleet(xavier, xavier_db, shards=1)
        assert fleet.shards == 1
        assert fleet.served + fleet.shed == len(
            generate_requests(fleet_tenants(), horizon_s=HORIZON)
        )
        assert fleet.epochs > 1
        plain = drain(
            xavier,
            fleet_tenants(),
            make_factory(xavier, xavier_db)(0),
            horizon_s=HORIZON,
        )
        assert fleet.describe_shards() == (plain.describe(),)


class TestCrossBackendDeterminism:
    """Fixed seed => per-shard reports byte-identical run to run."""

    @pytest.fixture(scope="class")
    def serial_shards(self, xavier, xavier_db):
        return run_fleet(xavier, xavier_db, shards=3).describe_shards()

    def test_serial_is_repeatable(
        self, xavier, xavier_db, serial_shards
    ):
        again = run_fleet(xavier, xavier_db, shards=3)
        assert again.describe_shards() == serial_shards


class TestGossip:
    def test_cross_shard_schedule_adoption(self, xavier, xavier_db):
        """A mix one shard already solved is adopted by a peer through
        epoch gossip instead of re-solved.

        Shard 1 ("det") solves the googlenet mix in its first round
        and publishes it; shard 0 ("seg") first sees googlenet at
        t=0.16s -- several epochs later ("d" keeps its rounds turning
        meanwhile, 0.16 stays off d's 25 ms arrival grid so the mix
        stays single-stream) -- and toggles to the gossiped schedule,
        so the fleet pays two solves (googlenet + alexnet), not
        three."""
        # shard placement of 2 is pinned by crc32
        assert stable_shard("det", 2) == 1
        assert stable_shard("d", 2) == 0
        assert stable_shard("seg", 2) == 0
        fleet = Fleet(
            xavier,
            gossip_tenants(),
            make_factory(xavier, xavier_db),
            shards=2,
            sync_rounds=2,
        )
        report = fleet.run(horizon_s=HORIZON)
        assert report.solves == 2

    def test_retired_max_lag_keeps_adoption(self, xavier, xavier_db):
        """``max_lag`` selects nothing: a window of 4 epochs gives the
        default run's reports, and shard 0 still adopts the peer's
        googlenet schedule instead of re-solving it."""

        def run(**options):
            return Fleet(
                xavier,
                gossip_tenants(),
                make_factory(xavier, xavier_db),
                shards=2,
                sync_rounds=2,
                **options,
            ).run(horizon_s=HORIZON)

        default = run()
        lagged = run(max_lag=4)
        assert lagged.describe_shards() == default.describe_shards()
        assert lagged.solves == 2


class TestLockstep:
    """Every pass runs one epoch on each alive shard; a shard that
    finishes drops out, and its last delta still reaches its peers."""

    #: sha256 of "\n".join(describe_shards()) for the run below, as
    #: produced by the fleet before the lockstep loop replaced the
    #: epoch gate (``18e35ed9...``), with the retired ``rejected=0, ``
    #: policy stat deleted from each shard's policy line
    EARLY_FINISH_DIGEST = (
        "606fc0d605e2a125ab96c025f303898b2340c95489c771cf25288d23b621f8b3"
    )

    def test_shard_finishing_early_drops_out(self, xavier, xavier_db):
        import hashlib

        # like gossip_tenants, but "det" (shard 1) serves a single
        # request and finishes in epoch 0; "seg" (shard 0) meets
        # googlenet at t=0.16 s and adopts det's last delta
        tenants = [
            Tenant.of(
                "det",
                "googlenet",
                arrivals=TraceArrivals((0.0,)),
                slo_s=0.1,
            ),
            *gossip_tenants()[1:],
        ]
        report = Fleet(
            xavier,
            tenants,
            make_factory(xavier, xavier_db),
            shards=2,
            sync_rounds=2,
        ).run(horizon_s=HORIZON)
        assert [o.epochs for o in report.outcomes] == [5, 1]
        assert report.solves == 2
        blob = "\n".join(report.describe_shards()).encode()
        assert (
            hashlib.sha256(blob).hexdigest() == self.EARLY_FINISH_DIGEST
        )

    def test_shard_walls_count_only_their_own_rounds(
        self, xavier, xavier_db
    ):
        """Wall telemetry: each shard's wall covers only its own
        ``run_rounds`` calls, so the shards' walls fit inside the
        fleet's and each first-HaX wall inside its shard's."""
        report = run_fleet(xavier, xavier_db, shards=2, router="balanced")
        assert all(o.tenants and o.wall_s > 0 for o in report.outcomes)
        assert sum(o.wall_s for o in report.outcomes) <= report.wall_s
        for o in report.outcomes:
            if o.first_hax_wall_s is not None:
                assert o.first_hax_wall_s <= o.wall_s


class TestSolveStore:
    def test_cold_run_persists_then_warm_run_skips_solving(
        self, xavier, xavier_db, tmp_path
    ):
        store = SolveStore(tmp_path / "solves.jsonl")
        cold = run_fleet(xavier, xavier_db, shards=2, store=store)
        assert cold.solves > 0
        assert len(store.schedules()) >= cold.solves

        warm_store = SolveStore(store.path)
        warm = run_fleet(
            xavier,
            xavier_db,
            shards=2,
            store=warm_store,
        )
        assert warm.solves == 0
        assert warm.store_hits > 0
        assert warm.served == cold.served

    def test_fleet_persists_schedules_only(
        self, xavier, xavier_db, tmp_path
    ):
        store = SolveStore(tmp_path / "solves.jsonl")
        cold = run_fleet(xavier, xavier_db, shards=2, store=store)
        assert cold.solves > 0
        assert SolveStore(store.path).stats()["memo_entries"] == 0
        kinds = {
            json.loads(line)["kind"]
            for line in store.path.read_text().splitlines()
        }
        assert kinds == {"schedule"}

    def test_legacy_memo_records_still_load(
        self, xavier, xavier_db, tmp_path
    ):
        """A store written by an older fleet holds ``memo`` lines next
        to its schedules; it loads and warms a fleet exactly like the
        schedule-only store."""
        store = SolveStore(tmp_path / "solves.jsonl")
        run_fleet(xavier, xavier_db, shards=2, store=store)
        lines = store.path.read_text().splitlines()
        legacy_path = tmp_path / "legacy.jsonl"
        legacy_path.write_text(
            "\n".join([lines[0], LEGACY_MEMO_LINE, *lines[1:]]) + "\n"
        )
        legacy = SolveStore(legacy_path, readonly=True)
        assert legacy.skipped_lines == 0
        assert legacy.stats()["memo_entries"] == 1
        assert legacy.schedules() == store.schedules()

        plain = run_fleet(
            xavier,
            xavier_db,
            shards=2,
            store=SolveStore(store.path, readonly=True),
        )
        warm = run_fleet(xavier, xavier_db, shards=2, store=legacy)
        assert warm.solves == 0 and plain.solves == 0
        assert warm.describe_shards() == plain.describe_shards()

    def test_edited_record_is_skipped_and_resolved(
        self, xavier, xavier_db, tmp_path
    ):
        """A schedule record edited after it was written (stream 0's
        first group moved from dla to gpu: still a feasible schedule)
        no longer matches its content id.  The loader skips and counts
        it, and the fleet re-solves the mix exactly as it does over
        the same store with that record deleted."""

        def run(store):
            tenants = fleet_tenants()
            tenants = tenants[1:] + tenants[:1]  # resnet18 leads
            return Fleet(
                xavier,
                tenants,
                make_factory(xavier, xavier_db, max_transitions=2),
                shards=2,
                sync_rounds=4,
                store=store,
            ).run(horizon_s=HORIZON)

        store = SolveStore(tmp_path / "solves.jsonl")
        assert run(store).solves == 1
        [line] = store.path.read_text().splitlines()
        record = json.loads(line)
        assignment = record["schedule"]["streams"][0]["assignment"]
        assert assignment[0] == "dla"
        assignment[0] = "gpu"
        flipped = tmp_path / "flipped.jsonl"
        flipped.write_text(json.dumps(record) + "\n")
        deleted = tmp_path / "deleted.jsonl"
        deleted.write_text("")

        edited = SolveStore(flipped, readonly=True)
        assert edited.skipped_lines == 1
        assert edited.schedules() == {}
        warm = run(edited)
        clean = run(SolveStore(deleted, readonly=True))
        assert warm.solves == clean.solves == 1
        assert warm.describe_shards() == clean.describe_shards()

    def test_one_shard_fleet_equals_write_through_server(
        self, xavier, xavier_db, tmp_path
    ):
        """The fleet is the only serving path to the store.  Cold and
        warm, a one-shard fleet leaves the same shard report and the
        same store bytes as a bare serving session whose cache writes
        through to the store."""
        factory = make_factory(xavier, xavier_db)

        def via_fleet(path):
            report = Fleet(
                xavier,
                fleet_tenants(),
                factory,
                shards=1,
                sync_rounds=4,
                store=SolveStore(path),
            ).run(horizon_s=HORIZON)
            return report.describe_shards()

        def via_server(path):
            policy = factory(0)
            policy.cache.attach_store(SolveStore(path))
            report = drain(
                xavier, fleet_tenants(), policy, horizon_s=HORIZON
            )
            return (report.describe(),)

        fleet_path = tmp_path / "fleet.jsonl"
        server_path = tmp_path / "server.jsonl"
        for run in ("cold", "warm"):
            shards = via_fleet(fleet_path)
            assert shards == via_server(server_path), run
            assert fleet_path.read_bytes() == server_path.read_bytes(), run
        assert "solves=0," in shards[0]
        assert "store_hits=0," not in shards[0]

    def test_rehashed_infeasible_record_is_rejected_and_resolved(
        self, tmp_path
    ):
        """A stored schedule whose ``id`` was recomputed after an edit
        passes the store's content check, but its shape cannot run:
        the ``resnet18x1;vgg19x1`` record of a cold ``serve-shift`` seed
        7 store, with stream 0 moved wholly onto the DLA.  The shard
        that meets the mix drops it at first use, counts one verify
        failure and solves the mix once; every request ends as it does
        over the same store with that record deleted."""
        from perfbench.workloads import serve_population

        from repro.core.solve_store import _record_id
        from repro.experiments.serving import make_fleet_policy_factory

        population = serve_population(7)

        def serve(path, *, readonly):
            return Fleet(
                "xavier",
                population.tenants,
                make_fleet_policy_factory("xavier"),
                shards=2,
                router="balanced",
                sync_rounds=4,
                admission=population.admission,
                store=SolveStore(path, readonly=readonly),
            ).run(horizon_s=population.horizon_s)

        serve(tmp_path / "cold.jsonl", readonly=False)
        kept, edited = [], []
        for line in (tmp_path / "cold.jsonl").read_text().splitlines():
            record = json.loads(line)
            if "|resnet18x1;vgg19x1|" not in record["sig"]:
                kept.append(line)
                continue
            stream = record["schedule"]["streams"][0]
            assert stream["dnn"] == "resnet18"
            stream["assignment"] = ["dla"] * len(stream["assignment"])
            record["id"] = _record_id(
                "schedule", record["sig"], record["schedule"]
            )
            edited.append(json.dumps(record))
        assert len(edited) == 1
        (tmp_path / "tampered.jsonl").write_text("\n".join(kept + edited))
        (tmp_path / "deleted.jsonl").write_text("\n".join(kept))

        tampered = serve(tmp_path / "tampered.jsonl", readonly=True)
        deleted = serve(tmp_path / "deleted.jsonl", readonly=True)

        def outcomes(report):
            return [
                (r.tenant, r.seq, r.rejected, r.finish_s)
                for o in report.outcomes
                for r in o.report.requests
            ]

        failures = sum(
            o.report.policy_stats["verify_failures"]
            for o in tampered.outcomes
        )
        assert failures == 1
        assert tampered.solves == deleted.solves == 1
        assert outcomes(tampered) == outcomes(deleted)

    def test_finishing_shard_drains_gossip_past_the_limit(
        self, xavier, xavier_db, tmp_path, monkeypatch
    ):
        """A shard that finishes exports everything it published, not
        just ``GOSSIP_LIMIT`` items: with a limit of 1 and one epoch
        covering the whole run, every solved mix still reaches the
        store."""
        monkeypatch.setattr(fleet_module, "GOSSIP_LIMIT", 1)
        store = SolveStore(tmp_path / "solves.jsonl")
        policies = []

        def factory(shard_id):
            policy = make_factory(xavier, xavier_db)(shard_id)
            policies.append(policy)
            return policy

        report = Fleet(
            xavier,
            gossip_tenants(),
            factory,
            shards=1,
            sync_rounds=100_000,
            store=store,
        ).run(horizon_s=HORIZON)
        assert report.epochs == 1
        [policy] = policies
        published = set(policy.cache)
        assert report.solves >= 2 and len(published) == report.solves
        assert set(SolveStore(store.path).schedules()) == published

    def test_store_seeding_is_deterministic(
        self, xavier, xavier_db, tmp_path
    ):
        store = SolveStore(tmp_path / "solves.jsonl")
        run_fleet(xavier, xavier_db, shards=2, store=store)
        warm = SolveStore(store.path, readonly=True)
        a = run_fleet(xavier, xavier_db, shards=2, store=warm)
        b = run_fleet(xavier, xavier_db, shards=2, store=warm)
        assert a.describe_shards() == b.describe_shards()

    def test_warm_rerun_pays_only_for_simulation(
        self, xavier, xavier_db, tmp_path, monkeypatch
    ):
        """Count-based guard (no timing): once a process has served
        a warm store, another serial run recomputes no standalone
        group cost and materializes each mix at most once per shard."""
        import repro.perf.model as perf_model

        store = SolveStore(tmp_path / "solves.jsonl")
        run_fleet(xavier, xavier_db, shards=2, store=store)
        warm = SolveStore(store.path, readonly=True)
        run_fleet(xavier, xavier_db, shards=2, store=warm)

        policies = []

        class RecordingPolicy(CachedAnytimePolicy):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.mixes = set()
                policies.append(self)

            def result_for(self, workload, elapsed_s):
                self.mixes.add(workload)
                return super().result_for(workload, elapsed_s)

        unit_costs = []
        real_unit_cost = perf_model.unit_cost

        def counting_unit_cost(*args, **kwargs):
            unit_costs.append(args[0])
            return real_unit_cost(*args, **kwargs)

        monkeypatch.setattr(perf_model, "unit_cost", counting_unit_cost)
        report = Fleet(
            xavier,
            fleet_tenants(),
            make_factory(xavier, xavier_db, policy_cls=RecordingPolicy),
            shards=2,
            sync_rounds=4,
            store=warm,
        ).run(horizon_s=HORIZON)

        assert report.solves == 0 and report.store_hits > 0
        assert unit_costs == []
        assert policies  # one per shard that serves tenants
        rounds = 0
        for policy in policies:
            counters = policy.scheduler.eval_counters
            assert counters.computed_evals <= len(policy.mixes)
            rounds += policy.cache.hits
        assert rounds > sum(len(p.mixes) for p in policies)

    def test_repeated_rounds_share_one_timeline(
        self, xavier, xavier_db, tmp_path
    ):
        """On a warm store every round of a mix dispatches the same
        materialized result, so rounds with equal (mix, batch) carry
        one simulated timeline."""
        store = SolveStore(tmp_path / "solves.jsonl")
        run_fleet(xavier, xavier_db, shards=2, store=store)
        warm = SolveStore(store.path, readonly=True)
        report = run_fleet(xavier, xavier_db, shards=2, store=warm)
        repeated = 0
        for outcome in report.outcomes:
            timelines: dict[tuple, set[int]] = {}
            for r in outcome.report.rounds:
                key = (r.tenants, r.batch, r.scheduler)
                timelines.setdefault(key, set()).add(id(r.timeline))
            assert all(len(ids) == 1 for ids in timelines.values())
            repeated += len(outcome.report.rounds) - len(timelines)
        assert repeated > 0


class TestBalancedAdmitted:
    """The balanced router weighs tenants by their *admitted* backlog:
    a rate-capped heavy tenant must not monopolize a shard on the
    strength of arrivals the admission tier would shed anyway."""

    def _tenants(self):
        heavy = Tenant.of(
            "heavy",
            "alexnet",
            arrivals=PeriodicArrivals(400.0),
            slo_s=0.1,
        )
        light = [
            Tenant.of(
                f"light{k}",
                "alexnet",
                arrivals=PeriodicArrivals(30.0),
                slo_s=0.1,
            )
            for k in range(4)
        ]
        return [heavy] + light

    def test_admitted_weight_changes_placement(self):
        from repro.serve.slo import AdmissionConfig, TierConfig

        tenants = self._tenants()
        router = ShardRouter(2, mode="balanced")
        raw = router.assign(tenants, horizon_s=0.5)
        # uncapped, 200 raw heavy arrivals outweigh 4x15 light ones:
        # the heavy tenant sits alone
        assert [sorted(t.name for t in b) for b in raw] == [
            ["heavy"],
            ["light0", "light1", "light2", "light3"],
        ]
        # capped at 20 Hz the heavy tenant's *admitted* backlog is the
        # lightest load, so the rebalancer mixes it with light tenants
        capped = AdmissionConfig(
            tiers=(TierConfig(priority=1, rate_hz=20.0, burst=1),)
        )
        admitted = router.assign(
            tenants, horizon_s=0.5, admission=capped
        )
        assert [sorted(t.name for t in b) for b in admitted] == [
            ["heavy", "light2"],
            ["light0", "light1", "light3"],
        ]

    def test_routing_sequence_is_deterministic(self):
        from repro.serve.slo import AdmissionConfig, TierConfig

        capped = AdmissionConfig(
            tiers=(TierConfig(priority=1, rate_hz=20.0, burst=1),)
        )
        router = ShardRouter(3, mode="balanced")
        first = router.assign(
            self._tenants(), horizon_s=0.5, admission=capped
        )
        again = router.assign(
            self._tenants(), horizon_s=0.5, admission=capped
        )
        assert [[t.name for t in b] for b in first] == [
            [t.name for t in b] for b in again
        ]


class TestBoundedLag:
    """The retired ``max_lag`` keyword: the lockstep fleet must stay
    byte-identical to the pre-change fleet, every window ``>= 0``
    selects nothing, and a negative one is still rejected."""

    #: sha256 of "\n".join(describe_shards()) for the 2-shard serial
    #: lockstep run below, produced by the epoch-barrier fleet as of
    #: the commit introducing max_lag (``24d285cb...``, verified equal
    #: before/after), with the retired ``rejected=0, `` policy stat
    #: deleted from each shard's policy line
    PRE_CHANGE_DIGEST = (
        "1e4907858910352405d26ebef18f15905084df4db11becc2518791aa39e5a1fd"
    )

    def _run(self, xavier, xavier_db, *, max_lag, **kwargs):
        fleet = Fleet(
            xavier,
            fleet_tenants(),
            make_factory(xavier, xavier_db),
            shards=2,
            sync_rounds=4,
            max_lag=max_lag,
            **kwargs,
        )
        return fleet.run(horizon_s=HORIZON)

    def test_lockstep_matches_pre_change_fleet(
        self, xavier, xavier_db
    ):
        import hashlib

        report = self._run(xavier, xavier_db, max_lag=0)
        blob = "\n".join(report.describe_shards()).encode()
        assert (
            hashlib.sha256(blob).hexdigest() == self.PRE_CHANGE_DIGEST
        )

    def test_max_lag_sweep_serial(self, xavier, xavier_db):
        baseline = self._run(xavier, xavier_db, max_lag=0)
        for lag in (1, 2, 4, 16):
            swept = self._run(xavier, xavier_db, max_lag=lag)
            assert (
                swept.describe_shards() == baseline.describe_shards()
            ), lag
            assert swept.epochs == baseline.epochs > 0
            assert "max_lag" not in swept.describe()

    def test_pipelined_telemetry(self, xavier, xavier_db):
        """Epoch and round-wall telemetry survive a non-zero window;
        the summary reports the fleet line and no pipeline line."""
        report = self._run(xavier, xavier_db, max_lag=2)
        assert report.epochs > 0
        assert report.mean_round_wall_ms() > 0
        described = report.describe()
        assert "fleet: 2 shards" in described
        assert "pipeline:" not in described

    def test_rejects_negative_lag(self, xavier, xavier_db):
        with pytest.raises(ValueError, match="max_lag"):
            Fleet(
                xavier,
                fleet_tenants(),
                make_factory(xavier, xavier_db),
                shards=2,
                max_lag=-1,
            )


class TestTransport:
    """``transport`` is retired: it accepts ``auto`` and ``shm`` and
    selects nothing."""

    def test_queue_transport_rejected(self, xavier, xavier_db):
        with pytest.raises(ValueError, match="auto.*shm"):
            Fleet(
                xavier,
                fleet_tenants(),
                make_factory(xavier, xavier_db),
                shards=2,
                transport="queue",
            )

    def test_shm_transport_selects_nothing(self, xavier, xavier_db):
        auto, shm = (
            run_fleet(xavier, xavier_db, shards=2, transport=t)
            for t in ("auto", "shm")
        )
        assert shm.describe_shards() == auto.describe_shards()


class TestRetiredBackend:
    """``backend`` is retired: ``auto``, ``fork`` and ``serial`` are
    accepted and select nothing.  The call shapes of the benchmark
    harness (``perfbench/serve.py``) start no process and give the
    same shard reports as ``serial``."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "fork", "transport": "shm", "max_lag": 2},
            {"backend": "auto"},
        ],
        ids=["fork-shm-lag2", "auto"],
    )
    def test_starts_no_process(self, xavier, xavier_db, monkeypatch, kwargs):
        from multiprocessing.process import BaseProcess

        factory = make_factory(
            xavier, xavier_db, solver_workers=2, solver_backend="serial"
        )

        def run(**options):
            return Fleet(
                xavier,
                fleet_tenants(),
                factory,
                shards=2,
                router="balanced",
                sync_rounds=4,
                **options,
            ).run(horizon_s=HORIZON)

        serial = run(max_lag=kwargs.get("max_lag", 0), backend="serial")

        def refuse(process):
            raise AssertionError(f"the fleet started {process!r}")

        monkeypatch.setattr(BaseProcess, "start", refuse)
        assert run(**kwargs).describe_shards() == serial.describe_shards()


class TestEdges:
    def test_more_shards_than_tenants(self, xavier, xavier_db):
        report = run_fleet(xavier, xavier_db, shards=6)
        assert report.shards == 6
        empty = [o for o in report.outcomes if not o.tenants]
        assert empty  # 4 tenants cannot fill 6 shards
        for outcome in empty:
            assert outcome.served == 0
            assert outcome.report.policy_stats == {"policy": "idle"}

    def test_failing_policy_surfaces_shard_error(
        self, xavier, xavier_db
    ):
        def factory(shard_id):
            if shard_id == 0:
                raise RuntimeError("boom in shard 0")
            return make_factory(xavier, xavier_db)(shard_id)

        fleet = Fleet(
            xavier,
            fleet_tenants(),
            factory,
            shards=2,
        )
        with pytest.raises(RuntimeError, match="fleet shard 0"):
            fleet.run(horizon_s=HORIZON)
