"""Sharded-fleet benchmark: throughput scaling, solve-store reuse,
cross-backend determinism, bounded-lag pipelining.

Tier-1 gates for the fleet acceptance criteria:

1. **throughput** -- at 4 fork shards the fleet's served-request
   wall-clock throughput is >= 3x the single-shard fleet's on the same
   tenant population.  On a small host this is an *algorithmic* win,
   not a parallelism win: one shard must co-schedule the joint
   four-stream mix (expensive solves), four shards solve four cheap
   single-stream mixes.
2. **solve store** -- a second fleet warm-started from the first run's
   persistent solve store reaches its first HaX-CoNN-family dispatch
   >= 2x sooner and performs zero solver runs (every mix toggles out
   of the store).
3. **determinism** -- at a fixed seed the per-shard ``FleetReport``\\ s
   are byte-identical across the serial and fork backends.
4. **pipelining** -- a 16-shard fork fleet under diurnal traffic with
   staggered expensive solve epochs (`serving.pipeline_tenants`):
   bounded lag (``max_lag=8``) must cut the barrier-stall share of
   per-round wall time by >= 1.5x vs the lockstep barrier
   (``max_lag=0``).  The raw per-round wall ratio is additionally
   gated on hosts with >= 8 usable cores; on smaller hosts the
   kernel serializes all shard compute so total wall provably ties,
   and only the stall component can honestly separate the protocols
   (it is also the component the tentpole targets: fast shards keep
   serving instead of parking at the barrier).  Byte-identity of
   shard reports across serial/fork AND across lockstep vs
   pipelined (the workload's mix signatures are pairwise distinct,
   so gossip is inert) is asserted on every attempt.

Wall-clock ratios on shared CI hardware are noisy, so the timing
gates are retried a bounded number of times; the deterministic
assertions (equal served counts, byte-identity, zero warm solves)
are checked on every attempt -- a retry must never mask
a correctness regression.  Results go to
``benchmarks/results/fleet.txt`` and ``fleet.json``.
"""

import multiprocessing
import os

import pytest

from repro.core.solve_store import SolveStore
from repro.experiments import serving
from repro.serve.fleet import Fleet
from repro.soc.platform import get_platform

#: served-request throughput: 4 fork shards vs 1 shard
TPUT_RATIO = 3.0
#: time-to-first-HaX-CoNN-incumbent: warm store vs cold
TTF_RATIO = 2.0
ATTEMPTS = 3

#: bounded-lag gate: lockstep/pipelined barrier-stall wall per round
PIPELINE_STALL_RATIO = 1.5
#: raw per-round wall ratio, only gated with enough real parallelism
PIPELINE_WALL_RATIO = 1.5
PIPELINE_MIN_CORES = 8
PIPELINE_SHARDS = 16
PIPELINE_MAX_LAG = 8
PIPELINE_ATTEMPTS = 2

HORIZON_S = 0.12
SHARDS = 4


def _parallel_backend() -> str:
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "serial"


def _run(shards: int, backend: str, store: SolveStore | None = None):
    fleet = Fleet(
        get_platform("xavier"),
        serving.fleet_tenants(),
        serving.make_fleet_policy_factory("xavier"),
        shards=shards,
        backend=backend,
        router="balanced",
        sync_rounds=4,
        store=store,
    )
    return fleet.run(horizon_s=HORIZON_S)


def _attempt(tmp_path, attempt: int):
    store = SolveStore(tmp_path / f"solves_{attempt}.jsonl")
    # an *empty* writable store does not seed the workers, so this run
    # stays comparable with the no-store backends below
    rep_serial = _run(SHARDS, "serial", store)
    rep_parallel = _run(SHARDS, _parallel_backend())
    rep_single = _run(1, "serial")
    warm = SolveStore(store.path, readonly=True)
    rep_warm = _run(SHARDS, _parallel_backend(), warm)

    # -- deterministic gates: checked on every attempt ------------------
    # (3) fixed seed => per-shard reports byte-identical across backends
    assert rep_serial.describe_shards() == rep_parallel.describe_shards()
    # every topology serves the full trace, nothing lost to sharding
    served = {
        r.served
        for r in (rep_serial, rep_parallel, rep_single)
    }
    assert len(served) == 1, f"served counts diverged: {served}"
    assert rep_serial.shed == rep_single.shed
    # (2, deterministic half) the warm fleet answers every mix from the
    # persisted store: zero solver runs, store hits on every toggle
    assert rep_warm.solves == 0, rep_warm.describe()
    assert rep_warm.store_hits > 0
    assert rep_warm.served == rep_single.served
    # the cold fleet persisted every solved mix for the next process
    assert len(store.schedules()) >= rep_parallel.solves

    # -- wall-clock gates: retried --------------------------------------
    tput_ratio = (
        rep_parallel.throughput_rps / rep_single.throughput_rps
    )
    cold_ttf = rep_parallel.time_to_first_hax_s()
    warm_ttf = rep_warm.time_to_first_hax_s()
    assert cold_ttf is not None and warm_ttf is not None
    ttf_ratio = cold_ttf / warm_ttf
    reports = {
        "serial": rep_serial,
        "parallel": rep_parallel,
        "single": rep_single,
        "warm": rep_warm,
    }
    return reports, tput_ratio, ttf_ratio


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _measure_pipeline():
    """Gate 4: bounded-lag pipelining vs the lockstep barrier.

    Byte-identity (backends x lag settings) is asserted on every
    attempt; the stall-per-round ratio is the retried wall gate, and
    the raw round-wall ratio is gated only with real parallelism.
    """
    if _parallel_backend() != "fork":
        pytest.skip("the pipeline gate requires the fork start method")
    cores = _usable_cores()
    stall_ratio = wall_ratio = 0.0
    result = None
    for _ in range(PIPELINE_ATTEMPTS):
        lock = serving.run_pipeline_fleet(
            shards=PIPELINE_SHARDS, max_lag=0, backend="fork"
        )
        pipe = serving.run_pipeline_fleet(
            shards=PIPELINE_SHARDS,
            max_lag=PIPELINE_MAX_LAG,
            backend="fork",
        )
        pipe_serial = serving.run_pipeline_fleet(
            shards=PIPELINE_SHARDS,
            max_lag=PIPELINE_MAX_LAG,
            backend="serial",
        )
        # identity: checked on every attempt
        assert (
            pipe.describe_shards() == pipe_serial.describe_shards()
        ), "pipelined shard reports diverged across backends"
        # gossip is inert here, so the lag window must not change any
        # shard's report either -- lockstep and pipelined runs do the
        # same work and differ only in barrier stalls
        assert (
            lock.describe_shards() == pipe.describe_shards()
        ), "bounded lag changed a shard report on an inert workload"
        assert lock.max_lag == 0 and pipe.max_lag == PIPELINE_MAX_LAG
        assert pipe.admission_totals().get("shed", 0) > 0

        stall_ratio = lock.idle_per_round_ms() / max(
            pipe.idle_per_round_ms(), 1e-9
        )
        wall_ratio = lock.mean_round_wall_ms() / max(
            pipe.mean_round_wall_ms(), 1e-9
        )
        result = {
            "shards": PIPELINE_SHARDS,
            "max_lag": PIPELINE_MAX_LAG,
            "usable_cores": cores,
            "p50_ms": pipe.p50_ms,
            "p99_ms": pipe.p99_ms,
            "admitted": pipe.admission_totals().get("admitted", 0),
            "shed": pipe.admission_totals().get("shed", 0),
            "idle_ms_per_round_lockstep": lock.idle_per_round_ms(),
            "idle_ms_per_round_pipelined": pipe.idle_per_round_ms(),
            "round_wall_ms_lockstep": lock.mean_round_wall_ms(),
            "round_wall_ms_pipelined": pipe.mean_round_wall_ms(),
            "stall_ratio_lockstep_over_pipelined": stall_ratio,
            "stall_threshold": PIPELINE_STALL_RATIO,
            "wall_ratio_lockstep_over_pipelined": wall_ratio,
            "wall_threshold": PIPELINE_WALL_RATIO,
            "wall_ratio_gated": cores >= PIPELINE_MIN_CORES,
            "rows": [
                {"run": "lockstep", **serving.fleet_row(lock)},
                {"run": "pipelined", **serving.fleet_row(pipe)},
            ],
        }
        if stall_ratio >= PIPELINE_STALL_RATIO and (
            cores < PIPELINE_MIN_CORES
            or wall_ratio >= PIPELINE_WALL_RATIO
        ):
            return result
    assert stall_ratio >= PIPELINE_STALL_RATIO, (
        f"bounded lag cut barrier stall only {stall_ratio:.2f}x after "
        f"{PIPELINE_ATTEMPTS} attempts ({result})"
    )
    if cores >= PIPELINE_MIN_CORES:
        assert wall_ratio >= PIPELINE_WALL_RATIO, (
            f"pipelined round wall only {wall_ratio:.2f}x better after "
            f"{PIPELINE_ATTEMPTS} attempts ({result})"
        )
    return result


def test_bench_fleet(save_report, save_json, tmp_path):
    reports = None
    for attempt in range(ATTEMPTS):
        reports, tput_ratio, ttf_ratio = _attempt(tmp_path, attempt)
        if tput_ratio >= TPUT_RATIO and ttf_ratio >= TTF_RATIO:
            break
    else:
        assert tput_ratio >= TPUT_RATIO, (
            f"4-shard throughput only {tput_ratio:.2f}x the single "
            f"shard's after {ATTEMPTS} attempts"
        )
        assert ttf_ratio >= TTF_RATIO, (
            f"warm store cut time-to-first-incumbent only "
            f"{ttf_ratio:.2f}x after {ATTEMPTS} attempts"
        )

    rows = [
        {"run": name, **serving.fleet_row(report)}
        for name, report in reports.items()
    ]
    pipeline = _measure_pipeline()
    text = "\n\n".join(
        [
            serving.format_table(
                rows,
                ["run", *serving.FLEET_COLUMNS],
                title="Fleet scaling: shards, store warm-start, "
                "backend determinism",
            ),
            serving.format_table(
                pipeline["rows"],
                ["run", *serving.FLEET_COLUMNS],
                title="Bounded-lag pipelining: 16 fork shards, "
                "staggered solve epochs, diurnal admission",
            ),
            reports["parallel"].describe(),
        ]
    )
    save_report("fleet", text)
    save_json(
        "fleet",
        {
            "horizon_s": HORIZON_S,
            "shards": SHARDS,
            "throughput_ratio": tput_ratio,
            "throughput_threshold": TPUT_RATIO,
            "ttf_hax_ratio": ttf_ratio,
            "ttf_hax_threshold": TTF_RATIO,
            "rows": rows,
            "pipeline": pipeline,
        },
    )
