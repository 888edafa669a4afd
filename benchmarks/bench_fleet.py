"""Sharded-fleet benchmark: throughput scaling and solve-store reuse.

Tier-1 gates for the fleet acceptance criteria:

1. **throughput** -- at 4 shards the fleet's served-request wall-clock
   throughput is >= 3x the single-shard fleet's on the same tenant
   population.  This is an *algorithmic* win, not a parallelism win
   (every fleet scans its shards in one process): one shard must
   co-schedule the joint four-stream mix (expensive solves), four
   shards solve four cheap single-stream mixes.
2. **solve store** -- a second fleet warm-started from the first run's
   persistent solve store reaches its first HaX-CoNN-family dispatch
   >= 2x sooner and performs zero solver runs (every mix toggles out
   of the store).

Wall-clock ratios on shared CI hardware are noisy, so the timing
gates are retried a bounded number of times; the deterministic
assertions (equal served counts, zero warm solves) are checked on
every attempt -- a retry must never mask a correctness regression.
Results go to ``benchmarks/results/fleet.txt`` and ``fleet.json``.
"""

from repro.core.solve_store import SolveStore
from repro.experiments import serving
from repro.serve.fleet import Fleet
from repro.soc.platform import get_platform

#: served-request throughput: 4 shards vs 1 shard
TPUT_RATIO = 3.0
#: time-to-first-HaX-CoNN-incumbent: warm store vs cold
TTF_RATIO = 2.0
ATTEMPTS = 3

HORIZON_S = 0.12
SHARDS = 4


def _run(shards: int, store: SolveStore | None = None):
    fleet = Fleet(
        get_platform("xavier"),
        serving.fleet_tenants(),
        serving.make_fleet_policy_factory("xavier"),
        shards=shards,
        router="balanced",
        sync_rounds=4,
        store=store,
    )
    return fleet.run(horizon_s=HORIZON_S)


def _attempt(tmp_path, attempt: int):
    store = SolveStore(tmp_path / f"solves_{attempt}.jsonl")
    # an *empty* writable store seeds no shard, so this run must match
    # the store-less cold run below byte for byte
    rep_store = _run(SHARDS, store)
    rep_cold = _run(SHARDS)
    rep_single = _run(1)
    warm = SolveStore(store.path, readonly=True)
    rep_warm = _run(SHARDS, warm)

    # -- deterministic gates: checked on every attempt ------------------
    assert rep_store.describe_shards() == rep_cold.describe_shards()
    # every topology serves the full trace, nothing lost to sharding
    served = {r.served for r in (rep_store, rep_cold, rep_single)}
    assert len(served) == 1, f"served counts diverged: {served}"
    assert rep_cold.shed == rep_single.shed
    # (2, deterministic half) the warm fleet answers every mix from the
    # persisted store: zero solver runs, store hits on every toggle
    assert rep_warm.solves == 0, rep_warm.describe()
    assert rep_warm.store_hits > 0
    assert rep_warm.served == rep_single.served
    # the cold fleet persisted every solved mix for the next process
    assert len(store.schedules()) >= rep_cold.solves

    # -- wall-clock gates: retried --------------------------------------
    tput_ratio = rep_cold.throughput_rps / rep_single.throughput_rps
    cold_ttf = rep_cold.time_to_first_hax_s()
    warm_ttf = rep_warm.time_to_first_hax_s()
    assert cold_ttf is not None and warm_ttf is not None
    ttf_ratio = cold_ttf / warm_ttf
    reports = {
        "store": rep_store,
        "cold": rep_cold,
        "single": rep_single,
        "warm": rep_warm,
    }
    return reports, tput_ratio, ttf_ratio


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
    text = "\n\n".join(
        [
            serving.format_table(
                rows,
                ["run", *serving.FLEET_COLUMNS],
                title="Fleet scaling: shards and store warm-start",
            ),
            reports["cold"].describe(),
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
        },
    )
