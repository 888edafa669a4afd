#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

Runs one seeded workload against the public API (``HaXCoNN.schedule``,
``Fleet.run``, ``SolveStore``), checks every output, prints one row of
the named metrics, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes the
traced run and reports the per-layer metrics.  A failed check exits 1,
a missing program exits 2.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform as host_os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from perfbench import common, hostspeed  # noqa: E402

WORKLOADS = ("solve-cold", "serve-shift", "serve-warm")
#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: fewest timed fleet runs per serve run: the repeat check needs two,
#: and ``peak_rss_mb`` is read after exactly this many so it does not
#: grow with host speed (``solve-cold`` reads it after one full pass)
MIN_UNITS = 2

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "wall_geomean_s": "s",
    "peak_rss_mb": "MB",
}
#: per-layer metrics (``--trace 1``): name -> unit
PER_LAYER = {
    "profiling.calls": "count",
    "profiling.busy_s": "s",
    "profiling.pccs_s": "s",
    "eval.calls": "count",
    "eval.busy_s": "s",
    "eval.evals": "count",
    "eval.memo_hit_rate": "ratio",
    "eval.fp_iter_mean": "count",
    "eval.frontier_members": "count",
    "eval.frontier_fallback": "count",
    "solver.calls": "count",
    "solver.busy_s": "s",
    "solver.nodes": "count",
    "solver.nodes_to_opt_frac": "ratio",
    "solver.ttfi_s": "s",
    "verify.calls": "count",
    "verify.busy_s": "s",
    "cache.lookups": "count",
    "cache.hit_rate": "ratio",
    "cache.busy_s": "s",
    "store.load_s": "s",
    "store.records": "count",
    "store.appends": "count",
    "store.busy_s": "s",
    "policy.calls": "count",
    "policy.busy_s": "s",
    "policy.solves": "count",
    "policy.swaps": "count",
    "slo.admitted": "count",
    "slo.shed": "count",
    "slo.busy_s": "s",
    "server.rounds": "count",
    "server.busy_s": "s",
    "soc.calls": "count",
    "soc.busy_s": "s",
    "fleet.busy_s": "s",
    "fleet.epochs": "count",
    "fleet.idle_wall_s": "s",
    "fleet.idle_per_round_ms": "ms",
    "shm.ring_msgs": "count",
    "shm.inline_msgs": "count",
    "serve.p50_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.slo_miss_frac": "ratio",
    "serve.ttf_hax_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}
class Result:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        #: human-readable columns (the named metrics of the row table)
        self.row: dict[str, object] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        #: median host speed relative to nominal (see ``hostspeed``)
        self.host_speed = 0.0

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = samples


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    child (the fork shards), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def repeated_setup(out: Result, clock, fn, *args):
    """Run a set-up ``SETUP_REPS`` times, report the median (host-scaled)
    as ``setup_s``, and return the last product."""
    times = []
    for _ in range(SETUP_REPS):
        product, _, scaled = clock.run(fn, *args)
        times.append(scaled)
    out.put("setup_s", median(times), len(times))
    return product


def traced_setup(fn, *args):
    """One set-up under a tracer (its profiling numbers feed the report)."""
    from perfbench import layers

    with layers.Tracer() as tracer:
        layers.install(tracer)
        product = fn(*args)
    return product, tracer


# -- solve-cold ---------------------------------------------------------------
def solve_cold(seed: int, seconds: float, trace: bool) -> Result:
    from perfbench import cold, workloads

    out = Result()
    clock = hostspeed.Measured()
    scenarios = workloads.cold_inputs(seed)
    if trace:
        dbs, setup_tracer = traced_setup(cold.setup, scenarios)
    else:
        dbs = repeated_setup(out, clock, cold.setup, scenarios)
    # per scenario: untraced (raw_s, scaled_s, outcome) samples; the first
    # keeps the full result for the checks, later ones its signature
    runs: list[list] = [[] for _ in scenarios]
    if trace:
        _cold_traced(out, clock, setup_tracer, scenarios, dbs, runs)
    else:
        n, start, last = len(scenarios), time.perf_counter(), 0.0
        # one full pass, then round-robin while one more solve fits
        while len(runs[-1]) == 0 or time.perf_counter() - start + last <= seconds:
            k = sum(len(r) for r in runs)
            raw, scaled, outcome = cold.timed_solve(
                scenarios[k % n], dbs, clock, keep=k < n
            )
            runs[k % n].append((raw, scaled, outcome))
            last = raw
            if k == n - 1:
                out.put("peak_rss_mb", peak_rss_mb())

    # correctness: the first solve in full, every repeat against it
    for s, samples in zip(scenarios, runs):
        outcomes = [o for _, _, o in samples]
        out.attempted += len(outcomes)
        bad = [o for o in outcomes if isinstance(o, Exception)]
        if bad:
            out.failed += len(bad)
            out.problems.append(f"{s.name}: raised {bad[0]!r}")
            continue
        scheduler, result = outcomes[0]
        problems = cold.check(s, scheduler, result, dbs)
        if any(o != cold.signature(result) for o in outcomes[1:]):
            problems.append("repeated solves adopted different schedules")
        if problems:
            out.failed += len(outcomes)
            out.problems.extend(f"{s.name}: {p}" for p in problems)

    # per-scenario medians damp host hiccups
    walls = [median([w for _, w, _ in r]) for r in runs]
    out.row.update(
        solves=out.attempted,
        solves_per_s=len(walls) / sum(walls),
        solve_geomean_s=geomean(walls),
    )
    out.host_speed = clock.speed()
    if not trace:
        samples = sum(len(r) for r in runs)
        out.put("throughput_per_s", out.row["solves_per_s"], samples)
        out.put("wall_geomean_s", out.row["solve_geomean_s"], samples)
    return out


def _cold_traced(out, clock, setup_tracer, scenarios, dbs, runs) -> None:
    """One untraced pass, then one traced pass over the catalogue; both
    must evaluate exactly the same assignments."""
    from perfbench import cold, layers

    plain, plain_counters = cold.run_pass(scenarios, dbs, clock, keep=True)
    with layers.Tracer() as tracer:
        solves, _ = layers.install(tracer)
        result, counters = cold.run_pass(scenarios, dbs, clock, keep=False)
    for samples, first, second in zip(runs, plain, result):
        samples += (first, second)
    if plain_counters != counters:
        out.problems.append("evaluation counts differ between repeated passes")
    layer = _layer_metrics(setup_tracer, tracer, solves, counters)
    layer["trace.unattributed_s"] = sum(r for r, _, _ in result) - tracer.covered_s()
    traced_s = sum(w for _, w, _ in result)
    plain_s = sum(w for _, w, _ in plain)
    layer["trace.overhead_frac"] = traced_s / plain_s - 1.0
    _put_layers(out, layer)


# -- serve-shift / serve-warm ---------------------------------------------------
def serve_workload(seed: int, seconds: float, trace: bool, warm: bool) -> Result:
    from perfbench import serve, workloads

    out = Result()
    clock = hostspeed.Measured()
    population = workloads.serve_population(seed)
    expected = serve.arrivals(population)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=_scratch_root()))
    try:
        if trace:
            ready, setup_tracer = traced_setup(serve.setup, population)
        else:
            ready = repeated_setup(out, clock, serve.setup, population)
        store = scratch / "solves.jsonl"
        if warm:
            # preparing the read-only store is a prior run: no metric
            prep = serve.FleetRun(
                serve.run_once(ready, "fork", store, readonly=False), 0.0, 0.0
            )
            out.problems.extend(
                f"store preparation: {p}"
                for p in serve.check(prep, expected, warm=False)
            )
        if trace:
            _serve_traced(out, clock, setup_tracer, ready, store, expected, warm)
        else:
            _serve_timed(out, clock, ready, scratch, store, expected, warm, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()  # only when no other run uses it
    out.host_speed = clock.speed()
    return out


def _scratch_root() -> Path:
    """Temporary stores live inside the checkout, never elsewhere."""
    root = common.ROOT / ".perfbench_tmp"
    root.mkdir(exist_ok=True)
    return root


def _serve_timed(out, clock, ready, scratch, store, expected, warm, seconds) -> None:
    first = None
    digests, walls, ttfs = set(), [], []
    start, last = time.perf_counter(), 0.0
    # MIN_UNITS runs, then more while one more of the last one's length fits
    while len(walls) < MIN_UNITS or time.perf_counter() - start + last <= seconds:
        unit_start = time.perf_counter()
        path = store if warm else scratch / f"cold-{len(walls)}.jsonl"
        run = _serve_once(out, clock, ready, path, expected, warm, "fork")
        if run is None:
            return
        # keep one report only, so memory does not grow with the run count
        first = first or run
        digests.add(run.digest)
        walls.append(run.scaled_s)
        ttfs.append(run.report.time_to_first_hax_s() or 0.0)
        if len(walls) == MIN_UNITS:
            out.put("peak_rss_mb", peak_rss_mb())
        last = time.perf_counter() - unit_start
    if len(digests) != 1:
        out.problems.append("shard reports differ between repeated runs")
    _serve_row(out, first, ttfs)
    # every run serves the same requests (checked); the median unit
    # is not moved by the host's slow phases the way a mean is
    out.row["req_per_s"] = first.report.served / median(walls)
    out.put("throughput_per_s", out.row["req_per_s"], len(walls))
    out.put("wall_geomean_s", geomean(walls), len(walls))


def _serve_once(out, clock, ready, path, expected, warm, backend, created=None):
    """One checked, timed fleet run; a crash fails every request."""
    from perfbench import serve

    out.attempted += expected
    try:
        report, raw, scaled = clock.run(
            serve.run_once, ready, backend, path, readonly=warm, created=created
        )
    except Exception as exc:
        out.failed += expected
        out.problems.append(f"{backend} fleet run raised {exc!r}")
        traceback.print_exc(file=sys.stderr)
        return None
    run = serve.FleetRun(report, raw, scaled)
    out.failed += serve.lost(run, expected) + run.stat("verify_failures")
    out.problems.extend(serve.check(run, expected, warm=warm))
    return run


def _serve_row(out: Result, run, ttfs: list[float]) -> None:
    report = run.report
    out.row.update(
        served=report.served,
        shed=report.shed,
        solves=report.solves,
        store_hits=report.store_hits,
        ttf_hax_s=median(ttfs),
        p50_ms=report.p50_ms,
        p99_ms=report.p99_ms,
        slo_miss_frac=run.slo_miss_frac(),
        beyond_p99=sum(1 for v in report.latencies_s() if v * 1e3 > report.p99_ms),
    )


def _serve_traced(out, clock, setup_tracer, ready, store, expected, warm) -> None:
    from perfbench import layers
    from repro.core.evalcache import EvalCounters
    from repro.core.solve_store import SolveStore

    # a cold fleet starts from an empty store on every run
    paths = (
        store if warm else store.with_name(f"cold-{k}.jsonl")
        for k in itertools.count()
    )

    def once(backend: str, created: list | None = None, path=None):
        path = path or next(paths)
        return _serve_once(out, clock, ready, path, expected, warm, backend, created)

    # the first serial run warms the process; the second is the
    # untraced reference the traced run is compared with
    warmup = once("serial")
    plain = once("serial")
    created: list = []
    traced_path = next(paths)
    with layers.Tracer() as tracer:
        solves, appends = layers.install(tracer)
        traced = once("serial", created, traced_path)
    forked = once("fork")
    if any(r is None for r in (warmup, plain, traced, forked)):
        return
    if len({r.digest for r in (warmup, plain, traced, forked)}) != 1:
        out.problems.append("serial, traced and fork shard reports differ")
    counters = EvalCounters()
    for policy in created:
        counters.merge(policy.scheduler.eval_counters)
    report, fork_report = traced.report, forked.report
    # a mix without an in-flight solve phase is looked up in the cache:
    # a hit toggles, a miss solves
    hits = traced.stat("cache_hits")
    lookups = hits + traced.stat("cache_misses") + report.solves
    layer = _layer_metrics(setup_tracer, tracer, solves, counters)
    totals = report.admission_totals()
    layer.update(
        {
            "cache.lookups": lookups,
            "cache.hit_rate": hits / lookups if lookups else 0.0,
            "store.load_s": tracer.extra_s["store.load"],
            "store.records": len(SolveStore(traced_path, readonly=True)),
            "store.appends": appends.appends,
            "policy.solves": report.solves,
            "policy.swaps": traced.stat("swaps"),
            "slo.admitted": totals.get("admitted", 0),
            "slo.shed": totals.get("shed", 0),
            "server.rounds": report.rounds,
            "fleet.epochs": fork_report.epochs,
            "fleet.idle_wall_s": fork_report.idle_wall_s,
            "fleet.idle_per_round_ms": fork_report.idle_per_round_ms(),
            "shm.ring_msgs": fork_report.transport_stats.get("ring", 0),
            "shm.inline_msgs": fork_report.transport_stats.get("inline", 0),
            "serve.p50_ms": fork_report.p50_ms,
            "serve.p99_ms": fork_report.p99_ms,
            "serve.slo_miss_frac": forked.slo_miss_frac(),
            "serve.ttf_hax_s": fork_report.time_to_first_hax_s() or 0.0,
            "trace.unattributed_s": traced.wall_s - tracer.covered_s(),
            "trace.overhead_frac": traced.scaled_s / plain.scaled_s - 1.0,
        }
    )
    _put_layers(out, layer)
    _serve_row(out, forked, [fork_report.time_to_first_hax_s() or 0.0])
    out.row["req_per_s"] = fork_report.served / forked.scaled_s


# -- per-layer aggregation ------------------------------------------------------
def _layer_metrics(setup_tracer, tracer, solves, counters) -> dict[str, float]:
    """Per-layer numbers of one traced pass (zero for idle layers)."""
    layer = {name: 0.0 for name in PER_LAYER}
    layer["profiling.calls"] = (
        setup_tracer.calls["profiling"] + tracer.calls["profiling"]
    )
    layer["profiling.busy_s"] = (
        setup_tracer.self_s["profiling"] + tracer.self_s["profiling"]
    )
    layer["profiling.pccs_s"] = (
        setup_tracer.extra_s["profiling.pccs"] + tracer.extra_s["profiling.pccs"]
    )
    for name in ("eval", "solver", "verify", "policy", "soc"):
        layer[f"{name}.calls"] = tracer.calls[name]
    for name in (
        "eval",
        "solver",
        "verify",
        "cache",
        "store",
        "policy",
        "slo",
        "server",
        "soc",
        "fleet",
    ):
        layer[f"{name}.busy_s"] = tracer.self_s[name]
    stats = counters.as_dict()
    for name in (
        "evals",
        "memo_hit_rate",
        "fp_iter_mean",
        "frontier_members",
        "frontier_fallback",
    ):
        layer[f"eval.{name}"] = stats[name]
    layer["solver.nodes"] = solves.nodes()
    layer["solver.nodes_to_opt_frac"] = solves.nodes_to_opt_frac()
    layer["solver.ttfi_s"] = solves.ttfi_s()
    return layer


def _put_layers(out: Result, layer: dict[str, float]) -> None:
    for name in PER_LAYER:
        out.put(name, layer[name])


# -- reporting ------------------------------------------------------------------
#: the end-to-end metrics a user reads, shown per workload (gated or not)
ROW_COLUMNS = (
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("solve_geomean_s", "s"),
    ("req_per_s", "1/s"),
    ("ttf_hax_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("slo_miss_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def host_fingerprint(out: Result) -> dict[str, object]:
    import numpy

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux hosts
        cores = os.cpu_count() or 1
    return {
        "nproc": cores,
        "python": host_os.python_version(),
        "numpy": numpy.__version__,
        "os": host_os.platform(),
        "commit": _git_commit(),
        "host_speed": round(out.host_speed, 4),
        "samples": out.samples,
    }


def _git_commit() -> str | None:
    if not (common.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(common.ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def print_report(workload: str, out: Result, trace: bool, meta: dict) -> None:
    row = dict(out.row)
    row.setdefault("setup_s", out.metrics.get("setup_s"))
    row.setdefault("peak_rss_mb", out.metrics.get("peak_rss_mb"))
    row["failed_frac"] = out.failed / out.attempted if out.attempted else 0.0
    print("host " + json.dumps(meta, sort_keys=True))
    header = f"{'workload':12s}" + "".join(
        f" {f'{name} [{unit}]':>22s}" for name, unit in ROW_COLUMNS
    )
    cells = []
    for name, _ in ROW_COLUMNS:
        value = row.get(name)
        cells.append(f" {'n/a' if value is None else f'{value:.6g}':>22s}")
    print(header)
    print(f"{workload:12s}" + "".join(cells))
    extras = {k: v for k, v in row.items() if k not in dict(ROW_COLUMNS)}
    if extras:
        print("counts " + json.dumps(extras, sort_keys=True))
    # a run cut short by a failed check still reports every metric
    names = PER_LAYER if trace else END_TO_END
    for name in names:
        out.metrics.setdefault(name, 0.0)
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:28s} {out.metrics[name]:>16.6g} {unit}")
    for problem in out.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not out.problems and out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    name: {"value": out.metrics[name], "unit": unit}
                    for name, unit in names.items()
                },
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="HaX-CoNN repo benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.use_checkout_sources()
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        if args.workload == "solve-cold":
            out = solve_cold(args.seed, args.seconds, trace)
        else:
            out = serve_workload(
                args.seed, args.seconds, trace, warm=args.workload == "serve-warm"
            )
    finally:
        stop_helpers()
    print_report(args.workload, out, trace, host_fingerprint(out))
    return 0 if not out.problems and out.failed == 0 else 1


def stop_helpers() -> None:
    """Stop and reap every process the run started: leftover fleet
    workers and the shared-memory resource tracker, which the first
    shm ring starts and which would otherwise outlive this process."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # closing the tracker's pipe ends it; ``_stop`` then waits for it
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
