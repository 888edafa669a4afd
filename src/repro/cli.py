"""Command-line interface: ``haxconn``.

Subcommands
-----------
``haxconn schedule MODEL1 MODEL2 [--platform P] [--objective O]``
    Find and execute the optimal co-schedule for a DNN pair.
``haxconn serve SPEC [SPEC ...]``
    Run the multi-tenant serving fleet on a simulated SoC (one shard
    unless ``--shards`` says more).  Each SPEC is
    ``model[:rate_hz[:slo_ms]]``; the policy decides per round which
    schedule the active tenant mix dispatches.
``haxconn experiment NAME``
    Regenerate a paper table/figure (``fig1``, ``table2``, ``fig3``,
    ``fig4``, ``table5``, ``fig5``, ``table6``, ``fig6``, ``fig7``,
    ``table7``, ``table8``) or one of this reproduction's studies
    (``sensitivity``, ``batching``, ``dsa-design``, ``serving``,
    ``solver-race``).
``haxconn verify MODEL1 MODEL2 ...`` / ``haxconn verify --random N``
    Independently re-derive and certify schedules: either the
    scheduler's answer for a DNN mix, or every solver's output on N
    seeded random instances.  Exits non-zero on any violation.
``haxconn fuzz --seeds A:B [--budget N] [--shrink] [--corpus DIR]``
    Differential scenario-universe fuzzing: generate the seeded
    scenario for every seed in ``[A, B)``, run the full oracle stack
    (solver agreement, exhaustive enumeration, certificates,
    evaluator byte-identity, baseline dominance), shrink failures to
    minimal reproducers, and print a campaign digest.  Exits non-zero
    on any discrepancy.
``haxconn store gc|stats PATH``
    Solve-store maintenance: ``gc`` compacts the JSONL log in place
    (drops superseded schedule records, retired ``model`` records and
    duplicate lines, byte-preserving the survivors); ``stats`` prints
    record counts and size.
``haxconn flow [--baseline FILE] [--write-baseline] [ROOT]``
    The static analysis: per-line determinism/concurrency rules
    (HAX001-HAX008) and whole-program determinism flow
    (HAX101-HAX104): call graph + effect summaries and source->sink
    taint with full call chains.  A module that does not parse exits
    2.  With ``--baseline`` only findings outside the checked-in
    baseline fail; with ``--write-baseline`` the current findings are
    written back so the baseline count can only shrink under review.
``haxconn platforms`` / ``haxconn models``
    List the modeled SoCs / the model zoo.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.core.solve_store import SolveStore

EXPERIMENTS = {
    "fig1": "fig1_case_study",
    "table2": "table2_layer_groups",
    "fig3": "fig3_emc_sweep",
    "fig4": "fig4_intervals",
    "table5": "table5_standalone",
    "fig5": "fig5_scenario1",
    "table6": "table6_scenarios",
    "fig6": "fig6_slowdown",
    "fig7": "fig7_dynamic",
    "table7": "table7_overhead",
    "table8": "table8_exhaustive",
    "sensitivity": "sensitivity",
    "batching": "batching",
    "dsa-design": "dsa_design",
    "serving": "serving",
    "solver-race": "solver_race",
}

SERVE_POLICIES = ("haxconn", "gpu-only", "naive", "moca")


def parse_tenant_spec(spec: str, index: int) -> tuple[str, float, float | None]:
    """``model[:rate_hz[:slo_ms]]`` -> (model, rate, slo seconds);
    :class:`ValueError` naming the spec when it is malformed."""
    parts = spec.split(":")
    if len(parts) > 3:
        raise ValueError(
            f"bad tenant spec {spec!r}: expected model[:rate_hz[:slo_ms]]"
        )

    def positive(field: str, text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value > 0):
            raise ValueError(
                f"tenant spec {spec!r}: {field} must be a positive "
                f"number, got {text!r}"
            )
        return value

    model = parts[0]
    rate = positive("rate", parts[1]) if len(parts) > 1 else 30.0
    slo_s = positive("slo", parts[2]) / 1e3 if len(parts) > 2 else None
    return model, rate, slo_s


def _below_floor(*checks: tuple[str, float | None, float]) -> bool:
    """Print ``error: FLAG must be >= FLOOR`` for the first set flag
    below its floor (``None`` = flag not given) and report whether
    one was."""
    for flag, value, least in checks:
        if value is not None and not value >= least:  # also refuses nan
            print(f"error: {flag} must be >= {least}", file=sys.stderr)
            return True
    return False


def _open_store(path: str) -> SolveStore | None:
    """The solve store at ``path``, or None after printing
    ``error: PATH: REASON`` when it cannot be read (a directory, no
    permission)."""
    from repro.core.solve_store import SolveStore

    try:
        return SolveStore(path)
    except OSError as exc:
        print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
        return None


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.core import HaXCoNN, Workload, gpu_only, naive_concurrent
    from repro.runtime import run_schedule
    from repro.soc import get_platform

    if _below_floor(("--max-transitions", args.max_transitions, 0)):
        return 2
    platform = get_platform(args.platform)
    workload = Workload.concurrent(*args.models, objective=args.objective)
    scheduler = HaXCoNN(
        platform, max_transitions=args.max_transitions, solver=args.solver
    )
    result = scheduler.schedule(workload)
    print(result.schedule.describe())
    execution = run_schedule(result, platform)
    if args.gantt:
        from repro.runtime import render_timeline

        print()
        print(render_timeline(execution.timeline, legend=workload.names))
        print()
    print(f"measured latency: {execution.latency_ms:.2f} ms "
          f"({execution.fps(1):.1f} FPS)")
    for label, fn in (("gpu-only", gpu_only), ("naive", naive_concurrent)):
        baseline = fn(workload, platform, db=scheduler.db)
        measured = run_schedule(baseline, platform)
        print(f"{label:9s} baseline: {measured.latency_ms:.2f} ms")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core import HaXCoNN
    from repro.core.evalcache import EvalCounters
    from repro.serve import (
        CachedAnytimePolicy,
        Fleet,
        ServingPolicy,
        Tenant,
        gpu_only_policy,
        naive_policy,
    )
    from repro.serve.policy import DynamicThrottlePolicy
    from repro.serve.slo import AdmissionConfig, TierConfig
    from repro.dnn.zoo import canonical_name
    from repro.serve.requests import make_arrivals
    from repro.soc import get_platform

    if _below_floor(
        ("--horizon", args.horizon, 0),
        ("--shards", args.shards, 1),
        ("--max-batch", args.max_batch, 1),
        ("--sync-rounds", args.sync_rounds, 1),
        ("--max-transitions", args.max_transitions, 0),
        ("--max-queue-depth", args.max_queue_depth, 1),
    ):
        return 2
    try:
        specs = [
            parse_tenant_spec(spec, k) for k, spec in enumerate(args.tenants)
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    platform = get_platform(args.platform)
    tenants = []
    seen: dict[str, int] = {}
    for k, (model, rate, slo_s) in enumerate(specs):
        # validate eagerly so a bad name fails with the usual
        # `error: unknown model ...` instead of a mid-run shard crash
        canonical_name(model)
        count = seen.get(model, 0)
        seen[model] = count + 1
        name = model if count == 0 else f"{model}@{count}"
        tenants.append(
            Tenant.of(
                name,
                model,
                arrivals=make_arrivals(
                    args.arrivals, rate, seed=args.seed + k
                ),
                slo_s=slo_s,
            )
        )
    from repro.profiling.database import ProfileDB

    store = None
    if args.store is not None:
        store = _open_store(args.store)
        if store is None:
            return 2
    admission = None
    if args.max_queue_depth is not None:
        admission = AdmissionConfig(
            tiers=tuple(
                TierConfig(priority=p, depth_cap=args.max_queue_depth)
                for p in sorted({t.priority for t in tenants})
            )
        )
    db = ProfileDB(platform)
    # one scheduler per haxconn shard; the eval-engine line sums them
    schedulers: list[HaXCoNN] = []

    def make_policy(shard_id: int) -> ServingPolicy:
        if args.policy == "haxconn":
            scheduler = HaXCoNN(
                platform,
                db=db,
                max_transitions=args.max_transitions,
                solver=args.solver,
            )
            schedulers.append(scheduler)
            return CachedAnytimePolicy(scheduler)
        if args.policy == "gpu-only":
            return gpu_only_policy(platform)
        if args.policy == "moca":
            return DynamicThrottlePolicy(platform, db=db)
        return naive_policy(platform)

    fleet = Fleet(
        platform,
        tenants,
        make_policy,
        shards=args.shards,
        router=args.router,
        max_batch=args.max_batch,
        sync_rounds=args.sync_rounds,
        admission=admission,
        batching=args.batching,
        store=store,
    )
    fleet_report = fleet.run(horizon_s=args.horizon)
    for outcome in fleet_report.outcomes:
        if outcome.tenants:  # the fleet table still lists empty shards
            print(outcome.report.describe())
    counters = EvalCounters()
    for scheduler in schedulers:
        counters.merge(scheduler.eval_counters)
    eval_stats = counters.as_dict()
    if eval_stats["evals"]:
        print(
            f"eval engine: {int(eval_stats['evals'])} evals, "
            f"memo hit rate {eval_stats['memo_hit_rate'] * 100:.1f}%, "
            f"{eval_stats['fp_iter_mean']:.2f} fixed-point iters/eval"
        )
    if store is not None:
        print(
            f"solve store: {len(store)} records, "
            f"{len(store.schedules())} schedules over "
            f"{len(store.signatures())} signatures at {store.path}"
        )
    print(fleet_report.describe())
    if args.trace:
        path = fleet_report.export_chrome_trace(args.trace)
        print(f"Chrome trace written to {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module_name = EXPERIMENTS.get(args.name)
    if module_name is None:
        print(f"unknown experiment {args.name!r}; "
              f"available: {', '.join(sorted(EXPERIMENTS))}",
              file=sys.stderr)
        return 2
    module = importlib.import_module(f"repro.experiments.{module_name}")
    rows = module.run()
    print(module.format_results(rows))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if _below_floor(
        ("--max-transitions", args.max_transitions, 0),
        ("--random", args.random, 1),
    ):
        return 2
    if args.random is not None:
        return _verify_random(args)
    if len(args.models) < 2:
        print(
            "error: verify needs at least two models "
            "(or --random N)",
            file=sys.stderr,
        )
        return 2
    from repro.analysis.verify import verify_result
    from repro.core import HaXCoNN, Workload
    from repro.soc import get_platform

    platform = get_platform(args.platform)
    workload = Workload.concurrent(*args.models, objective=args.objective)
    scheduler = HaXCoNN(
        platform, max_transitions=args.max_transitions, solver=args.solver
    )
    result = scheduler.schedule(workload)
    print(result.schedule.describe())
    certificate = verify_result(
        result, max_transitions=scheduler.max_transitions
    )
    print(certificate.describe())
    return 0 if certificate.ok else 1


def _verify_random(args: argparse.Namespace) -> int:
    """Certify every solver's output on seeded random instances."""
    from repro.analysis.verify import verify_solve
    from repro.solver import (
        BranchAndBound,
        PortfolioSolver,
        solve_exhaustive,
    )
    from repro.solver.random_instances import random_problem

    solvers = {
        "exhaustive": lambda p: solve_exhaustive(p),
        "bnb": lambda p: BranchAndBound().solve(p),
        "portfolio": lambda p: PortfolioSolver(
            clock="nodes", node_budget=20_000
        ).solve(p),
    }
    failures = 0
    for seed in range(args.random):
        problem = random_problem(seed)
        for name, solve in solvers.items():
            certificate = verify_solve(problem, solve(problem))
            if not certificate.ok:
                failures += 1
                print(f"seed {seed} {name}: {certificate.describe()}")
    checked = args.random * len(solvers)
    print(
        f"verified {checked} solver runs on {args.random} random "
        f"instances: {failures} violation(s)"
    )
    return 0 if failures == 0 else 1


def parse_seed_range(text: str) -> range:
    """``A:B`` -> range(A, B); a bare ``N`` means range(0, N)."""
    parts = text.split(":")
    if len(parts) == 1:
        start, stop = 0, int(parts[0])
    elif len(parts) == 2:
        start, stop = int(parts[0]), int(parts[1])
    else:
        raise ValueError(f"bad seed range {text!r}; expected A:B or N")
    if stop <= start:
        raise ValueError(f"empty seed range {text!r}")
    return range(start, stop)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import run_campaign

    if _below_floor(("--budget", args.budget, 1)):
        return 2
    try:
        seeds = parse_seed_range(args.seeds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_campaign(
        seeds,
        budget=args.budget,
        shrink_failures=args.shrink,
        corpus_dir=args.corpus,
    )
    stats = report.stats
    print(
        f"fuzzed {stats['scenarios']} scenario(s) over seeds "
        f"{seeds.start}:{seeds.stop} "
        f"({report.oracle_calls} oracle call(s))"
    )
    print(
        f"coverage: {stats['platforms']} platform(s), "
        f"{stats['transformer_scenarios']} transformer mix(es), "
        f"{stats['multi_dsa_scenarios']} >2-DSA scenario(s), "
        f"{stats['concurrent_schedules']} concurrent schedule(s)"
    )
    if report.truncated_at is not None:
        print(f"budget exhausted before seed {report.truncated_at}")
    for entry in report.failures:
        steps = (
            f" (shrunk in {len(entry.steps)} step(s))"
            if entry.steps
            else ""
        )
        print(f"FAIL {entry.spec.name}{steps}")
        for check, detail in entry.discrepancies:
            print(f"  {check}: {detail}")
        if args.corpus:
            from repro.fuzz.corpus import artifact_name

            print(f"  reproducer: {args.corpus}/{artifact_name(entry.spec)}")
    print(f"campaign digest: {report.digest}")
    return 0 if report.ok else 1


def _cmd_store(args: argparse.Namespace) -> int:
    store = _open_store(args.path)
    if store is None:
        return 2
    if args.action == "gc":
        before = store.stats()
        result = store.compact()
        print(
            f"compacted {store.path}: kept {result['kept']} of "
            f"{before['records']} record(s), dropped "
            f"{result['dropped']}, {result['bytes']} byte(s)"
        )
        return 0
    stats = store.stats()
    for key in sorted(stats):
        print(f"{key}: {stats[key]}")
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    from repro.analysis import flow

    root = args.root
    if root is None:
        import repro

        root = str(Path(repro.__file__).parent)
    if not Path(root).is_dir():
        print(f"error: analysis root is not a directory: {root}", file=sys.stderr)
        return 2
    baseline_keys: list[str] = []
    if args.baseline is not None and not args.write_baseline:
        try:
            baseline_keys = flow.load_baseline(args.baseline)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        report = flow.analyze(root, baseline_keys=baseline_keys)
    except flow.SourceSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        if args.baseline is None:
            print(
                "error: --write-baseline needs --baseline FILE",
                file=sys.stderr,
            )
            return 2
        flow.write_baseline(
            args.baseline, (*report.findings, *report.baselined)
        )
        total = len(report.findings) + len(report.baselined)
        print(f"wrote {total} baseline key(s) to {args.baseline}")
        return 0
    print(report.render())
    if report.stale_keys:
        # fixed findings must shrink the checked-in baseline
        return 1
    return 0 if report.ok else 1


def _cmd_platforms(args: argparse.Namespace) -> int:
    from repro.soc import available_platforms, get_platform

    for name in available_platforms():
        platform = get_platform(name)
        accels = ", ".join(
            f"{a.name} ({a.family})" for a in platform.accelerators
        )
        print(f"{name:8s} {platform.dram_bandwidth / 1e9:6.1f} GB/s  {accels}")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.dnn import zoo

    for name in zoo.available():
        graph = zoo.build(name)
        print(f"{name:22s} {len(graph):4d} layers "
              f"{graph.total_flops / 1e9:7.2f} GFLOPs "
              f"{graph.total_params / 1e6:7.2f} M params")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haxconn",
        description="HaX-CoNN reproduction: contention-aware concurrent "
        "DNN scheduling for heterogeneous SoCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="co-schedule DNNs")
    p.add_argument("models", nargs="+", help="zoo model names")
    p.add_argument("--platform", default="orin")
    p.add_argument(
        "--objective",
        choices=("latency", "throughput", "energy"),
        default="latency",
    )
    p.add_argument("--max-transitions", type=int, default=2)
    p.add_argument(
        "--solver",
        choices=("bnb", "portfolio"),
        default="bnb",
        help="plain branch and bound, or the warm-started anytime "
        "solver",
    )
    p.add_argument(
        "--gantt", action="store_true", help="render an ASCII timeline"
    )
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser(
        "serve", help="run the multi-tenant serving loop"
    )
    p.add_argument(
        "tenants",
        nargs="+",
        metavar="SPEC",
        help="tenant spec: model[:rate_hz[:slo_ms]]",
    )
    p.add_argument("--platform", default="orin")
    p.add_argument(
        "--policy", choices=SERVE_POLICIES, default="haxconn"
    )
    p.add_argument(
        "--arrivals",
        choices=("poisson", "periodic", "bursty", "diurnal"),
        default="poisson",
    )
    p.add_argument(
        "--horizon",
        type=float,
        default=0.5,
        help="virtual serving horizon in seconds",
    )
    p.add_argument("--max-batch", type=int, default=2)
    p.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="admission depth cap: shed a request that arrives when "
        "its tenant already has this many queued",
    )
    p.add_argument("--max-transitions", type=int, default=2)
    p.add_argument(
        "--solver",
        choices=("bnb", "portfolio"),
        default="bnb",
        help="solver driving the haxconn policy: plain branch and "
        "bound, or the warm-started anytime solver",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trace", default=None, help="write a Chrome trace JSON here"
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="fleet shards (one serving session each) behind a "
        "deterministic tenant router, sharing solves by epoch gossip; "
        "1 serves every tenant on one shard",
    )
    p.add_argument(
        "--router",
        choices=("hash", "balanced"),
        default="hash",
        help="tenant->shard placement: stable hash, or expected-"
        "request least-backlog balancing",
    )
    p.add_argument(
        "--store",
        default=None,
        help="persistent solve-store path (JSONL); seeds this run "
        "and accumulates its solves for the next one",
    )
    p.add_argument(
        "--sync-rounds",
        type=int,
        default=8,
        help="serving rounds between fleet gossip epochs",
    )
    p.add_argument(
        "--batching",
        choices=("tenant", "continuous"),
        default="tenant",
        help="dispatch batching: one stream per tenant, or same-"
        "model tenants coalesced into one continuous-batch stream",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "verify",
        help="independently certify schedules (Eqs. 1-11)",
    )
    p.add_argument(
        "models",
        nargs="*",
        help="zoo model names to co-schedule and certify",
    )
    p.add_argument("--platform", default="orin")
    p.add_argument(
        "--objective",
        choices=("latency", "throughput", "energy"),
        default="latency",
    )
    p.add_argument("--max-transitions", type=int, default=2)
    p.add_argument(
        "--solver", choices=("bnb", "portfolio"), default="bnb"
    )
    p.add_argument(
        "--random",
        type=int,
        default=None,
        metavar="N",
        help="instead: verify every solver on N seeded random "
        "instances",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "fuzz",
        help="differential scenario-universe fuzzing",
    )
    p.add_argument(
        "--seeds",
        default="0:100",
        metavar="A:B",
        help="seed range [A, B) to fuzz (default 0:100)",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap total oracle invocations (scenarios + shrink probes)",
    )
    p.add_argument(
        "--shrink",
        action="store_true",
        help="reduce failing scenarios to minimal reproducers",
    )
    p.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="persist failing reproducers as JSON artifacts here",
    )
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "store",
        help="solve-store maintenance: compaction and stats",
    )
    p.add_argument(
        "action",
        choices=("gc", "stats"),
        help="gc compacts the JSONL log in place; stats prints counts",
    )
    p.add_argument("path", help="solve-store path (JSONL)")
    p.set_defaults(fn=_cmd_store)

    p = sub.add_parser(
        "flow",
        help="static analysis: per-line rules (HAX001-HAX008) and"
        " whole-program determinism flow (HAX101-HAX104)",
    )
    p.add_argument(
        "root",
        nargs="?",
        default=None,
        help="package directory to analyze (default: the repro package)",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="JSON baseline of accepted finding keys; findings outside"
        " it (or stale entries inside it) exit non-zero",
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings back to --baseline FILE",
    )
    p.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("experiment", help="regenerate a paper artifact")
    p.add_argument("name", help=f"one of {', '.join(sorted(EXPERIMENTS))}")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("platforms", help="list modeled SoCs")
    p.set_defaults(fn=_cmd_platforms)

    p = sub.add_parser("models", help="list the model zoo")
    p.set_defaults(fn=_cmd_models)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from repro.core.solve_store import StoreVersionError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyError as exc:
        # unknown model / platform names surface as KeyError with a
        # human-readable message listing the alternatives
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except StoreVersionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
