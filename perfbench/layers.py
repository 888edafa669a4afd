"""Per-layer tracing from outside the program.

The traced run wraps the public entry points of each layer of
``src/repro`` (module attributes and class methods, looked up at call
time) with span recorders, runs the workload, and restores the
originals.  Nothing in ``src/repro`` changes.

A span covers one call.  Spans nest: a layer's *self time* is its
spans' duration minus the part covered by child spans of any layer, so
self times add up to the covered wall time without double counting.
A call counts once per entry into a layer from outside it, so
re-entrant calls inside one layer (``evaluate`` calling
``evaluate_many``) count as one call.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from typing import Any, Callable

class Tracer:
    """Stack-based span recorder with per-layer aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: open spans: [layer, start, time covered by child spans]
        self._stack: list[list[Any]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: extra per-layer time buckets (e.g. ``profiling.pccs``)
        self.extra_s: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def _wrapper(
        self,
        original: Callable[..., Any],
        layer: str,
        bucket: str | None,
        on_result: Callable[[Any, bool], None] | None,
    ) -> Callable[..., Any]:
        stack = self._stack
        clock = self.clock

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            nested = any(frame[0] == layer for frame in stack)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if not nested:
                    self.calls[layer] += 1
                if bucket is not None:
                    self.extra_s[bucket] += duration
            if on_result is not None:
                on_result(result, nested)
            return result

        return traced

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        *,
        bucket: str | None = None,
        on_result: Callable[[Any, bool], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a function in a module or class
        namespace) by a span-recording wrapper until :meth:`uninstall`."""
        original = owner.__dict__[attr]
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, layer, bucket, on_result))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------
    def covered_s(self) -> float:
        return sum(self.self_s.values())


class SolveLog:
    """Outermost solver results seen by the tracer (nodes, TTFI)."""

    def __init__(self) -> None:
        self.results: list[Any] = []

    def __call__(self, result: Any, nested: bool) -> None:
        if not nested and result is not None:
            self.results.append(result)

    def nodes(self) -> int:
        return sum(r.nodes_explored for r in self.results)

    def nodes_to_opt_frac(self) -> float:
        total = self.nodes()
        useful = sum(
            r.best.nodes_explored for r in self.results if r.best is not None
        )
        return useful / total if total else 0.0

    def ttfi_s(self) -> float:
        firsts = [r.incumbents[0].wall_time_s for r in self.results if r.incumbents]
        return statistics.median(firsts) if firsts else 0.0


class StoreLog:
    """Counts solve-store appends that wrote a new record."""

    def __init__(self) -> None:
        self.appends = 0

    def __call__(self, result: Any, nested: bool) -> None:
        if result:
            self.appends += 1


def install(tracer: Tracer) -> tuple[SolveLog, StoreLog]:
    """Wrap every measured layer's public entry points."""
    from repro.analysis import verify
    from repro.core import evalcache, haxconn, schedule_cache, solve_store
    from repro.perf import calibration
    from repro.profiling import database
    from repro.serve import fleet, policy, server, slo
    from repro.solver import bnb, portfolio

    solves = SolveLog()
    appends = StoreLog()
    # profiling + perf + contention: profiles, platform calibration, PCCS
    tracer.wrap(database, "profile_dnn", "profiling")
    tracer.wrap(database, "calibrate_pccs", "profiling", bucket="profiling.pccs")
    tracer.wrap(calibration, "calibrate", "profiling")
    tracer.wrap(calibration, "fit_scales", "profiling")
    # evaluation engine (formulation / evalcache / frontier)
    tracer.wrap(haxconn.HaXCoNN, "build_formulation", "eval")
    for name in ("evaluate", "evaluate_many", "evaluate_frontier"):
        tracer.wrap(evalcache.EvalEngine, name, "eval")
    # solver: problem compilation, B&B, portfolio
    tracer.wrap(haxconn.HaXCoNN, "build_problem", "solver")
    tracer.wrap(bnb.BranchAndBound, "solve", "solver", on_result=solves)
    tracer.wrap(portfolio.PortfolioSolver, "solve", "solver", on_result=solves)
    # independent certificate checker
    for name in ("verify_result", "verify_cache_entry", "verify_solve"):
        tracer.wrap(verify, name, "verify")
    # schedule cache and solve store
    for name in (
        "get",
        "put",
        "__contains__",
        "warm_starts",
        "merge",
        "adopt_stored",
        "export_delta",
        "attach_store",
    ):
        tracer.wrap(schedule_cache.ScheduleCache, name, "cache")
    tracer.wrap(solve_store.SolveStore, "__init__", "store", bucket="store.load")
    for name in ("append_schedule", "append_memo"):
        tracer.wrap(solve_store.SolveStore, name, "store", on_result=appends)
    for name in ("schedules", "memo_for", "signatures"):
        tracer.wrap(solve_store.SolveStore, name, "store")
    # serving: policy, admission, round loop, simulator, fleet
    for name in ("result_for", "export_delta", "merge"):
        tracer.wrap(policy.CachedAnytimePolicy, name, "policy")
    tracer.wrap(slo.AdmissionController, "decide", "slo")
    tracer.wrap(server.ServingSession, "run_rounds", "server")
    tracer.wrap(server.ServingSession, "report", "server")
    tracer.wrap(server, "run_schedule", "soc")
    tracer.wrap(fleet.Fleet, "run", "fleet")
    return solves, appends
