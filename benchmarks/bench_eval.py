"""Evaluation-engine benchmark: incremental 3x, frontier 10x scratch.

Tier-1 gate for two acceptance criteria on the 3-network reference
workload (the Table 6 scenario the solver race also uses):

* the incremental engine behind ``Formulation.evaluate`` must sustain
  at least 3x the evaluations/second of the from-scratch baseline
  ``Formulation.evaluate_scratch`` over a branch-and-bound-shaped
  descent sequence of *distinct* assignments -- i.e. with zero memo
  hits, the speedup must come from the item tensor, the plan-cached
  event loop and the slowdown caches alone;
* the frontier-batched path ``Formulation.evaluate_frontier`` must
  sustain at least 10x scratch over the *full* descent space (one
  lockstep NumPy batch), with every member's result -- objective,
  per-stream latencies, makespan, energy, fixed-point iteration
  count, and infeasible members' exception type and message --
  byte-identical to the scratch reference.

A machine-readable summary lands in
``benchmarks/results/eval_engine.json`` and a text report in
``benchmarks/results/eval_engine.txt``.

Wall-clock ratios on shared CI hardware are noisy, so the timing
assertions are retried a bounded number of times; the bit-identity
assertions (engine vs scratch equality) run on every attempt and are
never masked by a retry.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core.formulation import Formulation
from repro.core.haxconn import HaXCoNN, enumerate_assignments
from repro.core.workload import Workload
from repro.experiments.common import get_db

#: acceptance threshold: incremental >= 3x scratch evals/sec
SPEEDUP = 3.0
#: acceptance threshold: frontier batch >= 10x scratch evals/sec
FRONTIER_SPEEDUP = 10.0
ATTEMPTS = 3

PLATFORM = "sd865"
MODELS = ("vgg19", "resnet152", "googlenet")
MAX_GROUPS = 6
MAX_TRANSITIONS = 2

#: per-stream candidate counts: the incremental descent (a solver-
#: shaped prefix) and the full frontier space (one lockstep batch)
DESCENT_SLICES = (8, 8, 5)
FRONTIER_SLICES = (16, 16, 5)

RESULTS_JSON = Path(__file__).parent / "results" / "eval_engine.json"


def _reference_sequence(slices=DESCENT_SLICES):
    """A descent-shaped sequence of distinct sibling assignments.

    Nested sweeps over per-stream candidates mimic the solver's DFS:
    consecutive evaluations differ in one stream's assignment -- and
    the whole sweep is one giant sibling frontier, the shape the
    lockstep batch evaluates in a single call.
    """
    db = get_db(PLATFORM)
    workload = Workload.concurrent(*MODELS, objective="latency")
    scheduler = HaXCoNN(
        PLATFORM,
        db=db,
        max_groups=MAX_GROUPS,
        max_transitions=MAX_TRANSITIONS,
    )
    formulation, profiles = scheduler.build_formulation(workload)
    accels = [a.name for a in scheduler.platform.accelerators]
    cands = [
        enumerate_assignments(p, accels, max_transitions=MAX_TRANSITIONS)
        for p in profiles
    ]
    sequence = [
        [a0, a1, a2]
        for a0 in cands[0][: slices[0]]
        for a1 in cands[1][: slices[1]]
        for a2 in cands[2][: slices[2]]
    ]
    return formulation, sequence


def _fresh(formulation: Formulation) -> Formulation:
    """A same-spec formulation with cold engine caches."""
    return Formulation(
        formulation.profiles,
        formulation.repeats,
        formulation.objective,
        formulation.contention_model,
        include_transitions=formulation.include_transitions,
        resource_constrained=formulation.resource_constrained,
        pipeline=formulation.pipeline,
        accel_power_w=formulation.accel_power_w,
    )


def _timed(fn, sequence):
    start = time.perf_counter()
    out = [fn(a) for a in sequence]
    return time.perf_counter() - start, out


def _captured(fn, assignment):
    """Run one evaluation, returning raised infeasibility in place
    (the ``evaluate_many``/``evaluate_frontier`` convention)."""
    try:
        return fn(assignment)
    except Exception as exc:
        return exc


def _assert_identical(ref, got):
    """Field-wise byte-identity, exceptions included."""
    if isinstance(ref, Exception) or isinstance(got, Exception):
        assert type(ref) is type(got), (ref, got)
        assert str(ref) == str(got)
        return
    assert ref.objective == got.objective
    assert ref.per_dnn_time == got.per_dnn_time
    assert ref.makespan == got.makespan
    assert ref.energy_j == got.energy_j
    assert ref.fixed_point_iterations == got.fixed_point_iterations


def _measure_frontier():
    """Time the full descent space: scratch loop vs one lockstep batch.

    The scratch pass doubles as the byte-identity reference for every
    frontier member, infeasible ones included.
    """
    formulation, sequence = _reference_sequence(FRONTIER_SLICES)
    n = len(sequence)

    scratch_form = _fresh(formulation)
    t_scratch, ref = _timed(
        lambda a: _captured(scratch_form.evaluate_scratch, a), sequence
    )

    frontier_form = _fresh(formulation)
    start = time.perf_counter()
    got = frontier_form.evaluate_frontier(sequence)
    t_frontier = time.perf_counter() - start
    # bit-identity on every attempt: the speedup must not come from a
    # different answer (or a different failure)
    assert len(got) == n
    for a, b in zip(ref, got):
        _assert_identical(a, b)
    stats = frontier_form.engine.stats()
    assert stats["frontier_batches"] == 1
    assert stats["frontier_members"] == n

    return {
        "evals_frontier": n,
        "evals_per_s_scratch_full": n / t_scratch,
        "evals_per_s_frontier": n / t_frontier,
        "speedup_frontier": t_scratch / t_frontier,
        "frontier_lockstep": stats["frontier_lockstep"],
        "frontier_fallback": stats["frontier_fallback"],
    }


def _measure():
    formulation, sequence = _reference_sequence()
    n = len(sequence)

    scratch_form = _fresh(formulation)
    t_scratch, ref = _timed(scratch_form.evaluate_scratch, sequence)

    inc_form = _fresh(formulation)
    t_inc, got = _timed(inc_form.evaluate, sequence)
    # bit-identity on every attempt: the speedup must not come from a
    # different answer
    for a, b in zip(ref, got):
        assert a.objective == b.objective
        assert a.per_dnn_time == b.per_dnn_time
        assert a.fixed_point_iterations == b.fixed_point_iterations
    stats_inc = inc_form.engine.stats()
    assert stats_inc["memo_hits"] == 0, "distinct sequence must not hit"

    # memoized second pass over the same assignments
    t_memo, _ = _timed(inc_form.evaluate, sequence)
    stats_memo = inc_form.engine.stats()

    batch_form = _fresh(formulation)
    start = time.perf_counter()
    batch = batch_form.evaluate_many(sequence)
    t_batch = time.perf_counter() - start
    for a, b in zip(ref, batch):
        assert a.objective == b.objective

    summary = {
        "workload": "+".join(MODELS),
        "platform": PLATFORM,
        "max_groups": MAX_GROUPS,
        "max_transitions": MAX_TRANSITIONS,
        "evals": n,
        "evals_per_s_scratch": n / t_scratch,
        "evals_per_s_incremental": n / t_inc,
        "evals_per_s_batch": n / t_batch,
        "evals_per_s_memoized": n / t_memo,
        "speedup_incremental": t_scratch / t_inc,
        "speedup_batch": t_scratch / t_batch,
        "memo_hit_rate_second_pass": (
            (stats_memo["memo_hits"] - stats_inc["memo_hits"]) / n
        ),
        "fp_iter_mean_exact": stats_inc["fp_iter_mean"],
        "slowdown_cache_hit_rate": stats_inc["slowdown_cache_hit_rate"],
    }
    return summary


def _format(summary: dict) -> str:
    lines = [
        "Evaluation engine: incremental vs from-scratch "
        f"({summary['platform']}, {summary['workload']}, "
        f"groups<={summary['max_groups']}, "
        f"transitions<={summary['max_transitions']}, "
        f"{summary['evals']} distinct evals)",
        "-" * 72,
    ]
    for key in (
        "evals_per_s_scratch",
        "evals_per_s_incremental",
        "evals_per_s_batch",
        "evals_per_s_memoized",
        "speedup_incremental",
        "speedup_batch",
        "memo_hit_rate_second_pass",
        "fp_iter_mean_exact",
        "slowdown_cache_hit_rate",
        "evals_frontier",
        "evals_per_s_scratch_full",
        "evals_per_s_frontier",
        "speedup_frontier",
        "frontier_lockstep",
        "frontier_fallback",
    ):
        lines.append(f"{key:32s} {summary[key]:12.3f}")
    return "\n".join(lines)


def test_bench_eval_engine(save_report):
    summary = None
    for _attempt in range(ATTEMPTS):
        summary = _measure()
        if summary["speedup_incremental"] >= SPEEDUP:
            break
    else:
        pytest.fail(
            f"incremental speedup {summary['speedup_incremental']:.2f}x < "
            f"{SPEEDUP}x after {ATTEMPTS} attempts "
            f"({summary['evals_per_s_incremental']:.0f} vs "
            f"{summary['evals_per_s_scratch']:.0f} evals/s)"
        )
    frontier = None
    for _attempt in range(ATTEMPTS):
        frontier = _measure_frontier()
        if frontier["speedup_frontier"] >= FRONTIER_SPEEDUP:
            break
    else:
        pytest.fail(
            f"frontier speedup {frontier['speedup_frontier']:.2f}x < "
            f"{FRONTIER_SPEEDUP}x after {ATTEMPTS} attempts "
            f"({frontier['evals_per_s_frontier']:.0f} vs "
            f"{frontier['evals_per_s_scratch_full']:.0f} evals/s)"
        )
    summary.update(frontier)
    RESULTS_JSON.parent.mkdir(exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(summary, indent=2) + "\n")
    save_report("eval_engine", _format(summary))
