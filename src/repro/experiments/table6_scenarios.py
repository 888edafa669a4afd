"""Table 6: the ten headline experiments (Scenarios 2-4).

Each experiment co-runs the paper's DNN pair (or a chain plus a
parallel DNN) on its platform, with its objective, under five
schedulers: GPU-only, naive GPU & DSA, Herald, H2H, and HaX-CoNN.
Measured latency and FPS come from the simulator; the improvement
column compares HaX-CoNN against the best-performing baseline, as in
the paper's last column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.common import format_table, get_db, make_scheduler
from repro.runtime.scenarios import (
    ScenarioOutcome,
    scenario2_parallel,
    scenario3_pipeline,
    scenario4_hybrid,
)
from repro.soc.platform import get_platform

SCHEDULERS = ("gpu_only", "naive", "herald", "h2h", "haxconn")


@dataclass(frozen=True)
class Table6Experiment:
    """One row of paper Table 6."""

    number: int
    platform: str
    goal: str  # "latency" (min latency) or "throughput" (max FPS)
    scenario: int  # 2 = parallel, 3 = pipeline, 4 = hybrid
    dnn1: tuple[str, ...]
    dnn2: str


EXPERIMENTS: tuple[Table6Experiment, ...] = (
    Table6Experiment(1, "xavier", "latency", 2, ("vgg19",), "resnet152"),
    Table6Experiment(2, "xavier", "latency", 2, ("resnet152",), "inception"),
    Table6Experiment(3, "xavier", "throughput", 3, ("alexnet",), "resnet101"),
    Table6Experiment(4, "xavier", "throughput", 3, ("resnet101",), "googlenet"),
    Table6Experiment(
        5, "xavier", "latency", 4, ("googlenet", "resnet152"), "fcn_resnet18"
    ),
    Table6Experiment(6, "orin", "latency", 2, ("vgg19",), "resnet152"),
    Table6Experiment(7, "orin", "throughput", 3, ("googlenet",), "resnet101"),
    Table6Experiment(
        8, "orin", "latency", 4, ("resnet101", "googlenet"), "inception"
    ),
    Table6Experiment(9, "sd865", "throughput", 3, ("googlenet",), "resnet101"),
    Table6Experiment(10, "sd865", "latency", 2, ("inception",), "resnet152"),
)


def _drive(
    exp: Table6Experiment, scheduler_name: str
) -> ScenarioOutcome:
    platform = get_platform(exp.platform)
    db = get_db(exp.platform)
    scheduler = make_scheduler(scheduler_name, platform, db=db)
    if exp.scenario == 2:
        return scenario2_parallel(
            exp.dnn1[0], exp.dnn2, scheduler, platform, objective=exp.goal
        )
    if exp.scenario == 3:
        return scenario3_pipeline(
            exp.dnn1[0], exp.dnn2, scheduler, platform, objective=exp.goal
        )
    if exp.scenario == 4:
        return scenario4_hybrid(
            exp.dnn1, exp.dnn2, scheduler, platform, objective=exp.goal
        )
    raise ValueError(f"unknown scenario {exp.scenario}")


def run_experiment(exp: Table6Experiment) -> dict[str, object]:
    """One Table 6 row: all five schedulers, measured."""
    row: dict[str, object] = {
        "exp": exp.number,
        "platform": exp.platform,
        "goal": "Min Latency" if exp.goal == "latency" else "Max FPS",
        "dnn1": "+".join(exp.dnn1),
        "dnn2": exp.dnn2,
    }
    outcomes: dict[str, ScenarioOutcome] = {}
    for name in SCHEDULERS:
        outcome = _drive(exp, name)
        outcomes[name] = outcome
        row[f"{name}_lat_ms"] = outcome.latency_ms
        row[f"{name}_fps"] = outcome.fps
    best_baseline = min(
        outcomes[name].latency_ms for name in SCHEDULERS if name != "haxconn"
    )
    hax = outcomes["haxconn"]
    row["haxconn_schedule"] = " | ".join(
        s.describe() for s in hax.schedule
    )
    row["improvement_pct"] = (
        (best_baseline - hax.latency_ms) / best_baseline * 100
    )
    return row


def run(
    numbers: Sequence[int] | None = None,
) -> list[dict[str, object]]:
    selected = [
        e for e in EXPERIMENTS if numbers is None or e.number in numbers
    ]
    return [run_experiment(e) for e in selected]


def format_results(rows: list[dict[str, object]]) -> str:
    columns = ["exp", "platform", "goal", "dnn1", "dnn2"]
    columns += [f"{s}_lat_ms" for s in SCHEDULERS]
    columns += ["improvement_pct"]
    return format_table(rows, columns, title="Table 6: Scenarios 2-4")


if __name__ == "__main__":
    print(format_results(run()))
