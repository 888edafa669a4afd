"""Lower a schedule onto the simulator and execute it.

Every reported number in the experiment suite comes from here: the
scheduler's own prediction is never trusted.  Each layer group becomes
one :class:`~repro.soc.engine.SimTask`; inter-DSA transitions become
explicit flush (source DSA) and load (destination DSA) tasks that
occupy their accelerator and pull shared-memory bandwidth, just like
the ``MarkOutput``/``addInput`` reformatting the paper measures in
Table 2.  Inter-DNN synchronization (the paper's TensorRT plugin) is
realized as dependency edges between streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.haxconn import ScheduleResult
from repro.core.schedule import Schedule
from repro.perf.model import group_cost, transition_cost
from repro.profiling.profiler import DNNProfile
from repro.soc.engine import Engine, SimTask
from repro.soc.platform import Platform
from repro.soc.timeline import Timeline


@dataclass(frozen=True)
class ExecutionResult:
    """Ground-truth execution of one schedule on the simulator."""

    timeline: Timeline
    schedule: Schedule
    #: frames completed per stream during the round
    repeats: tuple[int, ...]

    @property
    def makespan_s(self) -> float:
        return self.timeline.makespan

    @property
    def latency_ms(self) -> float:
        """End-to-end latency of the whole round in milliseconds."""
        return self.timeline.makespan * 1e3

    def fps(self, frames_per_round: int = 1) -> float:
        """Frames/second given how many input frames one round covers."""
        if self.makespan_s <= 0:
            return float("inf")
        return frames_per_round / self.makespan_s

    def stream_time(self, dnn: int) -> float:
        """Completion time of stream ``dnn`` (seconds since round start)."""
        return self.timeline.completion(dnn=dnn)

    def energy_j(self, platform: Platform) -> float:
        """Active energy of the round: per-record duration times the
        executing accelerator's power draw (CPU-hosted helper tasks
        are free)."""
        total = 0.0
        for r in self.timeline.records:
            if r.accel == "cpu":
                continue
            total += r.duration * platform.accel(r.accel).active_power_w
        return total

    def stream_slowdown(self, dnn: int) -> float:
        """Duration-weighted contention slowdown of one stream's groups."""
        sel = [
            r
            for r in self.timeline.records
            if r.meta.get("dnn") == dnn and r.meta.get("role") == "group"
        ]
        base = sum(r.standalone_s for r in sel)
        if base <= 0:
            return 1.0
        return sum(r.duration for r in sel) / base


def build_tasks(
    schedule: Schedule,
    profiles: Sequence[DNNProfile],
    repeats: Sequence[int],
    platform: Platform,
    *,
    pipeline: Sequence[tuple[int, int]] = (),
) -> list[SimTask]:
    """Lower a schedule to simulator tasks with dependency edges.

    ``pipeline`` lists (upstream, downstream) stream pairs: frame *r*
    of the downstream waits for frame *r* of the upstream (paper
    Scenario 3).  With ``schedule.serialized`` the streams additionally
    chain back-to-back.
    """
    if len(schedule) != len(profiles):
        raise ValueError("schedule/profiles stream count mismatch")
    tasks: list[SimTask] = []
    last_of_rep: dict[tuple[int, int], str] = {}
    first_of_rep: dict[tuple[int, int], list[str]] = {}
    last_of_stream: dict[int, str] = {}

    for n, (dnn_schedule, profile) in enumerate(zip(schedule, profiles)):
        if len(dnn_schedule) != len(profile):
            raise ValueError(
                f"stream {n}: schedule covers {len(dnn_schedule)} groups, "
                f"profile has {len(profile)}"
            )
        for rep in range(repeats[n]):
            prev_task: str | None = (
                last_of_rep.get((n, rep - 1)) if rep > 0 else None
            )
            prev_accel: str | None = None
            for g, accel_name in enumerate(dnn_schedule):
                gp = profile.groups[g]
                accel = platform.accel(accel_name)
                if accel_name not in gp.time_s:
                    raise ValueError(
                        f"group {gp.label} of {profile.dnn_name} cannot "
                        f"run on {accel_name}"
                    )
                deps: list[str] = []
                if prev_task is not None:
                    deps.append(prev_task)
                if g > 0 and prev_accel is not None and prev_accel != accel_name:
                    src = platform.accel(prev_accel)
                    boundary = profile.groups[g - 1].group.output_elems
                    out_s, in_s = transition_cost(
                        boundary, src, accel, platform
                    )
                    raw_bytes = boundary * platform.dtype_bytes
                    out_bytes = raw_bytes * src.time_scale
                    in_bytes = raw_bytes * accel.time_scale
                    flush_id = f"d{n}r{rep}t{g}flush"
                    load_id = f"d{n}r{rep}t{g}load"
                    tasks.append(
                        SimTask(
                            task_id=flush_id,
                            accel=prev_accel,
                            compute_s=out_s,
                            dram_bytes=out_bytes,
                            max_bw=src.transition_bw_frac
                            * platform.dram_bandwidth,
                            deps=tuple(deps),
                            meta={
                                "dnn": n,
                                "rep": rep,
                                "group": g,
                                "role": "flush",
                            },
                        )
                    )
                    tasks.append(
                        SimTask(
                            task_id=load_id,
                            accel=accel_name,
                            compute_s=in_s,
                            dram_bytes=in_bytes,
                            max_bw=accel.transition_bw_frac
                            * platform.dram_bandwidth,
                            deps=(flush_id,),
                            meta={
                                "dnn": n,
                                "rep": rep,
                                "group": g,
                                "role": "load",
                            },
                        )
                    )
                    deps = [load_id]
                cost = group_cost(gp.group, accel, platform)
                task_id = f"d{n}r{rep}g{g}"
                tasks.append(
                    SimTask(
                        task_id=task_id,
                        accel=accel_name,
                        compute_s=cost.compute_s,
                        dram_bytes=cost.dram_bytes,
                        max_bw=max(cost.req_bw, 1.0),
                        deps=tuple(deps),
                        meta={
                            "dnn": n,
                            "rep": rep,
                            "group": g,
                            "role": "group",
                            "label": gp.label,
                        },
                    )
                )
                first_of_rep.setdefault((n, rep), []).append(task_id)
                prev_task = task_id
                prev_accel = accel_name
            last_of_rep[(n, rep)] = prev_task  # type: ignore[assignment]
        last_of_stream[n] = last_of_rep[(n, repeats[n] - 1)]

    extra_deps: dict[str, list[str]] = {}
    if schedule.serialized:
        for n in range(1, len(profiles)):
            for rep in range(repeats[n]):
                head = first_of_rep[(n, rep)][0]
                extra_deps.setdefault(head, []).append(last_of_stream[n - 1])
    for upstream, downstream in pipeline:
        common = min(repeats[upstream], repeats[downstream])
        for rep in range(common):
            head = first_of_rep[(downstream, rep)][0]
            extra_deps.setdefault(head, []).append(
                last_of_rep[(upstream, rep)]
            )
    if extra_deps:
        tasks = [
            t
            if t.task_id not in extra_deps
            else SimTask(
                task_id=t.task_id,
                accel=t.accel,
                compute_s=t.compute_s,
                dram_bytes=t.dram_bytes,
                max_bw=t.max_bw,
                deps=t.deps + tuple(extra_deps[t.task_id]),
                release_time=t.release_time,
                meta=t.meta,
            )
            for t in tasks
        ]
    return tasks


def _queues_from_prediction(
    tasks: Sequence[SimTask], result: ScheduleResult | None
) -> Mapping[str, Sequence[str]] | None:
    """Order each DSA's queue by the scheduler's predicted start times.

    Without a prediction the engine keeps construction order, which is
    correct for single-stream-per-DSA schedules; predictions matter
    when two streams interleave on one accelerator.
    """
    if result is None:
        return None
    predicted_start: dict[tuple[int, int, int], float] = {}
    for item in result.predicted.items:
        predicted_start[(item.dnn, item.rep, item.group)] = item.start
    def key(task: SimTask) -> float:
        meta = task.meta
        start = predicted_start.get(
            (meta["dnn"], meta["rep"], meta["group"]), 0.0
        )
        if meta.get("role") != "group":
            # transitions sort right before the group they feed
            start -= 1e-12
        return start

    queues: dict[str, list[str]] = {}
    order = {t.task_id: i for i, t in enumerate(tasks)}
    for task in sorted(tasks, key=lambda t: (key(t), order[t.task_id])):
        queues.setdefault(task.accel, []).append(task.task_id)
    return queues


def run_schedule(
    result: ScheduleResult,
    platform: Platform,
    *,
    repeats: Sequence[int] | None = None,
    pipeline: Sequence[tuple[int, int]] | None = None,
    contention: bool = True,
    background_bw: float = 0.0,
) -> ExecutionResult:
    """Execute a scheduling result on the simulator (ground truth).

    Pipeline dependencies default to the workload's own (carried on
    the formulation); pass an explicit sequence to override.

    The simulation is deterministic, so each distinct round is run
    once per result: later calls with equal inputs on the same
    ``platform`` object return the stored (immutable) execution.
    """
    formulation = result.formulation
    reps = tuple(repeats) if repeats is not None else formulation.repeats
    if pipeline is None:
        pipeline = getattr(formulation, "pipeline", ())
    pipeline = tuple(tuple(edge) for edge in pipeline)
    key = (reps, pipeline, contention, background_bw)
    memoized = result._executions.get(key)
    if memoized is not None and memoized[0] is platform:
        return memoized[1]
    tasks = build_tasks(
        result.schedule,
        formulation.profiles,
        reps,
        platform,
        pipeline=pipeline,
    )
    engine = Engine(
        platform, contention=contention, background_bw=background_bw
    )
    queues = _queues_from_prediction(tasks, result)
    timeline = engine.run(tasks, queues)
    execution = ExecutionResult(
        timeline=timeline, schedule=result.schedule, repeats=reps
    )
    result._executions[key] = (platform, execution)
    return execution
