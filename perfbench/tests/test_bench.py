"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke runs take about two minutes on a 2-core host.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import common, hostspeed, layers, run, workloads  # noqa: E402

#: never used while tuning the benchmark (tuning used seeds 1-5)
HELD_OUT_SEED = 424242


@pytest.fixture(scope="module", autouse=True)
def sources():
    common.use_checkout_sources()


def _serve_fingerprint(seed: int):
    population = workloads.serve_population(seed)
    return [
        (t.name, t.models, t.arrivals.times_within(population.horizon_s))
        for t in population.tenants
    ]


def test_same_seed_same_inputs():
    assert workloads.cold_inputs(7) == workloads.cold_inputs(7)
    assert _serve_fingerprint(7) == _serve_fingerprint(7)


def test_other_seed_other_inputs():
    assert workloads.cold_inputs(7) != workloads.cold_inputs(8)
    assert _serve_fingerprint(7) != _serve_fingerprint(8)


def test_cold_inputs_cover_the_catalogue():
    scenarios = workloads.cold_inputs(3)
    assert {s.platform for s in scenarios} == set(common.PLATFORMS)
    assert {s.objective for s in scenarios} == set(common.OBJECTIVES)
    assert {len(s.models) for s in scenarios} == {2, 3}
    assert len(scenarios) == len(workloads.catalogue())


def test_balanced_router_places_the_population_the_same_for_every_seed():
    from repro.serve.fleet import ShardRouter

    placements = set()
    for seed in range(12):
        population = workloads.serve_population(seed)
        buckets = ShardRouter(2, mode="balanced").assign(
            population.tenants,
            horizon_s=population.horizon_s,
            admission=population.admission,
        )
        placements.add(tuple(tuple(t.name for t in b) for b in buckets))
    assert len(placements) == 1


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_restores_every_wrapped_function():
    from repro.core.evalcache import EvalEngine
    from repro.serve import server

    before = (EvalEngine.evaluate, server.run_schedule)
    with layers.Tracer() as tracer:
        layers.install(tracer)
        assert EvalEngine.evaluate is not before[0]
    assert (EvalEngine.evaluate, server.run_schedule) == before


def test_self_times_do_not_double_count():
    ticks = iter(range(100))
    tracer = layers.Tracer(clock=lambda: float(next(ticks)))

    class Box:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Box.inner() + Box.inner()

    tracer.wrap(Box, "inner", "soc")
    tracer.wrap(Box, "outer", "server")
    assert Box.outer() == 2
    tracer.uninstall()
    # outer spans ticks 0..5, each inner call one tick
    assert tracer.self_s["soc"] == 2.0
    assert tracer.self_s["server"] == 3.0
    assert tracer.calls == {"soc": 2, "server": 1}


def test_host_scaling_divides_by_the_probed_slowdown(monkeypatch):
    probes = iter([2 * hostspeed.NOMINAL_PROBE_S] * 2)
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    clock = hostspeed.Measured()
    value, raw, scaled = clock.run(lambda: 7)
    assert value == 7
    assert scaled == pytest.approx(raw / 2)
    assert clock.speed() == pytest.approx(0.5)


def test_stop_helpers_ends_the_shared_memory_tracker():
    import multiprocessing
    import os
    from multiprocessing import resource_tracker, shared_memory

    # a fleet run over shm rings starts the tracker the same way
    ring = shared_memory.SharedMemory(create=True, size=16)
    ring.close()
    ring.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    worker = multiprocessing.get_context("fork").Process(target=int)
    worker.start()
    run.stop_helpers()
    assert not multiprocessing.active_children()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [
        ("solve-cold", "0"),
        ("solve-cold", "1"),
        ("serve-shift", "0"),
        ("serve-warm", "0"),
        ("serve-warm", "1"),
    ],
)
def test_smoke_run_passes_every_check(workload, trace):
    done = _bench(
        "--workload",
        workload,
        "--seed",
        str(HELD_OUT_SEED),
        "--seconds",
        "0",
        "--trace",
        trace,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _bench(
        "--workload", "solve-cold", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
