"""Fig. 7: D-HaX-CoNN convergence across workload phases."""

from repro.core.workload import Workload
from repro.experiments import fig7_dynamic

from conftest import full_run


def test_fig7_dynamic(benchmark, save_report):
    if full_run():
        kwargs = {"phase_duration_s": 10.0}
    else:
        kwargs = {
            "phases": [
                Workload.concurrent(
                    "resnet152", "inception", objective="latency"
                ),
                Workload.concurrent(
                    "vgg19", "resnet152", objective="latency"
                ),
            ],
            "phase_duration_s": 3.0,
        }
    rows = benchmark.pedantic(
        fig7_dynamic.run, kwargs=kwargs, rounds=1, iterations=1
    )
    save_report("fig7_dynamic", fig7_dynamic.format_results(rows))

    for row in rows:
        # D-HaX-CoNN ends no worse than its naive start and reaches
        # the oracle (paper: convergence within 1.3-5.8 s)
        assert float(row["final_ms"]) <= float(row["initial_ms"])
        assert bool(row["converged"]), row
    assert any(
        float(r["final_ms"]) < float(r["initial_ms"]) * 0.98 for r in rows
    )
