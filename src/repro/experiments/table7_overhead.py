"""Table 7: overhead of running the solver during inference.

AlexNet executes on the DLA while another DNN runs on the GPU; the
solver occupies a CPU core and pulls a small amount of DRAM bandwidth.
The paper measures <= 2% slowdown on the DNN execution.  We model the
solver's memory footprint as a constant background bandwidth demand
(Z3's working set is small and cache-resident, so its DRAM traffic is
tiny) and compare co-run latency with and without it.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.baselines import naive_concurrent
from repro.core.workload import Workload
from repro.experiments.common import format_table, get_db
from repro.runtime.executor import run_schedule
from repro.soc.platform import get_platform

#: the paper's Table 7 co-runner set
DEFAULT_CORUNNERS = (
    "caffenet",
    "densenet",
    "googlenet",
    "inc-res-v2",
    "inception",
    "mobilenet",
    "resnet18",
    "resnet52",
    "resnet101",
    "resnet152",
    "vgg16",
    "vgg19",
)

#: DRAM traffic of the solver process on its CPU core; Z3-like solvers
#: are pointer-chasing and largely cache-resident, so ~1 GB/s is a
#: generous upper bound on an Orin-class memory system
SOLVER_BW = 1.0e9


def run(
    platform_name: str = "orin",
    corunners: Sequence[str] = DEFAULT_CORUNNERS,
) -> list[dict[str, object]]:
    platform = get_platform(platform_name)
    db = get_db(platform_name)
    dsa = platform.dsa.name
    gpu = platform.gpu.name
    rows: list[dict[str, object]] = []
    for other in corunners:
        workload = Workload.concurrent("alexnet", other, objective="latency")
        # AlexNet on the DSA, the co-runner on the GPU
        result = naive_concurrent(
            workload, platform, db=db, orientation=(dsa, gpu)
        )
        base = run_schedule(result, platform)
        with_solver = run_schedule(
            result, platform, background_bw=SOLVER_BW
        )
        overhead = (
            (with_solver.latency_ms - base.latency_ms)
            / base.latency_ms
            * 100
        )
        rows.append(
            {
                "corunner": other,
                "base_ms": base.latency_ms,
                "with_solver_ms": with_solver.latency_ms,
                "overhead_pct": overhead,
            }
        )
    return rows


def format_results(rows: list[dict[str, object]]) -> str:
    return format_table(
        rows,
        ["corunner", "base_ms", "with_solver_ms", "overhead_pct"],
        title="Table 7: solver co-run overhead (AlexNet on DLA + DNN on GPU)",
    )


if __name__ == "__main__":
    print(format_results(run()))
