#!/usr/bin/env python3
"""D-HaX-CoNN: a drone switching between mission modes (Section 3.5).

The drone alternates between *discovery* (wide-area detection +
classification) and *tracking* (tracker + segmentation) modes; each
switch changes the control-flow graph, so no static schedule fits.
D-HaX-CoNN starts each phase with the best naive schedule, runs the
anytime solver on a CPU core, and swaps in schedules the cost model
predicts are better at the paper's update instants until it reaches
the optimum (Fig. 7).

Run:  python examples/dynamic_drone.py
"""

from repro.core import DHaXCoNN, HaXCoNN, Workload
from repro.soc import get_platform

MODES = {
    "discovery": Workload.concurrent(
        "resnet101", "googlenet", objective="latency"
    ),
    "tracking": Workload.concurrent(
        "resnet18", "fcn_resnet18", objective="latency"
    ),
}


def main() -> None:
    platform = get_platform("orin")
    dynamic = DHaXCoNN(HaXCoNN(platform))

    for mode, workload in MODES.items():
        print(f"\n=== mode switch -> {mode} "
              f"({' + '.join(workload.names)}) ===")
        phase = dynamic.run_phase(workload, duration_s=5.0)
        print(f"{'t (s)':>8s}  {'active schedule latency':>24s}")
        for update in phase.updates:
            print(f"{update.time_s:8.3f}  {update.latency_ms:20.2f} ms   "
                  f"({update.schedule.meta.get('scheduler')})")
        print(f"oracle (certified optimum): "
              f"{phase.oracle_latency_ms:.2f} ms")
        if phase.converged:
            print(f"converged at t={phase.convergence_time_s:.3f}s")
        else:
            print("did not reach the oracle within the phase")
        frames = len(phase.frames)
        print(f"processed {frames} frames in {phase.duration_s:.0f}s "
              f"({frames / phase.duration_s:.1f} FPS average)")


if __name__ == "__main__":
    main()
