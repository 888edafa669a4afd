"""SoC hardware substrate.

This package replaces the physical Jetson Orin / Xavier and Snapdragon
865 boards of the paper with an analytical-plus-simulated equivalent:

- :mod:`repro.soc.accelerator` -- per-DSA execution parameters,
- :mod:`repro.soc.platform` -- whole-SoC specs (Table 4) and registry,
- :mod:`repro.soc.engine` -- the discrete-event concurrent execution
  simulator with proportional shared-memory bandwidth arbitration;
  this is the *ground truth* every experiment measures against,
- :mod:`repro.soc.timeline` -- execution traces the engine emits.
"""

from repro.soc.accelerator import AcceleratorSpec
from repro.soc.platform import Platform, get_platform, available_platforms
from repro.soc.engine import (
    BandwidthExhaustedError,
    DeadlockError,
    Engine,
    SimTask,
)
from repro.soc.timeline import Timeline, TaskRecord

__all__ = [
    "AcceleratorSpec",
    "Platform",
    "get_platform",
    "available_platforms",
    "Engine",
    "SimTask",
    "DeadlockError",
    "BandwidthExhaustedError",
    "Timeline",
    "TaskRecord",
]
