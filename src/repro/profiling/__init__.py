"""Decoupled offline profiling pipeline (paper Sections 3.2-3.3).

Produces everything the scheduler consumes, *standalone only* -- no
pairwise co-runs:

- per layer-group execution time on every DSA (the TensorRT
  ``IProfiler`` analogue),
- inter-DSA transition costs at every group boundary,
- per-group requested memory throughput and EMC utilization,
  including the paper's four-step black-box estimation for DSAs that
  expose no hardware counters,
- a per-platform, in-process profile database.
"""

from repro.profiling.profiler import (
    DNNProfile,
    GroupProfile,
    concat_profiles,
    profile_dnn,
)
from repro.profiling.blackbox import estimate_blackbox_bw, emc_utilization
from repro.profiling.database import ProfileDB

__all__ = [
    "DNNProfile",
    "GroupProfile",
    "concat_profiles",
    "profile_dnn",
    "estimate_blackbox_bw",
    "emc_utilization",
    "ProfileDB",
]
