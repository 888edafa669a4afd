"""Static analysis: schedule certificates and determinism flow.

The solvers in :mod:`repro.solver` are cross-checked only against each
other; a shared misreading of a paper constraint would pass every
differential test.  This package closes that hole with two independent
checkers:

- :mod:`repro.analysis.verify` -- a **schedule certificate checker**
  that re-derives objectives and feasibility from first principles
  (per-layer latencies, Eq. 3 transition charges, Eqs. 7-8 contention
  slowdowns over the actual overlap windows) and checks every Eq. 1-11
  constraint, emitting structured :class:`~repro.analysis.diagnostics.
  Violation` records with a minimal failing-constraint core;
- :mod:`repro.analysis.flow` -- the **static analysis** of the codebase
  itself: per-line rules (HAX001-HAX008: seeded randomness, no
  wall-clock reads in virtual-time code, locked shared-state mutation
  in workers, no unordered iteration feeding schedule construction)
  and whole-program determinism-flow rules (HAX101-HAX111), gated by
  one checked-in baseline.

Both surface through ``haxconn verify`` / ``haxconn flow`` and the
``lint-and-verify`` CI job.
"""

from repro.analysis.diagnostics import (
    Certificate,
    CertificateError,
    Violation,
    ViolationKind,
    require,
)
from repro.analysis.verify import (
    verify_assignment,
    verify_cache_entry,
    verify_items,
    verify_result,
    verify_schedule,
    verify_solve,
)

__all__ = [
    "Certificate",
    "CertificateError",
    "Violation",
    "ViolationKind",
    "require",
    "verify_assignment",
    "verify_cache_entry",
    "verify_items",
    "verify_result",
    "verify_schedule",
    "verify_solve",
]
